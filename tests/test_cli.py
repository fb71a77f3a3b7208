import csv
import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from contda import cli, datagen, harness, model
from contda.errors import NumericError
from test_datagen import ORACLE_SPECS, blob_spec, sorted_list_split


def write_tiny_dataset(root, n_domains=3, n_classes=3, per_class=20, seed=11):
    """Dataset directory in the import format, small enough for fast runs."""
    os.makedirs(root, exist_ok=True)
    specs = [dict(kind=datagen.KIND_BLOBS, n_classes=n_classes,
                  per_class=per_class, rotation_deg=12.0 * i, scale=1.0,
                  translation=[0.0, 0.0], radius=2.0, std=0.25)
             for i in range(n_domains)]
    with open(os.path.join(root, "data_manifest.json"), "w") as fh:
        json.dump({"preset": None, "seed": seed, "specs": specs}, fh)
    domains = datagen.generate_sequence(
        [datagen.DomainSpec(**{**s, "translation": tuple(s["translation"])})
         for s in specs], seed)
    for i, d in enumerate(domains):
        cli.write_domain_csv(d, os.path.join(root, f"domain_{i}.csv"))
    return root


def tiny_cfg(dataset, out, **kw):
    cfg = {"strategy": "crt_src", "dataset": str(dataset), "output_dir": str(out),
           "seed": 3, "pretrain_epochs": 4, "warm_epochs": 1,
           "epochs_per_domain": 1, "batch_size": 16, "hidden_dim": 8,
           "proj_hidden_dim": 8, "embed_dim": 4, "negatives": 8,
           "temperature": 0.2, "memory_capacity": 12}
    cfg.update(kw)
    return cfg


def write_cfg(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


def test_validate_config_accepts_minimal():
    cfg = cli.validate_config({"strategy": "grcl", "output_dir": "out",
                               "preset": "rot-blobs-5", "seed": 1})
    assert cfg["strategy"] == "grcl"


def test_validate_config_rejections():
    ok = {"strategy": "grcl", "output_dir": "o", "preset": "rot-blobs-5",
          "seed": 1}
    cases = [
        ({**ok, "typo_key": 1}, "unknown config keys"),
        ({k: v for k, v in ok.items() if k != "strategy"}, "missing required"),
        ({k: v for k, v in ok.items() if k != "output_dir"}, "missing required"),
        ({**ok, "dataset": "d"}, "preset or dataset"),
        ({k: v for k, v in ok.items() if k != "preset"}, "preset or dataset"),
        ({**ok, "seeds": [1, 2]}, "seed or seeds"),
        ({k: v for k, v in ok.items() if k != "seed"}, "seed or seeds"),
        ({**ok, "lr": "fast"}, "must be of type"),
        ({**ok, "batch_size": 1.5}, "must be an integer"),
        ({**ok, "batch_size": True}, "must be an integer"),
        ({**ok, "preset": "no-such"}, "unknown preset"),
        ({**ok, "diagnostics": "verbose"}, "diagnostics"),
        ({**ok, "seed": -1}, "non-negative"),
    ]
    for raw, fragment in cases:
        with pytest.raises(cli.ConfigError, match=fragment):
            cli.validate_config(raw)
    seeds_cfg = {k: v for k, v in ok.items() if k != "seed"}
    for bad_seeds in ([], [1, True], ["a"], [3, -2]):
        with pytest.raises(cli.ConfigError):
            cli.validate_config({**seeds_cfg, "seeds": bad_seeds})
    # a repeated seed would run twice into one seed_<s>/ directory
    with pytest.raises(cli.ConfigError, match="repeat"):
        cli.validate_config({**seeds_cfg, "seeds": [3, 3]})


def test_validate_config_coerces_int_to_float():
    cfg = cli.validate_config({"strategy": "grcl", "output_dir": "o",
                               "preset": "rot-blobs-5", "seed": 1, "lr": 1})
    assert cfg["lr"] == 1.0 and isinstance(cfg["lr"], float)


def test_validate_config_rejects_bad_plan_settings():
    ok = {"strategy": "grcl", "output_dir": "o", "preset": "rot-blobs-5",
          "seed": 1}
    for name in ("warp_drive", "crt_src_mem"):
        with pytest.raises(cli.ConfigError,
                           match="invalid plan settings: unknown strategy"):
            cli.validate_config({**ok, "strategy": name})
    with pytest.raises(cli.ConfigError, match="invalid plan settings"):
        cli.validate_config({**ok, "batch_size": 2})
    with pytest.raises(cli.ConfigError, match="invalid plan settings"):
        cli.validate_config({**ok, "ratio_source": 0.9, "ratio_memory": 0.9})
    for bad in ({"temperature": -0.2}, {"temperature": 0}, {"negatives": -1},
                {"memory_capacity": 0}, {"bank_momentum": 1.5},
                {"hidden_dim": 0}, {"proj_hidden_dim": 0}, {"embed_dim": 0},
                {"pretrain_epochs": -1}, {"warm_epochs": -1},
                {"epochs_per_domain": -1}):
        with pytest.raises(cli.ConfigError, match="invalid plan settings"):
            cli.validate_config({**ok, **bad})
    # JSON's NaN and Infinity parse to floats the range checks cannot see
    for name in ("lr", "pretrain_lr", "lambda_source", "lambda_memory",
                 "ratio_source", "ratio_memory"):
        for text in ("NaN", "Infinity", "-Infinity"):
            raw = json.loads(json.dumps(ok)[:-1] + f', "{name}": {text}}}')
            with pytest.raises(cli.ConfigError, match="must be finite"):
                cli.validate_config(raw)


def test_validate_config_accepts_every_plan_field():
    # every AdaptationPlan field except the seed is a config key of its
    # declared type; a value of another type is rejected
    ok = {"strategy": "grcl", "output_dir": "o", "preset": "rot-blobs-5",
          "seed": 1}
    defaults = harness.AdaptationPlan(strategy="grcl")
    fields = [f for f in dataclasses.fields(harness.AdaptationPlan)
              if f.name != "seed"]
    assert sorted(cli._PLAN_FIELDS) == sorted(f.name for f in fields)
    for f in fields:
        value = getattr(defaults, f.name)
        assert type(value) is f.type
        cfg = cli.validate_config({**ok, f.name: value})
        assert cfg[f.name] == value and type(cfg[f.name]) is f.type
        with pytest.raises(cli.ConfigError, match="must be"):
            cli.validate_config({**ok, f.name: [value]})
    with pytest.raises(cli.ConfigError, match="unknown config keys"):
        cli.validate_config({**ok, "seed": 1, "plan_seed": 2})


def test_derive_seeds_deterministic_and_distinct():
    a = cli.derive_seeds(0)
    assert a == cli.derive_seeds(0)
    assert a[0] != a[1]
    assert cli.derive_seeds(1) != a


def test_write_matrix_csv_blank_above_diagonal(tmp_path):
    m = harness.AccuracyMatrix.empty(2)
    m.set_row(0, [1.0])
    m.set_row(1, [0.9, 0.8])
    m.set_row(2, [0.85, 0.75, 0.8])
    path = tmp_path / "rmatrix.csv"
    cli.write_matrix_csv(m, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "after_domain,d0,d1,d2"
    assert lines[1] == "0,1.0,,"
    assert lines[3] == "2,0.85,0.75,0.8"


def test_write_metrics_json_maps_nan_to_null(tmp_path):
    path = tmp_path / "metrics.json"
    cli.write_metrics_json(harness.Metrics(acc=1.5, acc_mean=0.75,
                                           bwt=float("nan")), path)
    data = json.loads(path.read_text())
    assert data == {"acc": 1.5, "acc_mean": 0.75, "bwt": None}


def test_run_command_produces_artifacts(tmp_path):
    data = write_tiny_dataset(tmp_path / "data")
    out = tmp_path / "out"
    cfg_path = write_cfg(tmp_path / "run.json", tiny_cfg(data, out))
    assert cli.main(["run", cfg_path]) == 0
    assert (out / "manifest.json").exists()
    assert (out / "metrics.json").exists()
    seed_dir = out / "seed_3"
    assert (seed_dir / "rmatrix.csv").exists()
    assert (seed_dir / "metrics.json").exists()
    assert (seed_dir / "diagnostics.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["strategy"] == "crt_src"
    assert manifest["seeds"] == [3]
    aggregate = json.loads((out / "metrics.json").read_text())
    assert set(aggregate) == {"seeds", "acc", "acc_mean", "bwt"}
    assert aggregate["acc"]["std"] == 0.0


def test_run_command_repeats_bitwise_identical(tmp_path):
    data = write_tiny_dataset(tmp_path / "data")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = write_cfg(tmp_path / "a.json", tiny_cfg(data, out_a, strategy="grcl"))
    cfg_b = write_cfg(tmp_path / "b.json", tiny_cfg(data, out_b, strategy="grcl"))
    assert cli.main(["run", cfg_a]) == 0
    assert cli.main(["run", cfg_b]) == 0
    for rel in ("seed_3/rmatrix.csv", "seed_3/metrics.json",
                "seed_3/diagnostics.csv", "metrics.json"):
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


def test_run_command_diagnostics_none(tmp_path):
    data = write_tiny_dataset(tmp_path / "data")
    out = tmp_path / "out"
    cfg_path = write_cfg(tmp_path / "run.json",
                         tiny_cfg(data, out, diagnostics="none"))
    assert cli.main(["run", cfg_path]) == 0
    assert not (out / "seed_3" / "diagnostics.csv").exists()


def test_run_command_multi_seed_aggregate(tmp_path):
    data = write_tiny_dataset(tmp_path / "data")
    out = tmp_path / "out"
    cfg = tiny_cfg(data, out)
    del cfg["seed"]
    cfg["seeds"] = [1, 2]
    cfg_path = write_cfg(tmp_path / "run.json", cfg)
    assert cli.main(["run", cfg_path]) == 0
    assert (out / "seed_1").is_dir() and (out / "seed_2").is_dir()
    aggregate = json.loads((out / "metrics.json").read_text())
    a1 = json.loads((out / "seed_1" / "metrics.json").read_text())
    a2 = json.loads((out / "seed_2" / "metrics.json").read_text())
    accs = np.array([a1["acc"], a2["acc"]])
    np.testing.assert_allclose(aggregate["acc"]["mean"], accs.mean())
    np.testing.assert_allclose(aggregate["acc"]["std"], accs.std())


def test_run_reads_a_dataset_once_for_every_seed(tmp_path, monkeypatch):
    # imported data does not depend on the seed: a three-seed run reads
    # each domain file once, and each seed's artifacts are those of a run
    # of that seed alone
    data = write_tiny_dataset(tmp_path / "data", n_domains=4)
    real, reads = cli.read_domain_csv, []

    def counting(path, spec):
        reads.append(os.path.basename(path))
        return real(path, spec)

    monkeypatch.setattr(cli, "read_domain_csv", counting)
    cfg = tiny_cfg(data, tmp_path / "all")
    del cfg["seed"]
    cfg["seeds"] = [1, 2, 3]
    cli.run_config(cli.validate_config(cfg))
    assert reads == [f"domain_{i}.csv" for i in range(4)]
    for seed in cfg["seeds"]:
        alone = tmp_path / f"alone_{seed}"
        cli.run_config(cli.validate_config(tiny_cfg(data, alone, seed=seed)))
        for name in ("rmatrix.csv", "metrics.json", "diagnostics.csv"):
            assert ((tmp_path / "all" / f"seed_{seed}" / name).read_bytes()
                    == (alone / f"seed_{seed}" / name).read_bytes()), name


def preset_cfg(out, seeds):
    """A short moons-4 run config of these seeds, adaptation included."""
    return cli.validate_config({
        "strategy": "grcl", "preset": "moons-4", "output_dir": str(out),
        "seeds": seeds, "pretrain_epochs": 2, "warm_epochs": 1,
        "epochs_per_domain": 1, "hidden_dim": 8, "proj_hidden_dim": 8,
        "embed_dim": 4, "negatives": 16, "memory_capacity": 16})


def test_multi_seed_preset_run_writes_each_seeds_bytes(tmp_path):
    # the seeds of one preset run, each with its own generated sequence and
    # all pretrained in lockstep, write the bytes of one-seed runs
    seeds = [1, 4, 9]
    cli.run_config(preset_cfg(tmp_path / "all", seeds))
    for seed in seeds:
        alone = tmp_path / f"alone_{seed}"
        cli.run_config(preset_cfg(alone, [seed]))
        for name in ("rmatrix.csv", "metrics.json", "diagnostics.csv"):
            assert ((tmp_path / "all" / f"seed_{seed}" / name).read_bytes()
                    == (alone / f"seed_{seed}" / name).read_bytes()), name


def test_pretraining_failure_stops_every_seed_before_artifacts(
        tmp_path, monkeypatch, capsys):
    # every seed is pretrained before the first seed's artifacts are
    # written, so pretraining that fails once it reaches the last seed's
    # model leaves the manifest and no seed's files
    real, models = model.descend_ce, [0]

    def failing(config, flat, *args):
        real(config, flat, *args)
        models[0] += len(flat)
        if models[0] == 3:
            raise NumericError("pretraining diverged")

    monkeypatch.setattr(model, "descend_ce", failing)
    out = tmp_path / "out"
    cfg_path = write_cfg(tmp_path / "run.json", preset_cfg(out, [1, 4, 9]))
    assert cli.main(["run", cfg_path]) == 3
    assert "error: run failed: pretraining diverged" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["manifest.json"]


def test_run_writes_only_under_output_dir(tmp_path, monkeypatch):
    # the config's output_dir is the one place a run writes, whatever
    # the environment holds
    data = write_tiny_dataset(tmp_path / "data")
    elsewhere = tmp_path / "elsewhere"
    monkeypatch.setenv("CONTDA_OUTPUT_DIR", str(elsewhere))
    out = tmp_path / "out"
    cfg_path = write_cfg(tmp_path / "run.json", tiny_cfg(data, out))
    assert cli.main(["run", cfg_path]) == 0
    assert (out / "manifest.json").exists()
    assert (out / "seed_3" / "rmatrix.csv").exists()
    assert not elsewhere.exists()


def test_run_exit_codes(tmp_path):
    # unreadable and malformed configs
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad)]) == 2
    # valid schema, bad plan value
    data = write_tiny_dataset(tmp_path / "data")
    cfg_path = write_cfg(tmp_path / "badplan.json",
                         tiny_cfg(data, tmp_path / "o", batch_size=2))
    assert cli.main(["run", cfg_path]) == 2
    # valid schema, dataset directory missing: configuration, not numerics
    cfg_path = write_cfg(tmp_path / "nodata.json",
                         tiny_cfg(tmp_path / "nope", tmp_path / "o2"))
    assert cli.main(["run", cfg_path]) == 2
    # a negative seed is refused before anything is written, also when
    # an earlier entry of seeds is valid
    cfg = tiny_cfg(data, tmp_path / "o3", seed=-1)
    assert cli.main(["run", write_cfg(tmp_path / "neg.json", cfg)]) == 2
    del cfg["seed"]
    cfg["seeds"] = [3, -2]
    assert cli.main(["run", write_cfg(tmp_path / "negs.json", cfg)]) == 2
    assert not (tmp_path / "o3").exists()


def test_run_exit_code_negatives_above_bank_size(tmp_path, capsys):
    # more negatives than the bank holds outside one batch is a setting the
    # run cannot use: a config error, found once the data is loaded.  The
    # warm-up's bank is the source split, and a batch of 16 leaves
    # bank - 16 rows outside it, so bank - 8 is too many
    data = write_tiny_dataset(tmp_path / "data")
    bank_rows = len(cli.import_dataset(data)[0].train)
    for negatives in (5000, bank_rows - 8):
        cfg = tiny_cfg(data, tmp_path / "o", negatives=negatives)
        cfg_path = write_cfg(tmp_path / "run.json", cfg)
        assert cli.main(["run", cfg_path]) == 2
        assert "outside a batch" in capsys.readouterr().err


def test_run_exit_code_malformed_dataset(tmp_path):
    # a dataset directory that cannot be read is a config error, exit 2,
    # and the run it stops leaves no manifest behind
    def run_on(name, damage):
        root = write_tiny_dataset(tmp_path / name)
        damage(os.path.join(root, "data_manifest.json"), root)
        cfg_path = write_cfg(tmp_path / f"{name}.json",
                             tiny_cfg(root, tmp_path / f"o_{name}"))
        code = cli.main(["run", cfg_path])
        assert not (tmp_path / f"o_{name}" / "manifest.json").exists(), name
        return code

    def rewrite(path, edit):
        with open(path) as fh:
            meta = json.load(fh)
        edit(meta)
        with open(path, "w") as fh:
            json.dump(meta, fh)

    def write(path, text):
        with open(path, "w") as fh:
            fh.write(text)

    def drop_coordinates(root):
        # every domain cut to id,split,label: zero-width inputs
        for name in os.listdir(root):
            if name.startswith("domain_"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    lines = fh.read().splitlines()
                write(path, "".join(",".join(line.split(",")[:3]) + "\n"
                                    for line in lines))

    cases = {
        "bad_json": lambda m, root: write(m, "{not json"),
        "no_specs": lambda m, root: rewrite(m, lambda meta: meta.pop("specs")),
        "no_spec_key": lambda m, root: rewrite(
            m, lambda meta: meta["specs"][1].pop("std")),
        "unknown_spec_key": lambda m, root: rewrite(
            m, lambda meta: meta["specs"][1].update(sigma=9.0)),
        # a spec field of the wrong type, checked as a run config's are
        "str_n_classes": lambda m, root: rewrite(
            m, lambda meta: meta["specs"][1].update(n_classes="3")),
        "float_n_classes": lambda m, root: rewrite(
            m, lambda meta: meta["specs"][1].update(n_classes=3.0)),
        "str_std": lambda m, root: rewrite(
            m, lambda meta: meta["specs"][0].update(std="0.25")),
        # a run needs a source and at least one target domain
        "no_domains": lambda m, root: rewrite(
            m, lambda meta: meta.update(specs=[])),
        "one_domain": lambda m, root: rewrite(
            m, lambda meta: meta.update(specs=meta["specs"][:1])),
        "missing_csv": lambda m, root: os.remove(os.path.join(root, "domain_2.csv")),
        "garbled_csv": lambda m, root: write(os.path.join(root, "domain_1.csv"),
                                             "id,split,label,x0\nd1:0,train,one,0.5\n"),
        "empty_csv": lambda m, root: write(os.path.join(root, "domain_0.csv"), ""),
        "no_coordinates": lambda m, root: drop_coordinates(root),
    }
    for name, damage in cases.items():
        assert run_on(name, damage) == 2, name


def test_run_exit_code_unusable_dataset_values(tmp_path):
    # readable domain files whose values the run cannot use are config
    # errors, exit 2: a label outside [0, n_classes) in either split or
    # beyond int64, a non-finite coordinate, a domain wider than domain 0,
    # rows wider than their header, a blank or two-cell line, named by its
    # number, an empty split, a class absent from the source train split
    # and a target train split with fewer rows than classes
    def edit_domain(name, index, edit):
        root = write_tiny_dataset(tmp_path / name)
        path = os.path.join(root, f"domain_{index}.csv")
        with open(path) as fh:
            lines = fh.read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(edit(lines)) + "\n")
        return root

    def set_cell(split, column, value):
        def edit(lines):
            i = next(i for i, line in enumerate(lines)
                     if line.split(",")[1] == split)
            cells = lines[i].split(",")
            cells[column] = value
            lines[i] = ",".join(cells)
            return lines
        return edit

    cases = {
        "holdout_label_3": set_cell("holdout", 2, "3"),
        "train_label_-1": set_cell("train", 2, "-1"),
        "train_label_2**64": set_cell("train", 2, str(2 ** 64)),
        "train_nan": set_cell("train", 3, "nan"),
        "holdout_inf": set_cell("holdout", 4, "inf"),
        "train_-inf": set_cell("train", 4, "-inf"),
        "wider_domain": lambda lines: ([lines[0] + ",x2"]
                                       + [line + ",0.5" for line in lines[1:]]),
        "wider_rows": lambda lines: lines[:1] + [line + ",0.5"
                                                for line in lines[1:]],
        "no_holdout": lambda lines: [line for line in lines
                                     if line.split(",")[1] != "holdout"],
        "one_train_row": lambda lines: lines[:2] + [
            line for line in lines[2:] if line.split(",")[1] != "train"],
    }
    cases = {name: (1, edit, None) for name, edit in cases.items()}
    cases["source_train_lacks_class_1"] = (0, lambda lines: [
        line for line in lines if line.split(",")[1:3] != ["train", "1"]], None)
    # the header and 60 rows fill lines 1 to 61
    cases["trailing_blank_line"] = (1, lambda lines: lines + [""],
                                    "domain_1.csv: line 62 has 0 cells")
    cases["two_cell_row"] = (1, lambda lines: lines[:4] + ["d1:00009,train"]
                             + lines[5:], "domain_1.csv: line 5 has 2 cells")
    for name, (index, edit, match) in cases.items():
        root = edit_domain(name, index, edit)
        with pytest.raises(cli.ConfigError, match=match):
            cli.import_dataset(root)
        for strategy in ("crt_src", "src_only"):
            out = tmp_path / f"o_{name}_{strategy}"
            cfg_path = write_cfg(tmp_path / f"{name}_{strategy}.json",
                                 tiny_cfg(root, out, strategy=strategy))
            assert cli.main(["run", cfg_path]) == 2, (name, strategy)
            assert not (out / "manifest.json").exists(), (name, strategy)


def test_run_exit_code_unwritable_output(tmp_path, capsys):
    # an output_dir under a regular file cannot be made
    blocker = tmp_path / "afile"
    blocker.write_text("")
    data = write_tiny_dataset(tmp_path / "data")
    cfg_path = write_cfg(tmp_path / "run.json",
                         tiny_cfg(data, blocker / "out"))
    assert cli.main(["run", cfg_path]) == 2
    assert "error: cannot write output:" in capsys.readouterr().err


def test_export_data_exit_code_unwritable_output(tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    assert cli.main(["export-data", "--preset", "moons-4", "--seed", "1",
                     "--output", str(blocker / "x")]) == 2
    assert "error: cannot write output:" in capsys.readouterr().err


def test_run_exit_code_numeric_failure(tmp_path, capsys):
    # a learning rate of 1e300 passes config validation, then its first
    # step sends the embeddings to overflow and the bank update fails
    data = write_tiny_dataset(tmp_path / "data")
    cfg_path = write_cfg(tmp_path / "run.json",
                         tiny_cfg(data, tmp_path / "o", lr=1e300))
    with np.errstate(over="ignore"):
        assert cli.main(["run", cfg_path]) == 3
    assert ("error: run failed: momentum blend produced a zero key"
            in capsys.readouterr().err)


def test_run_exit_code_class_count_mismatch(tmp_path, capsys):
    # a manifest whose domains disagree on class count is a dataset the
    # run cannot use
    root = tmp_path / "data"
    write_tiny_dataset(root, n_domains=2, n_classes=3)
    other = datagen.generate_domain(
        datagen.DomainSpec(kind=datagen.KIND_BLOBS, n_classes=4, per_class=20,
                           rotation_deg=24.0, radius=2.0, std=0.25),
        2, np.random.default_rng(0))
    cli.write_domain_csv(other, root / "domain_2.csv")
    manifest = json.loads((root / "data_manifest.json").read_text())
    manifest["specs"].append({**manifest["specs"][0], "n_classes": 4,
                              "rotation_deg": 24.0})
    (root / "data_manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(cli.ConfigError, match="domain 2 has 4 classes"):
        cli.import_dataset(root)
    cfg_path = write_cfg(tmp_path / "run.json", tiny_cfg(root, tmp_path / "o"))
    assert cli.main(["run", cfg_path]) == 2
    assert "domain 2 has 4 classes, domain 0 has 3" in capsys.readouterr().err


def test_run_exit_code_batch_without_target_rows(tmp_path, capsys):
    # ratios that leave a batch no target row, with or without memories
    # to draw from, are config errors before any training; the target
    # takes 1 - ratio_source - ratio_memory
    data = write_tiny_dataset(tmp_path / "data")
    share = "sum below 1, leaving the target its share"
    cases = {"1/0": ((1.0, 0.0), share), "0/1": ((0.0, 1.0), share),
             "memory": ((0.5, 0.495), "no room for target samples")}
    for name, (ratios, message) in cases.items():
        cfg = tiny_cfg(data, tmp_path / "o", batch_size=64,
                       **dict(zip(("ratio_source", "ratio_memory"), ratios)))
        cfg_path = write_cfg(tmp_path / "run.json", cfg)
        assert cli.main(["run", cfg_path]) == 2, name
        assert message in capsys.readouterr().err, name


def test_run_exit_code_ratio_target_is_unknown(tmp_path, capsys):
    # the target's share is derived, so naming it is an unknown key
    data = write_tiny_dataset(tmp_path / "data")
    cfg = tiny_cfg(data, tmp_path / "o", ratio_target=0.5)
    assert cli.main(["run", write_cfg(tmp_path / "run.json", cfg)]) == 2
    assert "unknown config keys: ratio_target" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_compare_command(tmp_path):
    data = write_tiny_dataset(tmp_path / "data")
    cfg1 = write_cfg(tmp_path / "c1.json",
                     tiny_cfg(data, tmp_path / "o1", strategy="src_only"))
    cfg2 = write_cfg(tmp_path / "c2.json",
                     tiny_cfg(data, tmp_path / "o2", strategy="crt_src"))
    table = tmp_path / "table.csv"
    assert cli.main(["compare", cfg1, cfg2, "--output", str(table)]) == 0
    lines = table.read_text().strip().splitlines()
    assert lines[0] == "strategy,n_seeds,acc_mean,acc_std,bwt_mean,bwt_std"
    assert len(lines) == 3
    assert lines[1].startswith("src_only,1,")
    assert lines[2].startswith("crt_src,1,")
    for line, out in zip(lines[1:], ("o1", "o2")):
        aggregate = json.loads((tmp_path / out / "metrics.json").read_text())
        assert float(line.split(",")[2]) == aggregate["acc"]["mean"]


def test_compare_rejects_mismatched_sources(tmp_path):
    data1 = write_tiny_dataset(tmp_path / "d1")
    data2 = write_tiny_dataset(tmp_path / "d2")
    cfg1 = write_cfg(tmp_path / "c1.json", tiny_cfg(data1, tmp_path / "o1"))
    cfg2 = write_cfg(tmp_path / "c2.json", tiny_cfg(data2, tmp_path / "o2"))
    assert cli.main(["compare", cfg1, cfg2]) == 2
    assert cli.main(["compare", cfg1]) == 2


def test_export_data_roundtrip(tmp_path):
    out = tmp_path / "moons"
    assert cli.main(["export-data", "--preset", "moons-4", "--seed", "9",
                     "--output", str(out)]) == 0
    assert (out / "data_manifest.json").exists()
    domains = cli.import_dataset(str(out))
    direct = datagen.generate_sequence(datagen.preset_specs("moons-4"), 9)
    assert len(domains) == len(direct)
    for a, b in zip(domains, direct):
        assert a.train.ids == b.train.ids
        np.testing.assert_array_equal(a.train.X, b.train.X)
        np.testing.assert_array_equal(a.holdout.y, b.holdout.y)
    assert cli.main(["export-data", "--preset", "bogus", "--seed", "1",
                     "--output", str(tmp_path / "x")]) == 2
    assert cli.main(["export-data", "--preset", "moons-4", "--seed", "-1",
                     "--output", str(tmp_path / "neg")]) == 2
    assert not (tmp_path / "neg").exists()


def test_export_bytes_are_pinned(tmp_path):
    # the bytes of rot-blobs-5 at seed 7, manifest first, then the domains
    out = tmp_path / "blobs"
    assert cli.main(["export-data", "--preset", "rot-blobs-5", "--seed", "7",
                     "--output", str(out)]) == 0
    h = hashlib.sha256((out / "data_manifest.json").read_bytes())
    for path in sorted(out.glob("domain_*.csv")):
        h.update(path.read_bytes())
    assert h.hexdigest() == ("c460914820d2c4b47be633351a52db12"
                             "57659690cbc9d5feaac42626fbd7a469")


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_export_matches_eager_id_writer(spec, tmp_path):
    d = datagen.generate_domain(spec, 12, np.random.default_rng(5))
    cli.write_domain_csv(d, tmp_path / "export.csv")
    with open(tmp_path / "eager.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "split", "label", "x0", "x1"])
        splits = sorted_list_split(spec, 12, np.random.default_rng(5))
        for name, (ids, X, y) in zip(("train", "holdout"), splits):
            for sid, label, x in zip(ids, y, X):
                writer.writerow([sid, name, int(label)]
                                + [repr(float(v)) for v in x])
    assert (tmp_path / "export.csv").read_bytes() \
        == (tmp_path / "eager.csv").read_bytes()


def test_domain_csv_roundtrip(tmp_path):
    spec = blob_spec(per_class=15)
    d = datagen.generate_domain(spec, 3, np.random.default_rng(6))
    path = tmp_path / "domain.csv"
    cli.write_domain_csv(d, path)
    back = cli.read_domain_csv(path, spec)
    assert back.train.ids == d.train.ids
    np.testing.assert_array_equal(back.train.X, d.train.X)
    np.testing.assert_array_equal(back.train.y, d.train.y)
    np.testing.assert_array_equal(back.holdout.X, d.holdout.X)
