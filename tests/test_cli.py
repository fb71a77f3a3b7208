import dataclasses
import json
import os

import numpy as np
import pytest

from contda import cli, datagen, harness


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
    for d in domains:
        datagen.export_domain_csv(d, os.path.join(root, f"domain_{d.index}.csv"))
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
    ]
    for raw, fragment in cases:
        with pytest.raises(cli.ConfigError, match=fragment):
            cli.validate_config(raw)
    seeds_cfg = {k: v for k, v in ok.items() if k != "seed"}
    for bad_seeds in ([], [1, True], ["a"]):
        with pytest.raises(cli.ConfigError):
            cli.validate_config({**seeds_cfg, "seeds": bad_seeds})


def test_validate_config_coerces_int_to_float():
    cfg = cli.validate_config({"strategy": "grcl", "output_dir": "o",
                               "preset": "rot-blobs-5", "seed": 1, "lr": 1})
    assert cfg["lr"] == 1.0 and isinstance(cfg["lr"], float)


def test_validate_config_rejects_bad_plan_settings():
    ok = {"strategy": "grcl", "output_dir": "o", "preset": "rot-blobs-5",
          "seed": 1}
    with pytest.raises(cli.ConfigError, match="invalid plan settings"):
        cli.validate_config({**ok, "strategy": "warp_drive"})
    with pytest.raises(cli.ConfigError, match="invalid plan settings"):
        cli.validate_config({**ok, "batch_size": 2})
    with pytest.raises(cli.ConfigError, match="invalid plan settings"):
        cli.validate_config({**ok, "ratio_source": 0.9, "ratio_memory": 0.9,
                             "ratio_target": 0.2})
    for bad in ({"temperature": -0.2}, {"temperature": 0}, {"negatives": -1},
                {"memory_capacity": 0}, {"bank_momentum": 1.5}):
        with pytest.raises(cli.ConfigError, match="invalid plan settings"):
            cli.validate_config({**ok, **bad})


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


def test_output_dir_env_override(tmp_path, monkeypatch):
    data = write_tiny_dataset(tmp_path / "data")
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("CONTDA_OUTPUT_DIR", str(override))
    cfg_path = write_cfg(tmp_path / "run.json",
                         tiny_cfg(data, tmp_path / "ignored"))
    assert cli.main(["run", cfg_path]) == 0
    assert (override / "seed_3" / "rmatrix.csv").exists()
    assert not (tmp_path / "ignored").exists()


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


def test_run_exit_code_malformed_dataset(tmp_path):
    # a dataset directory that cannot be read is a config error, exit 2
    def run_on(name, damage):
        root = write_tiny_dataset(tmp_path / name)
        damage(os.path.join(root, "data_manifest.json"), root)
        cfg_path = write_cfg(tmp_path / f"{name}.json",
                             tiny_cfg(root, tmp_path / f"o_{name}"))
        return cli.main(["run", cfg_path])

    def rewrite(path, edit):
        with open(path) as fh:
            meta = json.load(fh)
        edit(meta)
        with open(path, "w") as fh:
            json.dump(meta, fh)

    def write(path, text):
        with open(path, "w") as fh:
            fh.write(text)

    cases = {
        "bad_json": lambda m, root: write(m, "{not json"),
        "no_specs": lambda m, root: rewrite(m, lambda meta: meta.pop("specs")),
        "no_spec_key": lambda m, root: rewrite(
            m, lambda meta: meta["specs"][1].pop("std")),
        "missing_csv": lambda m, root: os.remove(os.path.join(root, "domain_2.csv")),
        "garbled_csv": lambda m, root: write(os.path.join(root, "domain_1.csv"),
                                             "id,split,label,x0\nd1:0,train,one,0.5\n"),
        "empty_csv": lambda m, root: write(os.path.join(root, "domain_0.csv"), ""),
    }
    for name, damage in cases.items():
        assert run_on(name, damage) == 2, name


def test_run_exit_code_numeric_failure(tmp_path):
    # domains that disagree on class count pass config validation but
    # fail the harness contract at runtime
    root = tmp_path / "data"
    write_tiny_dataset(root, n_domains=2, n_classes=3)
    other = datagen.generate_domain(
        datagen.DomainSpec(kind=datagen.KIND_BLOBS, n_classes=4, per_class=20,
                           rotation_deg=24.0, radius=2.0, std=0.25),
        2, np.random.default_rng(0))
    datagen.export_domain_csv(other, root / "domain_2.csv")
    manifest = json.loads((root / "data_manifest.json").read_text())
    manifest["specs"].append({**manifest["specs"][0], "n_classes": 4,
                              "rotation_deg": 24.0})
    (root / "data_manifest.json").write_text(json.dumps(manifest))
    cfg_path = write_cfg(tmp_path / "run.json", tiny_cfg(root, tmp_path / "o"))
    assert cli.main(["run", cfg_path]) == 3


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
