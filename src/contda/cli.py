"""Command-line entry point: validated JSON run configs, artifact emission,
strategy comparison tables, and the dataset directory that export-data
writes and a run reads back.

Exit codes: 0 success, 2 invalid configuration or arguments, or an output
that cannot be written, 3 runtime numeric failure.
"""

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import datagen, harness
from .errors import ContdaError, ContractViolationError, InsufficientNegativesError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# every plan field but the seed, which each run derives from its root seed
_PLAN_FIELDS = {f.name: f.type for f in dataclasses.fields(harness.AdaptationPlan)
                if f.name != "seed"}
_TOP_FIELDS = {"preset": str, "dataset": str, "output_dir": str,
               "seed": int, "seeds": list, "diagnostics": str}
_REQUIRED = ("strategy", "output_dir")
# a dataset manifest's spec fields; its translation is a JSON array
_SPEC_FIELDS = {f.name: f.type for f in dataclasses.fields(datagen.DomainSpec)}
_SPEC_FIELDS["translation"] = list


class ConfigError(ValueError):
    pass


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return validate_config(raw)


def validate_config(raw: dict) -> dict:
    known = dict(_PLAN_FIELDS)
    known.update(_TOP_FIELDS)
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for name in _REQUIRED:
        if name not in raw:
            raise ConfigError(f"missing required field: {name}")
    if ("preset" in raw) == ("dataset" in raw):
        raise ConfigError("missing required field: exactly one of preset or dataset")
    if ("seed" in raw) == ("seeds" in raw):
        raise ConfigError("missing required field: exactly one of seed or seeds")

    cfg = _typed_fields(raw, known)
    if cfg.get("seed", 0) < 0:
        raise ConfigError("field seed must be a non-negative integer")
    if "seeds" in cfg:
        if not cfg["seeds"] or not all(isinstance(s, int) and not isinstance(s, bool)
                                       and s >= 0 for s in cfg["seeds"]):
            raise ConfigError("field seeds must be a non-empty list of "
                              "non-negative integers")
        # a repeated seed reruns into the same seed_<s>/ directory
        if len(set(cfg["seeds"])) < len(cfg["seeds"]):
            raise ConfigError("field seeds must not repeat a seed")
    if cfg.get("diagnostics", "full") not in ("full", "none"):
        raise ConfigError("field diagnostics must be 'full' or 'none'")
    if "preset" in cfg and cfg["preset"] not in datagen.PRESETS:
        raise ConfigError(f"unknown preset {cfg['preset']!r}")
    # settings that only the plan can judge (strategy names, ratio sums,
    # batch minima) are still configuration problems, not runtime ones
    try:
        harness.AdaptationPlan(seed=0, **{k: cfg[k] for k in _PLAN_FIELDS
                                          if k in cfg})
    except ContractViolationError as exc:
        raise ConfigError(f"invalid plan settings: {exc}") from exc
    return cfg


def _typed_fields(raw: dict, types: dict) -> dict:
    """raw with each value checked against its key's type in types; an int
    where a float is wanted becomes that float."""
    out = {}
    for key, value in raw.items():
        want = types[key]
        if want is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if want is int and (isinstance(value, bool) or not isinstance(value, int)):
            raise ConfigError(f"field {key} must be an integer")
        if not isinstance(value, want):
            raise ConfigError(f"field {key} must be of type {want.__name__}")
        out[key] = value
    return out


def derive_seeds(root: int):
    """Distinct data and training seeds from one root seed."""
    rng = np.random.default_rng(np.random.SeedSequence(root))
    data_seed, train_seed = rng.integers(2 ** 62, size=2)
    return int(data_seed), int(train_seed)


def build_plan(cfg: dict, seed: int) -> harness.AdaptationPlan:
    kwargs = {k: cfg[k] for k in _PLAN_FIELDS if k in cfg}
    _, train_seed = derive_seeds(seed)
    return harness.AdaptationPlan(seed=train_seed, **kwargs)


def load_domains(cfg: dict, seed: int):
    if "preset" in cfg:
        data_seed, _ = derive_seeds(seed)
        specs = datagen.preset_specs(cfg["preset"])
        return datagen.generate_sequence(specs, data_seed)
    return import_dataset(cfg["dataset"])


def _float_cell(v: float) -> str:
    return repr(float(v))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_matrix_csv(matrix: harness.AccuracyMatrix, path) -> None:
    n = matrix.values.shape[0]
    _write_csv(path, ["after_domain"] + [f"d{j}" for j in range(n)],
               ([str(t)] + [_float_cell(v) if np.isfinite(v) else ""
                            for v in row]
                for t, row in enumerate(matrix.values)))


_DIAG_COLUMNS = ("domain", "epoch", "iteration", "lr", "loss_con", "loss_src",
                 "loss_mem", "slack_src", "slack_mem", "u_src", "u_mem",
                 "case", "eps")


def write_diagnostics_csv(rows, path) -> None:
    _write_csv(path, _DIAG_COLUMNS,
               ([_float_cell(row[c]) if isinstance(row[c], float)
                 else str(row[c]) for c in _DIAG_COLUMNS] for row in rows))


def _metric_value(v: float):
    return None if (isinstance(v, float) and math.isnan(v)) else v


def _write_json(payload, path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_metrics_json(metrics: harness.Metrics, path) -> None:
    _write_json({"acc": _metric_value(metrics.acc),
                 "acc_mean": _metric_value(metrics.acc_mean),
                 "bwt": _metric_value(metrics.bwt)}, path)


def run_config(cfg: dict) -> dict:
    """Execute the config's seed(s) under cfg["output_dir"]; returns the
    aggregate metrics that it writes to metrics.json there."""
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    seeds = cfg["seeds"] if "seeds" in cfg else [cfg["seed"]]
    diagnostics = cfg.get("diagnostics", "full")

    manifest = {
        "config": {k: cfg[k] for k in sorted(cfg)},
        "seeds": list(seeds),
        "package_version": __version__,
        "numpy_version": np.__version__,
    }

    # read once for every seed; a dataset that stops the run leaves no manifest
    dataset = import_dataset(cfg["dataset"]) if "dataset" in cfg else None
    _write_json(manifest, os.path.join(out_dir, "manifest.json"))
    collected = []
    for seed in seeds:
        domains = dataset if dataset is not None else load_domains(cfg, seed)
        plan = build_plan(cfg, seed)
        try:
            result = harness.run_plan(domains, plan)
        except InsufficientNegativesError as exc:
            # the bank size is known only once the domains are loaded
            raise ConfigError(f"invalid plan settings: {exc}") from exc
        seed_dir = os.path.join(out_dir, f"seed_{seed}")
        os.makedirs(seed_dir, exist_ok=True)
        write_matrix_csv(result.matrix, os.path.join(seed_dir, "rmatrix.csv"))
        write_metrics_json(result.metrics, os.path.join(seed_dir, "metrics.json"))
        if diagnostics == "full":
            write_diagnostics_csv(result.diagnostics,
                                  os.path.join(seed_dir, "diagnostics.csv"))
        collected.append(result.metrics)

    aggregate = {
        "seeds": list(seeds),
        "acc": _mean_std([m.acc for m in collected]),
        "acc_mean": _mean_std([m.acc_mean for m in collected]),
        "bwt": _mean_std([m.bwt for m in collected]),
    }
    _write_json(aggregate, os.path.join(out_dir, "metrics.json"))
    return aggregate


def _mean_std(values):
    arr = np.array(values, dtype=np.float64)
    if np.any(np.isnan(arr)):
        return {"mean": None, "std": None}
    return {"mean": float(arr.mean()), "std": float(arr.std())}


def cmd_run(args) -> None:
    run_config(load_config(args.config))


def cmd_compare(args) -> None:
    configs = [load_config(p) for p in args.configs]
    if len(configs) < 2:
        raise ConfigError("compare needs at least two configs")
    sources = {c.get("preset") or c.get("dataset") for c in configs}
    if len(sources) != 1:
        raise ConfigError("compare configs must share one preset or dataset")

    rows = []
    for cfg in configs:
        aggregate = run_config(cfg)
        acc, bwt = aggregate["acc"], aggregate["bwt"]
        rows.append([cfg["strategy"], str(len(aggregate["seeds"])),
                     _float_cell(acc["mean"]), _float_cell(acc["std"]),
                     "" if bwt["mean"] is None else _float_cell(bwt["mean"]),
                     "" if bwt["std"] is None else _float_cell(bwt["std"])])

    _write_csv(args.output, ["strategy", "n_seeds", "acc_mean", "acc_std",
                             "bwt_mean", "bwt_std"], rows)


def export_dataset(preset: str, seed: int, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    specs = datagen.preset_specs(preset)
    domains = datagen.generate_sequence(specs, seed)
    meta = {"preset": preset, "seed": seed,
            "specs": [dataclasses.asdict(s) for s in specs]}
    _write_json(meta, os.path.join(out_dir, "data_manifest.json"))
    for i, d in enumerate(domains):
        write_domain_csv(d, os.path.join(out_dir, f"domain_{i}.csv"))


def write_domain_csv(domain: datagen.Domain, path) -> None:
    """id, split, label, coordinates; floats via repr for exact round-trip."""
    _write_csv(path, ["id", "split", "label"]
               + [f"x{j}" for j in range(domain.train.X.shape[1])],
               ([sid, split, label] + [_float_cell(v) for v in x]
                for split, ds in (("train", domain.train), ("holdout", domain.holdout))
                for sid, label, x in zip(ds.ids, ds.y.tolist(), ds.X.tolist())))


def read_domain_csv(path, spec: datagen.DomainSpec) -> datagen.Domain:
    """Domain of a CSV written by write_domain_csv, only parsed (the data
    rules are check_domains'); an unreadable or malformed file is a ConfigError."""
    splits = {"train": [], "holdout": []}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if header[:3] != ["id", "split", "label"] or len(header) == 3:
                raise ValueError(f"header {header} is not id, split, label, x0, ...")
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(f"line {reader.line_num} has {len(row)} "
                                     f"cells, the header {len(header)}")
                if row[1] not in splits:
                    raise ValueError(f"line {reader.line_num}: unknown split {row[1]!r}")
                splits[row[1]].append((row[0], int(row[2]), [float(v) for v in row[3:]]))
        train, holdout = (datagen.Dataset(
            ids=[r[0] for r in rows], y=np.array([r[1] for r in rows], dtype=np.int64),
            X=np.array([r[2] for r in rows]).reshape(len(rows), len(header) - 3))
            for rows in splits.values())
    except (OSError, ValueError, OverflowError, csv.Error) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return datagen.Domain(spec=spec, train=train, holdout=holdout)


def import_dataset(path):
    """Domains of a directory written by export_dataset; a file there that
    cannot be read or parsed, or domains check_domains rejects, is a
    ConfigError."""
    try:
        with open(os.path.join(path, "data_manifest.json")) as fh:
            meta = json.load(fh)
        specs = []
        for s in meta["specs"]:
            # a missing field would fall back to DomainSpec's default
            if not isinstance(s, dict) or set(s) != set(_SPEC_FIELDS):
                raise ConfigError("a domain spec must have exactly the fields "
                                  + ", ".join(_SPEC_FIELDS))
            s = _typed_fields(s, _SPEC_FIELDS)
            specs.append(datagen.DomainSpec(
                **{**s, "translation": tuple(s["translation"])}))
    except OSError as exc:
        raise ConfigError(f"cannot read dataset: {exc}") from exc
    # invalid JSON, a missing, unknown or mistyped field or a spec the data
    # cannot have
    except (ValueError, KeyError, TypeError, ContdaError) as exc:
        raise ConfigError(f"malformed dataset manifest: {exc!r}") from exc
    domains = [read_domain_csv(os.path.join(path, f"domain_{i}.csv"), spec)
               for i, spec in enumerate(specs)]
    try:
        harness.check_domains(domains)
    except ContractViolationError as exc:
        raise ConfigError(str(exc)) from exc
    return domains


def cmd_export_data(args) -> None:
    if args.preset not in datagen.PRESETS:
        raise ConfigError(f"unknown preset {args.preset!r}")
    if args.seed < 0:
        raise ConfigError("--seed must be a non-negative integer")
    export_dataset(args.preset, args.seed, args.output)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contda",
        description="Continual unsupervised domain adaptation runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one run config")
    p_run.add_argument("config", help="path to a JSON run config")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several configs, tabulate metrics")
    p_cmp.add_argument("configs", nargs="+", help="run config paths")
    p_cmp.add_argument("--output", default="comparison.csv",
                       help="comparison table destination")
    p_cmp.set_defaults(func=cmd_compare)

    p_exp = sub.add_parser("export-data", help="write a preset dataset to CSV")
    p_exp.add_argument("--preset", required=True)
    p_exp.add_argument("--seed", type=int, required=True)
    p_exp.add_argument("--output", required=True)
    p_exp.set_defaults(func=cmd_export_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ContdaError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"error: run failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
