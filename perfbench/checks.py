"""Output checks and the artifact digest for one `run_config` call.

A seed's run passes when its `rmatrix.csv` lower triangle is complete,
finite and within [0, 1], its `metrics.json` equals `compute_metrics`
recomputed from that matrix and, on `grcl`, every `diagnostics.csv` row
keeps both constraint slacks at or above `-eps`.
"""

import csv
import hashlib
import json
import math
import os
from collections import defaultdict

import numpy as np

from contda import harness

ARTIFACTS = ("rmatrix.csv", "metrics.json", "diagnostics.csv")


def read_matrix(path) -> np.ndarray:
    """The accuracy matrix, NaN where a cell is blank."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(c) if c else math.nan for c in row[1:]]
                     for row in rows], dtype=np.float64)


def read_diagnostics(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _same(reported, recomputed) -> bool:
    if reported is None:
        return math.isnan(recomputed)
    return reported == recomputed


def check_seed(seed_dir, strategy) -> list:
    """Problems found in one seed's artifacts; empty when the seed passes."""
    problems = []
    values = read_matrix(os.path.join(seed_dir, "rmatrix.csv"))
    n = values.shape[0]
    if values.shape != (n, n) or n < 2:
        return [f"rmatrix.csv has shape {values.shape}"]
    lower = np.tril(np.ones((n, n), dtype=bool))
    tri = values[lower]
    if not (np.all(np.isfinite(tri)) and np.all((tri >= 0.0) & (tri <= 1.0))):
        problems.append("rmatrix.csv lower triangle not finite within [0, 1]")
        return problems
    if not np.all(np.isnan(values[~lower])):
        problems.append("rmatrix.csv has entries above the diagonal")

    with open(os.path.join(seed_dir, "metrics.json")) as fh:
        reported = json.load(fh)
    recomputed = harness.compute_metrics(harness.AccuracyMatrix(values=values), n - 1)
    for key in ("acc", "acc_mean", "bwt"):
        if not _same(reported.get(key), getattr(recomputed, key)):
            problems.append(f"metrics.json {key}={reported.get(key)!r} but the "
                            f"matrix gives {getattr(recomputed, key)!r}")

    if strategy == harness.GRCL:
        for row in read_diagnostics(os.path.join(seed_dir, "diagnostics.csv")):
            eps = float(row["eps"])
            for col in ("slack_src", "slack_mem"):
                slack = float(row[col])
                if slack < -eps:  # nan (no memory yet) compares false
                    problems.append(f"diagnostics iteration {row['iteration']} "
                                    f"domain {row['domain']}: {col}={slack!r} < -eps")
    return problems


def digest(out_dir, seeds) -> str:
    """sha256 over each seed's artifacts, in seed order, names included."""
    h = hashlib.sha256()
    for seed in seeds:
        for name in ARTIFACTS:
            path = os.path.join(out_dir, f"seed_{seed}", name)
            if not os.path.exists(path):
                continue
            h.update(f"seed_{seed}/{name}\0".encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def label_precision(memories):
    """Share of memory slots whose pseudo-label equals the true label.

    memories: iterable of (domain_index, pseudo_labels, true_labels).
    Returns (overall, {domain_index: share}); overall is None when no slot
    was filled.
    """
    hits, filled = defaultdict(int), defaultdict(int)
    for domain, pseudo, true in memories:
        pseudo, true = np.asarray(pseudo), np.asarray(true)
        filled[domain] += pseudo.size
        hits[domain] += int(np.sum(pseudo == true))
    total = sum(filled.values())
    overall = sum(hits.values()) / total if total else None
    return overall, {d: hits[d] / filled[d] for d in sorted(filled) if filled[d]}
