"""Held-out check of the acceptance strategies, written to HELDOUT_<label>.json.

    python3 tools/heldout.py --label baseline

The acceptance suite's gates are the contract at their committed data draw
and run seeds, so a change that moves ACC is also judged on draws the suite
never reads.  This script runs the suite's strategies, the strategy list,
fixed-weight grid and gate thresholds imported from tests/test_acceptance.py
so the two cannot drift, on `rot-blobs-5` at data draw 7 (run seeds 1-5) and data draw 8 (run
seeds 6-10), in this process with one BLAS thread, importing contda from
this checkout's src/.  Per draw and strategy it reports mean and per-seed
ACC and BWT, source accuracy after the last domain and the mean accuracy on
each domain right after adapting to it (the diagonal of the accuracy
matrix); per draw it reports the arithmetic of the ablation chain with its
gap to the frozen model, and of the forgetting margin and floor against the
grid member with the best ACC.  Both draws take about 3.5 minutes on one
core.
"""

import os

# one BLAS thread; must be set before anything imports NumPy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np  # noqa: E402

from contda import datagen, harness  # noqa: E402
from test_acceptance import (  # noqa: E402
    FLOOR, GAP, MARGIN, STRATEGIES, WEIGHT_GRID)

PRESET = "rot-blobs-5"
# data draw -> run seeds; neither is an acceptance draw or seed
DRAWS = {7: (1, 2, 3, 4, 5), 8: (6, 7, 8, 9, 10)}
CHAIN = ("grcl", "crt_sdc", "crt_src", "src_only")


def r6(x):
    return round(float(x), 6)


def run_draw(draw, seeds):
    """Per strategy: mean and per-seed ACC and BWT, final source accuracy
    and mean diagonals over the seeds."""
    domains = datagen.generate_sequence(datagen.preset_specs(PRESET), draw)
    n = len(domains) - 1
    out = {}
    for label, strategy, extra in STRATEGIES:
        results = [harness.run_plan(domains, harness.AdaptationPlan(
            strategy=strategy, seed=seed, **extra)) for seed in seeds]
        acc = [r.metrics.acc for r in results]
        bwt = [r.metrics.bwt for r in results]
        out[label] = {
            "acc": r6(np.mean(acc)), "bwt": r6(np.mean(bwt)),
            "acc_each": [r6(a) for a in acc], "bwt_each": [r6(b) for b in bwt],
            "source_acc_final": r6(np.mean(
                [r.matrix.entry(n, 0) for r in results])),
            "diagonals": [r6(np.mean([r.matrix.entry(t, t) for r in results]))
                          for t in range(n + 1)],
        }
        print(f"  draw {draw} {label}: acc={out[label]['acc']:.4f} "
              f"bwt={out[label]['bwt']:+.4f}", flush=True)
    return out


def gates(runs):
    """The acceptance gates' arithmetic on one draw's runs."""
    acc = {lab: runs[lab]["acc"] for lab in CHAIN}
    links = {f"{a} - {b}": r6(acc[a] - acc[b]) for a, b in zip(CHAIN, CHAIN[1:])}
    gap = r6(acc["grcl"] - acc["src_only"])
    grid = [f"mt_{ls}_{lm}" for ls, lm in WEIGHT_GRID]
    best = max(grid, key=lambda lab: runs[lab]["acc"])
    grcl = runs["grcl"]
    margin = r6(grcl["bwt"] - runs[best]["bwt"])
    return {
        "chain": {"links": links, "gap": gap,
                  "holds": min(links.values()) >= 0.0 and gap >= GAP},
        "forgetting": {"best_grid": best, "margin": margin,
                       "grcl_bwt": grcl["bwt"],
                       "acc_over_best": r6(grcl["acc"] - runs[best]["acc"]),
                       "holds": (margin >= MARGIN and grcl["bwt"] >= FLOOR
                                 and grcl["acc"] >= runs[best]["acc"])},
    }


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True).stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="names the output file HELDOUT_<label>.json")
    parser.add_argument("--output-dir", default=ROOT,
                        help="directory of the output file")
    args = parser.parse_args(argv)

    draws = {}
    for draw, seeds in DRAWS.items():
        runs = run_draw(draw, seeds)
        draws[str(draw)] = {"run_seeds": list(seeds), "gates": gates(runs),
                            "strategies": runs}
    result = {
        "label": args.label,
        "commit": git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(git("status", "--porcelain", "--", "src")),
        "preset": PRESET,
        "thresholds": {"gap": GAP, "margin": MARGIN, "floor": FLOOR},
        "draws": draws,
    }
    path = os.path.join(args.output_dir, f"HELDOUT_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    for draw, entry in draws.items():
        g = entry["gates"]
        print(f"draw {draw}: chain {g['chain']['links']} gap "
              f"{g['chain']['gap']:+.4f}; forgetting margin "
              f"{g['forgetting']['margin']:+.4f} vs "
              f"{g['forgetting']['best_grid']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
