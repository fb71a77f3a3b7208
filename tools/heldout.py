"""Held-out check of the acceptance strategies, written to HELDOUT_<label>.json.

    python3 tools/heldout.py --label baseline

The acceptance suite's gates are the contract at their committed data draw
and run seeds, so a change that moves ACC is also judged on draws the suite
never reads.  This script runs the suite's strategies through its own
strategy x seed loop, and judges them by its own two gates on unrounded
means, all imported from tests/test_acceptance.py so the two cannot drift,
on `rot-blobs-5` at data draw 7 (run seeds 1-5) and data draw 8 (run seeds
6-10), in this process with one BLAS thread, importing contda from this
checkout's src/.  Per draw and strategy it reports mean and per-seed ACC
and BWT, source accuracy after the last domain and the mean accuracy on
each domain right after adapting to it (the diagonal of the accuracy
matrix); per draw it reports each gate's verdict, the arithmetic of the
ablation chain with its gap to the frozen model, and of the forgetting
margin and floor against the grid member with the best ACC.  Figures are
written rounded to 6 decimals.  Both draws take about 3.5 minutes on one
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

from contda import datagen  # noqa: E402
from test_acceptance import (  # noqa: E402
    CHAIN, FLOOR, GAP, MARGIN, best_grid, chain_holds, forgetting_holds,
    run_strategies)

PRESET = "rot-blobs-5"
# data draw -> run seeds; neither is an acceptance draw or seed
DRAWS = {7: (1, 2, 3, 4, 5), 8: (6, 7, 8, 9, 10)}


def r6(x):
    return round(float(x), 6)


def rounded(obj):
    """obj with each float, in dicts and lists too, rounded to 6 decimals."""
    if isinstance(obj, dict):
        return {k: rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [rounded(v) for v in obj]
    return r6(obj) if isinstance(obj, float) else obj


def run_draw(draw, seeds):
    """Per strategy, unrounded: mean and per-seed ACC and BWT, final source
    accuracy and mean diagonals over the seeds."""
    domains = datagen.generate_sequence(datagen.preset_specs(PRESET), draw)
    n = len(domains) - 1
    out = {}
    for label, results in run_strategies(domains, seeds):
        acc = [r.metrics.acc for r in results]
        bwt = [r.metrics.bwt for r in results]
        out[label] = {
            "acc": float(np.mean(acc)), "bwt": float(np.mean(bwt)),
            "acc_each": acc, "bwt_each": bwt,
            "source_acc_final": float(np.mean(
                [r.matrix.entry(n, 0) for r in results])),
            "diagonals": [float(np.mean([r.matrix.entry(t, t)
                                         for r in results]))
                          for t in range(n + 1)],
        }
        print(f"  draw {draw} {label}: acc={out[label]['acc']:.4f} "
              f"bwt={out[label]['bwt']:+.4f}", flush=True)
    return out


def gates(runs):
    """The acceptance gates on one draw's runs: each verdict is the suite's
    own gate on the unrounded means, each figure the arithmetic of the
    means as the file lists them, rounded to 6 decimals."""
    acc, bwt = ({lab: run[field] for lab, run in runs.items()}
                for field in ("acc", "bwt"))
    best = best_grid(acc)
    a, b = rounded(acc), rounded(bwt)
    return {
        "chain": {"links": {f"{x} - {y}": r6(a[x] - a[y])
                            for x, y in zip(CHAIN, CHAIN[1:])},
                  "gap": r6(a["grcl"] - a["src_only"]),
                  "holds": chain_holds(acc)},
        "forgetting": {"best_grid": best, "margin": r6(b["grcl"] - b[best]),
                       "grcl_bwt": b["grcl"],
                       "acc_over_best": r6(a["grcl"] - a[best]),
                       "holds": forgetting_holds(acc, bwt, best)},
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
                            "strategies": rounded(runs)}
    result = {
        "label": args.label,
        "commit": git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(git("status", "--porcelain", "--", "src",
                                          "tests", "tools")),
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
