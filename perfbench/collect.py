"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/collect.py --seeds 1 2 3 4 5 6 7 8 9 10 \
        [--workloads grcl-blobs ...] [--trace 0] [--out perfbench/baseline.json]

For every workload and metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (third minus first
quartile, over the median), next to the metric's bound in BENCHMARK.json.
An end-to-end spread at or above a third of its bound is marked `WIDE`.
`--out` writes the summary together with every run's record (provenance,
artifact digest, per-call timings).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORDS = os.path.join(ROOT, ".perfbench_out", "records")


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(RECORDS, exist_ok=True)

    records, summary, ok = [], {}, True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            path = os.path.join(RECORDS, f"{workload}-{seed}-t{args.trace}.json")
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--record", path],
                capture_output=True, text=True, cwd=ROOT, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
                ok = False
                continue
            with open(path) as fh:
                runs.append(json.load(fh))
            values = {k: v["value"] for k, v in runs[-1]["metrics"].items()}
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in values.items()
                if k in bounds or args.trace), flush=True)
        records += runs
        if len(runs) < 2:
            continue
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if any(v is None for v in values):
                continue
            stats = spread(values)
            summary[workload][name] = stats
            bound = bounds.get(name)
            wide = (bound is not None and name != "setup_s"
                    and (stats["spread"] is None or stats["spread"] >= bound / 3))
            print(f"  {workload:22s} {name:46s} median {stats['median']:.6g} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread "
                  f"{stats['spread'] if stats['spread'] is None else round(stats['spread'], 4)}"
                  + (f" bound {bound}" if bound is not None else "")
                  + (" WIDE" if wide else ""), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seeds": args.seeds, "seconds": args.seconds,
                       "trace": args.trace, "summary": summary,
                       "runs": records}, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
