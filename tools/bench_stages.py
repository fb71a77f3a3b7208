"""Per-stage cost of the reference run, written to BENCH_<label>.json.

    python3 tools/bench_stages.py --label baseline

The reference run is `rot-blobs-5`, `grcl`, seed 11 through
`contda.cli.run_config`, in this process with one BLAS thread, importing
contda from this checkout's src/.  It runs three times untraced, for the
median wall time, then once under perfbench's span tracer.  Each untraced
run is also given in units of perfbench's reference kernel, sampled before,
during and after it as perfbench/run.py does: the wall time of one tree
drifts by up to 40% between rounds on a shared host, and the kernel drifts
with it, so these figures compare across rounds.  A stage is a set
of wrapped functions; its cost is the self time of their spans inside
`harness.adapt_domain`, outside the per-domain encoder passes that feed
k-means, divided by the number of adaptation iterations.  A wrapped
function that no longer exists stops the script, so a stage never reads zero
because its code was renamed.
"""

import os

# one BLAS thread; must be set before anything imports NumPy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CONTDA_OUTPUT_DIR", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import tracer as tracer_mod  # noqa: E402
from contda import cli  # noqa: E402
from run import ReferenceKernel, Sampler  # noqa: E402

REFERENCE = {"preset": "rot-blobs-5", "strategy": "grcl", "seed": 11}
RUNS = 3  # untraced reference runs behind the median wall time
ADAPT = "harness.adapt_domain"
# encoder passes for k-means and class means, once per domain
PER_DOMAIN_ENCODE = "model.encode_batch"
# stage -> the functions (module, attribute) whose self time it sums
STAGES = {
    "negative_draw": (("contda.harness", "_negatives"),
                      ("contda.bank", "negative_rows")),
    "infonce": (("contda.contrastive", "contrastive_grad"),),
    "backward": (("contda.model", "backward"),),
    "forward": (("contda.model", "forward"),),
    "projection": (("contda.gradproject", "gram"),
                   ("contda.harness", "project_step")),
    # drawn once per epoch, charged per iteration like every stage
    "batch_composition": (("contda.harness", "_draw_epoch"),),
    "bank_update": (("contda.bank", "momentum_update"),),
}
PER_DOMAIN = {
    "kmeans": (("contda.memory", "kmeans"),),
    "memory_build": (("contda.memory", "build_memory"),),
}
ITERATION = "gradproject.gram"  # one call per adaptation iteration


def span_name(module, attr):
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


def wrap_points():
    points = {(span_name(m, a), m, a) for group in (STAGES, PER_DOMAIN)
              for funcs in group.values() for m, a in funcs}
    points |= {(ADAPT, "contda.harness", "adapt_domain"),
               (PER_DOMAIN_ENCODE, "contda.model", "encode_batch")}
    return sorted(points)


def run_reference(out_dir, sampler=None):
    """Seconds of one reference run, without the time the sampler's ticks
    took, and its reference-kernel seconds (None without a sampler)."""
    cfg = cli.validate_config({**REFERENCE, "output_dir": out_dir})
    with sampler or contextlib.nullcontext():
        start = time.perf_counter()
        cli.run_config(cfg)
        end = time.perf_counter()
    if sampler is None:
        return end - start, None
    return (end - start - sampler.busy_between(start, end),
            statistics.median(sampler.samples))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True).stdout.strip()


def stage_costs(spans):
    """(adaptation iterations, stage -> us per iteration, stage -> ms per
    adapted domain) from one traced reference run."""
    selfs = tracer_mod.self_times(spans)
    per_iter, per_domain = {}, {}
    inside = [i for i in range(len(spans))
              if tracer_mod.has_ancestor(spans, i, ADAPT)
              and not tracer_mod.has_ancestor(spans, i, PER_DOMAIN_ENCODE)]
    iters = sum(1 for i in inside if spans[i][0] == ITERATION)
    domains = sum(1 for rec in spans if rec[0] == ADAPT)
    for out, group, scale, den in ((per_iter, STAGES, 1e6, iters),
                                   (per_domain, PER_DOMAIN, 1e3, domains)):
        for stage, funcs in group.items():
            names = {span_name(m, a) for m, a in funcs}
            total = sum(selfs[i] for i in inside if spans[i][0] in names)
            out[stage] = round(total * scale / den, 1)
    return iters, per_iter, per_domain


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="names the output file BENCH_<label>.json")
    parser.add_argument("--output-dir", default=ROOT,
                        help="directory of the output file")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        sampler = Sampler(ReferenceKernel())
        runs = [run_reference(os.path.join(tmp, f"run{i}"), sampler)
                for i in range(RUNS)]
        tracer = tracer_mod.Tracer(points=wrap_points())
        with tracer.installed():
            traced, _ = run_reference(os.path.join(tmp, "traced"))
    if tracer.absent:
        sys.exit(f"error: wrap points name missing code: {tracer.absent}")
    iters, per_iter, per_domain = stage_costs(tracer.spans)

    result = {
        "label": args.label,
        "commit": git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(git("status", "--porcelain", "--", "src")),
        "blas_threads": int(os.environ["OMP_NUM_THREADS"]),
        "machine": {"cpus": os.cpu_count(), "processor": cpu_model(),
                    "python": platform.python_version()},
        "reference_run": REFERENCE,
        "reference_run_s": round(statistics.median(w for w, _ in runs), 3),
        "reference_run_s_each": [round(w, 3) for w, _ in runs],
        "reference_run_ref": round(statistics.median(w / k for w, k in runs), 1),
        "reference_run_ref_each": [round(w / k, 1) for w, k in runs],
        "reference_kernel_s_each": [round(k, 5) for _, k in runs],
        "traced_run_s": round(traced, 3),
        "adapt_iters": iters,
        "stage_us_per_iter": per_iter,
        "stage_ms_per_domain": per_domain,
    }
    path = os.path.join(args.output_dir, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
