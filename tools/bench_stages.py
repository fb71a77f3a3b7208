"""Per-stage cost of the reference run, the dense run and the source-only
run, written to BENCH_<label>.json.

    python3 tools/bench_stages.py --label baseline

The reference run is `rot-blobs-5`, `grcl`, seed 11 through
`contda.cli.run_config`, in this process with one BLAS thread, importing
contda from this checkout's src/.  The dense run, `moons-4`, `multitask`,
512 negatives, seed 11, is perfbench's `multitask-moons-k512` at that seed;
its figures sit under the key `dense_run`.  The source-only run,
`rot-blobs-5`, `src_only`, seeds 11, 22, 33, 44 and 55, is perfbench's
`srconly-blobs` at seed 11; its figures sit under the key
`source_only_run`.  Each runs three times untraced, for the median wall
time, then once under perfbench's span tracer.  Each untraced run is also
given in units of perfbench's reference kernel, sampled before, during
and after it as perfbench/run.py does: the wall time of one tree drifts by
up to 40% between rounds on a shared host, and the kernel drifts with it,
so these figures compare across rounds.  A stage is a set of wrapped functions; its cost is the self time of their
spans inside `harness.adapt_domain`, divided by the number of adaptation
iterations, or, for the memory stages, inside `harness.pseudo_label_memory`,
divided by the number of memories built.  A wrapped function that no longer
exists stops the script, so a stage never reads zero because its code was
renamed.  The stage figures are given raw and, under the keys ending in
`_ref_per_`, in units of the reference kernel timed just before and just
after the traced run (with no ticks inside it, so no span absorbs one): a
stage's raw time drifts with the host as a run's does.  The source-only
run has no adaptation iteration; its traced run wraps only the functions
of the path every run shares, data generation, source pretraining and
evaluation, and gives each one's time, its callees' included, per seed.
"""

import os

# one BLAS thread; must be set before anything imports NumPy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

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
# 512 shared negatives from a ~1.3k-key bank: per-key arithmetic dominates
DENSE = {"preset": "moons-4", "strategy": "multitask", "negatives": 512,
         "seed": 11}
# perfbench's srconly-blobs at seed 11: data generation, pretraining and
# evaluation only
SOURCE_ONLY = {"preset": "rot-blobs-5", "strategy": "src_only",
               "seeds": [11, 22, 33, 44, 55]}
RUNS = 3  # untraced reference runs behind the median wall time
KERNELS = 3  # reference-kernel samples just before and just after the trace
ADAPT = "harness.adapt_domain"
MEMORY = "harness.pseudo_label_memory"
# stage -> the functions (module, attribute) whose self time it sums
STAGES = {
    # every step's negatives of an epoch, drawn in this one call
    "negative_draw": (("contda.bank", "negative_rows"),),
    "infonce": (("contda.contrastive", "contrastive_grad"),),
    "backward": (("contda.model", "backward"),),
    "forward": (("contda.model", "forward"),),
    "projection": (("contda.gradproject", "gram"),
                   ("contda.harness", "project_step")),
    # drawn and checked once per epoch, charged per iteration like every
    # stage
    "batch_composition": (("contda.harness", "_draw_epoch"),
                          ("contda.contrastive", "epoch_plans")),
    "bank_update": (("contda.bank", "momentum_update"),),
}
PER_MEMORY = {
    "kmeans": (("contda.memory", "kmeans"),),
    "memory_build": (("contda.memory", "build_memory"),),
}
ITERATION = "gradproject.gram"  # one call per adaptation iteration
# the source-only run's wrap points, timed with their callees, per seed:
# one harness.run_plan call each
SOURCE_PATH = (("contda.datagen", "generate_sequence"),
               ("contda.harness", "pretrain_source"),
               ("contda.harness", "evaluate"))
SEED = "harness.run_plan"


def span_name(module, attr):
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


def wrap_points():
    points = {(span_name(m, a), m, a) for group in (STAGES, PER_MEMORY)
              for funcs in group.values() for m, a in funcs}
    points |= {(ADAPT, "contda.harness", "adapt_domain"),
               (MEMORY, "contda.harness", "pseudo_label_memory")}
    return sorted(points)


def source_points():
    return sorted({(span_name(m, a), m, a) for m, a in SOURCE_PATH}
                  | {(SEED, "contda.harness", "run_plan")})


def run_reference(reference, out_dir, sampler=None):
    """Seconds of one run of this config, without the time the sampler's
    ticks took, and its reference-kernel seconds (None without a
    sampler)."""
    cfg = cli.validate_config({**reference, "output_dir": out_dir})
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
    memory built) from one traced run."""
    selfs = tracer_mod.self_times(spans)
    per_iter, per_memory = {}, {}
    inside = {parent: [i for i in range(len(spans))
                       if tracer_mod.has_ancestor(spans, i, parent)]
              for parent in (ADAPT, MEMORY)}
    iters = sum(1 for i in inside[ADAPT] if spans[i][0] == ITERATION)
    memories = sum(1 for rec in spans if rec[0] == MEMORY)
    for out, group, parent, scale, den in (
            (per_iter, STAGES, ADAPT, 1e6, iters),
            (per_memory, PER_MEMORY, MEMORY, 1e3, memories)):
        for stage, funcs in group.items():
            names = {span_name(m, a) for m, a in funcs}
            total = sum(selfs[i] for i in inside[parent]
                        if spans[i][0] in names)
            out[stage] = round(total * scale / den, 1)
    return iters, per_iter, per_memory


def in_kernels(costs, scale, ref_s):
    """Stage costs in units of `scale` seconds as reference-kernel units,
    to four significant digits."""
    return {stage: float(f"{cost * scale / ref_s:.4g}")
            for stage, cost in costs.items()}


def stage_figures(spans, ref_s):
    """An adaptation run's stage costs, raw and in kernel units."""
    iters, per_iter, per_memory = stage_costs(spans)
    return {
        "adapt_iters": iters,
        "stage_us_per_iter": per_iter,
        "stage_ms_per_memory": per_memory,
        "stage_ref_per_iter": in_kernels(per_iter, 1e-6, ref_s),
        "stage_ref_per_memory": in_kernels(per_memory, 1e-3, ref_s),
    }


def source_figures(spans, ref_s):
    """ms per seed of each function of SOURCE_PATH, its callees included,
    raw and in kernel units."""
    seeds = sum(1 for rec in spans if rec[0] == SEED)
    per_seed = {}
    for m, a in SOURCE_PATH:
        name = span_name(m, a)
        total = sum(rec[2] - rec[1] for rec in spans if rec[0] == name)
        per_seed[name] = round(total * 1e3 / seeds, 2)
    return {"seeds": seeds, "ms_per_seed": per_seed,
            "ref_per_seed": in_kernels(per_seed, 1e-3, ref_s)}


def measure(reference, tmp, points, figures):
    """The wall-time figures of one run config, RUNS untraced runs, in
    reference-kernel units too, then those that `figures` takes from one
    run traced at `points`."""
    kernel = ReferenceKernel()
    sampler = Sampler(kernel)
    runs = [run_reference(reference, os.path.join(tmp, f"run{i}"), sampler)
            for i in range(RUNS)]
    tracer = tracer_mod.Tracer(points=points)
    kernels = [kernel() for _ in range(KERNELS)]
    with tracer.installed():
        traced, _ = run_reference(reference, os.path.join(tmp, "traced"))
    kernels += [kernel() for _ in range(KERNELS)]
    if tracer.absent:
        sys.exit(f"error: wrap points name missing code: {tracer.absent}")
    return {
        "reference_run": reference,
        "reference_run_s": round(statistics.median(w for w, _ in runs), 3),
        "reference_run_s_each": [round(w, 3) for w, _ in runs],
        "reference_run_ref": round(statistics.median(w / k for w, k in runs), 1),
        "reference_run_ref_each": [round(w / k, 1) for w, k in runs],
        "reference_kernel_s_each": [round(k, 5) for _, k in runs],
        "traced_run_s": round(traced, 3),
        "traced_kernel_s_each": [round(k, 5) for k in kernels],
        **figures(tracer.spans, statistics.median(kernels)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="names the output file BENCH_<label>.json")
    parser.add_argument("--output-dir", default=ROOT,
                        help="directory of the output file")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        reference = measure(REFERENCE, os.path.join(tmp, "reference"),
                            wrap_points(), stage_figures)
        dense = measure(DENSE, os.path.join(tmp, "dense"), wrap_points(),
                        stage_figures)
        source_only = measure(SOURCE_ONLY, os.path.join(tmp, "source_only"),
                              source_points(), source_figures)
    result = {
        "label": args.label,
        "commit": git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(git("status", "--porcelain", "--", "src")),
        "blas_threads": int(os.environ["OMP_NUM_THREADS"]),
        "machine": {"cpus": os.cpu_count(), "processor": cpu_model(),
                    "python": platform.python_version()},
        **reference,
        "dense_run": dense,
        "source_only_run": source_only,
    }
    path = os.path.join(args.output_dir, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
