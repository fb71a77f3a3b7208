"""Per-stage cost of the reference run, the dense run and the source-only
run, written to BENCH_<label>.json.

    python3 tools/bench_stages.py --label baseline

Each run is one of perfbench's workloads at seed 11, its config built from
perfbench/spec.json, through `contda.cli.run_config`, in this process with
one BLAS thread, importing contda from this checkout's src/.  The
reference run is `grcl-blobs` (`rot-blobs-5`, `grcl`, seed 11).  The dense
run, `multitask-moons-k512` (`moons-4`, `multitask`, 512 negatives), sits
under the key `dense_run`.  The source-only run, `srconly-blobs`
(`rot-blobs-5`, `src_only`, seeds 11, 22, 33, 44 and 55), sits under the
key `source_only_run`.  Each runs three times untraced, for the median wall
time, then once under perfbench's span tracer.  Each untraced run is also
given in units of perfbench's reference kernel, sampled before, during
and after it as perfbench/run.py does: the wall time of one tree drifts by
up to 40% between rounds on a shared host, and the kernel drifts with it,
so these figures compare across rounds.  A stage is a set of wrapped functions; its cost is the self time of their
spans inside `harness.adapt_domain`, divided by the number of adaptation
iterations, or, for the memory stages, inside `harness.pseudo_label_memory`,
divided by the number of memories built.  The projection stage is the
Gram matrix and the KKT-checked solve; the multiplier sums and case name
that harness._step_direction forms from the solve's answer fall outside
it.  A wrapped function that no longer exists stops the script, so a stage
never reads zero because its code was renamed.  The stage figures are given raw and, under the keys ending in
`_ref_per_`, in units of the reference kernel timed just before and just
after the traced run (with no ticks inside it, so no span absorbs one): a
stage's raw time drifts with the host as a run's does.  The source-only
run has no adaptation iteration; its traced run wraps only the functions
of the path every run shares, data generation, source pretraining and
evaluation, and gives each one's time, its callees' included, per seed of
the config: a run generates each seed's sequence twice, pretrains every
seed in one lockstep call and evaluates each seed's states.
Each config then runs once more under tracemalloc, whose peak is the run's
`heap_peak_mb` (MiB): the process's peak RSS spans all three configs, so it
cannot say what one run holds.
"""

import os

# one BLAS thread; must be set before anything imports NumPy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import tracer as tracer_mod  # noqa: E402
from contda import cli  # noqa: E402
from run import ReferenceKernel, Sampler, load_spec, make_config  # noqa: E402

RUN_SEED = 11  # the perfbench seed each run's config is built at
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
                   ("contda.gradproject", "project")),
    # drawn and checked once per epoch, charged per iteration like every
    # stage
    "batch_composition": (("contda.harness", "_draw_epoch"),
                          ("contda.contrastive", "epoch_plans")),
    "bank_update": (("contda.bank", "momentum_update"),),
}
PER_MEMORY = {
    "kmeans": (("contda.memory", "kmeans"),),
    # the class means, the cluster naming and the margins around k-means
    "pseudo_label": (("contda.memory", "pseudo_labels"),),
    "memory_build": (("contda.memory", "build_memory"),),
}
ITERATION = "gradproject.gram"  # one call per adaptation iteration
# the source-only run's wrap points, timed with their callees, per seed
SOURCE_PATH = (("contda.datagen", "generate_sequence"),
               ("contda.harness", "pretrain_source"),
               ("contda.harness", "evaluate"))


def span_name(module, attr):
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


def wrap_points():
    points = {(span_name(m, a), m, a) for group in (STAGES, PER_MEMORY)
              for funcs in group.values() for m, a in funcs}
    points |= {(ADAPT, "contda.harness", "adapt_domain"),
               (MEMORY, "contda.harness", "pseudo_label_memory")}
    return sorted(points)


def source_points():
    return sorted((span_name(m, a), m, a) for m, a in SOURCE_PATH)


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


def source_figures(spans, ref_s, seeds):
    """ms per seed of each function of SOURCE_PATH, its callees included,
    over a run of `seeds` seeds, raw and in kernel units, and its calls."""
    per_seed, calls = {}, {}
    for m, a in SOURCE_PATH:
        name = span_name(m, a)
        runs = [rec[2] - rec[1] for rec in spans if rec[0] == name]
        per_seed[name] = round(sum(runs) * 1e3 / seeds, 2)
        calls[name] = len(runs)
    return {"seeds": seeds, "calls": calls, "ms_per_seed": per_seed,
            "ref_per_seed": in_kernels(per_seed, 1e-3, ref_s)}


def measure(config, points, figures):
    """The wall-time figures of one run config, RUNS untraced runs, in
    reference-kernel units too, then those that `figures` takes from one
    run traced at `points`; each run writes under the config's
    output_dir."""
    tmp = config.pop("output_dir")
    kernel = ReferenceKernel()
    sampler = Sampler(kernel)
    runs = [run_reference(config, os.path.join(tmp, f"run{i}"), sampler)
            for i in range(RUNS)]
    tracer = tracer_mod.Tracer(points=points)
    kernels = [kernel() for _ in range(KERNELS)]
    with tracer.installed():
        traced, _ = run_reference(config, os.path.join(tmp, "traced"))
    kernels += [kernel() for _ in range(KERNELS)]
    if tracer.absent:
        sys.exit(f"error: wrap points name missing code: {tracer.absent}")
    tracemalloc.start()
    try:
        run_reference(config, os.path.join(tmp, "heap"))
        heap_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "reference_run": config,
        "reference_run_s": round(statistics.median(w for w, _ in runs), 3),
        "reference_run_s_each": [round(w, 3) for w, _ in runs],
        "reference_run_ref": round(statistics.median(w / k for w, k in runs), 1),
        "reference_run_ref_each": [round(w / k, 1) for w, k in runs],
        "reference_kernel_s_each": [round(k, 5) for _, k in runs],
        "traced_run_s": round(traced, 3),
        "traced_kernel_s_each": [round(k, 5) for k in kernels],
        "heap_peak_mb": round(heap_peak / 2**20, 2),
        **figures(tracer.spans, statistics.median(kernels)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="names the output file BENCH_<label>.json")
    parser.add_argument("--output-dir", default=ROOT,
                        help="directory of the output file")
    args = parser.parse_args(argv)

    spec = load_spec()
    with tempfile.TemporaryDirectory() as tmp:
        def config(workload):
            return make_config(spec, workload, RUN_SEED,
                               os.path.join(tmp, workload))
        reference = measure(config("grcl-blobs"), wrap_points(),
                            stage_figures)
        dense = measure(config("multitask-moons-k512"), wrap_points(),
                        stage_figures)
        source = config("srconly-blobs")
        source_only = measure(source, source_points(), functools.partial(
            source_figures, seeds=len(source["seeds"])))
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
