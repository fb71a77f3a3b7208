"""contda benchmark: times `contda.cli.run_config` on generated run configs.

    python3 perfbench/run.py --workload grcl-blobs --seed 11 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40   # every workload, one table

Each workload is a closed loop: one caller makes one `run_config` call after
another in this process, with one BLAS thread, for about `--seconds`
seconds.  Workload configs and the metric map live in `spec.json`; the
program sees only the config and the data that the config generates.

With `--trace 0` the last output line carries the end-to-end metrics:
`run_ref` (median call time in units of a reference kernel sampled during
each call, see `Sampler`), `steps_per_ref`, median `setup_s` over fresh `contda run` processes
(probe.py), `peak_rss_mb` and `acc`; raw wall times are printed before it.  With `--trace 1` the calls
alternate between untraced and traced, and the last line carries the
per-layer metrics of the traced calls; the spans of the last traced call are
written to `.perfbench_out/<workload>/trace.json`.  Every call's artifacts
are checked (checks.py), and a failed check makes the exit code 1.  Exit
code 2 means the contda sources could not be found or imported.
"""

import os

# one BLAS thread; must be set before anything imports NumPy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# run_config writes to this directory instead of the config's when it is set
os.environ.pop("CONTDA_OUTPUT_DIR", None)

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import tracer as tracer_mod  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench_out"  # relative to ROOT, the working directory

EXIT_CHECK = 1
EXIT_SETUP = 2
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170
# forward-bearing model calls counted by model.forward_calls_per_step
FORWARDS = ("model.ce_loss_and_grad", "model.embedding_backward",
            "model.encode_project_batch", "model.encode_batch",
            "model.classify_batch")
WRITES = ("cli.write_matrix_csv", "cli.write_metrics_json",
          "cli.write_diagnostics_csv")
PROJECTED_CASES = ("interior", "source-active", "memory-active", "both-active")
# layers that src_only must leave idle
ADAPTATION_LAYERS = ("bank", "contrastive", "gradproject", "memory")


class SetupError(RuntimeError):
    pass


def load_spec():
    with open(os.path.join(HERE, "spec.json")) as fh:
        return json.load(fh)


def make_config(spec, workload, seed, out_dir):
    entry = spec["workloads"][workload]
    cfg = dict(entry["config"])
    offsets = entry["seed_offsets"]
    if len(offsets) == 1:
        cfg["seed"] = seed + offsets[0]
    else:
        cfg["seeds"] = [seed + o for o in offsets]
    cfg["output_dir"] = out_dir
    return cfg


def import_contda():
    """Import contda from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "contda", "cli.py")):
        raise SetupError(f"no contda sources at {SRC}")
    sys.path.insert(0, SRC)
    try:
        from contda import cli
    except ImportError as exc:
        raise SetupError(f"cannot import contda: {exc}") from exc
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"contda imported from {cli.__file__}, not {SRC}")
    return cli


def provenance():
    import numpy as np
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "contda", "*.py"))):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "source_sha256": h.hexdigest(),
            "numpy": np.__version__, "python": platform.python_version(),
            "blas_threads": int(os.environ["OMP_NUM_THREADS"]),
            "nproc": os.cpu_count(), "machine": platform.machine()}


def probe_setup(config_path, probes=SETUP_PROBES):
    """Seconds from spawning `contda run` until run_config is called, for
    each of `probes` processes after one untimed one that fills the
    byte-code cache."""
    script = os.path.join(HERE, "probe.py")
    times = []
    for i in range(probes + 1):
        start = time.time()
        out = subprocess.run([sys.executable, script, config_path],
                             capture_output=True, text=True, cwd=ROOT,
                             timeout=CHILD_TIMEOUT_S)
        if out.returncode != 0:
            raise SetupError(f"setup probe failed: {out.stderr.strip()}")
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]) - start)
    return times


def planned_steps(cli, cfg, seeds):
    """Pretraining plus warm-up optimizer steps of one call, from the plan
    and the source split size; adaptation steps are diagnostics.csv rows."""
    total = 0
    for seed in seeds:
        plan = cli.build_plan(cfg, seed)
        per_epoch = math.ceil(len(cli.load_domains(cfg, seed)[0].train)
                              / plan.batch_size)
        total += plan.pretrain_epochs * per_epoch
        if plan.strategy != "src_only":
            total += plan.warm_epochs * per_epoch
    return total


class Observer:
    """A tracer for one traced call, plus what its wrap points hand back:
    the seed behind each trace id, the generated domains, bank sizes and
    episodic memories."""

    def __init__(self, call_index):
        self.tracer = tracer_mod.Tracer()
        self.tracer.trace_id = f"call{call_index}"
        self.call_index = call_index
        self.seed_of = {}
        self.domains = {}
        self.bank_sizes = []
        self.memories = []
        self.tracer.on_enter["cli.load_domains"] = self._seed
        self.tracer.on_exit["datagen.generate_sequence"] = self._domains
        self.tracer.on_exit["bank.init_bank"] = self._bank
        self.tracer.on_exit["memory.build_memory"] = self._memory

    def _seed(self, cfg, seed, *args, **kwargs):
        self.tracer.trace_id = f"call{self.call_index}/seed{seed}"
        self.seed_of[self.tracer.trace_id] = seed

    def _domains(self, domains, *args, **kwargs):
        self.domains[self.tracer.trace_id] = domains

    def _bank(self, bank, *args, **kwargs):
        self.bank_sizes.append(len(bank))

    def _memory(self, memory, *args, **kwargs):
        self.memories.append((self.tracer.trace_id, memory))

    def labelled_memories(self):
        """(trace_id, domain_index, pseudo-labels, true labels) per memory."""
        truth = {}
        for trace_id, domains in self.domains.items():
            truth[trace_id] = {sid: int(y) for d in domains
                               for sid, y in zip(d.train.ids, d.train.y)}
        return [(trace_id, mem.domain_index, mem.labels,
                 [truth[trace_id][sid] for sid in mem.ids])
                for trace_id, mem in self.memories]


class Bench:
    """One workload's config, its run_config calls and their checks."""

    def __init__(self, cli, spec, workload, seed):
        import numpy as np

        import checks
        from contda import ContdaError
        self.cli, self.checks = cli, checks
        # the exceptions `contda run` maps to exit code 3
        self.run_errors = (ContdaError, np.linalg.LinAlgError, FloatingPointError)
        self.workload = workload
        self.dir = os.path.join(WORK, workload)
        os.makedirs(self.dir, exist_ok=True)
        self.cfg = cli.validate_config(
            make_config(spec, workload, seed, os.path.join(self.dir, "out")))
        self.seeds = self.cfg.get("seeds") or [self.cfg["seed"]]
        self.config_path = os.path.join(self.dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.cfg, fh, indent=2)
        self.digest = None
        self.attempted = 0
        self.failures = []

    def fail(self, call, seed, reason):
        self.failures.append({"call": call, "seed": seed, "reason": reason})

    def call(self, index, tracer=None, sampler=None):
        """One run_config call, timed, then its output checks.  With a
        sampler the time its ticks took is taken out of the duration."""
        out = self.cfg["output_dir"]
        shutil.rmtree(out, ignore_errors=True)
        error = None
        with sampler or contextlib.nullcontext():
            start = time.perf_counter()
            try:
                if tracer is None:
                    self.cli.run_config(self.cfg)
                else:
                    with tracer.installed():
                        self.cli.run_config(self.cfg)
            except self.run_errors as exc:
                error = exc
            end = time.perf_counter()
        duration = end - start
        if sampler is not None:
            duration -= sampler.busy_between(start, end)

        failed = {}
        cases = collections.Counter()
        for seed in self.seeds:
            self.attempted += 1
            seed_dir = os.path.join(out, f"seed_{seed}")
            if not os.path.exists(os.path.join(seed_dir, "metrics.json")):
                failed[seed] = (f"raised {type(error).__name__}: {error}"
                                if error else "artifacts missing")
                if error:
                    break  # later seeds were never attempted
                continue
            problems = self.checks.check_seed(seed_dir, self.cfg["strategy"])
            if problems:
                failed[seed] = "; ".join(problems[:3])
            diag = os.path.join(seed_dir, "diagnostics.csv")
            if os.path.exists(diag):
                cases.update(r["case"] for r in self.checks.read_diagnostics(diag))

        digest = self.checks.digest(out, self.seeds)
        if not failed:
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                failed = {s: "artifacts differ from the first call's"
                          for s in self.seeds}
        for seed, reason in failed.items():
            self.fail(index, seed, reason)
        aggregate = None
        if error is None:
            with open(os.path.join(out, "metrics.json")) as fh:
                aggregate = json.load(fh)
        return {"duration": duration, "cases": cases, "aggregate": aggregate,
                "traced": tracer is not None,
                "ref": statistics.median(sampler.samples) if sampler else None}

    def loop(self, seconds, on_traced=None, sampler=None):
        """Calls until the next one would end after `seconds`.  With
        `on_traced` the calls alternate untraced/traced, at least one of
        each, and each traced call's observer goes to `on_traced`."""
        results = []
        start = time.perf_counter()
        while True:
            index = len(results)
            obs = Observer(index) if on_traced and index % 2 else None
            results.append(self.call(index, obs.tracer if obs else None, sampler))
            if obs is not None:
                on_traced(obs)
            if on_traced and len(results) < 2:
                continue
            typical = statistics.median(r["duration"] for r in results)
            if time.perf_counter() - start + typical > seconds:
                return results


class ReferenceKernel:
    """Fixed NumPy and Python work shaped like contda's inner loop: 64-wide
    tanh layers, an np.delete and a 512-row gather from a 1,300-row bank, a
    log-sum-exp and a small dict.  It never touches contda, so its wall time
    tracks only how fast this machine runs such work at the moment."""

    ITERS = 100

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.w = rng.standard_normal((64, 64))
        self.x = rng.standard_normal((64, 64))
        self.keys = rng.standard_normal((1300, 16))
        self.q = rng.standard_normal(16)

    def __call__(self):
        np = self.np
        total = 0.0
        start = time.perf_counter()
        for i in range(self.ITERS):
            total += float(np.tanh(self.w @ self.x).sum())
            rows = np.delete(np.arange(self.keys.shape[0]), i % self.keys.shape[0])
            z = self.keys[rows[:512]] @ self.q
            z = z - z.max()
            total += float(np.log(np.exp(z).sum()))
            total += len({j: j for j in range(30)})
        elapsed = time.perf_counter() - start
        if not math.isfinite(total):
            raise FloatingPointError("reference kernel produced a non-finite sum")
        return elapsed


class Sampler:
    """Times the reference kernel once before a call, every `PERIOD_S`
    seconds during it (from a SIGALRM handler, between two byte-codes of
    the call) and once after it.

    On a shared host the wall time of one and the same call drifts by 10-20%
    from minute to minute; the kernel sampled during the call drifts with
    it, so the call's time over the median sample stays steady.
    """

    PERIOD_S = 0.5

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = []
        self.ticks = []

    def __enter__(self):
        self.samples = [self.kernel()]
        self.ticks = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(self.kernel())
        return False

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(self.kernel())
        self.ticks.append((start, time.perf_counter() - start))

    def busy_between(self, start, end):
        """Seconds the ticks that began within [start, end] took."""
        return sum(busy for began, busy in self.ticks if start <= began <= end)


def end_to_end(bench, seconds):
    setup_all = probe_setup(bench.config_path)
    steps_plan = planned_steps(bench.cli, bench.cfg, bench.seeds)
    results = bench.loop(seconds, sampler=Sampler(ReferenceKernel()))
    durations = [r["duration"] for r in results]
    run_ref = statistics.median(r["duration"] / r["ref"] for r in results)
    steps = steps_plan + sum(results[0]["cases"].values())
    agg = next((r["aggregate"] for r in results if r["aggregate"]), None)
    metrics = {
        "run_ref": (run_ref, "ref"),
        "steps_per_ref": (steps / run_ref, "steps/ref"),
        "setup_s": (statistics.median(setup_all), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MiB"),
        "acc": (agg["acc"]["mean"] if agg else None, "ratio"),
    }
    detail = {"run_s": statistics.median(durations), "run_s_all": durations,
              "ref_s_all": [r["ref"] for r in results], "setup_s_all": setup_all,
              "steps_per_call": steps, "steps_per_s": steps / statistics.median(durations)}
    return metrics, detail


class LayerStats:
    """Merged span summaries of the traced calls."""

    def __init__(self):
        self.calls = 0
        self.spans = 0
        self.by_name = collections.defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        self.projections_outside_warmup = 0
        self.memories = []
        self.bank_sizes = []
        self.last = None

    def add(self, obs):
        spans = obs.tracer.spans
        self.calls += 1
        self.spans += len(spans)
        for name, entry in tracer_mod.summarize(spans).items():
            for key, value in entry.items():
                self.by_name[name][key] += value
        self.projections_outside_warmup += sum(
            1 for i, rec in enumerate(spans)
            if rec[0] == "gradproject.project_two"
            and not tracer_mod.has_ancestor(spans, i, "harness.warm_projector"))
        self.memories += [(obs.seed_of.get(t), d, p, y)
                          for t, d, p, y in obs.labelled_memories()]
        self.bank_sizes += obs.bank_sizes
        self.last = obs

    def layer_calls(self):
        out = collections.Counter()
        for name, entry in self.by_name.items():
            out[name.split(".", 1)[0]] += entry["calls"]
        return dict(out)


def per_layer(bench, seconds, spec):
    stats = LayerStats()
    steps_plan = planned_steps(bench.cli, bench.cfg, bench.seeds)
    results = bench.loop(seconds, on_traced=stats.add)
    write_trace(bench, stats.last)

    capacity = bench.cli.build_plan(bench.cfg, bench.seeds[0]).memory_capacity
    for seed, domain, pseudo, _ in stats.memories:
        if len(pseudo) > capacity:
            bench.fail(None, seed, f"memory {domain} holds {len(pseudo)} > "
                                   f"{capacity} entries")

    traced = [r for r in results if r["traced"]]
    untraced = [r for r in results if not r["traced"]]
    n = stats.calls
    cases = collections.Counter()
    for r in traced:
        cases.update(r["cases"])
    adapt_iters = sum(cases.values())
    steps = n * steps_plan + adapt_iters
    names = stats.by_name
    idle = []

    def guarded(name, num, den):
        if not den:
            idle.append(name)
            return 0.0
        return num / den

    def per_call(metric, span, scale, key="total_s"):
        return guarded(metric, names[span][key] * scale, names[span]["calls"])

    m = {}
    for span in ("bank.draw_negatives", "bank.key", "numerics.log_softmax",
                 "gradproject.project_two"):
        m[f"{span}.calls"] = names[span]["calls"] / n
    for span in ("bank.draw_negatives", "numerics.log_softmax"):
        m[f"{span}.self_s"] = names[span]["self_s"] / n
    span = "contrastive.contrastive_grad"
    m[f"{span}.us_per_call"] = per_call(f"{span}.us_per_call", span, 1e6)
    m[f"{span}.self_us_per_call"] = per_call(f"{span}.self_us_per_call", span,
                                             1e6, "self_s")
    m["model.forward_calls_per_step"] = guarded(
        "model.forward_calls_per_step", sum(names[f]["calls"] for f in FORWARDS),
        steps)
    for span in ("model.ce_loss_and_grad", "model.embedding_backward",
                 "model.encode_project_batch", "model.sgd_step",
                 "gradproject.project_two", "bank.momentum_update"):
        m[f"{span}.us_per_call"] = per_call(f"{span}.us_per_call", span, 1e6)
    projected = sum(cases[c] for c in PROJECTED_CASES)
    m["gradproject.active_share"] = guarded(
        "gradproject.active_share", projected - cases["interior"], projected)
    m["harness.adapt_iters"] = adapt_iters / n
    m["harness.adapt_domain.self_us_per_iter"] = guarded(
        "harness.adapt_domain.self_us_per_iter",
        names["harness.adapt_domain"]["self_s"] * 1e6, adapt_iters)
    m["harness.pretrain_source.s"] = per_call(
        "harness.pretrain_source.s", "harness.pretrain_source", 1.0)
    m["harness.warm_projector.s"] = per_call(
        "harness.warm_projector.s", "harness.warm_projector", 1.0)
    m["harness.evaluate.ms"] = per_call("harness.evaluate.ms", "harness.evaluate", 1e3)
    agg = next((r["aggregate"] for r in traced if r["aggregate"]), None)
    m["harness.bwt"] = agg["bwt"]["mean"] if agg else None
    m["bank.init_bank.ms_per_call"] = per_call(
        "bank.init_bank.ms_per_call", "bank.init_bank", 1e3)
    m["bank.keys_mean"] = guarded("bank.keys_mean", sum(stats.bank_sizes),
                                  len(stats.bank_sizes))
    for span in ("memory.kmeans", "memory.build_memory"):
        m[f"{span}.ms_per_call"] = per_call(f"{span}.ms_per_call", span, 1e3)
    overall, by_domain = bench.checks.label_precision(
        [(d, p, y) for _, d, p, y in stats.memories])
    m["memory.label_precision"] = overall
    for metric in spec["metrics"]:
        if metric.startswith("memory.label_precision.d"):
            m[metric] = by_domain.get(int(metric.rsplit(".d", 1)[1]))
    for metric in [k for k, v in m.items() if v is None and k != "harness.bwt"]:
        idle.append(metric)
        m[metric] = 0.0
    m["datagen.generate_sequence.ms"] = per_call(
        "datagen.generate_sequence.ms", "datagen.generate_sequence", 1e3)
    m["cli.write_artifacts.ms"] = guarded(
        "cli.write_artifacts.ms", sum(names[w]["total_s"] for w in WRITES) * 1e3,
        n * len(bench.seeds))
    m["trace.spans"] = stats.spans / n
    m["trace.untraced_run_s"] = statistics.median(r["duration"] for r in untraced)
    m["trace.overhead_s"] = (statistics.median(r["duration"] for r in traced)
                             - m["trace.untraced_run_s"])

    metrics = {k: (m[k], v["unit"]) for k, v in spec["metrics"].items()
               if v["layer"] != "end_to_end"}
    absent = stats.last.tracer.absent
    detail = {
        "traced_calls": n, "untraced_calls": len(untraced),
        "run_s_traced": [r["duration"] for r in traced],
        "run_s_untraced": [r["duration"] for r in untraced],
        "absent_wrap_points": absent,
        "idle_metrics": sorted(set(idle)),
        "layer_calls_per_call": {k: v / n for k, v in stats.layer_calls().items()},
        "idle_adaptation_layers": [layer for layer in ADAPTATION_LAYERS
                                   if not stats.layer_calls().get(layer)],
        "project_two_outside_warm_projector": stats.projections_outside_warmup / n,
    }
    return metrics, detail


def write_trace(bench, obs):
    path = os.path.join(bench.dir, "trace.json")
    with open(path, "w") as fh:
        json.dump({"workload": bench.workload, "config": bench.cfg,
                   "absent": obs.tracer.absent,
                   "fields": ["name", "start", "end", "parent", "trace_id"],
                   "spans": obs.tracer.spans}, fh)


def run_workload(args, spec):
    try:
        cli = import_contda()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SETUP
    bench = Bench(cli, spec, args.workload, args.seed)
    say = lambda *parts: print("[perfbench]", *parts, flush=True)  # noqa: E731
    say(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}")
    say("config", json.dumps(bench.cfg, sort_keys=True))
    prov = provenance()
    say("provenance", json.dumps(prov, sort_keys=True))
    if args.trace:
        metrics, detail = per_layer(bench, args.seconds, spec)
    else:
        metrics, detail = end_to_end(bench, args.seconds)
    for key, value in detail.items():
        say(key, json.dumps(value))
    say(f"digest {args.workload} sha256={bench.digest}")
    for f in bench.failures:
        say("FAILED", json.dumps(f))
    failed = len(bench.failures)
    say(f"attempted {bench.attempted} failed {failed}")
    for name, (value, unit) in metrics.items():
        say(f"  {name:48s} {value!r} {unit}")
    result = {"correct": failed == 0, "attempted": bench.attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if args.record:
        with open(args.record, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "config": bench.cfg, "provenance": prov,
                       "digest": bench.digest, "failures": bench.failures,
                       "detail": detail, **result}, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else EXIT_CHECK


def run_all(args, spec):
    """Every workload in its own process, so peak memory stays per workload."""
    rows, correct, attempted, failed, code = [], True, 0, 0, 0
    for workload in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S + 10 * args.seconds)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return proc.returncode or EXIT_SETUP
        code = code or proc.returncode
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        rows += [(workload, k, v["value"], v["unit"])
                 for k, v in result["metrics"].items()]
    print()
    for workload, name, value, unit in rows:
        print(f"{workload:22s} {name:48s} {value!r} {unit}")
    print(f"attempted {attempted} failed {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {f"{w}/{k}": {"value": v, "unit": u}
                                  for w, k, v, u in rows}}))
    return code


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *spec["workloads"]])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full result record here")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
