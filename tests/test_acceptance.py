"""End-to-end acceptance checks for the continual adaptation trainer.

Each test verifies one externally visible guarantee of the package at a
stated tolerance and reports one [PASS]/[FAIL] line with the measured
numbers.  The lines, and one [bench] line per strategy, are collected in
conftest.GATE_LINES and printed in pytest's terminal summary, so they show
with or without output capture.

The benchmark-level checks (forgetting margins, ablation ordering, source
preservation) share a module-scoped set of runs: every strategy plus a
grid of fixed-weight baselines, on the reference preset, over five seeds
that were never used while tuning plan defaults. Expect the full module
to take about one minute on one core.
"""

import json
import time

import numpy as np
import pytest

from contda import cli, contrastive, datagen, gradproject, harness
from contda import model as model_mod
from contda.bank import negative_rows
from contda.harness import AccuracyMatrix, AdaptationPlan
from backward_oracle import ce_loss_and_grad
from conftest import GATE_LINES
from projection_oracle import brute_force_project

ACCEPT_SEEDS = (11, 22, 33, 44, 55)
DATA_SEED = 2024

# (lambda_source, lambda_memory) grid for the fixed-weight baseline; the
# best grid member by mean ACC is the comparison point for the forgetting
# margins, so the grid is declared here where it can be audited.
WEIGHT_GRID = ((0.5, 0.5), (1.0, 0.5), (0.5, 1.0), (1.0, 1.0), (2.0, 2.0))

GAP = 0.05  # grcl ACC over src_only
MARGIN = 0.02  # grcl BWT over the best grid member's
FLOOR = -0.02  # grcl BWT

STRATEGIES = [
    ("src_only", harness.SRC_ONLY, {}),
    ("crt_src", harness.CRT_SRC, {}),
    ("crt_sdc", harness.CRT_SDC, {}),
    ("grcl", harness.GRCL, {}),
] + [
    (f"mt_{ls}_{lm}", harness.MULTITASK,
     {"lambda_source": ls, "lambda_memory": lm})
    for ls, lm in WEIGHT_GRID
]
GRID_LABELS = [f"mt_{ls}_{lm}" for ls, lm in WEIGHT_GRID]
# the ablation chain, best first
CHAIN = ("grcl", "crt_sdc", "crt_src", "src_only")


def run_strategies(domains, seeds):
    """Each strategy's label and its runs on domains, one per seed."""
    for label, strategy, extra in STRATEGIES:
        yield label, [harness.run_plan(domains, AdaptationPlan(
            strategy=strategy, seed=seed, **extra)) for seed in seeds]


def chain_holds(acc):
    """The ablation gate on mean ACC per label: no link of CHAIN falls,
    and grcl clears src_only by GAP."""
    return (all(acc[a] >= acc[b] for a, b in zip(CHAIN, CHAIN[1:]))
            and acc["grcl"] - acc["src_only"] >= GAP)


def best_grid(acc):
    """The grid member with the best mean ACC."""
    return max(GRID_LABELS, key=lambda lab: acc[lab])


def forgetting_holds(acc, bwt, best):
    """The forgetting gate on mean ACC and BWT per label against grid
    member best: grcl's BWT beats best's by MARGIN and stays above FLOOR,
    and its ACC is no lower."""
    return (bwt["grcl"] >= bwt[best] + MARGIN and bwt["grcl"] >= FLOOR
            and acc["grcl"] >= acc[best])


def _report(name, ok, detail):
    tag = "PASS" if ok else "FAIL"
    GATE_LINES.append(f"[{tag}] {name}: {detail}")
    return detail


@pytest.fixture(scope="module")
def bench():
    """Every strategy x every acceptance seed on the reference preset.

    The dataset draw is fixed (one benchmark), run seeds vary training
    randomness: init, batch order, negatives, clustering.
    """
    domains = datagen.generate_sequence(
        datagen.preset_specs("rot-blobs-5"), DATA_SEED)
    runs = {}
    for label, results in run_strategies(domains, ACCEPT_SEEDS):
        runs.update(((label, seed), res)
                    for seed, res in zip(ACCEPT_SEEDS, results))
        accs = [res.metrics.acc for res in results]
        bwts = [res.metrics.bwt for res in results]
        GATE_LINES.append(f"  [bench] {label}: acc={np.mean(accs):.4f} "
                          f"bwt={np.mean(bwts):+.4f}")
    return domains, runs


def _mean(runs, label, field):
    vals = [getattr(runs[(label, s)].metrics, field) for s in ACCEPT_SEEDS]
    return float(np.mean(vals))


def _rand_projection_instance(rng, dim, pattern):
    g_t = rng.normal(size=dim)
    g_s = rng.normal(size=dim)
    g_dm = rng.normal(size=dim)
    # force requested activity by flipping constraint gradients toward or
    # against the target gradient
    if pattern in ("source", "both") and g_t @ g_s > 0:
        g_s = -g_s
    if pattern == "interior" and g_t @ g_s < 0:
        g_s = -g_s
    if pattern in ("memory", "both") and g_t @ g_dm > 0:
        g_dm = -g_dm
    if pattern == "interior" and g_t @ g_dm < 0:
        g_dm = -g_dm
    return g_t, g_s, g_dm


def test_projection_matches_brute_force_oracle():
    """1000 random instances, dims 3..50, all activity patterns: the
    projection solver matches the KKT brute-force solver to 1e-8 in
    objective and 1e-6 in the solution, with KKT diagnostics clean, in
    under ten seconds."""
    rng = np.random.default_rng(900)
    patterns = ("interior", "source", "memory", "both", "random")
    worst_obj = 0.0
    worst_w = 0.0
    start = time.perf_counter()
    for i in range(1000):
        dim = int(rng.integers(3, 51))
        g_t, g_s, g_dm = _rand_projection_instance(rng, dim, patterns[i % 5])
        J = np.stack([g_t, g_s, g_dm])
        K, eps = gradproject.gram(J)
        w, u, _ = gradproject.project(J, K, eps)
        ref_w = brute_force_project(g_t, J[1:])
        obj = 0.5 * float(np.sum((w - g_t) ** 2))
        ref_obj = 0.5 * float(np.sum((ref_w - g_t) ** 2))
        worst_obj = max(worst_obj, abs(obj - ref_obj))
        worst_w = max(worst_w, float(np.max(np.abs(w - ref_w))))
        diag = gradproject.kkt_check(w, u, g_t, J[1:], eps, u @ J[1:])
        assert all(diag[k] for k in gradproject.KKT_FLAGS), \
            f"instance {i}: KKT diagnostics failed"
    elapsed = time.perf_counter() - start
    ok = worst_obj <= 1e-8 and worst_w <= 1e-6 and elapsed < 10.0
    detail = _report(
        "projection vs brute force",
        ok,
        f"max obj gap {worst_obj:.2e} (<=1e-8), max w err {worst_w:.2e} "
        f"(<=1e-6), {elapsed:.1f}s (<10s)")
    assert ok, detail


def test_constraints_hold_every_iteration():
    """A full projected run on the reference preset keeps both constraint
    slacks above -eps at 100% of adaptation iterations, within the
    runtime budget."""
    domains = datagen.generate_sequence(
        datagen.preset_specs("rot-blobs-5"), DATA_SEED)
    plan = AdaptationPlan(strategy=harness.GRCL, seed=ACCEPT_SEEDS[0])
    start = time.perf_counter()
    res = harness.run_plan(domains, plan)
    elapsed = time.perf_counter() - start
    rows = res.diagnostics
    assert rows, "projected run produced no diagnostics"
    bad = 0
    worst = float("inf")
    for row in rows:
        eps = row["eps"]
        slacks = [row["slack_src"]]
        if not np.isnan(row["slack_mem"]):
            slacks.append(row["slack_mem"])
        worst = min(worst, min(s + eps for s in slacks))
        if any(s < -eps for s in slacks):
            bad += 1
    ok = bad == 0 and elapsed < 300.0
    detail = _report(
        "constraint slacks",
        ok,
        f"{len(rows) - bad}/{len(rows)} iterations feasible, worst "
        f"slack+eps {worst:.2e}, run took {elapsed:.0f}s (<300s)")
    assert ok, detail


def _fd_loss(loss_fn, params, coords, h=1e-6):
    flat = params.flat.copy()
    grads = np.empty(len(coords))
    for n, idx in enumerate(coords):
        for sign in (1.0, -1.0):
            flat[idx] += sign * h
            moved = model_mod.ModelParams(params.config, flat)
            if sign > 0:
                hi = loss_fn(moved)
            else:
                lo = loss_fn(moved)
            flat[idx] -= sign * h
        grads[n] = (hi - lo) / (2 * h)
    return grads


def test_analytic_gradients_match_finite_differences():
    """CE and contrastive analytic gradients agree with central finite
    differences to relative error < 1e-4 on 64 sampled coordinates per
    instance, 24 instances total (the denominator is floored at 1e-3 to
    keep the ratio meaningful on zero-gradient coordinates)."""
    rng = np.random.default_rng(901)
    worst = 0.0
    checked = 0
    for trial in range(24):
        config = model_mod.ModelConfig(
            input_dim=int(rng.integers(2, 6)),
            n_classes=int(rng.integers(3, 6)),
            hidden_dim=int(rng.integers(6, 11)),
            proj_hidden_dim=int(rng.integers(5, 9)),
            embed_dim=int(rng.integers(3, 7)))
        params = model_mod.init_params(config, rng)
        n = int(rng.integers(5, 9))
        X = rng.normal(size=(n, config.input_dim))
        if trial % 2 == 0:
            y = rng.integers(0, config.n_classes, size=n)

            def loss_fn(p):
                return ce_loss_and_grad(p, X, y)[0]

            grad = ce_loss_and_grad(params, X, y)[1].flatten()
        else:
            # the batch's own keys, then n unit keys outside the batch from
            # which its n - 1 shared negatives are drawn; every other
            # contrastive instance labels the bank from two classes, the
            # batch's first row unlabeled, so labeled rows have several
            # positives
            rows = np.arange(n)
            extra = np.random.default_rng(trial)
            outside = extra.normal(size=(n, config.embed_dim))
            fbank = np.concatenate((
                model_mod.encode_project_batch(params, X),
                outside / np.linalg.norm(outside, axis=1, keepdims=True)))
            (neg,) = negative_rows(fbank, [rows], n - 1,
                                   np.random.default_rng(0))
            labels = None
            if trial % 4 == 1:
                labels = extra.integers(0, 2, size=2 * n)
                labels[0] = -1
            (nce,) = contrastive.epoch_plans(fbank, [rows], [neg], labels)

            def loss_fn(p):
                return contrastive.contrastive_grad(
                    model_mod.forward(p, X), rows, neg, fbank, 0.2, nce)[0]

            fw = model_mod.forward(params, X)
            _, dQ = contrastive.contrastive_grad(fw, rows, neg, fbank, 0.2,
                                                 nce)
            grad = model_mod.backward(params, fw, dQ)[1][0]
        coords = rng.choice(len(grad), size=64, replace=False)
        fd = _fd_loss(loss_fn, params, coords)
        rel = np.abs(grad[coords] - fd) / np.maximum(np.abs(fd), 1e-3)
        worst = max(worst, float(rel.max()))
        checked += len(coords)
    ok = worst < 1e-4
    detail = _report(
        "gradient fidelity",
        ok,
        f"worst relative error {worst:.2e} (<1e-4) over {checked} "
        f"coordinates, 24 instances")
    assert ok, detail


def test_projection_beats_fixed_weights_on_forgetting(bench):
    """Mean backward transfer of the projected strategy beats the best
    fixed-weight grid member by MARGIN absolute, stays above FLOOR, and
    mean ACC does not regress."""
    _, runs = bench
    acc, bwt = ({lab: _mean(runs, lab, field) for lab in ["grcl"] + GRID_LABELS}
                for field in ("acc", "bwt"))
    best = best_grid(acc)
    ok = forgetting_holds(acc, bwt, best)
    detail = _report(
        "forgetting reduction",
        ok,
        f"bwt {bwt['grcl']:+.4f} vs best grid ({best}) {bwt[best]:+.4f} "
        f"(margin {bwt['grcl'] - bwt[best]:+.4f} >= {MARGIN}), floor {FLOOR}, "
        f"acc {acc['grcl']:.4f} vs {acc[best]:.4f}")
    assert ok, detail


def test_ablation_ordering_holds(bench):
    """Mean ACC must not decrease along the ablation chain, and the full
    method clears the frozen baseline by GAP absolute."""
    _, runs = bench
    accs = {lab: _mean(runs, lab, "acc") for lab in CHAIN}
    ok = chain_holds(accs)
    detail = _report(
        "ablation ordering",
        ok,
        f"grcl {accs['grcl']:.4f} >= crt_sdc {accs['crt_sdc']:.4f} >= "
        f"crt_src {accs['crt_src']:.4f} >= src_only "
        f"{accs['src_only']:.4f}, gap "
        f"{accs['grcl'] - accs['src_only']:.4f} (>={GAP})")
    assert ok, detail


def test_source_accuracy_preserved_after_first_domain():
    """After one adaptation under pressure the source-constrained strategy
    loses at most 0.01 source accuracy, and no more than the fixed-weight
    replay baseline loses.

    The rotating-blob benchmark never moves source accuracy for either
    strategy (a well-separated source survives one adaptation untouched),
    so this check runs on a two-moons pair whose interleaved boundary
    makes the source fragile under feature drift."""
    specs = [datagen.DomainSpec(kind=datagen.KIND_MOONS, n_classes=2,
                                per_class=400, rotation_deg=r, std=0.20)
             for r in (0.0, 35.0)]
    domains = datagen.generate_sequence(specs, DATA_SEED)

    def mean_drop(strategy, **extra):
        drops = []
        for s in ACCEPT_SEEDS:
            plan = AdaptationPlan(strategy=strategy, seed=s,
                                  epochs_per_domain=10, **extra)
            m = harness.run_plan(domains, plan).matrix
            drops.append(m.entry(0, 0) - m.entry(1, 0))
        return float(np.mean(drops))

    sdc_drop = mean_drop(harness.CRT_SDC)
    replay_drop = mean_drop(harness.MULTITASK, lambda_source=1.0)
    ok = sdc_drop <= 0.01 and sdc_drop <= replay_drop
    detail = _report(
        "source preservation",
        ok,
        f"constrained drop {sdc_drop:+.4f} (<=0.01) vs replay drop "
        f"{replay_drop:+.4f}")
    assert ok, detail


def test_metric_formulas_match_hand_cases(bench):
    """Summary metrics reproduce hand-evaluated cases exactly and the
    frozen baseline reports zero backward transfer."""
    m = AccuracyMatrix.empty(2)
    m.set_row(0, np.array([0.9]))
    m.set_row(1, np.array([0.85, 0.75]))
    m.set_row(2, np.array([0.9, 0.7, 0.8]))
    got = harness.compute_metrics(m, 2)
    hand_ok = (abs(got.acc - 1.2) < 1e-12
               and abs(got.acc_mean - 0.8) < 1e-12
               and abs(got.bwt - (-0.05)) < 1e-12)

    m3 = AccuracyMatrix.empty(3)
    m3.set_row(0, np.array([0.96]))
    m3.set_row(1, np.array([0.9, 0.6]))
    m3.set_row(2, np.array([0.88, 0.64, 0.7]))
    m3.set_row(3, np.array([0.8, 0.5, 0.62, 0.66]))
    got3 = harness.compute_metrics(m3, 3)
    # acc = (0.8+0.5+0.62+0.66)/3, bwt = ((0.5-0.6)+(0.62-0.7))/2
    hand3_ok = (abs(got3.acc - 2.58 / 3) < 1e-12
                and abs(got3.bwt - (-0.09)) < 1e-12)

    _, runs = bench
    frozen_ok = all(runs[("src_only", s)].metrics.bwt == 0.0
                    for s in ACCEPT_SEEDS)
    ok = hand_ok and hand3_ok and frozen_ok
    detail = _report(
        "metric formulas",
        ok,
        f"hand case N=2 acc={got.acc:.6f} bwt={got.bwt:+.6f}, N=3 "
        f"acc={got3.acc:.6f} bwt={got3.bwt:+.6f}, frozen bwt==0 "
        f"{frozen_ok}")
    assert ok, detail


def test_repeated_run_is_bitwise_identical(tmp_path):
    """The same manifest run twice produces byte-identical artifacts."""
    out = tmp_path / "out"
    cfg = {"preset": "rot-blobs-5", "strategy": "grcl", "seed": 7,
           "output_dir": str(out), "diagnostics": "full"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))

    def snapshot():
        assert cli.main(["run", str(path)]) == cli.EXIT_OK
        return {str(p.relative_to(out)): p.read_bytes()
                for p in out.rglob("*") if p.is_file()}

    first = snapshot()
    second = snapshot()
    diff = sorted(set(first) ^ set(second)) + [
        rel for rel in sorted(set(first) & set(second))
        if first[rel] != second[rel]]
    ok = not diff
    detail = _report(
        "determinism",
        ok,
        f"{len(first)} artifacts compared, mismatches: "
        f"{diff if diff else 'none'}")
    assert ok, detail
