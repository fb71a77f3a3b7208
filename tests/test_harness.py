import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from contda import bank, datagen, gradproject, harness, memory, model
from contda.errors import ContractViolationError, DimensionError
from backward_oracle import ce_loss_and_grad
from projection_oracle import tolerance


def tiny_plan(strategy, **kw):
    base = dict(strategy=strategy, pretrain_epochs=5, warm_epochs=1,
                epochs_per_domain=2, batch_size=16, lr=0.05, pretrain_lr=0.1,
                hidden_dim=8, proj_hidden_dim=8, embed_dim=4, temperature=0.2,
                negatives=8, memory_capacity=16, seed=7)
    base.update(kw)
    return harness.AdaptationPlan(**base)


_DOMAIN_CACHE = {}


def tiny_domains(n_domains=3, per_class=20, seed=5):
    key = (n_domains, per_class, seed)
    if key not in _DOMAIN_CACHE:
        specs = [datagen.DomainSpec(kind=datagen.KIND_BLOBS, n_classes=3,
                                    per_class=per_class, rotation_deg=12.0 * i,
                                    radius=2.0, std=0.25)
                 for i in range(n_domains)]
        _DOMAIN_CACHE[key] = datagen.generate_sequence(specs, seed)
    return _DOMAIN_CACHE[key]


def test_plan_validation():
    for name in ("no_such_strategy", "crt_src_mem"):
        with pytest.raises(ContractViolationError, match="unknown strategy"):
            tiny_plan(name)
    # the target takes 1 - ratio_source - ratio_memory
    with pytest.raises(ContractViolationError, match="target"):
        tiny_plan(harness.GRCL, ratio_source=0.5, ratio_memory=0.5)
    with pytest.raises(ContractViolationError):
        tiny_plan(harness.GRCL, ratio_source=-0.25, ratio_memory=0.5)
    # a batch needs a target row with and without memories to draw from:
    # 0.5/0.495 leaves one without memories and none with them
    for ratios in ((1.0, 0.0), (0.0, 1.0), (0.5, 0.495)):
        with pytest.raises(ContractViolationError, match="target"):
            tiny_plan(harness.GRCL, batch_size=64, **dict(zip(
                ("ratio_source", "ratio_memory"), ratios)))
    plan = tiny_plan(harness.GRCL, batch_size=64, ratio_source=0.5,
                     ratio_memory=0.49)
    assert plan.batch_counts(False) == (63, 0, 1)
    assert plan.batch_counts(True) == (32, 31, 1)
    with pytest.raises(ContractViolationError):
        tiny_plan(harness.MULTITASK, lambda_source=-1.0)
    with pytest.raises(ContractViolationError):
        tiny_plan(harness.GRCL, batch_size=2)
    with pytest.raises(ContractViolationError):
        tiny_plan(harness.GRCL, lr=0.0)
    for bad in ({"temperature": -0.2}, {"temperature": 0.0}, {"negatives": -1},
                {"bank_momentum": 1.5}, {"bank_momentum": -0.1},
                {"memory_capacity": 0}, {"hidden_dim": 0},
                {"proj_hidden_dim": 0}, {"embed_dim": 0},
                {"pretrain_epochs": -1}, {"warm_epochs": -1},
                {"epochs_per_domain": -1}):
        with pytest.raises(ContractViolationError):
            tiny_plan(harness.GRCL, **bad)
    # NaN and Inf pass the range checks' comparisons unless refused
    for name in ("lr", "pretrain_lr", "lambda_source", "lambda_memory",
                 "ratio_source", "ratio_memory",
                 "temperature", "bank_momentum"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ContractViolationError, match="finite"):
                tiny_plan(harness.MULTITASK, **{name: value})


def test_accuracy_matrix_contract():
    m = harness.AccuracyMatrix.empty(2)
    assert m.values.shape == (3, 3)
    assert np.all(np.isnan(m.values))
    m.set_row(0, [0.5])
    m.set_row(1, [0.6, 0.7])
    assert m.entry(1, 1) == 0.7
    with pytest.raises(ContractViolationError):
        m.set_row(2, [0.1, 0.2])
    with pytest.raises(ContractViolationError):
        m.entry(2, 0)


def step(plan, *rows):
    """Direction, multipliers and case of a step on the stacked rows; the
    slacks it returns beside them must be J[1:] w, bit for bit."""
    J = np.stack(rows)
    w, u_star, case, slacks = harness._step_direction(
        plan, J, *gradproject.gram(J))
    np.testing.assert_array_equal(slacks, J[1:] @ w)
    return w, u_star, case


def test_multitask_step_grad_weights():
    g_t = np.array([1.0, 0.0])
    g_s = np.array([0.0, 2.0])
    g_dm = np.array([3.0, 3.0])
    mt = tiny_plan(harness.MULTITASK, lambda_source=0.5, lambda_memory=2.0)
    w, u_star, case = step(mt, g_t, g_s, g_dm)
    np.testing.assert_allclose(w, [1.0 + 6.0, 1.0 + 6.0])
    np.testing.assert_array_equal(u_star, [0.0, 0.0])
    assert case == "fixed-weight"
    # no memory row yet, and crt_src never weighs one in
    np.testing.assert_allclose(step(mt, g_t, g_s)[0], [1.0, 1.0])
    crt_src = tiny_plan(harness.CRT_SRC, lambda_source=2.0)
    np.testing.assert_allclose(step(crt_src, g_t, g_s, g_dm)[0], [1.0, 4.0])


def test_evaluate_matches_manual_accuracy():
    domains = tiny_domains()
    cfg = model.ModelConfig(input_dim=2, n_classes=3, hidden_dim=8,
                            proj_hidden_dim=8, embed_dim=4)
    params = model.init_params(cfg, np.random.default_rng(0))
    holdouts = [d.holdout for d in domains]
    accs = harness.evaluate(params, holdouts)
    assert accs.shape == (3,)
    for a, ds in zip(accs, holdouts):
        pred = model.classify_batch(params, ds.X).argmax(axis=1)
        assert a == float(np.mean(pred == ds.y))
        assert 0.0 <= a <= 1.0


def test_evaluate_tie_break_picks_first_class():
    domains = tiny_domains()
    cfg = model.ModelConfig(input_dim=2, n_classes=3, hidden_dim=8,
                            proj_hidden_dim=8, embed_dim=4)
    params = model.ModelParams(
        cfg, np.zeros(model.init_params(cfg, np.random.default_rng(0)).num_params))
    # all-zero weights give identical logits; argmax must resolve to class 0
    accs = harness.evaluate(params, [domains[0].holdout])
    want = float(np.mean(domains[0].holdout.y == 0))
    assert accs[0] == want


def test_compute_metrics_hand_case_two_targets():
    m = harness.AccuracyMatrix.empty(2)
    m.set_row(0, [1.0])
    m.set_row(1, [0.9, 0.8])
    m.set_row(2, [0.85, 0.75, 0.8])
    got = harness.compute_metrics(m, 2)
    np.testing.assert_allclose(got.acc, (0.85 + 0.75 + 0.8) / 2)
    np.testing.assert_allclose(got.acc_mean, (0.85 + 0.75 + 0.8) / 3)
    np.testing.assert_allclose(got.bwt, 0.75 - 0.8)


def test_compute_metrics_single_target_bwt_nan():
    m = harness.AccuracyMatrix.empty(1)
    m.set_row(0, [1.0])
    m.set_row(1, [0.9, 0.7])
    got = harness.compute_metrics(m, 1)
    np.testing.assert_allclose(got.acc, 1.6)
    assert math.isnan(got.bwt)


def test_compute_metrics_requires_filled_row():
    m = harness.AccuracyMatrix.empty(2)
    m.set_row(0, [1.0])
    with pytest.raises(ContractViolationError):
        harness.compute_metrics(m, 2)


def test_cosine_lr_schedule_endpoints():
    assert harness._cosine_lr(0.1, 0, 100) == 0.1
    np.testing.assert_allclose(harness._cosine_lr(0.1, 100, 100), 0.0, atol=1e-18)
    np.testing.assert_allclose(harness._cosine_lr(0.1, 50, 100), 0.05)


def test_src_only_freezes_model_and_bwt_zero():
    domains = tiny_domains()
    res = harness.run_plan(domains, tiny_plan(harness.SRC_ONLY))
    R = res.matrix.values
    # frozen parameters: every column constant below its diagonal
    for j in range(3):
        col = R[j:, j]
        np.testing.assert_allclose(col, col[0], atol=0)
    assert res.metrics.bwt == 0.0
    assert res.diagnostics == []
    assert res.memories == []


def test_each_parameter_state_is_evaluated_once(monkeypatch):
    # a state that a domain left unchanged (every src_only row, a domain of
    # zero epochs) is evaluated on the new holdout only; the matrix is the
    # one built by evaluating every row in full
    domains = tiny_domains(n_domains=4)
    holdouts = [d.holdout for d in domains]
    n = len(domains)
    real, calls = model.classify_batch, []

    def counting(params, X):
        calls.append(len(X))
        return real(params, X)

    monkeypatch.setattr(model, "classify_batch", counting)
    for plan, want in ((tiny_plan(harness.SRC_ONLY), n),
                       (tiny_plan(harness.GRCL, epochs_per_domain=0), n),
                       (tiny_plan(harness.GRCL), n * (n + 1) // 2)):
        calls.clear()
        res = harness.run_plan(domains, plan)
        assert len(calls) == want
        if want == n:
            assert calls == [len(ds) for ds in holdouts]
            full = harness.AccuracyMatrix.empty(n - 1)
            for t in range(n):
                full.set_row(t, harness.evaluate(res.params, holdouts[:t + 1]))
            np.testing.assert_array_equal(res.matrix.values, full.values)


def test_run_plan_fills_lower_triangle_only():
    domains = tiny_domains()
    res = harness.run_plan(domains, tiny_plan(harness.GRCL))
    R = res.matrix.values
    for t in range(3):
        assert np.all(np.isfinite(R[t, :t + 1]))
        assert np.all(np.isnan(R[t, t + 1:]))


def test_adaptive_strategies_build_bounded_memories(monkeypatch):
    domains = tiny_domains(n_domains=4)
    n_targets = len(domains) - 1
    # every adaptive strategy keeps one memory, from one k-means, per target
    # domain but the last, whose memory nothing reads; only the frozen
    # baseline keeps none (covered elsewhere)
    real_kmeans, fits = memory.kmeans, []

    def counting_kmeans(*args, **kwargs):
        fits.append(1)
        return real_kmeans(*args, **kwargs)

    monkeypatch.setattr(memory, "kmeans", counting_kmeans)
    for strategy in (harness.GRCL, harness.CRT_SDC, harness.CRT_SRC):
        fits.clear()
        res = harness.run_plan(domains, tiny_plan(strategy, memory_capacity=9))
        assert len(res.memories) == len(fits) == n_targets - 1
        for t, mem in enumerate(res.memories, start=1):
            assert mem.domain_index == t
            assert len(mem.rows) <= 9
            assert np.all(mem.labels >= 0) and np.all(mem.labels < 3)
            rows = mem.rows
            assert rows.dtype == np.int64 and len(set(rows.tolist())) == len(rows)
            assert np.all((0 <= rows) & (rows < len(domains[t].train)))


def test_memory_rows_and_ids_name_the_same_samples():
    # until the ids are deleted a memory names its samples twice: by rows of
    # its domain's train split and by ids; perfbench's observer scores the
    # pseudo-labels through the ids, mapped to true labels, so the one-line
    # precision read through the rows must give its figure exactly
    domains = datagen.generate_sequence(datagen.preset_specs("rot-blobs-5"),
                                        2024)
    res = harness.run_plan(domains, harness.AdaptationPlan(
        strategy=harness.GRCL, seed=11, pretrain_epochs=5, warm_epochs=1,
        epochs_per_domain=1))
    assert len(res.memories) == len(domains) - 2
    truth = {sid: int(y) for d in domains
             for sid, y in zip(d.train.ids, d.train.y)}
    for t, m in enumerate(res.memories, start=1):
        assert m.domain_index == t and len(m.rows) > 0
        train = domains[t].train
        assert m.ids == [train.ids[r] for r in m.rows]
        hits = sum(int(p) == truth[sid] for p, sid in zip(m.labels, m.ids))
        assert (m.labels == train.y[m.rows]).mean() == hits / len(m.ids)


def same_diag_row(ra, rb):
    if set(ra) != set(rb):
        return False
    for k, va in ra.items():
        vb = rb[k]
        if isinstance(va, float) and math.isnan(va):
            if not (isinstance(vb, float) and math.isnan(vb)):
                return False
        elif va != vb:
            return False
    return True


def test_run_plan_is_deterministic():
    domains = tiny_domains()
    a = harness.run_plan(domains, tiny_plan(harness.GRCL))
    b = harness.run_plan(domains, tiny_plan(harness.GRCL))
    np.testing.assert_array_equal(a.matrix.values, b.matrix.values)
    assert len(a.diagnostics) == len(b.diagnostics)
    for ra, rb in zip(a.diagnostics, b.diagnostics):
        assert same_diag_row(ra, rb)
    c = harness.run_plan(domains, tiny_plan(harness.GRCL, seed=8))
    assert not np.array_equal(a.matrix.values, c.matrix.values)


def test_multitask_matches_crt_src_before_memories_exist():
    domains = tiny_domains()
    a = harness.run_plan(domains, tiny_plan(harness.MULTITASK))
    b = harness.run_plan(domains, tiny_plan(harness.CRT_SRC))
    # identical until the first memory is consumed (rows 0 and 1)
    np.testing.assert_array_equal(a.matrix.values[0, :1], b.matrix.values[0, :1])
    np.testing.assert_array_equal(a.matrix.values[1, :2], b.matrix.values[1, :2])


def test_grcl_constraints_hold_every_iteration():
    domains = tiny_domains()
    res = harness.run_plan(domains, tiny_plan(harness.GRCL))
    assert len(res.diagnostics) > 0
    saw_memory_constraint = False
    for row in res.diagnostics:
        assert row["slack_src"] >= -row["eps"]
        if not math.isnan(row["slack_mem"]):
            saw_memory_constraint = True
            assert row["slack_mem"] >= -row["eps"]
        assert row["u_src"] >= 0.0 and row["u_mem"] >= 0.0
        assert row["case"] in ("interior", "source-active", "memory-active",
                               "both-active")
    assert saw_memory_constraint


def test_grcl_step_constrains_each_memory_domain():
    # the pooled memory gradient (equal shares) agrees with g_t, so a single
    # pooled constraint is slack, yet the first domain's gradient opposes g_t
    g_t = np.array([1.0, 0.0, 0.0])
    g_s = np.array([0.0, 0.0, 1.0])
    g_mem = np.array([[-1.0, 1.0, 0.0], [3.0, 1.0, 0.0]])
    g_dm = g_mem.mean(axis=0)
    assert g_t @ g_dm >= 0.0 and g_t @ g_mem[0] < 0.0
    w, u_star, case = step(tiny_plan(harness.GRCL), g_t, g_s, *g_mem)
    eps = tolerance(g_t, [g_s, *g_mem])
    assert np.all(g_mem @ w >= -eps)
    assert w @ g_s >= -eps and w @ g_dm >= -eps
    np.testing.assert_allclose(w, [0.5, 0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(u_star, [0.0, 0.5], atol=1e-12)
    assert case == "memory-active"


def test_step_direction_case_names():
    c0 = np.array([1.0, 0.0, 0.0])
    c1 = np.array([0.0, 1.0, 0.0])
    c2 = np.array([0.0, 0.0, 1.0])
    cases = [
        (np.array([1.0, 2.0, 3.0]), [], "interior", [0.0, 0.0]),
        (np.array([-2.0, 5.0, 0.0]), [c1], "source-active", [2.0, 0.0]),
        (np.array([3.0, -2.0, -1.0]), [c1, c2], "memory-active", [0.0, 3.0]),
        (np.array([-1.0, -2.0, 3.0]), [c1], "both-active", [1.0, 2.0]),
    ]
    grcl = tiny_plan(harness.GRCL)
    for g_t, g_mem, want_case, want_u in cases:
        w, u_star, case = step(grcl, g_t, c0, *g_mem)
        assert case == want_case
        np.testing.assert_allclose(u_star, want_u, atol=1e-12)
    w, _, _ = step(grcl, cases[0][0], c0)
    np.testing.assert_array_equal(w, cases[0][0])
    # crt_sdc steps under the source row alone, though it measures memory
    g_t = np.array([3.0, -2.0, -1.0])
    w, u_star, case = step(tiny_plan(harness.CRT_SDC), g_t, c0, c1)
    np.testing.assert_array_equal(w, g_t)
    assert case == "interior"


def test_memory_grads_mix_to_pooled_cross_entropy():
    # GRCL's per-domain memory rows, mixed by their shares of the memory
    # rows, give the pooled memory row the other strategies use, and each
    # is the cross-entropy of its own domain's rows
    domains = tiny_domains()
    cfg = model.ModelConfig(input_dim=2, n_classes=3, hidden_dim=8,
                            proj_hidden_dim=8, embed_dim=4)
    params = model.init_params(cfg, np.random.default_rng(0))
    X = domains[1].train.X[:7]
    labels = domains[1].train.y[:7]
    domain = np.array([1, 2, 1, 1, 2, 1, 2])
    fw = model.forward(params, X)
    rows = np.arange(7)
    groups = [rows[domain == d] for d in (1, 2)]
    losses, g_mem = model.backward(params, fw, labels=labels, groups=groups)
    shares = np.array([g.size for g in groups]) / 7
    want_loss, want_g = ce_loss_and_grad(params, X, labels)
    assert g_mem.shape == (2, params.num_params)
    np.testing.assert_allclose(shares @ losses, want_loss, rtol=1e-12)
    np.testing.assert_allclose(shares @ g_mem, want_g, rtol=1e-10, atol=1e-14)
    for row, sel in zip(g_mem, groups):
        _, g_d = ce_loss_and_grad(params, X[sel], labels[sel])
        np.testing.assert_allclose(row, g_d, rtol=0, atol=1e-15)


def test_crt_sdc_never_uses_memory_constraint():
    domains = tiny_domains()
    res = harness.run_plan(domains, tiny_plan(harness.CRT_SDC))
    saw_measured_slack = False
    for row in res.diagnostics:
        # memory samples join the contrastive batch once memories exist, so
        # their loss and slack are measured, but the projection never sees
        # the memory gradient: its multiplier stays pinned at zero
        assert row["u_mem"] == 0.0
        assert row["case"] in ("interior", "source-active")
        if row["domain"] == 1:
            assert math.isnan(row["slack_mem"])
            assert math.isnan(row["loss_mem"])
        else:
            saw_measured_slack = True
            assert math.isfinite(row["slack_mem"])
            assert math.isfinite(row["loss_mem"])
    assert saw_measured_slack


def test_fixed_weight_strategies_report_case_tag():
    domains = tiny_domains()
    res = harness.run_plan(domains, tiny_plan(harness.MULTITASK))
    assert all(row["case"] == "fixed-weight" for row in res.diagnostics)


def test_diagnostics_lr_follows_cosine_schedule():
    domains = tiny_domains()
    plan = tiny_plan(harness.CRT_SRC)
    res = harness.run_plan(domains, plan)
    per_domain = {}
    for row in res.diagnostics:
        per_domain.setdefault(row["domain"], []).append(row["lr"])
    for t, lrs in per_domain.items():
        total = len(lrs)
        for i, lr in enumerate(lrs):
            np.testing.assert_allclose(lr, harness._cosine_lr(plan.lr, i, total))
        # schedule restarts each domain
        assert lrs[0] == plan.lr


def test_warm_projector_improves_objective_without_losing_source():
    from contda import bank, contrastive

    domains = tiny_domains(per_class=30)
    plan = tiny_plan(harness.CRT_SDC, warm_epochs=2)
    src = domains[0].train
    cfg = model.ModelConfig(input_dim=2, n_classes=3, hidden_dim=plan.hidden_dim,
                            proj_hidden_dim=plan.proj_hidden_dim,
                            embed_dim=plan.embed_dim)
    rng = np.random.SeedSequence(plan.seed).spawn(3)
    init = model.init_params(cfg, np.random.default_rng(rng[0]))
    (params,) = harness.pretrain_source(cfg, init.flat[None].copy(), [src],
                                        plan, [np.random.default_rng(rng[1])])
    warmed = harness.warm_projector(params, src, plan,
                                    np.random.default_rng(rng[2]))

    # the source constraint keeps classification intact through the warm phase
    before = harness.evaluate(params, [domains[0].holdout])[0]
    after = harness.evaluate(warmed, [domains[0].holdout])[0]
    assert after >= before - 0.05

    def source_nce(p):
        """Warm-phase objective against the embeddings' own snapshot bank:
        each sample its own step, so its negatives are every other row."""
        fb = bank.init_bank(p, [src.X])
        steps = [[i] for i in range(len(src))]
        negs = bank.negative_rows(fb, steps, len(fb) - 1,
                                  np.random.default_rng(0))
        return np.mean([contrastive.contrastive_grad(
            model.forward(p, src.X[i]), i, neg, fb, plan.temperature, nce)[0]
            for i, neg, nce in zip(steps, negs,
                                   contrastive.epoch_plans(fb, steps, negs))])

    assert source_nce(warmed) < source_nce(params)


def test_step_loops_leave_the_callers_params():
    # the warm-up and adaptation step one copy of the params in place: the
    # caller's vector keeps its bits, and the result is new and read-only
    domains = tiny_domains()
    plan = tiny_plan(harness.GRCL)
    cfg = model.ModelConfig(input_dim=2, n_classes=3, hidden_dim=plan.hidden_dim,
                            proj_hidden_dim=plan.proj_hidden_dim,
                            embed_dim=plan.embed_dim)
    params = model.init_params(cfg, np.random.default_rng(0))

    def stepped(p, call):
        before = p.flat.copy()
        q = call(p)
        np.testing.assert_array_equal(p.flat, before)
        assert not np.shares_memory(q.flat, p.flat)
        assert not q.flat.flags.writeable
        assert not q.blocks["enc1_w"].flags.writeable
        assert not np.array_equal(q.flat, before)
        return q

    warmed = stepped(params, lambda p: harness.warm_projector(
        p, domains[0].train, plan, np.random.default_rng(1)))
    rngs = [np.random.default_rng(s) for s in (2, 3, 4)]
    adapted = stepped(warmed, lambda p: harness.adapt_domain(
        p, domains, 1, [], plan, *rngs[:2], []))
    memory = harness.pseudo_label_memory(adapted, domains, 1, plan, rngs[2])
    stepped(adapted, lambda p: harness.adapt_domain(
        p, domains, 2, [memory], plan, *rngs[:2], []))


def test_warm_up_projects_onto_the_source_row_without_labels(monkeypatch):
    # the warm-up shares adaptation's step loop but not its plan: under a
    # fixed-weight strategy it still projects every step's two rows (the
    # contrastive and source gradients), and its positives read no labels
    from contda import contrastive

    plan = tiny_plan(harness.MULTITASK, warm_epochs=2)
    src = tiny_domains()[0].train
    cfg = model.ModelConfig(input_dim=2, n_classes=3, hidden_dim=plan.hidden_dim,
                            proj_hidden_dim=plan.proj_hidden_dim,
                            embed_dim=plan.embed_dim)
    params = model.init_params(cfg, np.random.default_rng(0))
    projected, planned = [], []
    real_project, real_plans = gradproject.project, contrastive.epoch_plans

    def project(J, K, eps):
        projected.append(J.shape[0])
        return real_project(J, K, eps)

    def plans(fbank, steps, negatives, labels=None):
        planned.append(labels)
        return real_plans(fbank, steps, negatives, labels)

    monkeypatch.setattr(gradproject, "project", project)
    monkeypatch.setattr(contrastive, "epoch_plans", plans)
    harness.warm_projector(params, src, plan, np.random.default_rng(1))
    iters = math.ceil(len(src) / plan.batch_size)
    assert projected == [2] * (plan.warm_epochs * iters)
    assert planned == [None] * plan.warm_epochs


def test_run_plan_rejects_trivial_sequences(monkeypatch):
    # every unusable sequence fails with the dataset import's message
    # before the source is trained on, under every strategy
    src, tgt, last = tiny_domains()

    def train_rows(d, rows):
        return replace(d, train=datagen.Dataset(
            [d.train.ids[r] for r in rows], d.train.X[rows], d.train.y[rows]))

    wide = replace(tgt, train=replace(tgt.train, X=np.hstack(
        [tgt.train.X, tgt.train.X[:, :1]])))
    other = datagen.generate_domain(
        datagen.DomainSpec(kind=datagen.KIND_BLOBS, n_classes=4, per_class=20),
        1, np.random.default_rng(0))
    cases = {
        "a dataset needs a source and at least one target domain, got 1":
            [src],
        "domain 1 has 3 features, domain 0 has 2": [src, wide, last],
        "domain 1 has 4 classes, domain 0 has 3": [src, other, last],
        "domain 0's train split has no row of class 1":
            [train_rows(src, np.flatnonzero(src.train.y != 1)), tgt, last],
        "domain 2's train split has 2 rows, fewer than its 3 classes":
            [src, tgt, train_rows(last, np.arange(2))],
    }
    # a source label outside the class range, which would escape np.bincount
    # or pass for an absent class
    for label in (-1, 3):
        y = src.train.y.copy()
        y[5] = label
        cases[f"domain 0's train split has label {label}, outside its 3 "
              f"classes"] = [replace(src, train=replace(src.train, y=y)),
                             tgt, last]
    # the rules hold for a target's holdout as for its train split
    hold = tgt.holdout
    X, y = hold.X.copy(), hold.y.copy()
    X[2, 1], y[4] = np.nan, 3
    cases.update({
        "domain 1's holdout split has a non-finite coordinate":
            [src, replace(tgt, holdout=replace(hold, X=X)), last],
        "domain 1's holdout split is empty":
            [src, replace(tgt, holdout=datagen.Dataset(
                [], np.zeros((0, 2)), np.zeros(0, dtype=np.int64))), last],
        "domain 1's holdout split has label 3, outside its 3 classes":
            [src, replace(tgt, holdout=replace(hold, y=y)), last],
        "domain 1's holdout split has 1 features, its train split 2":
            [src, replace(tgt, holdout=replace(hold, X=hold.X[:, :1])), last],
        # one label for 12 rows, which evaluate would broadcast
        r"domain 1's holdout split has labels of shape \(1,\) for 12 rows":
            [src, replace(tgt, holdout=datagen.Dataset(
                hold.ids[:12], hold.X[:12], hold.y[:1])), last],
    })

    def pretrain(*args):
        raise AssertionError("pretraining started")

    monkeypatch.setattr(harness, "pretrain_source", pretrain)
    for message, domains in cases.items():
        for strategy in harness.STRATEGIES:
            with pytest.raises(ContractViolationError, match=message):
                harness.run_plan(domains, tiny_plan(strategy))


def test_run_plans_match_one_plan_runs():
    # three plans of different strategies and seeds, each on its own
    # domains and pretrained in lockstep, yield in order what run_plan
    # returns for each alone, bitwise; every plan's domains are loaded
    # before the first result, and once more as its result is made
    plans = [tiny_plan(harness.SRC_ONLY, seed=3), tiny_plan(harness.GRCL, seed=4),
             tiny_plan(harness.MULTITASK, seed=5, warm_epochs=0)]
    data = [tiny_domains(seed=s) for s in (5, 6, 7)]
    loads = []

    def load(i):
        loads.append(i)
        return data[i]

    results = harness.run_plans(plans, load)
    got = [next(results)]
    assert loads == [0, 1, 2, 0]
    got += list(results)
    assert loads == [0, 1, 2, 0, 1, 2]
    for res, plan, domains in zip(got, plans, data):
        want = harness.run_plan(domains, plan)
        np.testing.assert_array_equal(res.matrix.values, want.matrix.values)
        np.testing.assert_array_equal(res.params.flat.view(np.int64),
                                      want.params.flat.view(np.int64))
        assert repr(res.diagnostics) == repr(want.diagnostics)
        assert repr(res.memories) == repr(want.memories)


def test_run_plans_reject_plans_that_cannot_pretrain_together(monkeypatch):
    # plans that differ in a pretraining field or a width, or whose source
    # splits differ in shape, raise before any pretraining; plans that
    # differ elsewhere pretrain together
    def never(*args):
        raise AssertionError("pretraining started")

    monkeypatch.setattr(model, "descend_ce", never)
    base = tiny_plan(harness.GRCL)
    domains, other = tiny_domains(), tiny_domains(per_class=30)
    for change in (dict(pretrain_epochs=4), dict(batch_size=12),
                   dict(pretrain_lr=0.2), dict(hidden_dim=6),
                   dict(proj_hidden_dim=6), dict(embed_dim=3)):
        with pytest.raises(ContractViolationError, match="pretrained together"):
            next(harness.run_plans([base, replace(base, **change)],
                                   lambda i: domains))
    with pytest.raises(ContractViolationError, match="source split's shape"):
        next(harness.run_plans([base, base], [domains, other].__getitem__))
    with pytest.raises(AssertionError, match="pretraining started"):
        next(harness.run_plans(
            [base, replace(base, strategy=harness.SRC_ONLY, seed=9, lr=0.2,
                           warm_epochs=0, negatives=4)], lambda i: domains))


def test_pretrain_source_returns_read_only_params_of_their_own():
    # each model's pretrained params hold a read-only copy of its row of
    # the stack, so no write to the stack or to them can change them
    plan = tiny_plan(harness.SRC_ONLY)
    cfg = model.ModelConfig(input_dim=2, n_classes=3, hidden_dim=plan.hidden_dim,
                            proj_hidden_dim=plan.proj_hidden_dim,
                            embed_dim=plan.embed_dim)
    sources = [tiny_domains(seed=s)[0].train for s in (5, 6)]
    flat = np.stack([model.init_params(cfg, np.random.default_rng(s)).flat
                     for s in (1, 2)])
    got = harness.pretrain_source(cfg, flat, sources, plan,
                                  [np.random.default_rng(s) for s in (3, 4)])
    assert len(got) == 2
    for params, row in zip(got, flat):
        np.testing.assert_array_equal(params.flat, row)
        assert not params.flat.flags.writeable
        with pytest.raises(ValueError):
            params.flat[0] = 0.0
        assert not np.shares_memory(params.flat, flat)
    kept = [params.flat.copy() for params in got]
    flat += 1.0
    for params, values in zip(got, kept):
        np.testing.assert_array_equal(params.flat, values)


def test_run_plans_reject_a_second_load_unlike_the_first():
    # a loader whose second call returns another number of domains or
    # another source shape than its first raises before that plan adapts
    plan = tiny_plan(harness.GRCL)
    first = tiny_domains()
    for second in (tiny_domains(n_domains=4), tiny_domains(per_class=30)):
        loads = iter([first, second])
        results = harness.run_plans([plan], lambda i: next(loads))
        with pytest.raises(ContractViolationError, match="second load"):
            next(results)


def test_run_plans_hold_only_source_splits_while_pretraining(monkeypatch):
    # each plan's domains are generated by load, and between the two loads
    # a plan keeps only its source train split (inputs, labels and id rows)
    # besides its seeds and its row of the small params' stack: the heap
    # grown by the time pretraining starts stays within the source splits
    # and 32 KiB, less than any other domain of the preset
    specs = datagen.preset_specs("rot-blobs-5")
    plans = [tiny_plan(harness.SRC_ONLY, seed=s, batch_size=64,
                       pretrain_epochs=1) for s in (1, 2, 3)]

    def load(i):
        return datagen.generate_sequence(specs, 100 + i)

    def split_bytes(ds):
        return ds.X.nbytes + ds.y.nbytes + 8 * len(ds)

    held, real = [], harness.pretrain_source

    def measured(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return real(*args)

    sources = sum(split_bytes(load(i)[0].train) for i in range(len(plans)))
    others = [split_bytes(d.train) + split_bytes(d.holdout) for d in load(0)[1:]]
    slack = 32 * 2**10
    assert slack < min(others)
    next(harness.run_plans(plans, load))  # fills one-time caches
    monkeypatch.setattr(harness, "pretrain_source", measured)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        results = harness.run_plans(plans, load)
        next(results)
    finally:
        tracemalloc.stop()
    assert sources <= held[0] - base <= sources + slack


def test_one_forward_pass_per_iteration(monkeypatch):
    # one forward before each step feeds one backward call, whose rows are
    # the contrastive, source and per-domain memory gradients, and one Gram
    # matrix, and its embeddings refresh the bank.  Each epoch draws its
    # batches, and gathers their inputs and labels, before its step loop.
    domains = tiny_domains(n_domains=4)
    forwards, step_marks, draw_marks, phases = [0], [], [], []
    calls = {"backward": 0, "gram": 0, "negative_rows": 0, "_draw_epoch": 0}
    rows = []  # rows of J per backward call
    real_forward, real_step = model.forward, harness._step_direction

    def counting_forward(*args, **kwargs):
        forwards[0] += 1
        return real_forward(*args, **kwargs)

    def marking_step(*args):
        step_marks.append(forwards[0])
        return real_step(*args)

    def counting(module, name):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            if name == "negative_rows":
                draw_marks.append(forwards[0])
            out = real(*args, **kwargs)
            if name == "backward":
                rows.append(len(out[1]))
                groups = args[4] if len(args) > 4 else kwargs["groups"]
                assert all(isinstance(g, slice) for g in groups)
            return out
        monkeypatch.setattr(module, name, wrapped)

    def phase(fn):
        def wrapped(*args):
            f0, s0, d0 = forwards[0], len(step_marks), len(draw_marks)
            c0, r0 = dict(calls), len(rows)
            out = fn(*args)
            phases.append((fn.__name__, forwards[0] - f0, step_marks[s0:],
                           {k: calls[k] - c0[k] for k in calls}, rows[r0:],
                           draw_marks[d0:]))
            return out
        return wrapped

    monkeypatch.setattr(model, "forward", counting_forward)
    monkeypatch.setattr(harness, "_step_direction", marking_step)
    counting(model, "backward")
    counting(gradproject, "gram")
    counting(bank, "negative_rows")
    counting(harness, "_draw_epoch")
    monkeypatch.setattr(harness, "warm_projector", phase(harness.warm_projector))
    monkeypatch.setattr(harness, "adapt_domain", phase(harness.adapt_domain))
    plan = tiny_plan(harness.GRCL)
    res = harness.run_plan(domains, plan)

    assert [p[0] for p in phases] == ["warm_projector"] + ["adapt_domain"] * 3
    # domains 2 and 3 draw memory rows into every batch
    assert all(math.isfinite(row["loss_mem"])
               for row in res.diagnostics if row["domain"] > 1)
    for name, _, marks, counts, _, _ in phases:
        assert len(marks) > 1
        assert np.all(np.diff(marks) == 1), name
        assert counts["backward"] == counts["gram"] == len(marks), name
    # contrastive and source rows, then one row per earlier target domain
    # whose memory the batch drew from
    assert [max(p[4]) for p in phases] == [2, 2, 3, 4]
    # the warm-up adds only the bank snapshot of its one source pool
    _, total, marks, counts, _, draws = phases[0]
    assert total == 1 + len(marks)
    # one negative_rows call per epoch, before the epoch's first step, and
    # under adaptation one batch gather per epoch
    for (name, _, marks, counts, _, draws), epochs in zip(
            phases, [plan.warm_epochs] + [plan.epochs_per_domain] * 3):
        iters = len(marks) // epochs
        assert draws == [m - 1 for m in marks[::iters]], name
        assert counts["_draw_epoch"] == (
            epochs if name == "adapt_domain" else 0), name


def test_bank_refresh_blends_the_steps_own_embeddings(monkeypatch):
    # each step blends the unit embeddings of its one forward pass, taken
    # before the step, into its rows' keys; every other key keeps its bits
    src, tgt = tiny_domains()[:2]
    plan = tiny_plan(harness.GRCL)
    cfg = model.ModelConfig(input_dim=2, n_classes=3, hidden_dim=plan.hidden_dim,
                            proj_hidden_dim=plan.proj_hidden_dim,
                            embed_dim=plan.embed_dim)
    params = model.init_params(cfg, np.random.default_rng(0))
    parts = [(src.train.X, src.train.y),
             (tgt.train.X, np.full(len(tgt.train), -1))]
    fbank = bank.init_bank(params, [X for X, _ in parts])
    pool, offsets = harness._batch_pool(parts)
    rng = np.random.default_rng(1)
    iters = 4
    rows, X, y, groups = harness._draw_epoch(
        pool, offsets, plan.batch_counts(False), iters, False, rng)
    seen = []  # the keys as each forward pass starts, and the pass
    real_forward = model.forward

    def recording_forward(*args, **kwargs):
        seen.append((fbank.copy(), real_forward(*args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(model, "forward", recording_forward)
    harness._train_epoch(params, fbank, rows, X, y, groups, pool[1], plan,
                         rng, 0, iters, [])
    assert len(seen) == iters
    afters = [keys for keys, _ in seen[1:]] + [fbank]
    for (before, fw), after, r in zip(seen, afters, rows):
        expected = before.copy()
        bank.momentum_update(expected, r, fw.embeddings(), plan.bank_momentum)
        np.testing.assert_array_equal(after, expected)
        outside = np.ones(len(fbank), dtype=bool)
        outside[r] = False
        np.testing.assert_array_equal(after[outside], before[outside])
        assert not np.array_equal(after[r], before[r])


def epoch_pool(memory_sizes=(10, 14), source=60, target=300):
    """A batch pool of a source, memories of domains 1, 2, ... and a target,
    with the pool offsets adapt_domain gives it."""
    parts = ([(np.zeros((source, 2)), np.zeros(source, dtype=np.int64))]
             + [(np.zeros((m, 2)), np.zeros(m, dtype=np.int64))
                for m in memory_sizes]
             + [(np.zeros((target, 2)), np.full(target, -1))])
    return harness._batch_pool(parts)


def test_batch_pool_rejects_labeled_target_and_unlabeled_source():
    # the label contract, checked once when the pool is built: -1 marks
    # every target row and no other
    X = np.zeros((1, 2))
    source, target = (X, np.array([0])), (X, np.array([-1]))
    with pytest.raises(ContractViolationError):
        harness._batch_pool([source, (X, np.array([2]))])
    with pytest.raises(ContractViolationError):
        harness._batch_pool([(X, np.array([-1])), target])
    # an unlabeled memory row
    with pytest.raises(ContractViolationError):
        harness._batch_pool([source, (X, np.array([-1])), target])
    with pytest.raises(DimensionError):
        harness._batch_pool([source, (X, np.array([-1, -1]))])
    pool, offsets = harness._batch_pool(
        [source, (np.zeros((2, 2)), np.array([1, 0])), target])
    assert pool[0].shape == (4, 2)
    np.testing.assert_array_equal(pool[1], [0, 1, 0, -1])
    np.testing.assert_array_equal(offsets, [0, 1, 3, 4])


def test_epoch_batch_rows_are_distinct_within_a_part():
    # distinct rows when a part holds the count, with replacement otherwise
    pool, offsets = epoch_pool(memory_sizes=(3, 4), source=60, target=20)
    counts = (12, 16, 20)
    rows, X, y, _ = harness._draw_epoch(pool, offsets, counts, 500, True,
                                        np.random.default_rng(0))
    assert rows.shape == (500, 48)
    assert X.shape == (500, 48, 2) and y.shape == (500, 48)
    parts = [rows[:, :12], rows[:, 12:28], rows[:, 28:]]
    for part, lo, hi in zip(parts, offsets[[0, 1, -2]], offsets[[1, -2, -1]]):
        assert part.min() >= lo and part.max() < hi
    for src, tgt in zip(parts[0], parts[2]):
        assert len(set(src.tolist())) == 12
        assert len(set(tgt.tolist())) == 20
    # 16 draws from a 7-row memory pool: with replacement, each row taking
    # a 1/7 share of the 8,000 draws within 5 binomial standard deviations
    freq = np.bincount(parts[1].ravel() - offsets[1], minlength=7)
    mean, sd = 8000 / 7, np.sqrt(8000 / 7 * 6 / 7)
    assert freq.size == 7 and np.abs(freq - mean).max() < 5 * sd


def test_epoch_batch_rows_are_uniform():
    # every pool row of a part is drawn equally often: no row's count
    # strays more than 5 binomial standard deviations from its mean over
    # 20,000 steps, at a small fill (source, target) and a large one
    # (the memories together: 20 of 24 rows)
    draws = 20_000
    pool, offsets = epoch_pool()
    counts = (5, 20, 30)
    rows, _, _, _ = harness._draw_epoch(pool, offsets, counts, draws, True,
                                        np.random.default_rng(1))
    freq = np.bincount(rows.ravel(), minlength=offsets[-1])
    for lo, hi, count in zip(offsets[[0, 1, -2]], offsets[[1, -2, -1]],
                             counts):
        p = count / (hi - lo)
        mean, sd = draws * p, np.sqrt(draws * p * (1 - p))
        assert np.abs(freq[lo:hi] - mean).max() < 5 * sd, (lo, hi)


def test_grcl_groups_are_slices_of_one_memory_domain_each():
    # sorting lays each batch out as [source | memory d1 | d2 | target], so
    # a step's cross-entropy groups are slices: the source rows, then the
    # non-empty memory groups, which tile the memory rows, each inside one
    # memory's pool range [offsets[d], offsets[d + 1]) under GRCL
    pool, offsets = epoch_pool(memory_sizes=(10, 14, 6))
    counts = (16, 16, 32)

    def within(rows, lo, hi):
        return np.all((offsets[lo] <= rows) & (rows < offsets[hi]))

    for by_domain in (True, False):
        rows, _, labels, groups = harness._draw_epoch(
            pool, offsets, counts, 200, by_domain, np.random.default_rng(2))
        assert np.all(labels[:, :32] >= 0) and np.all(labels[:, 32:] == -1)
        assert len(groups) == 200
        for step_rows, (source, *mem) in zip(rows, groups):
            assert source == slice(0, 16)
            assert within(step_rows[source], 0, 1)
            assert within(step_rows[32:], -2, -1)
            assert [g.start for g in mem] == [16] + [g.stop for g in mem[:-1]]
            assert mem[-1].stop == 32
            assert all(g.stop > g.start for g in mem)
            if by_domain:
                domain = [int(np.searchsorted(offsets, step_rows[g.start],
                                              "right")) - 1 for g in mem]
                assert np.all(np.diff(domain) > 0)
                for d, g in zip(domain, mem):
                    assert within(step_rows[g], d, d + 1)
            else:
                assert len(mem) == 1
                assert within(step_rows[mem[0]], 1, -2)
                assert np.all(np.diff(step_rows[mem[0]]) >= 0)
        if by_domain:
            # a 6-row memory can miss a step's 16 memory draws: its empty
            # group is dropped, and other steps hold all three domains
            assert {len(g) for g in groups} == {3, 4}


def test_epoch_negatives_exclude_every_batch_row():
    # one draw for the epoch, one shared array per step; none includes a
    # row of its step, at a small fill and a large one
    for n_bank, count in ((400, 8), (40, 20)):
        fbank = np.ones((n_bank, 2))
        steps = np.random.default_rng(3).integers(n_bank, size=(30, 16))
        negs = bank.negative_rows(fbank, steps, count,
                                  np.random.default_rng(4))
        assert len(negs) == 30
        for own, neg in zip(steps, negs):
            assert neg.shape == (count,)
            assert not np.isin(neg, own).any()
