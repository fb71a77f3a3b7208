import math

import numpy as np
import pytest

from contda import datagen, gradproject, harness, model
from contda.errors import ContractViolationError, DegenerateInputError


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
    with pytest.raises(ContractViolationError):
        tiny_plan("no_such_strategy")
    with pytest.raises(ContractViolationError):
        tiny_plan(harness.GRCL, ratio_source=0.5, ratio_memory=0.5,
                  ratio_target=0.5)
    with pytest.raises(ContractViolationError):
        tiny_plan(harness.GRCL, ratio_source=-0.25, ratio_memory=0.5,
                  ratio_target=0.75)
    with pytest.raises(ContractViolationError):
        tiny_plan(harness.MULTITASK, lambda_source=-1.0)
    with pytest.raises(ContractViolationError):
        tiny_plan(harness.GRCL, batch_size=2)
    with pytest.raises(ContractViolationError):
        tiny_plan(harness.GRCL, lr=0.0)
    for bad in ({"temperature": -0.2}, {"temperature": 0.0}, {"negatives": -1},
                {"bank_momentum": 1.5}, {"bank_momentum": -0.1},
                {"memory_capacity": 0}):
        with pytest.raises(ContractViolationError):
            tiny_plan(harness.GRCL, **bad)


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


def test_multitask_step_grad_weights():
    g_t = np.array([1.0, 0.0])
    g_s = np.array([0.0, 2.0])
    g_dm = np.array([3.0, 3.0])
    w = harness.multitask_step_grad(g_t, g_s, g_dm, 0.5, 2.0)
    np.testing.assert_allclose(w, [1.0 + 6.0, 1.0 + 6.0])
    np.testing.assert_allclose(harness.multitask_step_grad(g_t), g_t)
    np.testing.assert_allclose(harness.multitask_step_grad(g_t, g_s, None, 2.0),
                               [1.0, 4.0])
    with pytest.raises(ContractViolationError):
        harness.multitask_step_grad(g_t, g_s, None, -0.5, 0.0)


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
    with pytest.raises(DegenerateInputError):
        harness.evaluate(params, [datagen.Dataset(ids=[], X=np.zeros((0, 2)),
                                                  y=np.zeros(0, dtype=np.int64))])


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


def test_run_plan_fills_lower_triangle_only():
    domains = tiny_domains()
    res = harness.run_plan(domains, tiny_plan(harness.GRCL))
    R = res.matrix.values
    for t in range(3):
        assert np.all(np.isfinite(R[t, :t + 1]))
        assert np.all(np.isnan(R[t, t + 1:]))


def test_adaptive_strategies_build_bounded_memories():
    domains = tiny_domains()
    # every adaptive strategy keeps one memory per target domain; only the
    # frozen baseline keeps none (covered elsewhere)
    for strategy in (harness.GRCL, harness.CRT_SDC, harness.CRT_SRC):
        res = harness.run_plan(domains, tiny_plan(strategy, memory_capacity=9))
        assert len(res.memories) == 2
        for t, mem in enumerate(res.memories, start=1):
            assert mem.domain_index == t
            assert len(mem) <= 9
            assert np.all(mem.labels >= 0) and np.all(mem.labels < 3)
            assert np.all((0.0 <= mem.confidences) & (mem.confidences <= 1.0))


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


def test_crt_src_mem_trajectory_equals_multitask():
    domains = tiny_domains()
    a = harness.run_plan(domains, tiny_plan(harness.CRT_SRC_MEM,
                                            lambda_source=1.0, lambda_memory=1.0))
    b = harness.run_plan(domains, tiny_plan(harness.MULTITASK,
                                            lambda_source=1.0, lambda_memory=1.0))
    np.testing.assert_array_equal(a.matrix.values, b.matrix.values)


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
    w, u_star, case = harness._step_direction(
        tiny_plan(harness.GRCL), g_t, g_s, g_dm, g_mem)
    eps = gradproject.tolerance(g_t, [g_s, *g_mem])
    assert np.all(g_mem @ w >= -eps)
    assert w @ g_s >= -eps and w @ g_dm >= -eps
    np.testing.assert_allclose(w, [0.5, 0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(u_star, [0.0, 0.5], atol=1e-12)
    assert case == "memory-active"


def test_project_step_case_names():
    c0 = np.array([1.0, 0.0, 0.0])
    c1 = np.array([0.0, 1.0, 0.0])
    c2 = np.array([0.0, 0.0, 1.0])
    cases = [
        (np.array([1.0, 2.0, 3.0]), None, "interior", [0.0, 0.0]),
        (np.array([-2.0, 5.0, 0.0]), [c1], "source-active", [2.0, 0.0]),
        (np.array([3.0, -2.0, -1.0]), [c1, c2], "memory-active", [0.0, 3.0]),
        (np.array([-1.0, -2.0, 3.0]), [c1], "both-active", [1.0, 2.0]),
    ]
    for g_t, g_mem, want_case, want_u in cases:
        w, u_star, case = harness.project_step(g_t, c0, g_mem)
        assert case == want_case
        np.testing.assert_allclose(u_star, want_u, atol=1e-12)
    w, _, _ = harness.project_step(cases[0][0], c0)
    np.testing.assert_array_equal(w, cases[0][0])


def test_project_step_rejects_failed_kkt(monkeypatch):
    # a solver answer that leaves the source slack negative must not be
    # taken as a step, in the warm-up as in the adaptation loop
    monkeypatch.setattr(gradproject, "project_n",
                        lambda g, rows: (np.asarray(g), np.zeros(len(rows))))
    with pytest.raises(ContractViolationError):
        harness.project_step(np.array([-1.0, 0.0]), np.array([1.0, 0.0]))


def test_memory_grads_mix_to_pooled_cross_entropy():
    domains = tiny_domains()
    cfg = model.ModelConfig(input_dim=2, n_classes=3, hidden_dim=8,
                            proj_hidden_dim=8, embed_dim=4)
    params = model.init_params(cfg, np.random.default_rng(0))
    X = domains[1].train.X[:7]
    parts = np.array([1, 2, 1, 1, 2, 1, 2])
    batch = model.Batch(inputs=X, labels=domains[1].train.y[:7], parts=parts)
    mem_sel = list(range(7))
    loss, g_dm, g_mem = harness._memory_grads(params, model.forward(params, X),
                                              batch, mem_sel)
    want_loss, want_g = model.ce_loss_and_grad(params, batch)
    assert g_mem.shape == (2, params.num_params)
    np.testing.assert_allclose(loss, want_loss, rtol=1e-12)
    np.testing.assert_allclose(g_dm, want_g, rtol=1e-10, atol=1e-14)
    for row, d in zip(g_mem, (1, 2)):
        sel = [i for i in mem_sel if parts[i] == d]
        sub = model.Batch(inputs=X[sel], labels=batch.labels[sel],
                          parts=parts[sel])
        _, g_d = model.ce_loss_and_grad(params, sub)
        np.testing.assert_array_equal(row, g_d)


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
    params = model.init_params(cfg, np.random.default_rng(rng[0]))
    params = harness.pretrain_source(params, src, plan,
                                     np.random.default_rng(rng[1]))
    warmed = harness.warm_projector(params, src, plan,
                                    np.random.default_rng(rng[2]))

    # the source constraint keeps classification intact through the warm phase
    before = harness.evaluate(params, [domains[0].holdout])[0]
    after = harness.evaluate(warmed, [domains[0].holdout])[0]
    assert after >= before - 0.05

    def source_nce(p):
        """Warm-phase objective against the embeddings' own snapshot bank."""
        fb = bank.init_bank(p, [src.X])
        loss, _ = contrastive.contrastive_grad(p, model.forward(p, src.X),
                                               np.arange(len(src)),
                                               fb, plan.temperature, len(fb) - 1,
                                               np.random.default_rng(0))
        return loss

    assert source_nce(warmed) < source_nce(params)


def test_run_plan_rejects_trivial_sequences():
    domains = tiny_domains()
    with pytest.raises(ContractViolationError):
        harness.run_plan(domains[:1], tiny_plan(harness.GRCL))
    mixed = [domains[0],
             datagen.generate_domain(
                 datagen.DomainSpec(kind=datagen.KIND_BLOBS, n_classes=4,
                                    per_class=20), 1, np.random.default_rng(0))]
    with pytest.raises(ContractViolationError):
        harness.run_plan(mixed, tiny_plan(harness.GRCL))


def test_two_forward_passes_per_iteration(monkeypatch):
    # one forward before each step feeds the contrastive, source and
    # per-domain memory gradients; one after it refreshes the bank
    domains = tiny_domains(n_domains=4)
    forwards, step_marks, phases = [0], [], []
    real_forward, real_step = model.forward, model.sgd_step

    def counting_forward(*args, **kwargs):
        forwards[0] += 1
        return real_forward(*args, **kwargs)

    def marking_step(*args):
        step_marks.append(forwards[0])
        return real_step(*args)

    def phase(fn):
        def wrapped(*args):
            f0, s0 = forwards[0], len(step_marks)
            out = fn(*args)
            phases.append((fn.__name__, forwards[0] - f0, step_marks[s0:]))
            return out
        return wrapped

    monkeypatch.setattr(model, "forward", counting_forward)
    monkeypatch.setattr(model, "sgd_step", marking_step)
    monkeypatch.setattr(harness, "warm_projector", phase(harness.warm_projector))
    monkeypatch.setattr(harness, "adapt_domain", phase(harness.adapt_domain))
    res = harness.run_plan(domains, tiny_plan(harness.GRCL))

    assert [name for name, _, _ in phases] == ["warm_projector"] + ["adapt_domain"] * 3
    # domains 2 and 3 draw memory rows into every batch
    assert all(math.isfinite(row["loss_mem"])
               for row in res.diagnostics if row["domain"] > 1)
    for name, _, marks in phases:
        assert len(marks) > 1
        assert np.all(np.diff(marks) == 2), name
    # the warm-up adds only the bank snapshot of its one source pool
    _, total, marks = phases[0]
    assert total == 1 + 2 * len(marks)
