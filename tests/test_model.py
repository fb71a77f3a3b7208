import math

import numpy as np
import pytest

from backward_oracle import (ce_loss_and_grad, ce_oracle, embedding_oracle,
                             sgd_step)
from contda import model
from contda.errors import (ContractViolationError, DegenerateInputError,
                           DimensionError)
from contda.model import log_softmax_rows


def small_config():
    return model.ModelConfig(input_dim=2, n_classes=3, hidden_dim=5,
                             proj_hidden_dim=4, embed_dim=3)


def block_slices(p):
    """Map block name -> the slice of p's flat vector it occupies."""
    return {name: s for name, (s, _) in model._layout(p.config).items()}


def make_params(seed=0, config=None):
    return model.init_params(config or small_config(), np.random.default_rng(seed))


def labeled_batch(rng, params, n=6):
    """Inputs and class labels of n rows."""
    d = params.config.input_dim
    c = params.config.n_classes
    return rng.standard_normal((n, d)), rng.integers(0, c, size=n)


def test_param_shapes_and_count():
    p = make_params()
    assert p.blocks["enc1_w"].shape == (5, 2)
    assert p.blocks["proj2_w"].shape == (3, 4)
    assert p.blocks["cls_w"].shape == (3, 5)
    want = 5 * 2 + 5 + 5 * 5 + 5 + 4 * 5 + 4 + 3 * 4 + 3 + 3 * 5 + 3
    assert p.num_params == want
    assert p.flat.copy().shape == (want,)


def test_flatten_unflatten_roundtrip():
    p = make_params(3)
    flat = p.flat.copy()
    q = model.ModelParams(p.config, flat)
    for f in ("enc1_w", "enc2_b", "proj1_w", "proj2_w", "cls_w", "cls_b"):
        np.testing.assert_array_equal(p.blocks[f], q.blocks[f])
        # every block is a read-only view of the one flat vector
        assert np.shares_memory(q.blocks[f], q.flat)
        assert not q.blocks[f].flags.writeable
    # the params own a copy: the caller's vector stays theirs
    flat[0] += 1.0
    assert q.flat[0] == p.flat[0]
    with pytest.raises(DimensionError):
        model.ModelParams(p.config, flat[:-1])


def test_block_slices_partition_the_flat_vector():
    p = make_params(4)
    slices = block_slices(p)
    covered = np.zeros(p.num_params, dtype=int)
    for s in slices.values():
        covered[s] += 1
    assert np.all(covered == 1)
    # each slice reproduces its own block
    flat = p.flat.copy()
    np.testing.assert_array_equal(flat[slices["cls_b"]], p.blocks["cls_b"])
    np.testing.assert_array_equal(flat[slices["enc1_w"]],
                                  p.blocks["enc1_w"].ravel())


def test_init_bounds_and_zero_biases():
    cfg = model.ModelConfig(input_dim=7, n_classes=4, hidden_dim=9,
                            proj_hidden_dim=6, embed_dim=5)
    p = make_params(9, cfg)
    a = math.sqrt(6.0 / (7 + 9))
    assert np.all(np.abs(p.blocks["enc1_w"]) <= a)
    assert np.all(p.blocks["enc1_b"] == 0) and np.all(p.blocks["cls_b"] == 0)
    # seeded determinism
    q = make_params(9, cfg)
    np.testing.assert_array_equal(p.flat.copy(), q.flat.copy())


def test_embeddings_are_unit_norm():
    p = make_params(7)
    rng = np.random.default_rng(8)
    Q = model.encode_project_batch(p, rng.standard_normal((30, 2)) * 5)
    np.testing.assert_allclose(np.linalg.norm(Q, axis=1), 1.0, atol=1e-12)


def test_encoder_output_bounded_by_tanh():
    p = make_params(1)
    rng = np.random.default_rng(2)
    H = model.encode_batch(p, rng.standard_normal((20, 2)) * 100)
    assert np.all(np.abs(H) <= 1.0)


def test_input_dim_checked():
    p = make_params()
    with pytest.raises(DimensionError):
        model.encode_batch(p, np.zeros((3, 4)))
    # one sample is a (1, d) batch, not a 1-D vector
    with pytest.raises(DimensionError):
        model.forward(p, np.zeros(2))


def test_ce_loss_matches_direct_formula():
    p = make_params(11)
    rng = np.random.default_rng(12)
    X, labels = labeled_batch(rng, p, n=8)
    loss, _ = ce_loss_and_grad(p, X, labels)
    logits = model.classify_batch(p, X)
    total = 0.0
    for i, y in enumerate(labels):
        shifted = logits[i] - logits[i].max()
        total += math.log(math.fsum(np.exp(shifted))) - shifted[y]
    np.testing.assert_allclose(loss, total / len(labels), atol=1e-12)


def test_ce_rejects_unlabeled_and_out_of_range():
    p = make_params()
    rng = np.random.default_rng(1)
    for label in (7, -1):
        with pytest.raises(ContractViolationError):
            ce_loss_and_grad(p, rng.standard_normal((1, 2)),
                                   np.array([label]))


def _fd_grad(fn, flat, coords, h=1e-6):
    out = {}
    for j in coords:
        up = flat.copy(); up[j] += h
        dn = flat.copy(); dn[j] -= h
        out[j] = (fn(up) - fn(dn)) / (2 * h)
    return out


def test_ce_grad_matches_finite_differences():
    # each cross-entropy row of J against the finite differences of its
    # own group's loss
    rng = np.random.default_rng(21)
    for trial in range(5):
        p = make_params(100 + trial)
        X, labels = labeled_batch(rng, p, n=5)
        groups = [np.array([3, 0]), np.array([4, 1, 2])]

        def loss_at(flat, g):
            moved = model.ModelParams(p.config, flat)
            fw = model.forward(moved, X, project=False)
            return model.backward(moved, fw, labels=labels,
                                  groups=groups)[0][g]

        fw = model.forward(p, X, project=False)
        _, J = model.backward(p, fw, labels=labels, groups=groups)
        flat = p.flat.copy()
        for g in range(2):
            coords = rng.choice(p.num_params, size=40, replace=False)
            fd = _fd_grad(lambda f: loss_at(f, g), flat, coords)
            for j, v in fd.items():
                assert abs(J[g, j] - v) <= 1e-6 * max(1.0, abs(v)), (trial, g, j)


def test_ce_grad_projector_blocks_exactly_zero():
    p = make_params(31)
    _, g = ce_loss_and_grad(
        p, *labeled_batch(np.random.default_rng(32), p, n=6))
    slices = block_slices(p)
    for f in ("proj1_w", "proj1_b", "proj2_w", "proj2_b"):
        assert np.all(g[slices[f]] == 0.0), f
    # classifier and encoder blocks carry signal
    assert np.any(g[slices["cls_w"]] != 0.0)
    assert np.any(g[slices["enc1_w"]] != 0.0)


def test_embedding_row_matches_finite_differences():
    # row 0 of J against the finite differences of sum(C * Q), with a
    # cross-entropy group stacked below it
    rng = np.random.default_rng(41)
    for trial in range(5):
        p = make_params(200 + trial)
        X = rng.standard_normal((4, 2))
        C = rng.standard_normal((4, p.config.embed_dim))
        y = np.array([0, -1, 2, -1])

        def loss_at(flat):
            Q = model.encode_project_batch(model.ModelParams(p.config, flat), X)
            return float((C * Q).sum())

        _, J = model.backward(p, model.forward(p, X), C, y, [np.array([2, 0])])
        flat = p.flat.copy()
        coords = rng.choice(p.num_params, size=40, replace=False)
        fd = _fd_grad(loss_at, flat, coords)
        for j, v in fd.items():
            assert abs(J[0, j] - v) <= 1e-6 * max(1.0, abs(v)), (trial, j)


def test_embedding_row_classifier_blocks_exactly_zero():
    p = make_params(51)
    rng = np.random.default_rng(52)
    _, J = model.backward(p, model.forward(p, rng.standard_normal((3, 2))),
                          rng.standard_normal((3, 3)))
    g = J[0]
    slices = block_slices(p)
    assert np.all(g[slices["cls_w"]] == 0.0)
    assert np.all(g[slices["cls_b"]] == 0.0)
    assert np.any(g[slices["proj2_w"]] != 0.0)


def test_normalization_backward_kills_radial_component():
    # a gradient parallel to q itself must produce a zero parameter gradient
    p = make_params(61)
    rng = np.random.default_rng(62)
    X = rng.standard_normal((5, 2))
    Q = model.encode_project_batch(p, X)
    _, J = model.backward(p, model.forward(p, X), 3.7 * Q)
    np.testing.assert_allclose(J[0], np.zeros_like(J[0]), atol=1e-12)


def random_layout(rng, n, n_classes):
    """Labels for n rows and groups of them: a source group, then up to
    three memory groups whose rows interleave in batch order and are listed
    out of it, some of one row; rows in no group are unlabeled."""
    n_groups = int(rng.integers(1, 5))
    owner = rng.integers(-1, n_groups, size=n)
    owner[rng.permutation(n)[:n_groups]] = np.arange(n_groups)
    groups = [rng.permutation(np.flatnonzero(owner == g))
              for g in range(n_groups)]
    if n_groups > 1 and rng.random() < 0.5:
        # a one-row memory group
        groups[-1] = groups[-1][:1]
    labels = np.where(owner >= 0, rng.integers(0, n_classes, size=n), -1)
    return labels, groups


def test_backward_rows_match_per_loss_oracle():
    # every row of J and every cross-entropy loss equals its own backward
    # pass, over random group layouts, with and without the embedding row
    rng = np.random.default_rng(75)
    cfg = model.ModelConfig(input_dim=3, n_classes=4, hidden_dim=7,
                            proj_hidden_dim=6, embed_dim=5)
    for trial in range(60):
        p = make_params(400 + trial, cfg)
        n = int(rng.integers(4, 13))
        X = rng.standard_normal((n, 3))
        labels, groups = random_layout(rng, n, 4)
        if trial % 3 == 2:
            groups = groups[:1]  # no memory rows
        lead = trial % 4 != 3  # else the pretraining form: no embedding row
        fw = model.forward(p, X, project=lead)
        dQ = rng.standard_normal((n, 5)) if lead else None
        losses, J = model.backward(p, fw, dQ, labels, groups)
        assert J.shape == (lead + len(groups), p.num_params)
        assert losses.shape == (len(groups),)
        if lead:
            np.testing.assert_allclose(J[0], embedding_oracle(p, fw, dQ),
                                       rtol=0, atol=1e-12)
        for g, rows in enumerate(groups):
            want_loss, want = ce_oracle(p, fw, rows, labels)
            assert abs(losses[g] - want_loss) <= 1e-12, (trial, g)
            np.testing.assert_allclose(J[lead + g], want, rtol=0, atol=1e-12)


def test_backward_empty_group_and_validation():
    p = make_params(77)
    rng = np.random.default_rng(78)
    X = rng.standard_normal((4, 2))
    fw = model.forward(p, X)
    y = np.array([0, 1, -1, 2])
    losses, J = model.backward(p, fw, None, y,
                               [np.zeros(0, dtype=np.int64), np.array([1])])
    assert np.isnan(losses[0]) and np.all(J[0] == 0.0)
    with pytest.raises(DimensionError):
        model.backward(p, fw, None, y[:3], [np.array([1])])
    with pytest.raises(ContractViolationError):
        model.backward(p, fw, None, y, [np.array([2])])


def test_sgd_step_arithmetic():
    p = make_params(71)
    w = np.ones(p.num_params)
    q = sgd_step(p, w, 0.25)
    np.testing.assert_allclose(q.flat.copy(), p.flat.copy() - 0.25, atol=1e-15)
    with pytest.raises(DimensionError):
        sgd_step(p, np.ones(3), 0.1)


def test_sgd_step_leaves_old_params_untouched():
    p = make_params(72)
    before = p.flat.copy()
    q = sgd_step(p, np.ones(p.num_params), 0.5)
    np.testing.assert_array_equal(p.flat, before)
    assert not np.shares_memory(p.flat, q.flat)
    with pytest.raises(ValueError):
        p.flat[0] = 0.0


def test_sgd_step_owns_a_read_only_result():
    # one new vector: read-only, sharing memory with neither input, and
    # params.flat - lr * w bit for bit
    p = make_params(73)
    w = np.random.default_rng(3).standard_normal(p.num_params)
    for lr in (0.1, 0.037):
        q = sgd_step(p, w, lr)
        assert not q.flat.flags.writeable
        assert not np.shares_memory(q.flat, p.flat)
        assert not np.shares_memory(q.flat, w)
        np.testing.assert_array_equal(q.flat, p.flat - lr * w)
        assert q.config is p.config
        assert np.shares_memory(q.blocks["cls_w"], q.flat)
        with pytest.raises(ValueError):
            q.flat[0] = 0.0


def stepwise_descent(p, X, labels, orders, batch_size, lrs):
    """descend_ce's reference: one sgd_step on the batch's cross-entropy
    gradient per batch_size rows of each order."""
    lrs = iter(lrs)
    for order in orders:
        for a in range(0, len(order), batch_size):
            rows = order[a:a + batch_size]
            p = sgd_step(p, ce_loss_and_grad(p, X[rows], labels[rows])[1],
                               next(lrs))
    return p


def test_descend_ce_matches_stepwise_sgd_bitwise():
    # two and three epochs of batches of 16 over 37 rows, so each epoch
    # ends on a batch of 5, at widths other than the plan's defaults
    rng = np.random.default_rng(81)
    cfg = model.ModelConfig(input_dim=3, n_classes=4, hidden_dim=9,
                            proj_hidden_dim=6, embed_dim=5)
    for epochs in (2, 3):
        p = make_params(500 + epochs, cfg)
        X, labels = labeled_batch(rng, p, n=37)
        orders = [rng.permutation(37) for _ in range(epochs)]
        lrs = rng.uniform(0.01, 0.5, size=3 * epochs).tolist()
        got = model.descend_ce(p, X, labels, orders, 16, lrs)
        want = stepwise_descent(p, X, labels, orders, 16, lrs)
        assert got.config is p.config
        np.testing.assert_array_equal(got.flat.view(np.int64),
                                      want.flat.view(np.int64))


def test_descend_ce_leaves_projector_and_input_params():
    p = make_params(82)
    before = p.flat.copy()
    rng = np.random.default_rng(83)
    X, labels = labeled_batch(rng, p, n=20)
    got = model.descend_ce(p, X, labels, [rng.permutation(20)], 8,
                           [0.3, 0.2, 0.1])
    np.testing.assert_array_equal(p.flat, before)
    assert not np.shares_memory(got.flat, p.flat)
    assert not got.flat.flags.writeable
    with pytest.raises(ValueError):
        got.flat[0] = 0.0
    for name in ("proj1_w", "proj1_b", "proj2_w", "proj2_b"):
        np.testing.assert_array_equal(got.blocks[name], p.blocks[name])
    for name in ("enc1_w", "enc2_w", "cls_w", "cls_b"):
        assert np.any(got.blocks[name] != p.blocks[name]), name


def test_descend_ce_zero_epochs_returns_the_same_values():
    p = make_params(84)
    X, labels = labeled_batch(np.random.default_rng(85), p, n=10)
    got = model.descend_ce(p, X, labels, [], 4, [])
    np.testing.assert_array_equal(got.flat, p.flat)
    assert not got.flat.flags.writeable


def test_descend_ce_checks_inputs_before_any_step(monkeypatch):
    # a bad label in the last batch of the last epoch, or a wrong input
    # width, raises before the first step's head is evaluated
    p = make_params(86)
    rng = np.random.default_rng(87)
    X, labels = labeled_batch(rng, p, n=12)
    heads = []

    def counting(logits):
        heads.append(logits.shape)
        return log_softmax_rows(logits)

    monkeypatch.setattr(model, "log_softmax_rows", counting)
    orders = [np.arange(12)] * 2
    for label in (-1, p.config.n_classes):
        bad = labels.copy()
        bad[-1] = label
        with pytest.raises(ContractViolationError):
            model.descend_ce(p, X, bad, orders, 4, [0.1] * 6)
    with pytest.raises(DimensionError):
        model.descend_ce(p, np.hstack([X, X]), labels, orders, 4, [0.1] * 6)
    with pytest.raises(ContractViolationError):
        model.descend_ce(p, X, labels[:-1], orders, 4, [0.1] * 6)
    assert heads == []
    model.descend_ce(p, X, labels, orders, 4, [0.1] * 6)
    assert len(heads) == 6


def test_ce_grad_on_row_subset_matches_sub_batch():
    # one forward over the whole batch serves the cross-entropy of any
    # subset of its rows
    rng = np.random.default_rng(73)
    for trial in range(5):
        p = make_params(300 + trial)
        X, labels = labeled_batch(rng, p, n=12)
        fw = model.forward(p, X)
        sel = np.sort(rng.choice(12, size=int(rng.integers(1, 12)), replace=False))
        losses, J = model.backward(p, fw, labels=labels, groups=[sel])
        want_loss, want_g = ce_loss_and_grad(p, X[sel], labels[sel])
        assert abs(losses[0] - want_loss) <= 1e-12
        np.testing.assert_allclose(J[0], want_g, rtol=0, atol=1e-12)
    # a slice selects the same rows as its index array, with or without the
    # embedding row stacked above
    dQ = rng.standard_normal((12, p.config.embed_dim))
    for lead in (None, dQ):
        by_slice = model.backward(p, fw, lead, labels, [slice(3, 10)])
        by_rows = model.backward(p, fw, lead, labels, [np.arange(3, 10)])
        np.testing.assert_allclose(by_slice[1], by_rows[1], rtol=0, atol=1e-15)
        assert abs(by_slice[0][0] - by_rows[0][0]) <= 1e-15
    with pytest.raises(DimensionError):
        model.backward(p, fw, labels=labels[:3], groups=[sel])


def test_backward_into_a_reused_buffer_matches_a_fresh_call():
    # one zeroed buffer through calls with 3, 1 and 2 groups and with no
    # labels, as the adaptation loop passes it: each J is the buffer's first
    # rows and bitwise the J of a call without it
    rng = np.random.default_rng(84)
    cfg = model.ModelConfig(input_dim=3, n_classes=4, hidden_dim=7,
                            proj_hidden_dim=6, embed_dim=5)
    p = make_params(510, cfg)
    out = np.zeros((4, p.num_params))
    layouts = [(slice(0, 4), slice(4, 7), slice(7, 11)), (slice(0, 5),),
               (slice(0, 3), slice(3, 12)), ()]
    for groups in layouts:
        X = rng.standard_normal((12, 3))
        labels = rng.integers(0, 4, size=12)
        fw = model.forward(p, X)
        dQ = rng.standard_normal((12, 5))
        labels = labels if groups else None
        want_losses, want = model.backward(p, fw, dQ, labels, groups)
        losses, J = model.backward(p, fw, dQ, labels, groups, out=out)
        assert J.shape == (1 + len(groups), p.num_params)
        assert np.shares_memory(J, out) and J.base is out
        np.testing.assert_array_equal(J, want)
        np.testing.assert_array_equal(losses, want_losses)
    with pytest.raises(DimensionError):
        model.backward(p, fw, dQ, np.zeros(12), layouts[0], out=out[:3])
    with pytest.raises(DimensionError):
        model.backward(p, fw, dQ, out=out[:, 1:])


def test_repeated_group_shapes_match_oracle_and_layouts_are_read_only():
    # steps of one shape share a cached layout; each still matches the
    # per-loss oracle, and the shared arrays cannot be written
    rng = np.random.default_rng(79)
    cfg = model.ModelConfig(input_dim=3, n_classes=4, hidden_dim=7,
                            proj_hidden_dim=6, embed_dim=5)
    shapes = [(slice(0, 4), slice(4, 7), slice(7, 11)), (slice(0, 5),)]
    hits = model._group_layout.cache_info().hits
    for trial in range(6):
        p = make_params(500 + trial, cfg)
        groups = shapes[trial % 2]
        X = rng.standard_normal((12, 3))
        labels = np.where(np.arange(12) < 11, rng.integers(0, 4, size=12), -1)
        fw = model.forward(p, X)
        dQ = rng.standard_normal((12, 5))
        losses, J = model.backward(p, fw, dQ, labels, groups)
        np.testing.assert_allclose(J[0], embedding_oracle(p, fw, dQ),
                                   rtol=0, atol=1e-12)
        for g, rows in enumerate(groups):
            want_loss, want = ce_oracle(p, fw, np.arange(12)[rows], labels)
            assert abs(losses[g] - want_loss) <= 1e-12
            np.testing.assert_allclose(J[1 + g], want, rtol=0, atol=1e-12)
    assert model._group_layout.cache_info().hits >= hits + 4
    for a in model._group_layout((12, 4, 3, 4), 1):
        with pytest.raises(ValueError):
            a.flat[0] = 1
    assert model._group_layout((12, 4, 3, 4), 1) \
        is model._group_layout((12, 4, 3, 4), 1)


def test_zero_embedding_raises_and_forward_leaves_input():
    p = make_params(80)
    flat = p.flat.copy()
    for name in ("proj2_w", "proj2_b"):
        flat[block_slices(p)[name]] = 0.0
    p = model.ModelParams(p.config, flat)
    X = np.random.default_rng(81).standard_normal((4, 2))
    before = X.copy()
    fw = model.forward(p, X)
    np.testing.assert_array_equal(X, before)
    assert not any(np.shares_memory(X, a) for a in (fw.H1, fw.H2, fw.P1, fw.Z))
    with pytest.raises(DegenerateInputError):
        fw.embeddings()
    with pytest.raises(DegenerateInputError):
        model.backward(p, model.forward(p, X), np.ones((4, 3)))
    # the cached unit embeddings and norms are shared and read-only
    fw = model.forward(make_params(82), X)
    assert fw.embeddings() is fw.embeddings()
    for a in fw.normalized:
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
    np.testing.assert_array_equal(X, before)


NTRIES = 200


def _log_softmax_direct(logits):
    # independent route: exact exponentials at shifted logits
    shifted = logits - logits.max()
    return shifted - math.log(math.fsum(math.exp(v) for v in shifted))


def test_log_softmax_matches_direct_formula():
    rng = np.random.default_rng(13)
    for _ in range(NTRIES):
        logits = rng.standard_normal(rng.integers(1, 12)) * rng.uniform(0.1, 30)
        got = log_softmax_rows(logits[None, :])[0]
        want = _log_softmax_direct(logits)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_log_softmax_shift_invariant_and_normalized():
    rng = np.random.default_rng(17)
    for _ in range(NTRIES):
        logits = rng.standard_normal((3, 6))
        shift = rng.uniform(-1e6, 1e6, size=(3, 1))
        np.testing.assert_allclose(log_softmax_rows(logits + shift),
                                   log_softmax_rows(logits), atol=1e-9)
        for row in np.exp(log_softmax_rows(logits)):
            assert abs(math.fsum(row) - 1.0) < 1e-12


def test_log_softmax_survives_extreme_logits():
    out = log_softmax_rows(np.array([[1e4, 0.0, -1e4], [-1e4, -1e4, 1e4]]))
    assert np.all(np.isfinite(out))
    assert abs(out[0, 0]) < 1e-12
    assert abs(out[1, 2]) < 1e-12


def test_log_softmax_empty_raises():
    with pytest.raises(DimensionError):
        log_softmax_rows(np.zeros((2, 0)))
    with pytest.raises(DimensionError):
        log_softmax_rows(np.zeros(3))


def test_log_softmax_rows_matches_per_row():
    rng = np.random.default_rng(19)
    M = rng.standard_normal((8, 5)) * 10
    rows = log_softmax_rows(M)
    for i in range(8):
        np.testing.assert_allclose(rows[i], _log_softmax_direct(M[i]), atol=1e-12)
