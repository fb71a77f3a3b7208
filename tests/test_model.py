import math

import numpy as np
import pytest

from contda import model
from contda.errors import ContractViolationError, DimensionError


def small_config():
    return model.ModelConfig(input_dim=2, n_classes=3, hidden_dim=5,
                             proj_hidden_dim=4, embed_dim=3)


def make_params(seed=0, config=None):
    return model.init_params(config or small_config(), np.random.default_rng(seed))


def labeled_batch(rng, params, n=6):
    d = params.config.input_dim
    c = params.config.n_classes
    return model.Batch(ids=[f"s{i}" for i in range(n)],
                       inputs=rng.standard_normal((n, d)),
                       labels=rng.integers(0, c, size=n),
                       origins=[model.ORIGIN_SOURCE] * n)


def test_param_shapes_and_count():
    p = make_params()
    assert p.enc1_w.shape == (5, 2)
    assert p.proj2_w.shape == (3, 4)
    assert p.cls_w.shape == (3, 5)
    want = 5 * 2 + 5 + 5 * 5 + 5 + 4 * 5 + 4 + 3 * 4 + 3 + 3 * 5 + 3
    assert p.num_params == want
    assert p.flatten().shape == (want,)


def test_flatten_unflatten_roundtrip():
    p = make_params(3)
    flat = p.flatten()
    q = p.unflatten(flat)
    for f in ("enc1_w", "enc2_b", "proj1_w", "proj2_w", "cls_w", "cls_b"):
        np.testing.assert_array_equal(getattr(p, f), getattr(q, f))
    with pytest.raises(DimensionError):
        p.unflatten(flat[:-1])


def test_block_slices_partition_the_flat_vector():
    p = make_params(4)
    slices = p.block_slices()
    covered = np.zeros(p.num_params, dtype=int)
    for s in slices.values():
        covered[s] += 1
    assert np.all(covered == 1)
    # each slice reproduces its own block
    flat = p.flatten()
    np.testing.assert_array_equal(flat[slices["cls_b"]], p.cls_b)
    np.testing.assert_array_equal(flat[slices["enc1_w"]], p.enc1_w.ravel())


def test_init_bounds_and_zero_biases():
    cfg = model.ModelConfig(input_dim=7, n_classes=4, hidden_dim=9,
                            proj_hidden_dim=6, embed_dim=5)
    p = make_params(9, cfg)
    a = math.sqrt(6.0 / (7 + 9))
    assert np.all(np.abs(p.enc1_w) <= a)
    assert np.all(p.enc1_b == 0) and np.all(p.cls_b == 0)
    # seeded determinism
    q = make_params(9, cfg)
    np.testing.assert_array_equal(p.flatten(), q.flatten())


def test_batch_rejects_labeled_target_and_unlabeled_source():
    X = np.zeros((1, 2))
    with pytest.raises(ContractViolationError):
        model.Batch(ids=["a"], inputs=X, labels=np.array([2]),
                    origins=[model.ORIGIN_TARGET])
    with pytest.raises(ContractViolationError):
        model.Batch(ids=["a"], inputs=X, labels=np.array([-1]),
                    origins=[model.ORIGIN_SOURCE])
    with pytest.raises(ContractViolationError):
        model.Batch(ids=["a"], inputs=X, labels=np.array([-1]),
                    origins=[model.origin_memory(2)])
    with pytest.raises(DimensionError):
        model.Batch(ids=["a", "b"], inputs=X, labels=np.array([-1]),
                    origins=[model.ORIGIN_TARGET])


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


def test_ce_loss_matches_direct_formula():
    p = make_params(11)
    rng = np.random.default_rng(12)
    batch = labeled_batch(rng, p, n=8)
    loss, _ = model.ce_loss_and_grad(p, batch)
    logits = model.classify_batch(p, batch.inputs)
    total = 0.0
    for i, y in enumerate(batch.labels):
        shifted = logits[i] - logits[i].max()
        total += math.log(math.fsum(np.exp(shifted))) - shifted[y]
    np.testing.assert_allclose(loss, total / len(batch), atol=1e-12)


def test_ce_rejects_unlabeled_and_out_of_range():
    p = make_params()
    rng = np.random.default_rng(1)
    bad = model.Batch(ids=["a"], inputs=rng.standard_normal((1, 2)),
                      labels=np.array([7]), origins=[model.ORIGIN_SOURCE])
    with pytest.raises(ContractViolationError):
        model.ce_loss_and_grad(p, bad)


def _fd_grad(fn, flat, coords, h=1e-6):
    out = {}
    for j in coords:
        up = flat.copy(); up[j] += h
        dn = flat.copy(); dn[j] -= h
        out[j] = (fn(up) - fn(dn)) / (2 * h)
    return out


def test_ce_grad_matches_finite_differences():
    rng = np.random.default_rng(21)
    for trial in range(5):
        p = make_params(100 + trial)
        batch = labeled_batch(rng, p, n=5)

        def loss_at(flat):
            return model.ce_loss_and_grad(p.unflatten(flat), batch)[0]

        _, g = model.ce_loss_and_grad(p, batch)
        flat = p.flatten()
        coords = rng.choice(p.num_params, size=40, replace=False)
        fd = _fd_grad(loss_at, flat, coords)
        for j, v in fd.items():
            assert abs(g[j] - v) <= 1e-6 * max(1.0, abs(v)), (trial, j)


def test_ce_grad_projector_blocks_exactly_zero():
    p = make_params(31)
    batch = labeled_batch(np.random.default_rng(32), p, n=6)
    _, g = model.ce_loss_and_grad(p, batch)
    slices = p.block_slices()
    for f in ("proj1_w", "proj1_b", "proj2_w", "proj2_b"):
        assert np.all(g[slices[f]] == 0.0), f
    # classifier and encoder blocks carry signal
    assert np.any(g[slices["cls_w"]] != 0.0)
    assert np.any(g[slices["enc1_w"]] != 0.0)


def test_embedding_backward_matches_finite_differences():
    rng = np.random.default_rng(41)
    for trial in range(5):
        p = make_params(200 + trial)
        X = rng.standard_normal((4, 2))
        C = rng.standard_normal((4, p.config.embed_dim))

        def loss_at(flat):
            Q = model.encode_project_batch(p.unflatten(flat), X)
            return float((C * Q).sum())

        g = model.embedding_backward(p, X, C)
        flat = p.flatten()
        coords = rng.choice(p.num_params, size=40, replace=False)
        fd = _fd_grad(loss_at, flat, coords)
        for j, v in fd.items():
            assert abs(g[j] - v) <= 1e-6 * max(1.0, abs(v)), (trial, j)


def test_embedding_backward_classifier_blocks_exactly_zero():
    p = make_params(51)
    rng = np.random.default_rng(52)
    g = model.embedding_backward(p, rng.standard_normal((3, 2)),
                                 rng.standard_normal((3, 3)))
    slices = p.block_slices()
    assert np.all(g[slices["cls_w"]] == 0.0)
    assert np.all(g[slices["cls_b"]] == 0.0)
    assert np.any(g[slices["proj2_w"]] != 0.0)


def test_normalization_backward_kills_radial_component():
    # a gradient parallel to q itself must produce a zero parameter gradient
    p = make_params(61)
    rng = np.random.default_rng(62)
    X = rng.standard_normal((5, 2))
    Q = model.encode_project_batch(p, X)
    g = model.embedding_backward(p, X, 3.7 * Q)
    np.testing.assert_allclose(g, np.zeros_like(g), atol=1e-12)


def test_sgd_step_arithmetic():
    p = make_params(71)
    w = np.ones(p.num_params)
    q = model.sgd_step(p, w, 0.25)
    np.testing.assert_allclose(q.flatten(), p.flatten() - 0.25, atol=1e-15)
    with pytest.raises(DimensionError):
        model.sgd_step(p, np.ones(3), 0.1)


def test_checkpoint_roundtrip(tmp_path):
    p = make_params(81)
    path = tmp_path / "model.npz"
    model.save_checkpoint(p, path)
    q = model.load_checkpoint(path)
    assert q.config == p.config
    np.testing.assert_array_equal(q.flatten(), p.flatten())


def test_checkpoint_version_checked(tmp_path):
    p = make_params(91)
    path = tmp_path / "model.npz"
    model.save_checkpoint(p, path)
    with np.load(path) as data:
        stale = {k: data[k] for k in data.files}
    stale["version"] = np.int64(99)
    np.savez(path, **stale)
    with pytest.raises(ContractViolationError):
        model.load_checkpoint(path)
