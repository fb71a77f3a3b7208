import math

import numpy as np
import pytest

from contda import bank, contrastive, model
from contda.errors import DimensionError


def nce_direct(query, positive, negatives, tau):
    """Route through explicit exponentials with fsum, no shared code."""
    sims = [float(positive @ query) / tau] + [float(k @ query) / tau
                                              for k in negatives]
    m = max(sims)
    z = math.fsum(math.exp(s - m) for s in sims)
    return -(sims[0] - m - math.log(z))


def fw(params, batch):
    return model.forward(params, batch.inputs)


def make_setup(seed, n=5, extra=7):
    """Params, a target batch, and a bank whose rows 0..n-1 hold the batch
    and whose other rows hold further samples."""
    cfg = model.ModelConfig(input_dim=2, n_classes=3, hidden_dim=6,
                            proj_hidden_dim=5, embed_dim=4)
    params = model.init_params(cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    X = rng.standard_normal((n + extra, 2))
    batch = model.Batch(inputs=X[:n], labels=np.full(n, -1),
                        parts=np.full(n, model.PART_TARGET))
    return params, batch, bank.init_bank(params, [X[:n], X[n:]])


def rows_of(batch):
    return np.arange(len(batch))


def nce_grad(forward, rows, fbank, tau, count, rng):
    """contrastive_grad against `count` negatives per row drawn from rng."""
    negatives = bank.negative_rows(fbank, rows, count, rng)
    return contrastive.contrastive_grad(forward, rows, negatives, fbank, tau)


def force_side(monkeypatch, sparse):
    """Put the negative draw and the kernel on one side of the fill-ratio
    predicate: the gathered kernel when sparse, else the dense one."""
    monkeypatch.setattr(bank, "is_sparse", lambda size, count: sparse)


def recorded_draws(monkeypatch):
    """The negative rows of every later contrastive_grad call, in order."""
    seen = []
    real = bank.negative_rows
    monkeypatch.setattr(bank, "negative_rows",
                        lambda *a: seen.append(real(*a)) or seen[-1])
    return seen


def test_nce_matches_direct_formula(monkeypatch):
    # bank sizes up to 80 put the natural predicate on both sides
    draws = recorded_draws(monkeypatch)
    rng = np.random.default_rng(0)
    for _ in range(100):
        params, batch, fbank = make_setup(int(rng.integers(1000)),
                                          n=int(rng.integers(1, 6)),
                                          extra=int(rng.integers(7, 75)))
        count = int(rng.integers(0, len(fbank)))
        tau = float(rng.uniform(0.03, 1.0))
        loss, _ = nce_grad(
            fw(params, batch), rows_of(batch), fbank, tau, count,
            np.random.default_rng(int(rng.integers(1000))))
        neg = draws.pop()
        Q = model.encode_project_batch(params, batch.inputs)
        want = [nce_direct(Q[i], fbank.keys[i], fbank.keys[neg[i]], tau)
                for i in range(len(batch))]
        assert abs(loss - math.fsum(want) / len(want)) < 1e-12


def test_contrastive_grad_matches_per_row_oracle(monkeypatch):
    # sampled negatives: the draw is recorded, and the gradient w.r.t. each
    # query is sum_j p_j k_j - k_pos, over tau and n
    draws = recorded_draws(monkeypatch)
    tau, count = 0.2, 5
    for seed in range(6):
        force_side(monkeypatch, seed % 2 == 0)
        params, batch, fbank = make_setup(80 + seed, n=6)
        forward = fw(params, batch)
        loss, dQ = nce_grad(forward, rows_of(batch), fbank,
                            tau, count,
                            np.random.default_rng(seed))
        neg = draws.pop()
        Q = forward.embeddings()
        n = len(batch)
        losses, want = [], np.zeros_like(Q)
        for i in range(n):
            keys = fbank.keys[np.concatenate(([i], neg[i]))]
            losses.append(nce_direct(Q[i], keys[0], keys[1:], tau))
            sims = [float(k @ Q[i]) / tau for k in keys]
            m = max(sims)
            z = math.fsum(math.exp(v - m) for v in sims)
            p = np.array([math.exp(v - m) / z for v in sims])
            want[i] = (p @ keys - keys[0]) / (tau * n)
        assert abs(loss - math.fsum(losses) / n) < 1e-12
        np.testing.assert_allclose(dQ, want, rtol=0, atol=1e-12)


def test_nce_zero_without_negatives():
    params, batch, fbank = make_setup(1)
    loss, dQ = nce_grad(fw(params, batch), rows_of(batch),
                        fbank, 0.2, 0,
                        np.random.default_rng(0))
    assert loss == 0.0
    assert np.all(dQ == 0.0)


def test_nce_perfect_positive_bound():
    # a bank built from the same parameters holds key == query, so the loss
    # is positive and at most log(1 + negatives)
    params, batch, fbank = make_setup(2)
    loss, _ = nce_grad(fw(params, batch), rows_of(batch),
                       fbank, 0.07, 6,
                       np.random.default_rng(0))
    assert 0.0 < loss < math.log(7.0)


def test_nce_temperature_sharpens():
    # the positive (key == query) beats every negative, so a smaller tau
    # concentrates mass on it
    params, batch, fbank = make_setup(3)
    losses = [nce_grad(
        fw(params, batch), rows_of(batch), fbank, t, len(fbank) - 1,
        np.random.default_rng(0))[0] for t in (0.5, 0.2, 0.05)]
    assert losses[0] > losses[1] > losses[2]


def test_nce_validates_shapes():
    params, batch, fbank = make_setup(4)
    narrow = bank.FeatureBank(embed_dim=3, keys=fbank.keys[:, :3])
    with pytest.raises(DimensionError):
        nce_grad(fw(params, batch), rows_of(batch),
                 narrow, 0.2, 3, np.random.default_rng(0))
    neg = bank.negative_rows(fbank, rows_of(batch), 3,
                             np.random.default_rng(0))
    for rows, negatives in ((rows_of(batch) + len(fbank), neg),
                            (rows_of(batch), neg + len(fbank)),
                            (rows_of(batch), neg[:-1]), (rows_of(batch), neg[0])):
        with pytest.raises(DimensionError):
            contrastive.contrastive_grad(fw(params, batch), rows, negatives,
                                         fbank, 0.2)


def test_contrastive_loss_matches_per_sample_mean():
    params, batch, fbank = make_setup(10)
    loss, _ = nce_grad(fw(params, batch), rows_of(batch),
                       fbank, 0.2, len(fbank) - 1,
                       np.random.default_rng(0))
    Q = model.encode_project_batch(params, batch.inputs)
    want = 0.0
    for row in rows_of(batch):
        want += nce_direct(Q[row], fbank.keys[row],
                           np.delete(fbank.keys, row, axis=0), 0.2)
    np.testing.assert_allclose(loss, want / len(batch), atol=1e-12)


def test_contrastive_grad_matches_finite_differences(monkeypatch):
    # full-bank negatives make the loss a deterministic function of params,
    # up to the order in which the draw lists them; the parameter gradient
    # is the embedding row of model.backward
    for trial in range(4):
        force_side(monkeypatch, trial % 2 == 0)
        params, batch, fbank = make_setup(20 + trial, n=4)
        every = len(fbank) - 1

        def loss_at(flat):
            moved = model.ModelParams(params.config, flat)
            l, _ = nce_grad(
                model.forward(moved, batch.inputs), rows_of(batch), fbank,
                0.15, every, np.random.default_rng(99))
            return l

        forward = fw(params, batch)
        _, dQ = nce_grad(forward, rows_of(batch), fbank,
                         0.15, every,
                         np.random.default_rng(99))
        g = model.backward(params, forward, dQ)[1][0]
        flat = params.flat.copy()
        coords = np.random.default_rng(trial).choice(params.num_params,
                                                     size=40, replace=False)
        h = 1e-6
        for j in coords:
            up = flat.copy(); up[j] += h
            dn = flat.copy(); dn[j] -= h
            fd = (loss_at(up) - loss_at(dn)) / (2 * h)
            assert abs(g[j] - fd) <= 1e-6 * max(1.0, abs(fd)), (trial, j)


def test_contrastive_grad_classifier_blocks_zero():
    params, batch, fbank = make_setup(30)
    forward = fw(params, batch)
    _, dQ = nce_grad(forward, rows_of(batch), fbank, 0.07,
                     len(fbank) - 1,
                     np.random.default_rng(0))
    g = model.backward(params, forward, dQ)[1][0]
    slices = params.block_slices()
    assert np.all(g[slices["cls_w"]] == 0.0)
    assert np.all(g[slices["cls_b"]] == 0.0)
    assert np.any(g[slices["proj1_w"]] != 0.0)


def test_bank_keys_receive_no_gradient():
    # mutating the bank after the call must not have been influenced by it:
    # the gradient only depends on keys as constants, so two calls with
    # identical keys but different array objects agree exactly
    params, batch, fbank = make_setup(40)
    _, g1 = nce_grad(fw(params, batch), rows_of(batch),
                     fbank, 0.07, len(fbank) - 1,
                     np.random.default_rng(0))
    clone = bank.FeatureBank(embed_dim=fbank.embed_dim, keys=fbank.keys.copy())
    _, g2 = nce_grad(fw(params, batch), rows_of(batch),
                     clone, 0.07, len(clone) - 1,
                     np.random.default_rng(0))
    np.testing.assert_array_equal(g1, g2)


def test_sampled_negatives_use_rng_stream():
    params, batch, fbank = make_setup(50)
    l1, g1 = nce_grad(fw(params, batch), rows_of(batch),
                      fbank, 0.2, 5, np.random.default_rng(7))
    l2, g2 = nce_grad(fw(params, batch), rows_of(batch),
                      fbank, 0.2, 5, np.random.default_rng(7))
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)
    l3, _ = nce_grad(fw(params, batch), rows_of(batch),
                     fbank, 0.2, 5, np.random.default_rng(8))
    assert l1 != l3


def test_empty_batch_rejected():
    params, batch, fbank = make_setup(60)
    with pytest.raises(DimensionError):
        contrastive.contrastive_grad(model.forward(params, np.zeros((0, 2))),
                                     [], np.zeros((0, 5), dtype=np.int32),
                                     fbank, 0.2)


def test_rows_must_match_forward_rows():
    params, batch, fbank = make_setup(70)
    rows = rows_of(batch)[:-1]
    neg = bank.negative_rows(fbank, rows, 5, np.random.default_rng(0))
    with pytest.raises(DimensionError):
        contrastive.contrastive_grad(fw(params, batch), rows, neg, fbank, 0.2)


def test_kernels_agree_on_the_same_columns():
    rng = np.random.default_rng(5)
    for n_bank, count in ((3600, 64), (1300, 512), (40, 39)):
        keys = rng.standard_normal((n_bank, 16))
        keys /= np.linalg.norm(keys, axis=1, keepdims=True)
        Q = rng.standard_normal((64, 16))
        Q /= np.linalg.norm(Q, axis=1, keepdims=True)
        fbank = bank.FeatureBank(embed_dim=16, keys=keys)
        own = rng.integers(n_bank, size=64)
        cols = np.concatenate(
            (own[:, None], bank.negative_rows(fbank, own, count, rng)), axis=1)
        logp_g, dQ_g = contrastive.nce_columns(Q, keys, cols, 0.2, True)
        logp_d, dQ_d = contrastive.nce_columns(Q, keys, cols, 0.2, False)
        np.testing.assert_allclose(logp_g, logp_d, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dQ_g, dQ_d, rtol=0, atol=1e-12)
