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


def make_setup(seed, n=5):
    cfg = model.ModelConfig(input_dim=2, n_classes=3, hidden_dim=6,
                            proj_hidden_dim=5, embed_dim=4)
    params = model.init_params(cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    X = rng.standard_normal((n, 2))
    ids = [f"t{i}" for i in range(n)]
    batch = model.Batch(ids=ids, inputs=X, labels=np.full(n, -1),
                        origins=[model.ORIGIN_TARGET] * n)
    extra = rng.standard_normal((7, 2))
    pools = [(ids, X, model.ORIGIN_TARGET),
             ([f"e{i}" for i in range(7)], extra, model.ORIGIN_TARGET)]
    fbank = bank.init_bank(params, pools)
    return params, batch, fbank


def reference_draw(rng, n_bank, own, count):
    """Reference draw: choose among the bank's rows with own deleted."""
    return rng.choice(np.delete(np.arange(n_bank), own), size=count,
                      replace=False)


def test_nce_matches_direct_formula():
    rng = np.random.default_rng(0)
    for _ in range(100):
        params, batch, fbank = make_setup(int(rng.integers(1000)),
                                          n=int(rng.integers(1, 6)))
        count = int(rng.integers(0, len(fbank)))
        tau = float(rng.uniform(0.03, 1.0))
        seed = int(rng.integers(1000))
        loss, _ = contrastive.contrastive_grad(
            params, fw(params, batch), batch.ids, fbank, tau, count,
            np.random.default_rng(seed))
        twin = np.random.default_rng(seed)
        Q = model.encode_project_batch(params, batch.inputs)
        want = [nce_direct(Q[i], fbank.keys[i],
                           fbank.keys[reference_draw(twin, len(fbank), i, count)],
                           tau)
                for i in range(len(batch))]
        assert abs(loss - math.fsum(want) / len(want)) < 1e-12


def test_contrastive_grad_matches_per_row_oracle(monkeypatch):
    # sampled negatives: the draw is rebuilt from a twin generator, and the
    # gradient w.r.t. each query is sum_j p_j k_j - k_pos, over tau and n
    seen = []
    real = model.embedding_grad
    monkeypatch.setattr(model, "embedding_grad",
                        lambda p, f, dQ: seen.append(dQ) or real(p, f, dQ))
    tau, count = 0.2, 5
    for seed in range(5):
        params, batch, fbank = make_setup(80 + seed, n=6)
        forward = fw(params, batch)
        loss, g = contrastive.contrastive_grad(params, forward, batch.ids, fbank,
                                               tau, count,
                                               np.random.default_rng(seed))
        dQ = seen.pop()
        twin = np.random.default_rng(seed)
        Q = forward.embeddings()
        n = len(batch)
        losses, want = [], np.zeros_like(Q)
        for i in range(n):
            keys = fbank.keys[np.concatenate(
                ([i], reference_draw(twin, len(fbank), i, count)))]
            losses.append(nce_direct(Q[i], keys[0], keys[1:], tau))
            sims = [float(k @ Q[i]) / tau for k in keys]
            m = max(sims)
            z = math.fsum(math.exp(v - m) for v in sims)
            p = np.array([math.exp(v - m) / z for v in sims])
            want[i] = (p @ keys - keys[0]) / (tau * n)
        assert abs(loss - math.fsum(losses) / n) < 1e-12
        np.testing.assert_allclose(dQ, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(g, real(params, forward, want),
                                   rtol=0, atol=1e-12)


def test_nce_zero_without_negatives():
    params, batch, fbank = make_setup(1)
    loss, g = contrastive.contrastive_grad(params, fw(params, batch), batch.ids,
                                           fbank, 0.2, 0,
                                           np.random.default_rng(0))
    assert loss == 0.0
    assert np.all(g == 0.0)


def test_nce_perfect_positive_bound():
    # a bank built from the same parameters holds key == query, so the loss
    # is positive and at most log(1 + negatives)
    params, batch, fbank = make_setup(2)
    loss, _ = contrastive.contrastive_grad(params, fw(params, batch), batch.ids,
                                           fbank, 0.07, 6,
                                           np.random.default_rng(0))
    assert 0.0 < loss < math.log(7.0)


def test_nce_temperature_sharpens():
    # the positive (key == query) beats every negative, so a smaller tau
    # concentrates mass on it
    params, batch, fbank = make_setup(3)
    losses = [contrastive.contrastive_grad(
        params, fw(params, batch), batch.ids, fbank, t, len(fbank) - 1,
        np.random.default_rng(0))[0] for t in (0.5, 0.2, 0.05)]
    assert losses[0] > losses[1] > losses[2]


def test_nce_validates_shapes():
    params, batch, fbank = make_setup(4)
    narrow = bank.FeatureBank(embed_dim=3, ids=list(fbank.ids),
                              keys=fbank.keys[:, :3], origins=list(fbank.origins))
    with pytest.raises(DimensionError):
        contrastive.contrastive_grad(params, fw(params, batch), batch.ids,
                                     narrow, 0.2, 3, np.random.default_rng(0))


def test_contrastive_loss_matches_per_sample_mean():
    params, batch, fbank = make_setup(10)
    loss, _ = contrastive.contrastive_grad(params, fw(params, batch), batch.ids,
                                           fbank, 0.2, len(fbank) - 1,
                                           np.random.default_rng(0))
    Q = model.encode_project_batch(params, batch.inputs)
    want = 0.0
    for i, sid in enumerate(batch.ids):
        row = fbank.row_of(sid)
        want += nce_direct(Q[i], fbank.keys[row],
                           np.delete(fbank.keys, row, axis=0), 0.2)
    np.testing.assert_allclose(loss, want / len(batch), atol=1e-12)


def test_contrastive_grad_matches_finite_differences():
    # full-bank negatives make the loss a deterministic function of params,
    # up to the order in which the draw lists them
    for trial in range(4):
        params, batch, fbank = make_setup(20 + trial, n=4)
        every = len(fbank) - 1

        def loss_at(flat):
            moved = model.ModelParams(params.config, flat)
            l, _ = contrastive.contrastive_grad(
                moved, model.forward(moved, batch.inputs), batch.ids, fbank,
                0.15, every, np.random.default_rng(99))
            return l

        _, g = contrastive.contrastive_grad(params, fw(params, batch), batch.ids,
                                            fbank, 0.15, every,
                                            np.random.default_rng(99))
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
    _, g = contrastive.contrastive_grad(params, fw(params, batch), batch.ids,
                                        fbank, 0.07, len(fbank) - 1,
                                        np.random.default_rng(0))
    slices = params.block_slices()
    assert np.all(g[slices["cls_w"]] == 0.0)
    assert np.all(g[slices["cls_b"]] == 0.0)
    assert np.any(g[slices["proj1_w"]] != 0.0)


def test_bank_keys_receive_no_gradient():
    # mutating the bank after the call must not have been influenced by it:
    # the gradient only depends on keys as constants, so two calls with
    # identical keys but different array objects agree exactly
    params, batch, fbank = make_setup(40)
    _, g1 = contrastive.contrastive_grad(params, fw(params, batch), batch.ids,
                                         fbank, 0.07, len(fbank) - 1,
                                         np.random.default_rng(0))
    clone = bank.FeatureBank(embed_dim=fbank.embed_dim, ids=list(fbank.ids),
                             keys=fbank.keys.copy(), origins=list(fbank.origins))
    _, g2 = contrastive.contrastive_grad(params, fw(params, batch), batch.ids,
                                         clone, 0.07, len(clone) - 1,
                                         np.random.default_rng(0))
    np.testing.assert_array_equal(g1, g2)


def test_sampled_negatives_use_rng_stream():
    params, batch, fbank = make_setup(50)
    l1, g1 = contrastive.contrastive_grad(params, fw(params, batch), batch.ids,
                                          fbank, 0.2, 5, np.random.default_rng(7))
    l2, g2 = contrastive.contrastive_grad(params, fw(params, batch), batch.ids,
                                          fbank, 0.2, 5, np.random.default_rng(7))
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)
    l3, _ = contrastive.contrastive_grad(params, fw(params, batch), batch.ids,
                                         fbank, 0.2, 5, np.random.default_rng(8))
    assert l1 != l3


def test_empty_batch_rejected():
    params, batch, fbank = make_setup(60)
    empty = model.Batch(ids=[], inputs=np.zeros((0, 2)),
                        labels=np.zeros(0, dtype=np.int64), origins=[])
    with pytest.raises(DimensionError):
        contrastive.contrastive_grad(params, model.forward(params, empty.inputs),
                                     empty.ids, fbank, 0.2, 5,
                                     np.random.default_rng(0))


def test_ids_must_match_forward_rows():
    params, batch, fbank = make_setup(70)
    with pytest.raises(DimensionError):
        contrastive.contrastive_grad(params, fw(params, batch), batch.ids[:-1],
                                     fbank, 0.2, 5, np.random.default_rng(0))
