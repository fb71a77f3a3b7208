import math

import numpy as np
import pytest

from contda import bank, contrastive, model
from contda.errors import DimensionError


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def unit_rows(rng, n, d):
    M = rng.standard_normal((n, d))
    return M / np.linalg.norm(M, axis=1, keepdims=True)


def nce_direct(query, positive, negatives, tau):
    """Route through explicit exponentials with fsum, no shared code."""
    sims = [float(positive @ query) / tau] + [float(k @ query) / tau
                                              for k in negatives]
    m = max(sims)
    z = math.fsum(math.exp(s - m) for s in sims)
    return -(sims[0] - m - math.log(z))


def test_nce_matches_direct_formula():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = rng.integers(2, 8)
        q = unit(rng.standard_normal(d))
        pos = unit(rng.standard_normal(d))
        negs = unit_rows(rng, rng.integers(1, 12), d)
        tau = float(rng.uniform(0.03, 1.0))
        got = contrastive.nce_loss(q, pos, negs, tau)
        assert abs(got - nce_direct(q, pos, negs, tau)) < 1e-12


def test_nce_zero_without_negatives():
    rng = np.random.default_rng(1)
    q = unit(rng.standard_normal(5))
    assert contrastive.nce_loss(q, unit(rng.standard_normal(5)),
                                np.zeros((0, 5))) == 0.0
    assert contrastive.nce_loss(q, q, []) == 0.0


def test_nce_perfect_positive_bound():
    # with q == positive the loss is at most log(1 + n_neg) and decreasing in tau
    rng = np.random.default_rng(2)
    q = unit(rng.standard_normal(4))
    negs = unit_rows(rng, 6, 4)
    loss = contrastive.nce_loss(q, q, negs, 0.07)
    assert 0.0 < loss < math.log(7.0)


def test_nce_temperature_sharpens():
    rng = np.random.default_rng(3)
    q = unit(rng.standard_normal(4))
    pos = unit(q + 0.1 * rng.standard_normal(4))
    negs = unit_rows(rng, 8, 4)
    # closer positive than negatives: smaller tau concentrates mass on it
    losses = [contrastive.nce_loss(q, pos, negs, t) for t in (0.5, 0.2, 0.05)]
    assert losses[0] > losses[1] > losses[2]


def test_nce_validates_shapes():
    with pytest.raises(DimensionError):
        contrastive.nce_loss(np.zeros(3), np.zeros(4), np.zeros((1, 3)))
    with pytest.raises(DimensionError):
        contrastive.nce_loss(np.zeros(3), np.zeros(3), np.zeros((1, 4)))
    with pytest.raises(DimensionError):
        contrastive.nce_loss(np.zeros(3), np.zeros(3), np.zeros((1, 3)), 0.0)


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


def test_contrastive_loss_matches_per_sample_mean():
    params, batch, fbank = make_setup(10)
    cfg = contrastive.ContrastiveConfig(temperature=0.2, use_full_bank=True)
    loss, _ = contrastive.contrastive_grad(params, fw(params, batch), batch.ids,
                                           fbank, cfg, np.random.default_rng(0))
    Q = model.encode_project_batch(params, batch.inputs)
    want = 0.0
    for i, sid in enumerate(batch.ids):
        want += nce_direct(Q[i], fbank.key(sid),
                           bank.negatives_full(fbank, sid), 0.2)
    np.testing.assert_allclose(loss, want / len(batch), atol=1e-12)


def test_contrastive_grad_matches_finite_differences():
    # full-bank negatives make the loss a deterministic function of params
    for trial in range(4):
        params, batch, fbank = make_setup(20 + trial, n=4)
        cfg = contrastive.ContrastiveConfig(temperature=0.15, use_full_bank=True)
        rng = np.random.default_rng(99)

        def loss_at(flat):
            moved = model.ModelParams(params.config, flat)
            l, _ = contrastive.contrastive_grad(
                moved, model.forward(moved, batch.inputs), batch.ids, fbank,
                cfg, rng)
            return l

        _, g = contrastive.contrastive_grad(params, fw(params, batch), batch.ids,
                                            fbank, cfg, rng)
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
    cfg = contrastive.ContrastiveConfig(use_full_bank=True)
    _, g = contrastive.contrastive_grad(params, fw(params, batch), batch.ids,
                                        fbank, cfg, np.random.default_rng(0))
    slices = params.block_slices()
    assert np.all(g[slices["cls_w"]] == 0.0)
    assert np.all(g[slices["cls_b"]] == 0.0)
    assert np.any(g[slices["proj1_w"]] != 0.0)


def test_bank_keys_receive_no_gradient():
    # mutating the bank after the call must not have been influenced by it:
    # the gradient only depends on keys as constants, so two calls with
    # identical keys but different array objects agree exactly
    params, batch, fbank = make_setup(40)
    cfg = contrastive.ContrastiveConfig(use_full_bank=True)
    _, g1 = contrastive.contrastive_grad(params, fw(params, batch), batch.ids,
                                         fbank, cfg, np.random.default_rng(0))
    clone = bank.FeatureBank(embed_dim=fbank.embed_dim, ids=list(fbank.ids),
                             keys=fbank.keys.copy(), origins=list(fbank.origins))
    _, g2 = contrastive.contrastive_grad(params, fw(params, batch), batch.ids,
                                         clone, cfg, np.random.default_rng(0))
    np.testing.assert_array_equal(g1, g2)


def test_sampled_negatives_use_rng_stream():
    params, batch, fbank = make_setup(50)
    cfg = contrastive.ContrastiveConfig(temperature=0.2, negatives=5)
    l1, g1 = contrastive.contrastive_grad(params, fw(params, batch), batch.ids,
                                          fbank, cfg, np.random.default_rng(7))
    l2, g2 = contrastive.contrastive_grad(params, fw(params, batch), batch.ids,
                                          fbank, cfg, np.random.default_rng(7))
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)
    l3, _ = contrastive.contrastive_grad(params, fw(params, batch), batch.ids,
                                         fbank, cfg, np.random.default_rng(8))
    assert l1 != l3


def test_empty_batch_rejected():
    params, batch, fbank = make_setup(60)
    empty = model.Batch(ids=[], inputs=np.zeros((0, 2)),
                        labels=np.zeros(0, dtype=np.int64), origins=[])
    with pytest.raises(DimensionError):
        contrastive.contrastive_grad(params, model.forward(params, empty.inputs),
                                     empty.ids, fbank,
                                     contrastive.ContrastiveConfig(),
                                     np.random.default_rng(0))


def test_ids_must_match_forward_rows():
    params, batch, fbank = make_setup(70)
    with pytest.raises(DimensionError):
        contrastive.contrastive_grad(params, fw(params, batch), batch.ids[:-1],
                                     fbank, contrastive.ContrastiveConfig(),
                                     np.random.default_rng(0))
