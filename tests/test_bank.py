import numpy as np
import pytest

from contda import bank, model
from contda.errors import (DegenerateInputError, DimensionError,
                           InsufficientNegativesError)


def unit_rows(rng, n, d):
    M = rng.standard_normal((n, d))
    return M / np.linalg.norm(M, axis=1, keepdims=True)


def make_bank(rng, n=10, d=4):
    return bank.FeatureBank(embed_dim=d, keys=unit_rows(rng, n, d))


def test_lookup_and_shape_validation():
    rng = np.random.default_rng(0)
    b = make_bank(rng, n=5, d=3)
    assert len(b) == 5
    np.testing.assert_array_equal(b.check_rows([3, 0]), [3, 0])
    for bad in ([5], [-1], [[0, 1]]):
        with pytest.raises(DimensionError):
            b.check_rows(bad)
    with pytest.raises(DimensionError):
        bank.FeatureBank(embed_dim=3, keys=np.zeros((1, 2)))
    with pytest.raises(DimensionError):
        bank.momentum_update(b, [5], unit_rows(rng, 1, 3))


def test_init_bank_uses_frozen_snapshot_embeddings():
    cfg = model.ModelConfig(input_dim=2, n_classes=3, hidden_dim=5,
                            proj_hidden_dim=4, embed_dim=3)
    params = model.init_params(cfg, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    Xs = rng.standard_normal((4, 2))
    Xt = rng.standard_normal((6, 2))
    b = bank.init_bank(params, [Xs, Xt])
    assert len(b) == 10
    # the blocks' rows follow each other in order
    np.testing.assert_allclose(b.keys[:4],
                               model.encode_project_batch(params, Xs), atol=1e-15)
    np.testing.assert_allclose(b.keys[4:],
                               model.encode_project_batch(params, Xt), atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(b.keys, axis=1), 1.0, atol=1e-12)


def test_init_bank_skips_empty_pools():
    cfg = model.ModelConfig(input_dim=2, n_classes=2, hidden_dim=4,
                            proj_hidden_dim=4, embed_dim=2)
    params = model.init_params(cfg, np.random.default_rng(4))
    b = bank.init_bank(params, [np.zeros((0, 2)), np.ones((1, 2))])
    assert len(b) == 1
    np.testing.assert_allclose(
        b.keys, model.encode_project_batch(params, np.ones((1, 2))), atol=1e-15)
    with pytest.raises(InsufficientNegativesError):
        bank.negative_rows(b, [0], 1, np.random.default_rng(0))


def test_momentum_update_halfway_blend():
    rng = np.random.default_rng(5)
    b = make_bank(rng, n=6, d=4)
    old = b.keys.copy()
    fresh = unit_rows(rng, 2, 4)
    bank.momentum_update(b, [1, 4], fresh, momentum=0.5)
    for row, q in ((1, fresh[0]), (4, fresh[1])):
        blend = 0.5 * old[row] + 0.5 * q
        np.testing.assert_allclose(b.keys[row], blend / np.linalg.norm(blend),
                                   atol=1e-12)
    # untouched rows stay put
    np.testing.assert_array_equal(b.keys[0], old[0])
    np.testing.assert_allclose(np.linalg.norm(b.keys, axis=1), 1.0, atol=1e-12)


def test_momentum_update_edge_coefficients():
    rng = np.random.default_rng(6)
    b = make_bank(rng, n=3, d=4)
    old = b.keys.copy()
    fresh = unit_rows(rng, 1, 4)
    bank.momentum_update(b, [0], fresh, momentum=1.0)
    np.testing.assert_allclose(b.keys[0], old[0], atol=1e-12)
    bank.momentum_update(b, [1], fresh, momentum=0.0)
    np.testing.assert_allclose(b.keys[1], fresh[0], atol=1e-12)
    with pytest.raises(DegenerateInputError):
        bank.momentum_update(b, [2], fresh, momentum=1.5)
    with pytest.raises(DimensionError):
        bank.momentum_update(b, [0, 1], fresh)


def test_momentum_update_antipodal_blend_raises():
    rng = np.random.default_rng(7)
    b = make_bank(rng, n=2, d=3)
    with pytest.raises(DegenerateInputError):
        bank.momentum_update(b, [0], -b.keys[[0]], momentum=0.5)


# (bank size, negatives) on each side of the fill-ratio predicate
SPARSE_SHAPES = ((3600, 64), (200, 10))
DENSE_SHAPES = ((12, 7), (1300, 512))


def test_fill_ratio_predicate_sides():
    for n, count in SPARSE_SHAPES:
        assert bank.is_sparse(n, count)
    for n, count in DENSE_SHAPES:
        assert not bank.is_sparse(n, count)


def test_draw_negatives_excludes_own_key_and_is_distinct():
    for n, count in SPARSE_SHAPES + DENSE_SHAPES:
        b = make_bank(np.random.default_rng(8), n=n, d=2)
        own = np.array([5, 0, n - 1, 5, n // 2, 1] * 11)
        rows = bank.negative_rows(b, own, count, np.random.default_rng(9))
        assert rows.shape == (own.size, count)
        assert rows.dtype == np.int32
        assert rows.min() >= 0 and rows.max() < n
        assert not np.any(rows == own[:, None])
        for r in rows:
            assert len(set(r.tolist())) == count


def test_draw_negatives_exhausts_bank():
    # K = N - 1 takes every other row, K = 0 takes none, K >= N raises
    for n in (4, 9, 40):
        b = make_bank(np.random.default_rng(10), n=n, d=3)
        own = np.arange(n)
        rows = bank.negative_rows(b, own, n - 1, np.random.default_rng(11))
        for o, r in zip(own, rows):
            assert sorted(r.tolist()) == [j for j in range(n) if j != o]
        none = bank.negative_rows(b, own, 0, np.random.default_rng(11))
        assert none.shape == (n, 0)
        for count in (n, n + 5):
            with pytest.raises(InsufficientNegativesError):
                bank.negative_rows(b, np.array([2]), count,
                                   np.random.default_rng(12))


def test_negative_columns_are_uniform():
    # every other row is drawn equally often: no column's count strays more
    # than 5 binomial standard deviations from its mean over 20,000 queries,
    # and the own row is never drawn
    draws = 20_000
    for n, count in ((3600, 64), (60, 5), (60, 30)):
        b = make_bank(np.random.default_rng(13), n=n, d=2)
        own = np.full(draws, n // 3)
        rows = bank.negative_rows(b, own, count, np.random.default_rng(14))
        freq = np.bincount(rows.ravel(), minlength=n)
        assert freq[n // 3] == 0
        p = count / (n - 1)
        mean, sd = draws * p, np.sqrt(draws * p * (1 - p))
        assert np.abs(np.delete(freq, n // 3) - mean).max() < 5 * sd, (n, count)


def test_negative_rows_follow_the_generator():
    b = make_bank(np.random.default_rng(15), n=300, d=2)
    own = np.arange(0, 300, 7)
    for count in (10, 200):
        a = bank.negative_rows(b, own, count, np.random.default_rng(16))
        c = bank.negative_rows(b, own, count, np.random.default_rng(16))
        np.testing.assert_array_equal(a, c)
        d = bank.negative_rows(b, own, count, np.random.default_rng(17))
        assert not np.array_equal(np.sort(a, axis=1), np.sort(d, axis=1))


def test_distinct_rows_draw_every_subset_equally():
    # each of the 20 three-row subsets of six rows is drawn within 5
    # binomial standard deviations of 1/20 of 20,000 draws, so the redraw
    # favours no arrangement of rows, not only no single row
    draws = 20_000
    rows = bank.distinct_rows(np.random.default_rng(18), 6, 3, draws)
    assert rows.dtype == np.int32
    assert np.all(np.diff(rows, axis=1) > 0)
    freq = np.bincount((rows * [36, 6, 1]).sum(axis=1), minlength=216)
    subsets = freq[freq > 0]
    assert subsets.size == 20
    mean, sd = draws / 20, np.sqrt(draws / 20 * 19 / 20)
    assert np.abs(subsets - mean).max() < 5 * sd
