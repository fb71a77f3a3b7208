import numpy as np
import pytest

from contda import bank, model
from contda.errors import (DegenerateInputError, DimensionError,
                           InsufficientNegativesError)


def unit_rows(rng, n, d):
    M = rng.standard_normal((n, d))
    return M / np.linalg.norm(M, axis=1, keepdims=True)


def test_lookup_and_shape_validation():
    rng = np.random.default_rng(0)
    b = unit_rows(rng, 5, 3)
    assert len(b) == 5
    np.testing.assert_array_equal(bank.check_rows([3, 0], len(b)), [3, 0])
    for bad in ([5], [-1], [[0, 1]]):
        with pytest.raises(DimensionError):
            bank.check_rows(bad, len(b))
    with pytest.raises(DimensionError):
        bank.momentum_update(b, [5], unit_rows(rng, 1, 3), 0.5)
    with pytest.raises(DimensionError):
        bank.momentum_update(b, [0], unit_rows(rng, 1, 2), 0.5)


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
    np.testing.assert_allclose(b[:4],
                               model.encode_project_batch(params, Xs), atol=1e-15)
    np.testing.assert_allclose(b[4:],
                               model.encode_project_batch(params, Xt), atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(b, axis=1), 1.0, atol=1e-12)


def test_init_bank_skips_empty_pools():
    cfg = model.ModelConfig(input_dim=2, n_classes=2, hidden_dim=4,
                            proj_hidden_dim=4, embed_dim=2)
    params = model.init_params(cfg, np.random.default_rng(4))
    b = bank.init_bank(params, [np.zeros((0, 2)), np.ones((1, 2))])
    assert len(b) == 1
    np.testing.assert_allclose(
        b, model.encode_project_batch(params, np.ones((1, 2))), atol=1e-15)
    with pytest.raises(InsufficientNegativesError):
        bank.negative_rows(b, [[0]], 1, np.random.default_rng(0))


def test_momentum_update_halfway_blend():
    rng = np.random.default_rng(5)
    b = unit_rows(rng, 6, 4)
    old = b.copy()
    fresh = unit_rows(rng, 2, 4)
    bank.momentum_update(b, [1, 4], fresh, momentum=0.5)
    for row, q in ((1, fresh[0]), (4, fresh[1])):
        blend = 0.5 * old[row] + 0.5 * q
        np.testing.assert_allclose(b[row], blend / np.linalg.norm(blend),
                                   atol=1e-12)
    # untouched rows stay put
    np.testing.assert_array_equal(b[0], old[0])
    np.testing.assert_allclose(np.linalg.norm(b, axis=1), 1.0, atol=1e-12)


def test_momentum_update_edge_coefficients():
    rng = np.random.default_rng(6)
    b = unit_rows(rng, 3, 4)
    old = b.copy()
    fresh = unit_rows(rng, 1, 4)
    bank.momentum_update(b, [0], fresh, momentum=1.0)
    np.testing.assert_allclose(b[0], old[0], atol=1e-12)
    bank.momentum_update(b, [1], fresh, momentum=0.0)
    np.testing.assert_allclose(b[1], fresh[0], atol=1e-12)
    with pytest.raises(DegenerateInputError):
        bank.momentum_update(b, [2], fresh, momentum=1.5)
    with pytest.raises(DimensionError):
        bank.momentum_update(b, [0, 1], fresh, 0.5)


def test_momentum_update_antipodal_blend_raises():
    rng = np.random.default_rng(7)
    b = unit_rows(rng, 2, 3)
    with pytest.raises(DegenerateInputError):
        bank.momentum_update(b, [0], -b[[0]], momentum=0.5)


def outside_ranks(step, neg):
    """Each negative's rank among the bank rows outside the step."""
    return neg - np.searchsorted(np.unique(step), neg)


def test_draw_negatives_excludes_own_key_and_is_distinct():
    # one array per step, in step order, shared by the step's queries: count
    # distinct rows, none of them a row of the step, repeated or not
    for n, count in ((3600, 64), (200, 10), (12, 5), (1300, 512)):
        b = unit_rows(np.random.default_rng(8), n, 2)
        steps = [np.array([5, 0, n - 1, 5, n // 2, 1]),
                 np.array([n - 1] * 3), np.arange(6)]
        out = bank.negative_rows(b, steps, count, np.random.default_rng(9))
        assert len(out) == len(steps)
        for step, neg in zip(steps, out):
            assert neg.shape == (count,) and neg.dtype == np.int32
            assert neg.min() >= 0 and neg.max() < n
            assert not np.isin(neg, step).any()
            assert len(set(neg.tolist())) == count


def test_draw_negatives_exhausts_bank():
    # count = n - b, b counting a step's distinct rows, takes every row
    # outside the step; count 0 takes none; one more than n - b raises, and
    # one step that leaves too few rows fails the whole draw
    for n in (4, 9, 40):
        b = unit_rows(np.random.default_rng(10), n, 3)
        steps = [np.array([0]), np.array([n - 1, 1, n - 1]), np.arange(n // 2)]
        for step in steps:
            inside = set(step.tolist())
            (neg,) = bank.negative_rows(b, [step], n - len(inside),
                                        np.random.default_rng(11))
            assert sorted(neg.tolist()) == [j for j in range(n)
                                            if j not in inside]
            with pytest.raises(InsufficientNegativesError):
                bank.negative_rows(b, [step], n - len(inside) + 1,
                                   np.random.default_rng(12))
        none = bank.negative_rows(b, steps, 0, np.random.default_rng(11))
        assert [r.shape for r in none] == [(0,)] * 3
        with pytest.raises(InsufficientNegativesError):
            bank.negative_rows(b, steps, n - n // 2 + 1,
                               np.random.default_rng(12))
        with pytest.raises(InsufficientNegativesError):
            bank.negative_rows(b, [np.arange(n)], 1, np.random.default_rng(12))


def test_negative_columns_are_uniform():
    # every row outside the step is drawn equally often: over 20,000 steps
    # at N 10, b 3 and count 3, each of the 7 outside rows comes up 3/7 of
    # the time, within 5 binomial standard deviations, and no step row
    # comes up at all; likewise at larger fills and with a repeated row.
    # The epoch interleaves each step with one that repeats its first row
    # in place of its last, so it has one outside row more
    draws = 20_000
    for n, step, count in ((10, [2, 5, 9], 3), (60, [7, 7, 0, 59, 30], 30),
                           (3600, [1200, 5, 3599], 64)):
        b = unit_rows(np.random.default_rng(13), n, 2)
        steps = [np.array(step), np.array(step[:-1] + step[:1])]
        out = bank.negative_rows(b, steps * draws, count,
                                 np.random.default_rng(14))
        for k, s in enumerate(steps):
            freq = np.bincount(np.ravel(out[k::2]), minlength=n)
            inside = np.unique(s)
            assert not freq[inside].any()
            p = count / (n - inside.size)
            mean, sd = draws * p, np.sqrt(draws * p * (1 - p))
            assert np.abs(np.delete(freq, inside) - mean).max() < 5 * sd, n


def test_negative_rows_follow_the_generator():
    b = unit_rows(np.random.default_rng(15), 300, 2)
    steps = np.array_split(np.arange(0, 300, 7), 3)
    for count in (10, 200):
        a = bank.negative_rows(b, steps, count, np.random.default_rng(16))
        c = bank.negative_rows(b, steps, count, np.random.default_rng(16))
        np.testing.assert_array_equal(a, c)
        d = bank.negative_rows(b, steps, count, np.random.default_rng(17))
        assert not np.array_equal(np.sort(a, axis=1), np.sort(d, axis=1))


def test_negative_rows_do_not_depend_on_the_step_cuts():
    # the draws see the cut of an epoch's rows into steps only through each
    # step's count of distinct rows: moving rows between steps of equal
    # size, reordering a step or repeating one of its rows moves no
    # negative's rank among its step's outside rows
    b = unit_rows(np.random.default_rng(19), 300, 2)
    rows = np.random.default_rng(20).permutation(300)[:140]
    for count in (10, 200):
        cut = np.split(rows, 7)
        recut = [np.concatenate((r[::-1], r[:1]))
                 for r in np.split(np.roll(rows, 9), 7)]
        whole = bank.negative_rows(b, cut, count, np.random.default_rng(21))
        moved = bank.negative_rows(b, recut, count, np.random.default_rng(21))
        for s, t, neg, other in zip(cut, recut, whole, moved):
            assert not np.isin(other, t).any()
            np.testing.assert_array_equal(outside_ranks(s, neg),
                                          outside_ranks(t, other))


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
