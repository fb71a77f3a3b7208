import csv

import numpy as np
import pytest

from contda import bank, model
from contda.errors import (DegenerateInputError, DimensionError,
                           InsufficientNegativesError, MissingEntryError)


def unit_rows(rng, n, d):
    M = rng.standard_normal((n, d))
    return M / np.linalg.norm(M, axis=1, keepdims=True)


def make_bank(rng, n=10, d=4):
    return bank.FeatureBank(embed_dim=d, ids=[f"x{i}" for i in range(n)],
                            keys=unit_rows(rng, n, d), origins=["target"] * n)


def test_lookup_and_shape_validation():
    rng = np.random.default_rng(0)
    b = make_bank(rng, n=5, d=3)
    assert len(b) == 5
    assert b.row_of("x3") == 3
    with pytest.raises(MissingEntryError):
        b.row_of("nope")
    with pytest.raises(DimensionError):
        bank.FeatureBank(embed_dim=3, ids=["a"], keys=np.zeros((1, 2)),
                         origins=["target"])
    with pytest.raises(DimensionError):
        bank.FeatureBank(embed_dim=2, ids=["a", "a"], keys=np.zeros((2, 2)),
                         origins=["target", "target"])


def test_init_bank_uses_frozen_snapshot_embeddings():
    cfg = model.ModelConfig(input_dim=2, n_classes=3, hidden_dim=5,
                            proj_hidden_dim=4, embed_dim=3)
    params = model.init_params(cfg, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    Xs = rng.standard_normal((4, 2))
    Xt = rng.standard_normal((6, 2))
    pools = [([f"s{i}" for i in range(4)], Xs, model.ORIGIN_SOURCE),
             ([f"t{i}" for i in range(6)], Xt, model.ORIGIN_TARGET)]
    b = bank.init_bank(params, pools)
    assert len(b) == 10
    assert b.origins[:4] == [model.ORIGIN_SOURCE] * 4
    np.testing.assert_allclose(b.keys[:4],
                               model.encode_project_batch(params, Xs), atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(b.keys, axis=1), 1.0, atol=1e-12)


def test_init_bank_skips_empty_pools():
    cfg = model.ModelConfig(input_dim=2, n_classes=2, hidden_dim=4,
                            proj_hidden_dim=4, embed_dim=2)
    params = model.init_params(cfg, np.random.default_rng(4))
    b = bank.init_bank(params, [([], np.zeros((0, 2)), "memory:1"),
                                (["t0"], np.ones((1, 2)), model.ORIGIN_TARGET)])
    assert b.ids == ["t0"]


def test_momentum_update_halfway_blend():
    rng = np.random.default_rng(5)
    b = make_bank(rng, n=6, d=4)
    old = b.keys.copy()
    fresh = unit_rows(rng, 2, 4)
    bank.momentum_update(b, ["x1", "x4"], fresh, momentum=0.5)
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
    bank.momentum_update(b, ["x0"], fresh, momentum=1.0)
    np.testing.assert_allclose(b.keys[0], old[0], atol=1e-12)
    bank.momentum_update(b, ["x1"], fresh, momentum=0.0)
    np.testing.assert_allclose(b.keys[1], fresh[0], atol=1e-12)
    with pytest.raises(DegenerateInputError):
        bank.momentum_update(b, ["x2"], fresh, momentum=1.5)


def test_momentum_update_antipodal_blend_raises():
    rng = np.random.default_rng(7)
    b = make_bank(rng, n=2, d=3)
    with pytest.raises(DegenerateInputError):
        bank.momentum_update(b, ["x0"], -b.keys[[0]], momentum=0.5)


def test_draw_negatives_excludes_own_key_and_is_distinct():
    rng = np.random.default_rng(8)
    b = make_bank(rng, n=12, d=3)
    own = np.array([5, 0, 11, 5])
    rows = bank.negative_rows(b, own, 7, np.random.default_rng(9))
    assert rows.shape == (4, 7)
    for r, o in zip(rows, own):
        assert o not in r
        assert len(set(r)) == 7
        assert r.min() >= 0 and r.max() < 12


def test_draw_negatives_exhausts_bank():
    rng = np.random.default_rng(10)
    b = make_bank(rng, n=4, d=3)
    rows = bank.negative_rows(b, np.array([2]), 3, np.random.default_rng(11))
    assert sorted(rows[0]) == [0, 1, 3]
    with pytest.raises(InsufficientNegativesError):
        bank.negative_rows(b, np.array([2]), 4, np.random.default_rng(12))


def test_negative_rows_match_draw_from_deleted_bank():
    # a shifted draw over N-1 indices consumes the generator exactly like a
    # draw among the bank's rows with the own row deleted
    for n in (5, 12, 1300, 3600):
        b = make_bank(np.random.default_rng(n), n=n, d=2)
        own = np.array([0, n - 1, n // 2, 1, n - 2, 0])
        count = min(64, n - 1)
        gen = np.random.default_rng(n + 1)
        rows = bank.negative_rows(b, own, count, gen)
        twin = np.random.default_rng(n + 1)
        want = [twin.choice(np.delete(np.arange(n), o), size=count, replace=False)
                for o in own]
        np.testing.assert_array_equal(rows, np.stack(want))
        # both generators end in the same state, so later draws agree too
        assert gen.random() == twin.random()


def test_export_csv_roundtrips_exact_floats(tmp_path):
    rng = np.random.default_rng(14)
    b = make_bank(rng, n=4, d=3)
    path = tmp_path / "bank.csv"
    bank.export_bank_csv(b, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "origin", "k0", "k1", "k2"]
    got = np.array([[float(v) for v in r[2:]] for r in rows[1:]])
    np.testing.assert_array_equal(got, b.keys)
