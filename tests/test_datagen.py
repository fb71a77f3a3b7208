import numpy as np
import pytest

from contda import datagen
from contda.errors import DegenerateInputError


def blob_spec(**kw):
    base = dict(kind=datagen.KIND_BLOBS, n_classes=4, per_class=50,
                rotation_deg=0.0, scale=1.0, translation=(0.0, 0.0),
                radius=2.0, std=0.1)
    base.update(kw)
    return datagen.DomainSpec(**base)


def test_spec_validation():
    with pytest.raises(DegenerateInputError):
        blob_spec(kind="spiral")
    with pytest.raises(DegenerateInputError):
        datagen.DomainSpec(kind=datagen.KIND_MOONS, n_classes=3, per_class=10)
    with pytest.raises(DegenerateInputError):
        blob_spec(per_class=1)
    with pytest.raises(DegenerateInputError):
        blob_spec(scale=0.0)


def test_rotation_matrix_properties():
    R = datagen.rotation_matrix(90.0)
    np.testing.assert_allclose(R, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(20):
        deg = rng.uniform(-360, 360)
        R = datagen.rotation_matrix(deg)
        np.testing.assert_allclose(R @ R.T, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(np.linalg.det(R), 1.0, atol=1e-12)


def test_generate_domain_counts_and_split():
    d = datagen.generate_domain(blob_spec(), 0, np.random.default_rng(1))
    assert len(d.train) + len(d.holdout) == 4 * 50
    assert len(d.train) == 4 * 40
    # stratified: every class on both sides at the split fraction
    for c in range(4):
        assert (d.train.y == c).sum() == 40
        assert (d.holdout.y == c).sum() == 10
    # ids unique and disjoint across splits
    all_ids = list(d.train.ids) + list(d.holdout.ids)
    assert len(set(all_ids)) == len(all_ids)
    assert all(i.startswith("d0:") for i in all_ids)


def test_blob_class_means_near_circle_positions():
    spec = blob_spec(per_class=400, std=0.05, radius=3.0)
    d = datagen.generate_domain(spec, 0, np.random.default_rng(2))
    X = np.concatenate([d.train.X, d.holdout.X])
    y = np.concatenate([d.train.y, d.holdout.y])
    for c in range(4):
        angle = 2 * np.pi * c / 4
        want = 3.0 * np.array([np.cos(angle), np.sin(angle)])
        np.testing.assert_allclose(X[y == c].mean(axis=0), want, atol=0.02)


def test_transform_applies_rotation_scale_translation():
    spec_base = blob_spec(per_class=200, std=0.05)
    spec_moved = blob_spec(per_class=200, std=0.05, rotation_deg=90.0,
                           scale=2.0, translation=(1.0, -1.0))
    base = datagen.generate_domain(spec_base, 0, np.random.default_rng(3))
    moved = datagen.generate_domain(spec_moved, 0, np.random.default_rng(3))
    # same seed, same base draw: the transform acts pointwise
    R = datagen.rotation_matrix(90.0)
    want = 2.0 * base.train.X @ R.T + np.array([1.0, -1.0])
    np.testing.assert_allclose(moved.train.X, want, atol=1e-12)
    np.testing.assert_array_equal(moved.train.y, base.train.y)


def test_moons_shape():
    moons = datagen.DomainSpec(kind=datagen.KIND_MOONS, n_classes=2,
                               per_class=60, std=0.05)
    d = datagen.generate_domain(moons, 1, np.random.default_rng(4))
    assert set(d.train.y) == {0, 1}


def sorted_list_split(spec, index, rng):
    """generate_domain's split as a per-class loop that extends Python
    lists, sorts them and indexes ids formatted for every row: (ids, X, y)
    of the train and the holdout split."""
    X, y = datagen._BASES[spec.kind](spec, rng)
    X = spec.scale * (X @ datagen.rotation_matrix(spec.rotation_deg).T) \
        + np.asarray(spec.translation, dtype=np.float64)
    ids = [f"d{index}:{i:05d}" for i in range(X.shape[0])]
    train_idx, hold_idx = [], []
    for c in range(spec.n_classes):
        members = np.flatnonzero(y == c)
        members = members[rng.permutation(members.size)]
        cut = int(datagen.SPLIT_FRACTION * members.size)
        train_idx.extend(members[:cut])
        hold_idx.extend(members[cut:])
    return [([ids[i] for i in idx], X[idx].copy(), y[idx].copy())
            for idx in (np.array(sorted(train_idx)), np.array(sorted(hold_idx)))]


@pytest.mark.parametrize("spec", [
    blob_spec(n_classes=5, per_class=37, rotation_deg=33.0, scale=1.7,
              translation=(0.5, -2.0)),
    datagen.DomainSpec(kind=datagen.KIND_MOONS, n_classes=2, per_class=61,
                       rotation_deg=-20.0, scale=0.8, translation=(1.0, 0.0),
                       std=0.1)])
def test_split_matches_sorted_list_oracle(spec):
    for seed in range(3):
        d = datagen.generate_domain(spec, 12, np.random.default_rng(seed))
        want = sorted_list_split(spec, 12, np.random.default_rng(seed))
        for ds, (ids, X, y) in zip((d.train, d.holdout), want):
            assert ds.ids == ids
            np.testing.assert_array_equal(ds.X, X)
            np.testing.assert_array_equal(ds.y, y)
            assert (ds.X.dtype, ds.y.dtype) == (X.dtype, y.dtype)


def test_generate_sequence_deterministic_and_independent():
    specs = [blob_spec(per_class=20), blob_spec(per_class=20, rotation_deg=30.0)]
    a = datagen.generate_sequence(specs, 42)
    b = datagen.generate_sequence(specs, 42)
    for da, db in zip(a, b):
        np.testing.assert_array_equal(da.train.X, db.train.X)
        np.testing.assert_array_equal(da.holdout.y, db.holdout.y)
    c = datagen.generate_sequence(specs, 43)
    assert not np.array_equal(a[0].train.X, c[0].train.X)
    assert [d.index for d in a] == [0, 1]


def test_presets_exist_and_are_wellformed():
    for name in datagen.PRESETS:
        specs = datagen.preset_specs(name)
        assert len(specs) >= 2
        assert specs[0].rotation_deg == 0.0
        # shared label space down the sequence
        assert len({s.n_classes for s in specs}) == 1
    with pytest.raises(DegenerateInputError):
        datagen.preset_specs("no-such-preset")


def test_domain_csv_roundtrip(tmp_path):
    spec = blob_spec(per_class=15)
    d = datagen.generate_domain(spec, 3, np.random.default_rng(6))
    path = tmp_path / "domain.csv"
    datagen.export_domain_csv(d, path)
    back = datagen.import_domain_csv(path, 3, spec)
    assert back.train.ids == d.train.ids
    np.testing.assert_array_equal(back.train.X, d.train.X)
    np.testing.assert_array_equal(back.train.y, d.train.y)
    np.testing.assert_array_equal(back.holdout.X, d.holdout.X)
