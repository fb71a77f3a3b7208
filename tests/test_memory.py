import csv

import numpy as np
import pytest

from contda import memory
from contda.errors import DegenerateInputError, DimensionError


def blobs(rng, centers, per=30, std=0.1):
    centers = np.asarray(centers, dtype=np.float64)
    X, y = [], []
    for c, mu in enumerate(centers):
        X.append(mu + std * rng.standard_normal((per, centers.shape[1])))
        y.append(np.full(per, c))
    return np.concatenate(X), np.concatenate(y)


def inertia_of(X, centers):
    d = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return float(d.min(axis=1).sum())


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(0)
    true = np.array([[0.0, 0.0], [5.0, 5.0], [-5.0, 5.0]])
    X, y = blobs(rng, true, per=40, std=0.15)
    cm = memory.kmeans(X, 3, np.random.default_rng(1))
    # each true center has a recovered center within a small radius
    for mu in true:
        assert np.min(np.linalg.norm(cm.centers - mu, axis=1)) < 0.15
    # cluster labels refine the true partition
    for j in range(3):
        assert len(set(y[cm.labels == j])) == 1


def test_kmeans_inertia_close_to_multirestart_oracle():
    rng = np.random.default_rng(2)
    for trial in range(10):
        k = int(rng.integers(2, 5))
        centers = rng.uniform(-4.0, 4.0, size=(k, 3))
        X = np.concatenate([c + 0.4 * rng.standard_normal((25, 3))
                            for c in centers])
        cm = memory.kmeans(X, k, np.random.default_rng(trial))
        np.testing.assert_allclose(cm.inertia, inertia_of(X, cm.centers),
                                   rtol=1e-10)
        # oracle: best of many restarts; a single run lands within 5%
        best = min(memory.kmeans(X, k, np.random.default_rng(1000 + r)).inertia
                   for r in range(15))
        assert cm.inertia <= best * 1.05


def test_kmeans_centers_are_cluster_means():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((50, 2))
    cm = memory.kmeans(X, 4, np.random.default_rng(4))
    for j in range(4):
        np.testing.assert_allclose(cm.centers[j], X[cm.labels == j].mean(axis=0),
                                   atol=1e-10)


def test_kmeans_k_equals_n_gives_zero_inertia():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 2))
    cm = memory.kmeans(X, 6, np.random.default_rng(6))
    # expanded-form distances leave cancellation residue, not exact zeros
    assert cm.inertia <= 1e-12
    assert sorted(cm.labels) == list(range(6))


def test_kmeans_validates_inputs():
    with pytest.raises(DegenerateInputError):
        memory.kmeans(np.zeros((3, 2)), 4, np.random.default_rng(0))
    with pytest.raises(DegenerateInputError):
        memory.kmeans(np.zeros((3, 2)), 0, np.random.default_rng(0))
    with pytest.raises(DimensionError):
        memory.kmeans(np.zeros(3), 1, np.random.default_rng(0))


def test_kmeans_duplicate_points_dont_crash():
    X = np.zeros((10, 2))
    cm = memory.kmeans(X, 2, np.random.default_rng(7))
    assert cm.inertia == 0.0


@pytest.mark.filterwarnings("error")
def test_kmeans_reseeds_each_empty_cluster_at_its_own_point():
    # two clusters emptied in one pass must not take the same farthest
    # point, or one stays empty and its mean is NaN
    X = np.array([[0.0, 0.0]] * 8 + [[1.0, 1.0]] * 2)
    for seed in range(200):
        cm = memory.kmeans(X, 4, np.random.default_rng(seed), restarts=1)
        assert np.all(np.isfinite(cm.centers)), seed
        d = ((X[:, None, :] - cm.centers[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(d[np.arange(len(X)), cm.labels],
                                      d.min(axis=1), err_msg=str(seed))
    assert memory.kmeans(X, 4, np.random.default_rng(0)).inertia == 0.0


def test_assign_with_confidence_margins():
    centers = np.array([[0.0, 0.0], [10.0, 0.0]])
    X = np.array([[0.0, 0.0],    # on center 0: conf 1
                  [5.0, 0.0],    # equidistant: conf 0
                  [1.0, 0.0]])
    labels, conf = memory.assign_with_confidence(X, centers)
    np.testing.assert_array_equal(labels, [0, 0, 0])
    np.testing.assert_allclose(conf[0], 1.0, atol=1e-9)
    np.testing.assert_allclose(conf[1], 0.0, atol=1e-9)
    np.testing.assert_allclose(conf[2], (9.0 - 1.0) / 9.0, atol=1e-9)
    assert np.all((0.0 <= conf) & (conf <= 1.0))


def test_assign_with_single_center():
    labels, conf = memory.assign_with_confidence(np.ones((4, 2)),
                                                 np.zeros((1, 2)))
    np.testing.assert_array_equal(labels, 0)
    np.testing.assert_array_equal(conf, 0.0)


def test_align_clusters_nearest_class_mean():
    class_means = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    centers = np.array([[9.0, 1.0], [1.0, 9.0], [0.5, -0.5]])
    mapping = memory.align_clusters(centers, class_means)
    np.testing.assert_array_equal(mapping, [1, 2, 0])
    # mapping may collapse: two clusters can share a class
    both = memory.align_clusters(np.array([[9.0, 0.0], [11.0, 0.0]]), class_means)
    np.testing.assert_array_equal(both, [1, 1])


def test_class_embedding_means():
    emb = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0]])
    labels = np.array([0, 0, 1])
    means = memory.class_embedding_means(emb, labels, 2)
    np.testing.assert_allclose(means, [[2.0, 0.0], [0.0, 2.0]])
    with pytest.raises(DegenerateInputError):
        memory.class_embedding_means(emb, labels, 3)


def test_build_memory_round_robin_balance():
    n = 40
    ids = [f"t{i}" for i in range(n)]
    inputs = np.arange(n, dtype=np.float64)[:, None]
    labels = np.array([i % 4 for i in range(n)])
    conf = np.linspace(0.0, 1.0, n)
    mem = memory.build_memory(2, ids, inputs, labels, conf, 4, capacity=12)
    assert len(mem) == 12
    assert mem.domain_index == 2
    counts = np.bincount(mem.labels, minlength=4)
    np.testing.assert_array_equal(counts, [3, 3, 3, 3])
    # per class, kept samples are that class's most confident
    for c in range(4):
        kept = sorted(mem.confidences[mem.labels == c])
        best = sorted(conf[labels == c])[-3:]
        np.testing.assert_allclose(kept, best)


def test_build_memory_unbalanced_classes_fill_capacity():
    ids = [f"t{i}" for i in range(10)]
    inputs = np.zeros((10, 2))
    labels = np.array([0] * 8 + [1] * 2)
    conf = np.linspace(1.0, 0.1, 10)
    mem = memory.build_memory(1, ids, inputs, labels, conf, 2, capacity=6)
    assert len(mem) == 6
    counts = np.bincount(mem.labels, minlength=2)
    # class 1 exhausts at 2, class 0 fills the rest
    np.testing.assert_array_equal(counts, [4, 2])


def test_build_memory_capacity_exceeds_pool():
    ids = ["a", "b", "c"]
    mem = memory.build_memory(1, ids, np.zeros((3, 1)), np.array([0, 1, 0]),
                              np.array([0.5, 0.5, 0.9]), 2, capacity=100)
    assert len(mem) == 3


def test_build_memory_confidence_tie_keeps_original_order():
    ids = [f"t{i}" for i in range(4)]
    labels = np.zeros(4, dtype=np.int64)
    conf = np.array([0.5, 0.5, 0.5, 0.5])
    mem = memory.build_memory(1, ids, np.zeros((4, 1)), labels, conf, 1,
                              capacity=2)
    assert mem.ids == ["t0", "t1"]


def test_build_memory_validates_lengths():
    with pytest.raises(DimensionError):
        memory.build_memory(1, ["a"], np.zeros((2, 1)), np.array([0, 1]),
                            np.array([0.1, 0.2]), 2)


def test_memory_round_robin_interleaves_classes():
    # capacity 3 over two classes: sweep takes one of each, then the next
    ids = ["a", "b", "c", "d"]
    labels = np.array([0, 0, 1, 1])
    conf = np.array([0.9, 0.8, 0.7, 0.6])
    mem = memory.build_memory(1, ids, np.zeros((4, 1)), labels, conf, 2,
                              capacity=3)
    np.testing.assert_array_equal(mem.labels, [0, 1, 0])
    assert mem.ids == ["a", "c", "b"]


def test_export_memory_csv_exact(tmp_path):
    rng = np.random.default_rng(8)
    mem = memory.build_memory(3, [f"t{i}" for i in range(5)],
                              rng.standard_normal((5, 2)),
                              np.array([0, 1, 0, 1, 0]),
                              rng.uniform(size=5), 2, capacity=4)
    path = tmp_path / "memory.csv"
    memory.export_memory_csv(mem, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "label", "confidence", "x0", "x1"]
    assert len(rows) == 1 + len(mem)
    got = np.array([[float(v) for v in r[3:]] for r in rows[1:]])
    np.testing.assert_array_equal(got, mem.inputs)
