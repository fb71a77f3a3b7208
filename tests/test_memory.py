import csv

import numpy as np
import pytest

from contda import datagen, memory, model
from contda.datagen import Dataset
from contda.model import ModelConfig
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
    # point, or one stays empty and its mean is NaN; each single Lloyd run
    # is checked, not only the best of kmeans' restarts
    X = np.array([[0.0, 0.0]] * 8 + [[1.0, 1.0]] * 2)
    xx = (X * X).sum(axis=1)[:, None]
    for seed in range(200):
        cm = memory._lloyd(X, xx, 4, np.random.default_rng(seed))
        assert np.all(np.isfinite(cm.centers)), seed
        d = ((X[:, None, :] - cm.centers[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(d[np.arange(len(X)), cm.labels],
                                      d.min(axis=1), err_msg=str(seed))
    assert memory.kmeans(X, 4, np.random.default_rng(0)).inertia == 0.0


def test_kmeans_keeps_its_final_distances(monkeypatch):
    # sq_dists is the matrix pseudo_labels reads in place of recomputing it:
    # bit for bit the distances to the returned centers, also when Lloyd
    # stops at its iteration cap before the assignment settles
    X = np.random.default_rng(9).standard_normal((60, 3))
    for max_iter in (memory.LLOYD_MAX_ITER, 1):
        monkeypatch.setattr(memory, "LLOYD_MAX_ITER", max_iter)
        cm = memory.kmeans(X, 4, np.random.default_rng(10))
        np.testing.assert_array_equal(
            cm.sq_dists, memory._pairwise_sq_dists(X, cm.centers))
        assert cm.inertia == float(
            cm.sq_dists[np.arange(len(X)), cm.labels].sum())


def pseudo_label(groups, src_points, src_labels):
    """pseudo_labels of three copies of each target point in `groups`, so
    k-means, with one cluster per point, recovers the groups exactly."""
    feats = np.repeat(np.asarray(groups, dtype=np.float64), 3, axis=0)
    return memory.pseudo_labels(feats, np.asarray(src_points, dtype=np.float64),
                                np.asarray(src_labels), len(groups),
                                np.random.default_rng(0))


def test_pseudo_labels_margins():
    # the two groups are their own class means; a row's margin is
    # (d2 - d1)/d2 against the centers (0, 0) and (10, 0)
    offsets = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                        [0.0, -1.0]])
    X = np.concatenate([offsets, offsets + [10.0, 0.0]])
    y = np.repeat([0, 1], 5)
    labels, conf = memory.pseudo_labels(X, X, y, 2, np.random.default_rng(0))
    np.testing.assert_array_equal(labels, y)
    far = np.sqrt(101.0)
    side = (far - 1.0) / far
    np.testing.assert_allclose(conf, [1.0, 8 / 9, 10 / 11, side, side,
                                      1.0, 10 / 11, 8 / 9, side, side],
                               atol=1e-9)
    assert np.all((0.0 <= conf) & (conf <= 1.0))
    # two clusters on one point share its center, so each row is
    # equidistant from its two nearest centers, with margin 0
    labels, conf = memory.pseudo_labels(np.ones((4, 2)), X, y, 2,
                                        np.random.default_rng(0))
    np.testing.assert_array_equal(labels, 0)
    np.testing.assert_array_equal(conf, 0.0)


def test_pseudo_labels_single_cluster_has_no_margin():
    labels, conf = memory.pseudo_labels(np.ones((4, 2)), np.zeros((2, 2)),
                                        [0, 0], 1, np.random.default_rng(0))
    np.testing.assert_array_equal(labels, 0)
    np.testing.assert_array_equal(conf, 0.0)


def test_pseudo_labels_name_clusters_by_nearest_class_mean():
    class_means = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]
    labels, _ = pseudo_label([[9.0, 1.0], [1.0, 9.0], [0.5, -0.5]],
                             class_means, [0, 1, 2])
    np.testing.assert_array_equal(labels, np.repeat([1, 2, 0], 3))
    # the naming may collapse: two clusters can share a class, and class 0
    # then names none
    labels, _ = pseudo_label([[9.0, 0.0], [11.0, 0.0], [0.0, 9.0]],
                             class_means, [0, 1, 2])
    np.testing.assert_array_equal(labels, np.repeat([1, 1, 2], 3))


def test_pseudo_labels_use_class_means_and_reject_an_absent_class():
    # class 0's mean (0, 0) lies between its points, class 1's is (6, 0):
    # the cluster at (3.5, 0) is nearest the point (4, 0) of class 0 but
    # the mean of class 1
    src = [[-4.0, 0.0], [4.0, 0.0], [6.0, 1.0], [6.0, -1.0]]
    labels, _ = pseudo_label([[3.5, 0.0], [-3.5, 0.0]], src, [0, 0, 1, 1])
    np.testing.assert_array_equal(labels, [1] * 3 + [0] * 3)
    with pytest.raises(DegenerateInputError):
        pseudo_label([[3.5, 0.0], [-3.5, 0.0]], src, [0, 0, 0, 0])


def test_pseudo_labels_equal_the_step_by_step_labelling():
    # k-means, the source class means, the nearest-mean naming and the
    # margins recomputed from the centers, as separate steps, on encoder
    # features of rot-blobs-5: the same labels and confidences, bit for bit
    domains = datagen.generate_sequence(datagen.preset_specs("rot-blobs-5"), 3)
    k = domains[0].spec.n_classes
    config = ModelConfig(input_dim=2, n_classes=k, hidden_dim=16,
                         proj_hidden_dim=16, embed_dim=8)
    params = model.init_params(config, np.random.default_rng(4))
    src = model.encode_batch(params, domains[0].train.X)
    y = domains[0].train.y
    for t in (1, 3):
        feats = model.encode_batch(params, domains[t].train.X)
        labels, conf = memory.pseudo_labels(feats, src, y, k,
                                            np.random.default_rng(t))
        cluster = memory.kmeans(feats, k, np.random.default_rng(t))
        means = np.stack([src[y == c].mean(axis=0) for c in range(k)])
        mapping = memory._pairwise_sq_dists(cluster.centers, means).argmin(axis=1)
        d = np.sqrt(memory._pairwise_sq_dists(feats, cluster.centers))
        order = np.sort(d, axis=1)
        np.testing.assert_array_equal(labels, mapping[d.argmin(axis=1)])
        np.testing.assert_array_equal(
            conf, (order[:, 1] - order[:, 0])
            / (order[:, 1] + memory.CONFIDENCE_DELTA))


def test_build_memory_round_robin_balance():
    n = 40
    ids = [f"t{i}" for i in range(n)]
    labels = np.array([i % 4 for i in range(n)])
    conf = np.linspace(0.0, 1.0, n)
    mem = memory.build_memory(2, ids, labels, conf, 4, capacity=12)
    assert len(mem) == 12
    assert mem.domain_index == 2
    counts = np.bincount(mem.labels, minlength=4)
    np.testing.assert_array_equal(counts, [3, 3, 3, 3])
    # per class, kept samples are that class's most confident
    for c in range(4):
        kept = sorted(conf[mem.rows][mem.labels == c])
        best = sorted(conf[labels == c])[-3:]
        np.testing.assert_allclose(kept, best)


def test_build_memory_unbalanced_classes_fill_capacity():
    ids = [f"t{i}" for i in range(10)]
    labels = np.array([0] * 8 + [1] * 2)
    conf = np.linspace(1.0, 0.1, 10)
    mem = memory.build_memory(1, ids, labels, conf, 2, capacity=6)
    assert len(mem) == 6
    counts = np.bincount(mem.labels, minlength=2)
    # class 1 exhausts at 2, class 0 fills the rest
    np.testing.assert_array_equal(counts, [4, 2])


def test_build_memory_capacity_exceeds_pool():
    ids = ["a", "b", "c"]
    mem = memory.build_memory(1, ids, np.array([0, 1, 0]),
                              np.array([0.5, 0.5, 0.9]), 2, capacity=100)
    assert len(mem) == 3


def test_build_memory_confidence_tie_keeps_original_order():
    ids = [f"t{i}" for i in range(4)]
    labels = np.zeros(4, dtype=np.int64)
    conf = np.array([0.5, 0.5, 0.5, 0.5])
    mem = memory.build_memory(1, ids, labels, conf, 1, capacity=2)
    assert mem.ids == ["t0", "t1"]
    np.testing.assert_array_equal(mem.rows, [0, 1])


def test_build_memory_validates_lengths():
    with pytest.raises(DimensionError):
        memory.build_memory(1, ["a"], np.array([0, 1]),
                            np.array([0.1, 0.2]), 2, capacity=128)
    with pytest.raises(DimensionError):
        memory.build_memory(1, ["a", "b"], np.array([0, 1]),
                            np.array([0.1]), 2, capacity=128)


def round_robin_sweep(labels, conf, n_classes, capacity):
    """Reference selection: each class's candidates ranked by confidence
    (original order breaks ties), one per still-nonempty class per sweep."""
    queues = [list(np.flatnonzero(labels == c)[
        np.argsort(-conf[labels == c], kind="stable")])
        for c in range(n_classes)]
    chosen = []
    while len(chosen) < capacity and any(queues):
        for queue in queues:
            if queue and len(chosen) < capacity:
                chosen.append(queue.pop(0))
    return chosen


def test_build_memory_matches_the_round_robin_sweep():
    # tied confidences, labels outside [0, n_classes), empty candidate sets
    # and capacities above the pool
    rng = np.random.default_rng(12)
    for case in range(300):
        n, k = int(rng.integers(0, 40)), int(rng.integers(1, 5))
        labels = rng.integers(-1, k + 2, n)
        conf = rng.integers(0, 3, n) / 2 if case % 2 else rng.random(n)
        capacity = int(rng.integers(1, 45))
        ids = [f"t{i}" for i in range(n)]
        mem = memory.build_memory(1, ids, labels, conf, k, capacity)
        want = round_robin_sweep(labels, conf, k, capacity)
        assert mem.ids == [ids[i] for i in want], case
        np.testing.assert_array_equal(mem.rows, np.array(want, dtype=np.int64))
        assert mem.rows.dtype == np.int64
        np.testing.assert_array_equal(mem.labels, labels[want])


def test_memory_round_robin_interleaves_classes():
    # capacity 3 over two classes: sweep takes one of each, then the next
    ids = ["a", "b", "c", "d"]
    labels = np.array([0, 0, 1, 1])
    conf = np.array([0.9, 0.8, 0.7, 0.6])
    mem = memory.build_memory(1, ids, labels, conf, 2, capacity=3)
    np.testing.assert_array_equal(mem.labels, [0, 1, 0])
    assert mem.ids == ["a", "c", "b"]


def export_memory_csv(mem, train, path):
    """One CSV row per memory sample: id, label, then its inputs gathered
    from its domain's train split, floats written by repr for an exact
    round trip."""
    X = train.X[mem.rows]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"] + [f"x{j}" for j in range(X.shape[1])])
        for sid, label, x in zip(mem.ids, mem.labels, X):
            writer.writerow([sid, int(label)] + [repr(float(v)) for v in x])


def test_export_memory_csv_exact(tmp_path):
    rng = np.random.default_rng(8)
    train = Dataset(ids=[f"t{i}" for i in range(5)],
                    X=rng.standard_normal((5, 2)), y=np.zeros(5, dtype=np.int64))
    mem = memory.build_memory(3, train.ids, np.array([0, 1, 0, 1, 0]),
                              rng.uniform(size=5), 2, capacity=4)
    path = tmp_path / "memory.csv"
    export_memory_csv(mem, train, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "label", "x0", "x1"]
    assert len(rows) == 1 + len(mem)
    assert [r[0] for r in rows[1:]] == mem.ids
    got = np.array([[float(v) for v in r[2:]] for r in rows[1:]])
    np.testing.assert_array_equal(got, train.X[mem.rows])
