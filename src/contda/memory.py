"""Pseudo-labeled episodic memory built from clustered target embeddings.

After adapting to a target domain, its embeddings are clustered, clusters are
named after the nearest source class centroid, and the most confidently
assigned samples are kept up to a fixed capacity, taken round-robin over the
pseudo-classes.  Confidence is the relative margin between the two nearest
cluster centers.

The naming is not one-to-one: two clusters can take the same class and leave
another class with no candidates, and the memory is then balanced only over
the classes that received a cluster.  On `rot-blobs-5` (data seed 2024, run
seed 11) domain 3's memory holds 43/43/42/0 samples per class this way.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError

CONFIDENCE_DELTA = 1e-12
KMEANS_RESTARTS = 8
LLOYD_MAX_ITER = 300


@dataclass(frozen=True)
class ClusterModel:
    centers: np.ndarray
    labels: np.ndarray
    sq_dists: np.ndarray  # (samples, k) squared distances to the centers
    inertia: float


def _pairwise_sq_dists(X, centers, xx=None):
    # ||x - c||^2 expanded, clipped at zero to survive cancellation; xx = ||x||^2
    xx = (X * X).sum(axis=1)[:, None] if xx is None else xx
    d = xx - 2.0 * (X @ centers.T) + (centers * centers).sum(axis=1)[None, :]
    return np.maximum(d, 0.0)


def _plusplus_seed(X, xx, k, rng):
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = _pairwise_sq_dists(X, centers[:1], xx).ravel()
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            centers[j] = X[rng.integers(n)]
        else:
            centers[j] = X[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, _pairwise_sq_dists(X, centers[j:j + 1], xx).ravel())
    return centers


def _lloyd(X, xx, k, rng):
    n = X.shape[0]
    centers = _plusplus_seed(X, xx, k, rng)
    labels = None
    for _ in range(LLOYD_MAX_ITER):
        d = _pairwise_sq_dists(X, centers, xx)
        new_labels = d.argmin(axis=1)
        sizes = np.bincount(new_labels, minlength=k)
        served = d[np.arange(n), new_labels]
        for j in np.flatnonzero(sizes == 0):
            # re-seed an emptied cluster at the worst-served point of a
            # cluster that keeps another member, so no cluster is left
            # empty; alone in j, the point is out of this pass's later picks
            far = np.where(sizes[new_labels] > 1, served, -1.0).argmax()
            sizes[new_labels[far]] -= 1
            sizes[j] = 1
            centers[j] = X[far]
            new_labels[far] = j
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centers = np.stack([X[labels == j].mean(axis=0) for j in range(k)])
    d = _pairwise_sq_dists(X, centers, xx)
    return ClusterModel(centers=centers, labels=labels, sq_dists=d,
                        inertia=float(d[np.arange(n), labels].sum()))


def kmeans(X, k, rng) -> ClusterModel:
    """Best of KMEANS_RESTARTS Lloyd runs from distance-weighted seedings.

    Each run terminates when the assignment stabilizes, so the returned
    centers are exactly the means of their clusters and every sample is
    assigned to its nearest center.  Multiple seedings guard against the
    merged-cluster local minima a single run falls into.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionError("kmeans expects a 2-D sample matrix")
    n = X.shape[0]
    if not (1 <= k <= n):
        raise DegenerateInputError(f"cannot fit {k} clusters to {n} samples")
    best = None
    xx = (X * X).sum(axis=1)[:, None]
    for _ in range(KMEANS_RESTARTS):
        cand = _lloyd(X, xx, k, rng)
        if best is None or cand.inertia < best.inertia:
            best = cand
    return best


def pseudo_labels(feats, src_feats, src_labels, k, rng):
    """Labels and confidences of the rows of feats: k-means clusters, each
    named after the nearest source class mean (several clusters may take
    one class; every class must be represented), and a row's margin
    (d2 - d1)/(d2 + delta) in [0, 1] between its two nearest centers, or 0
    when k = 1.  The distances are the clustering's own."""
    cluster = kmeans(feats, k, rng)
    src_feats = np.asarray(src_feats, dtype=np.float64)
    src_labels = np.asarray(src_labels, dtype=np.int64)
    means = np.empty((k, src_feats.shape[1]))
    for c in range(k):
        mask = src_labels == c
        if not np.any(mask):
            raise DegenerateInputError(f"class {c} absent from reference pool")
        means[c] = src_feats[mask].mean(axis=0)
    mapping = _pairwise_sq_dists(cluster.centers, means).argmin(axis=1)
    d = np.sqrt(cluster.sq_dists)
    labels = mapping[d.argmin(axis=1)]
    if k < 2:
        return labels, np.zeros(len(d))
    d1, d2 = np.sort(d, axis=1)[:, :2].T
    return labels, (d2 - d1) / (d2 + CONFIDENCE_DELTA)


@dataclass(frozen=True)
class EpisodicMemory:
    """Rows of domains[domain_index].train, in selection order, and their
    pseudo-labels; ids names the same rows."""
    domain_index: int
    ids: list
    rows: np.ndarray
    labels: np.ndarray


def build_memory(domain_index, ids, labels, confidences, n_classes,
                 capacity: int) -> EpisodicMemory:
    """Keep the highest-confidence samples, cycling over classes round-robin.

    Each class's candidates are ranked by confidence (original order breaks
    ties) and one sample per still-nonempty class is taken per sweep until
    capacity is reached or every candidate is used.  One stable sort by
    class and confidence gives each candidate its rank in its class, and
    ordering by rank, then class, is the sweep order.
    """
    labels = np.asarray(labels, dtype=np.int64)
    confidences = np.asarray(confidences, dtype=np.float64)
    if not (len(ids) == labels.shape[0] == confidences.shape[0]):
        raise DimensionError("memory candidate fields disagree on sample count")

    keep = np.flatnonzero((labels >= 0) & (labels < n_classes))
    keep = keep[np.lexsort((-confidences[keep], labels[keep]))]
    by_class = labels[keep]
    rank = np.arange(keep.size) - np.searchsorted(by_class, by_class)
    chosen = keep[np.lexsort((by_class, rank))][:max(capacity, 0)]
    return EpisodicMemory(domain_index=domain_index,
                          ids=[ids[i] for i in chosen], rows=chosen,
                          labels=labels[chosen])
