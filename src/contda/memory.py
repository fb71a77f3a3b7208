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

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError

DEFAULT_CAPACITY = 128
CONFIDENCE_DELTA = 1e-12


@dataclass(frozen=True)
class ClusterModel:
    centers: np.ndarray
    labels: np.ndarray
    inertia: float

    @property
    def k(self) -> int:
        return self.centers.shape[0]


def _pairwise_sq_dists(X, centers):
    # ||x - c||^2 expanded; clipped at zero to survive cancellation
    d = (X * X).sum(axis=1)[:, None] - 2.0 * X @ centers.T \
        + (centers * centers).sum(axis=1)[None, :]
    return np.maximum(d, 0.0)


def _plusplus_seed(X, k, rng):
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = _pairwise_sq_dists(X, centers[:1]).ravel()
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            centers[j] = X[rng.integers(n)]
        else:
            centers[j] = X[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, _pairwise_sq_dists(X, centers[j:j + 1]).ravel())
    return centers


def _lloyd(X, k, rng, max_iter):
    n = X.shape[0]
    centers = _plusplus_seed(X, k, rng)
    labels = None
    for _ in range(max_iter):
        d = _pairwise_sq_dists(X, centers)
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
    inertia = float(_pairwise_sq_dists(X, centers)[np.arange(n), labels].sum())
    return ClusterModel(centers=centers, labels=labels, inertia=inertia)


def kmeans(X, k, rng, max_iter: int = 300, restarts: int = 8) -> ClusterModel:
    """Best of several Lloyd runs from distance-weighted random seedings.

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
    if restarts < 1:
        raise DegenerateInputError("kmeans needs at least one restart")
    best = None
    for _ in range(restarts):
        cand = _lloyd(X, k, rng, max_iter)
        if best is None or cand.inertia < best.inertia:
            best = cand
    return best


def assign_with_confidence(X, centers):
    """Nearest-center labels and margins (d2 - d1)/(d2 + delta) in [0, 1]."""
    X = np.asarray(X, dtype=np.float64)
    d = np.sqrt(_pairwise_sq_dists(X, centers))
    if d.shape[1] < 2:
        return d.argmin(axis=1), np.zeros(X.shape[0])
    order = np.sort(d, axis=1)
    d1, d2 = order[:, 0], order[:, 1]
    conf = (d2 - d1) / (d2 + CONFIDENCE_DELTA)
    return d.argmin(axis=1), conf


def align_clusters(centers, class_means) -> np.ndarray:
    """Map each cluster to the class of its nearest reference centroid;
    several clusters may map to one class."""
    centers = np.asarray(centers, dtype=np.float64)
    class_means = np.asarray(class_means, dtype=np.float64)
    d = _pairwise_sq_dists(centers, class_means)
    return d.argmin(axis=1).astype(np.int64)


def class_embedding_means(embeddings, labels, n_classes) -> np.ndarray:
    """Per-class mean embedding; every class must be represented."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    means = np.empty((n_classes, embeddings.shape[1]))
    for c in range(n_classes):
        mask = labels == c
        if not np.any(mask):
            raise DegenerateInputError(f"class {c} absent from reference pool")
        means[c] = embeddings[mask].mean(axis=0)
    return means


@dataclass(frozen=True)
class EpisodicMemory:
    domain_index: int
    ids: list
    inputs: np.ndarray
    labels: np.ndarray
    confidences: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def build_memory(domain_index, ids, inputs, pseudo_labels, confidences,
                 n_classes, capacity: int = DEFAULT_CAPACITY) -> EpisodicMemory:
    """Keep the highest-confidence samples, cycling over classes round-robin.

    Each class's candidates are ranked by confidence (original order breaks
    ties) and one sample per still-nonempty class is taken per sweep until
    capacity is reached or every candidate is used.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    pseudo_labels = np.asarray(pseudo_labels, dtype=np.int64)
    confidences = np.asarray(confidences, dtype=np.float64)
    n = len(ids)
    if not (inputs.shape[0] == n == pseudo_labels.shape[0] == confidences.shape[0]):
        raise DimensionError("memory candidate fields disagree on sample count")

    queues = []
    for c in range(n_classes):
        idx = np.flatnonzero(pseudo_labels == c)
        ranked = idx[np.argsort(-confidences[idx], kind="stable")]
        queues.append(list(ranked))
    chosen = []
    while len(chosen) < capacity and any(queues):
        for c in range(n_classes):
            if queues[c] and len(chosen) < capacity:
                chosen.append(queues[c].pop(0))
    chosen = np.array(chosen, dtype=np.int64)
    return EpisodicMemory(
        domain_index=domain_index,
        ids=[ids[i] for i in chosen],
        inputs=inputs[chosen].copy(),
        labels=pseudo_labels[chosen].copy(),
        confidences=confidences[chosen].copy(),
    )


def export_memory_csv(memory: EpisodicMemory, path) -> None:
    dim = memory.inputs.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label", "confidence"] + [f"x{j}" for j in range(dim)])
        for i, sid in enumerate(memory.ids):
            writer.writerow([sid, int(memory.labels[i]), repr(float(memory.confidences[i]))]
                            + [repr(float(v)) for v in memory.inputs[i]])
