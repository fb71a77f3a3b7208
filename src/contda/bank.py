"""Unified feature bank: one unit-norm key per row, where row i holds row i
of the pool it was built from (source, each memory, then the target), so a
batch's pool rows are its bank rows.

Keys start from a frozen parameter snapshot and are then blended toward fresh
embeddings with a momentum coefficient and re-normalized.  A single writer
(the adaptation loop) mutates the bank in place.  Each query draws its own
distinct negatives other than its own row.  is_sparse, on the fill ratio
(1 + count) / len(bank), picks the draw alone: a rejection draw
(distinct_rows, which also draws the batch rows) at small fills and a
ranking of uniform keys otherwise.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError, InsufficientNegativesError
from . import model as model_mod

DEFAULT_MOMENTUM = 0.5
# picks the draw only.  Measured crossover of the draw alone, over 20 steps
# of 64 queries: the rejection draw is faster below fill 0.19-0.22 at N 3,600,
# 0.24-0.29 at N 1,300 and 0.28-0.33 at N 300, so 1/8 keeps a wide margin
SPARSE_FILL = 0.125


@dataclass
class FeatureBank:
    embed_dim: int
    keys: np.ndarray

    def __post_init__(self):
        self.keys = np.asarray(self.keys, dtype=np.float64)
        if self.keys.ndim != 2 or self.keys.shape[1] != self.embed_dim:
            raise DimensionError(f"bank keys have shape {self.keys.shape}")

    def __len__(self) -> int:
        return self.keys.shape[0]

    def check_rows(self, rows) -> np.ndarray:
        """rows as a 1-D int64 array, each a row of this bank."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1:
            raise DimensionError(f"bank rows have shape {rows.shape}")
        if rows.size and (rows.min() < 0 or rows.max() >= len(self)):
            raise DimensionError(f"bank rows outside [0, {len(self)})")
        return rows


def init_bank(params, blocks) -> FeatureBank:
    """A bank of the unit embeddings of each input block in turn under the
    frozen snapshot params; one pass per block bounds live activations."""
    return FeatureBank(embed_dim=params.config.embed_dim, keys=np.concatenate(
        [model_mod.encode_project_batch(params, X) for X in blocks]))


def momentum_update(bank: FeatureBank, rows, embeddings,
                    momentum: float = DEFAULT_MOMENTUM) -> FeatureBank:
    """Blend the keys at these rows toward fresh unit embeddings and
    re-normalize.

    k <- m*k + (1-m)*q, then k <- k/||k||.  Mutates the bank in place and
    returns it.  The blend of two unit vectors only vanishes when m = 1/2 and
    q = -k exactly; that degenerate case raises rather than storing a zero key.
    """
    if not (0.0 <= momentum <= 1.0):
        raise DegenerateInputError(f"momentum {momentum} outside [0, 1]")
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or embeddings.shape[1] != bank.embed_dim:
        raise DimensionError(f"embeddings have shape {embeddings.shape}")
    rows = bank.check_rows(rows)
    if rows.size != embeddings.shape[0]:
        raise DimensionError("rows and embeddings disagree on sample count")
    blended = momentum * bank.keys[rows] + (1.0 - momentum) * embeddings
    norms = np.linalg.norm(blended, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise DegenerateInputError("momentum blend produced a zero key")
    bank.keys[rows] = blended / norms
    return bank


def is_sparse(size: int, count: int) -> bool:
    """True when a query's own row and `count` negatives fill at most
    SPARSE_FILL of a bank of `size` rows."""
    return 1 + count <= SPARSE_FILL * size


def distinct_rows(rng: np.random.Generator, size: int, count: int,
                  n: int) -> np.ndarray:
    """n sorted int32 rows of `count` uniform draws from [0, size), each
    row a uniform count-subset unless count > size.

    Repeats are redrawn until every row is distinct; a draw collides with
    probability below count / size, so at small fills the redraws shrink
    geometrically.  The rule only asks which draws are equal, so every
    count-subset is equally likely."""
    if count == 0:
        return np.zeros((n, 0), dtype=np.int32)
    rows = rng.integers(size, size=(n, count), dtype=np.int32)
    rows.sort(axis=1)
    flat = rows.reshape(-1)
    while count <= size:
        # flat positions that repeat their left neighbour in the same row
        k = np.flatnonzero(flat[1:] == flat[:-1]) + 1
        k = k[k % count != 0]
        if k.size == 0:
            break
        flat[k] = rng.integers(size, size=k.size, dtype=np.int32)
        rows.sort(axis=1)
    return rows


def negative_rows(bank: FeatureBank, steps, count: int,
                  rng: np.random.Generator):
    """For each step's bank rows, `count` distinct other rows per row drawn
    uniformly: an iterator over one int32 (len(rows), count) array per
    step, in step order.

    Each query draws among the n - 1 other rows, then the draw shifts past
    its own row.  When is_sparse, distinct_rows draws every step at once;
    otherwise each query keeps the count smallest of one uniform key per
    row, a rows x bank matrix drawn one step at a time as the caller reaches
    the step, so the caller draws nothing else from rng in between.  The
    draws depend on neither the cut into steps nor the keys.  Raises when
    the bank has fewer than count other entries.
    """
    own = bank.check_rows(np.concatenate(steps))
    n = len(bank)
    if n - 1 < count:
        raise InsufficientNegativesError(
            f"bank holds {n - 1} candidate negatives, need {count}")
    cuts = np.cumsum([len(r) for r in steps])[:-1]

    def past_own(rows, own):
        rows += rows >= own[:, None]
        return rows

    if count == 0 or is_sparse(n, count):
        return iter(np.split(past_own(
            distinct_rows(rng, n - 1, count, own.size), own), cuts))
    return (past_own(np.argpartition(rng.random((r.size, n - 1)), count - 1,
                                     axis=1)[:, :count].astype(np.int32), r)
            for r in np.split(own, cuts))
