"""Unified feature bank: a plain (rows, d) float64 matrix of unit-norm keys,
where row i holds row i of the pool it was built from (source, each memory,
then the target), so a batch's pool rows are its bank rows.

Keys start from a frozen parameter snapshot and are then blended toward the
step's own unit embeddings with a momentum coefficient and re-normalized.  A
single writer (the adaptation loop) mutates the bank in place.  Each step
draws one set of distinct negatives among the rows outside its batch, which
all of its queries share, as a MoCo queue is shared; distinct_rows, which
also draws the batch rows, draws every step of an epoch at once.
"""

import numpy as np

from .errors import DegenerateInputError, DimensionError, InsufficientNegativesError
from . import model as model_mod


def check_rows(rows, n: int) -> np.ndarray:
    """rows as a 1-D int64 array, each a row of an n-row bank."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1:
        raise DimensionError(f"bank rows have shape {rows.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise DimensionError(f"bank rows outside [0, {n})")
    return rows


def init_bank(params, blocks) -> np.ndarray:
    """A bank of the unit embeddings of each input block in turn under the
    frozen snapshot params, one (rows, embed_dim) float64 key matrix; one
    pass per block bounds live activations."""
    return np.concatenate(
        [model_mod.encode_project_batch(params, X) for X in blocks])


def momentum_update(bank, rows, embeddings, momentum: float) -> None:
    """Blend the keys at these rows toward fresh unit embeddings and
    re-normalize.

    k <- m*k + (1-m)*q, then k <- k/||k||, in place.  The blend of two unit
    vectors only vanishes when m = 1/2 and q = -k exactly; that degenerate
    case raises rather than storing a zero key.
    """
    if not (0.0 <= momentum <= 1.0):
        raise DegenerateInputError(f"momentum {momentum} outside [0, 1]")
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or embeddings.shape[1] != bank.shape[1]:
        raise DimensionError(f"embeddings have shape {embeddings.shape}")
    rows = check_rows(rows, len(bank))
    if rows.size != embeddings.shape[0]:
        raise DimensionError("rows and embeddings disagree on sample count")
    blended = momentum * bank[rows] + (1.0 - momentum) * embeddings
    norms = np.sqrt(np.add.reduce(blended * blended, axis=1, keepdims=True))
    if (norms == 0.0).any():
        raise DegenerateInputError("momentum blend produced a zero key")
    bank[rows] = blended / norms


def distinct_rows(rng: np.random.Generator, size, count: int,
                  n: int) -> np.ndarray:
    """n sorted int32 rows of `count` uniform draws from [0, size), each
    row a uniform count-subset unless count > size.  size is one bound for
    every row or an (n, 1) array of one bound per row.

    Repeats are redrawn until every row is distinct; a draw collides with
    probability below count / size, so at small fills the redraws shrink
    geometrically.  The rule only asks which draws are equal, so every
    count-subset is equally likely."""
    if count == 0:
        return np.zeros((n, 0), dtype=np.int32)
    rows = rng.integers(size, size=(n, count), dtype=np.int32)
    rows.sort(axis=1)
    flat = rows.reshape(-1)
    bound = np.broadcast_to(size, rows.shape).reshape(-1)
    while count <= bound.min(initial=count):
        # flat positions that repeat their left neighbour in the same row
        k = np.flatnonzero(flat[1:] == flat[:-1]) + 1
        k = k[k % count != 0]
        if k.size == 0:
            break
        flat[k] = rng.integers(bound[k], dtype=np.int32)
        rows.sort(axis=1)
    return rows


def negative_rows(bank, steps, count: int, rng: np.random.Generator) -> list:
    """For each step's bank rows, `count` distinct rows outside them drawn
    uniformly, which all of the step's queries share: one int32 (count,)
    array per step, in step order.

    distinct_rows draws every step at once, each among the n - b rows
    outside its b distinct rows (a bincount finds them: np.unique would
    import numpy.ma), and each draw then shifts past those rows.  Only b
    reaches the draw, not the keys or which rows a step holds or repeats.
    Raises when a step leaves fewer than count rows outside it.
    """
    n = len(bank)
    own = [np.flatnonzero(np.bincount(check_rows(r, n), minlength=n))
           for r in steps]
    outside = n - np.array([u.size for u in own], dtype=np.int64)
    if count > outside.min(initial=count):
        raise InsufficientNegativesError(
            f"bank holds {outside.min()} rows outside a batch, need {count}")
    draws = distinct_rows(rng, outside[:, None], count, len(own))
    for x, u in zip(draws, own):
        # u[j] - j rows outside the batch lie below its j-th row
        x += np.searchsorted(u - np.arange(u.size), x, side="right")
    return list(draws)
