"""Instance-discrimination contrastive loss against the feature bank.

Each query embedding is pulled toward its own stored key and pushed away from
other keys drawn for it from the rest of the bank, with similarities scaled
by a temperature: the memory-bank estimator, with negatives drawn per query
rather than shared across the batch.  The caller draws them
(bank.negative_rows): the draw depends on the bank's size, not its keys, so
a sparse draw can serve a whole epoch of steps.  Bank keys are treated as
constants: no gradient flows into the bank.  The loss hands back its
gradient w.r.t. the unit embeddings; model.backward takes it through the
network together with the step's cross-entropy terms.

When a query's columns fill a small share of the bank (bank.is_sparse, the
predicate that also picks the negative draw), the loss reads only the keys
of those columns; otherwise it takes bank-wide similarities, which then cost
less than gathering.
"""

import numpy as np

from . import bank as bank_mod
from .errors import DimensionError
from .numerics import log_softmax_rows


def nce_columns(Q, keys, cols, temperature, gathered):
    """Per query: log-probabilities over its columns of the bank, its own
    row first, and the gradient of its loss w.r.t. its embedding.

    gathered reads the keys of each query's columns into an (n, 1 + K, d)
    tensor; otherwise bank-wide similarities make dQ one product with the
    keys.  Both give the same values up to rounding.
    """
    if gathered:
        K = keys[cols]
        logits = np.matmul(K, Q[:, :, None])[:, :, 0]
    else:
        S = Q @ keys.T
        logits = np.take_along_axis(S, cols, axis=1)
    logp = log_softmax_rows(logits / temperature)
    weights = np.exp(logp)
    weights[:, 0] -= 1.0
    if gathered:
        return logp, np.matmul(weights[:, None, :], K)[:, 0, :] / temperature
    S[:] = 0.0
    np.put_along_axis(S, cols, weights, axis=1)
    return logp, S @ keys / temperature


def contrastive_grad(fw, rows, negatives, bank, temperature: float):
    """Mean contrastive loss over the rows of a forward pass and its
    gradient dQ w.r.t. their unit embeddings, one row per sample, which
    model.backward takes through the network.

    fw holds the activations of the samples stored at these bank rows, in
    order.  Each sample's positive is its own row and its negatives are the
    bank rows in its row of `negatives` (bank.negative_rows draws them).
    """
    n = len(rows)
    if n == 0:
        raise DimensionError("empty batch")
    if fw.X.shape[0] != n:
        raise DimensionError(f"{n} bank rows for {fw.X.shape[0]} samples")
    if bank.embed_dim != fw.Z.shape[1]:
        raise DimensionError(f"bank keys have dimension {bank.embed_dim}, "
                             f"embeddings {fw.Z.shape[1]}")
    negatives = np.asarray(negatives)
    if negatives.ndim != 2 or negatives.shape[0] != n:
        raise DimensionError(f"{negatives.shape} negatives for {n} samples")
    cols = np.concatenate((np.asarray(rows, dtype=np.int64)[:, None],
                           negatives), axis=1)
    bank.check_rows(cols.ravel())
    logp, dQ = nce_columns(fw.embeddings(), bank.keys, cols, temperature,
                           bank_mod.is_sparse(len(bank), negatives.shape[1]))
    return float(-logp[:, 0].mean()), dQ / n
