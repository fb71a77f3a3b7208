"""Instance-discrimination contrastive loss against the feature bank.

Each query embedding is pulled toward its own stored key and pushed away from
other keys drawn for it from the rest of the bank, with similarities scaled
by a temperature: the memory-bank estimator, with negatives drawn per query
rather than shared across the batch.  The caller draws them
(bank.negative_rows), an epoch of steps at a time.  The loss reads only the
keys of each query's columns, whatever share of the bank they fill.  Bank
keys are treated as constants: no gradient flows into the bank.  The loss
hands back its gradient w.r.t. the unit embeddings; model.backward takes it
through the network together with the step's cross-entropy terms.
"""

import numpy as np

from .errors import DimensionError
from .numerics import log_softmax_rows


def nce_columns(Q, keys, cols, temperature):
    """Per query: log-probabilities over its columns of the bank, its own
    row first, and the gradient of its loss w.r.t. its embedding, from the
    keys of its columns gathered into an (n, 1 + K, d) tensor."""
    K = keys[cols]
    logp = log_softmax_rows(np.matmul(K, Q[:, :, None])[:, :, 0] / temperature)
    weights = np.exp(logp)
    weights[:, 0] -= 1.0
    return logp, np.matmul(weights[:, None, :], K)[:, 0, :] / temperature


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
    logp, dQ = nce_columns(fw.embeddings(), bank.keys, cols, temperature)
    return float(-logp[:, 0].mean()), dQ / n
