"""Instance-discrimination contrastive loss against the feature bank.

Each query embedding is pulled toward its own stored key and pushed away from
other keys drawn fresh for it from the rest of the bank, with similarities
scaled by a temperature: the memory-bank estimator, with negatives drawn per
query rather than shared across the batch.  Bank keys are treated as
constants: no gradient flows into the bank.
"""

import numpy as np

from . import bank as bank_mod
from . import model as model_mod
from .errors import DimensionError
from .numerics import log_softmax_rows


def contrastive_grad(params, fw, ids, bank, temperature: float, negatives: int,
                     rng: np.random.Generator):
    """Mean contrastive loss over the rows of a forward pass and its flat
    parameter gradient.

    fw holds the activations of the samples with these ids, in order.  Each
    sample's positive is its own bank entry and its `negatives` negatives are
    drawn from the rest of the bank (all of it when negatives = len(bank) - 1).
    Classifier blocks of the gradient are zero.
    """
    n = len(ids)
    if n == 0:
        raise DimensionError("empty batch")
    if fw.X.shape[0] != n:
        raise DimensionError(f"{n} ids for {fw.X.shape[0]} rows")
    if bank.embed_dim != params.config.embed_dim:
        raise DimensionError(f"bank keys have dimension {bank.embed_dim}, "
                             f"embeddings {params.config.embed_dim}")
    own = np.array([bank.row_of(sid) for sid in ids], dtype=np.int64)
    cols = np.concatenate(
        (own[:, None], bank_mod.negative_rows(bank, own, negatives, rng)), axis=1)
    # bank-wide similarities make dQ one product with the keys; gathering an
    # (n, 1 + negatives, d) key tensor instead grows peak memory at many
    # negatives
    S = fw.embeddings() @ bank.keys.T
    logp = log_softmax_rows(np.take_along_axis(S, cols, axis=1) / temperature)
    weights = np.exp(logp)
    weights[:, 0] -= 1.0
    S[:] = 0.0
    np.put_along_axis(S, cols, weights, axis=1)
    dQ = S @ bank.keys / (temperature * n)
    return float(-logp[:, 0].mean()), model_mod.embedding_grad(params, fw, dQ)
