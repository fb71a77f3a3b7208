"""Contrastive loss against the feature bank: instance discrimination, plus
the class positives of supervised contrastive learning on labeled queries.

Each query embedding is pulled toward its own stored key and pushed away from
the step's negatives, with similarities scaled by a temperature: the
memory-bank estimator, with one set of negatives per step, drawn outside the
batch and shared by its queries as a MoCo queue is (bank.negative_rows draws
them, an epoch of steps at a time).  A labeled query (a source row, or a
memory row with its pseudo-label) also counts each negative of its label as
a positive, with its target uniform over its positives (SupCon's L_out).
Bank keys are constants.  The gradient w.r.t. the unit embeddings goes to
model.backward with the step's cross-entropy terms.
"""

import numpy as np

from .errors import ContractViolationError, DimensionError
from .numerics import log_softmax_rows


def nce_columns(Q, own, shared, temperature, positive):
    """Per query: the loss over the logits [q . k_own | Q Kn^T] / tau, its
    own key first and then the shared negative keys Kn, with its target
    spread evenly over its `positive` columns, and the gradient of that loss
    w.r.t. its embedding, (w_0 k_own + W Kn) / tau."""
    logits = np.concatenate((np.einsum("ij,ij->i", Q, own)[:, None],
                             Q @ shared.T), axis=1)
    logp = log_softmax_rows(logits / temperature)
    target = positive / positive.sum(axis=1, keepdims=True)
    W = np.exp(logp) - target
    return (-(target * logp).sum(axis=1),
            (W[:, :1] * own + W[:, 1:] @ shared) / temperature)


def contrastive_grad(fw, rows, negatives, bank, temperature: float,
                     labels=None):
    """Mean contrastive loss over the rows of a forward pass and its
    gradient dQ w.r.t. their unit embeddings, one row per sample.

    fw holds the activations of the samples stored at these bank rows, in
    order.  Each sample's positive is its own row and its negatives are the
    bank rows in `negatives`, which every sample shares and none of which
    may be a row of the batch.  labels, one per bank row with -1 meaning
    unlabeled (the default for all), adds to a labeled sample's positives
    each negative of its label.
    """
    n = len(rows)
    if n == 0:
        raise DimensionError("empty batch")
    if fw.X.shape[0] != n:
        raise DimensionError(f"{n} bank rows for {fw.X.shape[0]} samples")
    if bank.embed_dim != fw.Z.shape[1]:
        raise DimensionError(f"bank keys have dimension {bank.embed_dim}, "
                             f"embeddings {fw.Z.shape[1]}")
    rows, negatives = bank.check_rows(rows), bank.check_rows(negatives)
    inside = np.zeros(len(bank), dtype=bool)
    inside[rows] = True
    if inside[negatives].any():
        raise ContractViolationError("a negative is a row of the batch")
    labels = np.full(len(bank), -1) if labels is None else np.asarray(labels)
    if labels.shape != (len(bank),):
        raise DimensionError(f"{labels.shape} labels for {len(bank)} rows")
    own = labels[rows, None]
    positive = np.concatenate((np.ones((n, 1), dtype=bool),
                               (own >= 0) & (labels[negatives] == own)), 1)
    losses, dQ = nce_columns(fw.embeddings(), bank.keys[rows],
                             bank.keys[negatives], temperature, positive)
    return float(losses.mean()), dQ / n
