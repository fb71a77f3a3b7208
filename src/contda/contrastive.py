"""Contrastive loss against the feature bank: instance discrimination, plus
the class positives of supervised contrastive learning on labeled queries.

Each query embedding is pulled toward its own stored key and pushed away from
the step's negatives, with similarities scaled by a temperature: the
memory-bank estimator, with one set of negatives per step, drawn outside the
batch and shared by its queries as a MoCo queue is (bank.negative_rows draws
them, an epoch of steps at a time).  A labeled query (a source row, or a
memory row with its pseudo-label) also counts each negative of its label as
a positive, with its target uniform over its positives (SupCon's L_out).
Since the negatives are shared, a query's positive side is its own key plus
the step's key sum of its class, so the only (queries, negatives) arrays are
the logits and their exponentials.  Bank keys are constants.  The gradient
w.r.t. the unit embeddings goes to model.backward with the step's
cross-entropy terms.
"""

import numpy as np

from .errors import ContractViolationError, DimensionError


def nce_columns(Q, own, shared, temperature, own_labels, shared_labels):
    """Per query: the loss over the logits [q . k_own | Q Kn^T] / tau, own
    key first, then the shared negative keys Kn, with its target spread
    evenly over its positives: its own key and each negative of its label
    (-1 matches none).  With m the row max, E = exp(Q Kn^T / tau - m), Z the
    softmax normalizer and P the sum of the n_pos positive keys, the loss is
    log Z + m - q . P / (tau n_pos) and its gradient w.r.t. the embedding
    (p_0 k_own + E Kn / Z - P / n_pos) / tau."""
    Q = Q / temperature
    s0 = np.einsum("ij,ij->i", Q, own)
    E = Q @ shared.T
    m = np.maximum(s0, E.max(axis=1, initial=-np.inf))
    E = np.exp(np.subtract(E, m[:, None], out=E), out=E)
    e0 = np.exp(s0 - m)
    Z = e0 + E.sum(axis=1)
    # a row per class, and a last row, picked by label -1, that stays empty
    classes = max(own_labels.max(), shared_labels.max(initial=-1)) + 1
    onehot = np.equal.outer(np.arange(classes + 1), shared_labels)
    positives = own + (onehot @ shared)[own_labels]
    n_pos = 1 + np.count_nonzero(onehot, axis=1)[own_labels]
    losses = np.log(Z) + m - np.einsum("ij,ij->i", Q, positives) / n_pos
    return losses, ((e0 / Z)[:, None] * own + (E @ shared) / Z[:, None]
                    - positives / n_pos[:, None]) / temperature


def contrastive_grad(fw, rows, negatives, bank, temperature: float,
                     labels=None):
    """Mean contrastive loss over the rows of a forward pass and its
    gradient dQ w.r.t. their unit embeddings, one row per sample.

    fw holds the activations of the samples stored at these bank rows, in
    order.  Each sample's positive is its own row and its negatives are the
    bank rows in `negatives`, which every sample shares and none of which
    may be a row of the batch.  labels, one integer per bank row with -1
    meaning unlabeled (the default for all), adds to a labeled sample's
    positives each negative of its label.
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
    if labels.dtype.kind not in "iu" or labels.min() < -1:
        raise ContractViolationError("labels must be integers of -1 or more")
    losses, dQ = nce_columns(fw.embeddings(), bank.keys[rows],
                             bank.keys[negatives], temperature,
                             labels[rows], labels[negatives])
    return float(losses.mean()), dQ / n
