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
the logits and their exponentials.  epoch_plans checks a drawn epoch and
builds each step's label side once.  Bank keys are constants; the gradient
w.r.t. the unit embeddings goes to model.backward.
"""

import numpy as np

from .bank import check_rows
from .errors import ContractViolationError, DimensionError


def epoch_plans(bank, steps, negatives, labels=None) -> list:
    """Per step of an epoch (its bank rows, and as many negatives as every
    step): the negatives' one-hot over the classes up to the largest label,
    plus an empty last row for label -1, the rows' labels and their counts
    1 + the negatives of their label.  Checked once for all steps: rows and
    negatives lie in the bank, no negative is a row of its step, and labels
    (one per bank row, -1 unlabeled and the default) are integers >= -1."""
    sizes = [len(r) for r in steps]
    rows = check_rows(np.concatenate(steps), len(bank))
    negatives = np.asarray(negatives, dtype=np.int64)
    if negatives.ndim != 2:
        raise DimensionError(f"negatives of shape {negatives.shape} per epoch")
    check_rows(negatives.ravel(), len(bank))
    # step i's rows shifted by i len(bank), and a -1 below all: one search
    shift = len(bank) * np.arange(len(steps))
    inside = np.sort(np.concatenate([[-1], rows + np.repeat(shift, sizes)]))
    probe = (negatives + shift[:, None]).ravel()
    if (inside[np.searchsorted(inside, probe, "right") - 1] == probe).any():
        raise ContractViolationError("a negative is a row of the batch")
    labels = np.full(len(bank), -1) if labels is None else np.asarray(labels)
    if labels.shape != (len(bank),):
        raise DimensionError(f"{labels.shape} labels for {len(bank)} rows")
    if labels.dtype.kind not in "iu" or labels.min() < -1:
        raise ContractViolationError("labels must be integers of -1 or more")
    onehot = labels[negatives][:, None] == np.arange(labels.max() + 2)[:, None]
    counts = 1 + np.count_nonzero(onehot, axis=2)
    own = np.split(labels[rows], np.cumsum(sizes)[:-1])
    return [(h, y, n[y]) for h, y, n in zip(onehot.astype(np.float64), own,
                                             counts, strict=True)]


def contrastive_grad(fw, rows, negatives, bank, temperature: float, plan):
    """Mean contrastive loss over the rows of a forward pass and its
    gradient dQ w.r.t. their unit embeddings, one row per sample.

    fw holds the activations of the samples stored at these bank rows, in
    order.  Each sample's positive is its own row and its negatives are the
    bank rows in `negatives`, which every sample shares and none of which
    may be a row of the batch.  plan, this step's entry of epoch_plans,
    checked the rows and negatives; its (onehot, own_labels, n_pos) spread
    a sample's target evenly over its n_pos positives: its own key and each
    negative of its label.  Per query q, over the logits [q . k_own |
    q Kn^T] / tau with Kn the negatives' keys, m the row max, E = exp(q
    Kn^T / tau - m), Z the softmax normalizer and P the sum of the positive
    keys, the loss is log Z + m - q . P / (tau n_pos) and its gradient
    (p_0 k_own + E Kn / Z - P / n_pos) / tau.
    """
    n = len(rows)
    if n == 0:
        raise DimensionError("empty batch")
    if fw.X.shape[0] != n:
        raise DimensionError(f"{n} bank rows for {fw.X.shape[0]} samples")
    if bank.ndim != 2 or bank.shape[1] != fw.Z.shape[1]:
        raise DimensionError(f"bank keys have shape {bank.shape}, "
                             f"embeddings dimension {fw.Z.shape[1]}")
    onehot, own_labels, n_pos = plan
    own, shared = bank[rows], bank[negatives]
    Q = fw.embeddings() / temperature
    s0 = np.einsum("ij,ij->i", Q, own)
    E = Q @ shared.T
    m = np.maximum(s0, E.max(axis=1, initial=-np.inf))
    E = np.exp(np.subtract(E, m[:, None], out=E), out=E)
    e0 = np.exp(s0 - m)
    Z = e0 + E.sum(axis=1)
    positives = own + (onehot @ shared)[own_labels]
    losses = np.log(Z) + m - np.einsum("ij,ij->i", Q, positives) / n_pos
    dQ = ((e0 / Z)[:, None] * own + (E @ shared) / Z[:, None]
          - positives / n_pos[:, None]) / temperature
    return float(losses.sum() / n), dQ / n
