"""Reference backward passes for the tests: one loss at a time, each its own
backward pass from a forward pass's activations.

model.backward stacks these gradients as the rows of one matrix; the tests
compare each row with the oracles below.  ce_loss_and_grad is one batch's
cross-entropy row of model.backward, and sgd_step one step along a
direction: together they are the per-step reference of model.descend_ce.
"""

import numpy as np

from contda import model
from contda.errors import DimensionError


def _encoder_backward(params, X, H1, H2, dH2, G):
    dZ2 = dH2 * (1.0 - H2 * H2)
    G["enc2_w"] += dZ2.T @ H1
    G["enc2_b"] += dZ2.sum(axis=0)
    dZ1 = (dZ2 @ params.blocks["enc2_w"]) * (1.0 - H1 * H1)
    G["enc1_w"] += dZ1.T @ X
    G["enc1_b"] += dZ1.sum(axis=0)


def ce_loss_and_grad(params, X, labels):
    """Mean cross-entropy of a fully labeled batch of inputs X and its flat
    gradient, from the batch's own encoder pass."""
    losses, J = model.backward(params, model.forward(params, X, project=False),
                               labels=labels, groups=[slice(None)])
    return float(losses[0]), J[0]


def sgd_step(params, w, lr):
    """params - lr * w for a gradient-like descent direction w of length P,
    as new read-only params."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != params.flat.shape:
        raise DimensionError(f"update has shape {w.shape}, "
                             f"expected {params.flat.shape}")
    flat = np.multiply(w, lr)
    np.subtract(params.flat, flat, out=flat)
    return model._owning(params.config, flat)


def ce_oracle(params, fw, rows, y):
    """Mean softmax cross-entropy of labels y[rows] over those rows of fw,
    and its flat gradient."""
    rows = np.asarray(rows, dtype=np.int64)
    X, H1, H2 = fw.X[rows], fw.H1[rows], fw.H2[rows]
    y = np.asarray(y)[rows]
    n = rows.size
    logits = H2 @ params.blocks["cls_w"].T + params.blocks["cls_b"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(n), y].mean())
    dlogits = np.exp(logp)
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    grad = np.zeros(params.num_params)
    G = model._blocks(params.config, grad)
    G["cls_w"][...] = dlogits.T @ H2
    G["cls_b"][...] = dlogits.sum(axis=0)
    _encoder_backward(params, X, H1, H2, dlogits @ params.blocks["cls_w"], G)
    return loss, grad


def embedding_oracle(params, fw, dQ):
    """Flat gradient of a scalar loss given its gradient dQ w.r.t. the unit
    embeddings of fw's rows."""
    norms = np.linalg.norm(fw.Z, axis=1, keepdims=True)
    Q = fw.Z / norms
    dZ = (dQ - (dQ * Q).sum(axis=1, keepdims=True) * Q) / norms
    grad = np.zeros(params.num_params)
    G = model._blocks(params.config, grad)
    G["proj2_w"][...] = dZ.T @ fw.P1
    G["proj2_b"][...] = dZ.sum(axis=0)
    dZ3 = (dZ @ params.blocks["proj2_w"]) * (1.0 - fw.P1 * fw.P1)
    G["proj1_w"][...] = dZ3.T @ fw.H2
    G["proj1_b"][...] = dZ3.sum(axis=0)
    _encoder_backward(params, fw.X, fw.H1, fw.H2,
                      dZ3 @ params.blocks["proj1_w"], G)
    return grad
