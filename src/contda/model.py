"""Small MLP encoder / projector / classifier with a hand-coded backward pass.

The encoder is two tanh layers, the projector one tanh hidden layer with a
linear output that gets l2-normalized, and the classifier a linear head on the
encoder features (it bypasses the projector).  All parameters live in a single
flat float64 vector of length P, and every weight block is a view of it;
gradients and update directions are expressed in that same space.  One
forward pass keeps a batch's activations, and one backward pass from them
stacks every gradient of that batch (the embedding gradient, and the
cross-entropy of each group of its rows) as the rows of one (r, P) matrix.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
import math

import numpy as np

from .errors import ContractViolationError, DegenerateInputError, DimensionError
from .numerics import log_softmax_rows

# part codes carried by batch samples: a sample from the episodic memory of
# target domain t carries code t >= 1
PART_SOURCE = 0
PART_TARGET = -1


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    n_classes: int
    hidden_dim: int = 64
    proj_hidden_dim: int = 64
    embed_dim: int = 16


# flattening order; fixed for the lifetime of the format
_PARAM_FIELDS = ("enc1_w", "enc1_b", "enc2_w", "enc2_b", "proj1_w", "proj1_b",
                 "proj2_w", "proj2_b", "cls_w", "cls_b")

CHECKPOINT_VERSION = 1


@lru_cache(maxsize=None)
def _layout(config: ModelConfig) -> dict:
    """Map block name -> (slice of the flat vector, block shape), in
    flattening order."""
    d, h, ph, e, c = (config.input_dim, config.hidden_dim,
                      config.proj_hidden_dim, config.embed_dim, config.n_classes)
    shapes = ((h, d), (h,), (h, h), (h,), (ph, h), (ph,), (e, ph), (e,),
              (c, h), (c,))
    layout, offset = {}, 0
    for name, shape in zip(_PARAM_FIELDS, shapes):
        layout[name] = (slice(offset, offset + math.prod(shape)), shape)
        offset += math.prod(shape)
    return layout


def _blocks(config: ModelConfig, vec: np.ndarray) -> dict:
    """One view of vec per parameter block, shaped as that block."""
    return {name: vec[s].reshape(shape)
            for name, (s, shape) in _layout(config).items()}


@dataclass(frozen=True)
class ModelParams:
    """Immutable parameters: a config and a read-only copy of one flat vector.

    The blocks enc1_w ... cls_b are views of flat; sgd_step derives new
    parameters.
    """

    config: ModelConfig
    flat: np.ndarray

    def __post_init__(self):
        flat = np.array(self.flat, dtype=np.float64)
        want = sum(s.stop - s.start for s, _ in _layout(self.config).values())
        if flat.shape != (want,):
            raise DimensionError(
                f"flat vector has shape {flat.shape}, expected ({want},)")
        flat.flags.writeable = False
        object.__setattr__(self, "flat", flat)

    @property
    def num_params(self) -> int:
        return self.flat.size

    @cached_property
    def blocks(self) -> dict:
        return _blocks(self.config, self.flat)

    def block_slices(self) -> dict:
        """Map field name -> slice of the flat vector it occupies."""
        return {name: s for name, (s, _) in _layout(self.config).items()}


for _name in _PARAM_FIELDS:
    setattr(ModelParams, _name,
            property(lambda self, name=_name: self.blocks[name]))


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_out, fan_in))


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Seeded uniform [-a, a] init with a = sqrt(6/(fan_in+fan_out)); zero biases."""
    return ModelParams(config, np.concatenate([
        _glorot(rng, *shape).ravel() if len(shape) == 2 else np.zeros(shape)
        for _, shape in _layout(config).values()]))


@dataclass
class Batch:
    """A mini-batch: inputs, labels (-1 for "absent") and one part code per
    sample, or an epoch of them with one leading row per step.

    Target samples (PART_TARGET) must be unlabeled, and source and memory
    samples labeled.
    """

    inputs: np.ndarray
    labels: np.ndarray
    parts: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.parts = np.asarray(self.parts, dtype=np.int64)
        n = self.inputs.shape[0]
        if not n == self.labels.shape[0] == self.parts.shape[0]:
            raise DimensionError("batch fields disagree on sample count")
        if np.any((self.labels >= 0) == (self.parts == PART_TARGET)):
            raise ContractViolationError(
                "target samples must be unlabeled and all others labeled")

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class Forward:
    """Activations of one forward pass, one row per sample: inputs X, encoder
    layers H1 and H2, projector hidden layer P1 and the embedding Z before
    normalization (P1 and Z are None when the pass stopped at the encoder)."""

    X: np.ndarray
    H1: np.ndarray
    H2: np.ndarray
    P1: np.ndarray = None
    Z: np.ndarray = None

    def embeddings(self) -> np.ndarray:
        """Unit-norm embeddings, one row per sample."""
        norms = np.linalg.norm(self.Z, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise DegenerateInputError("zero pre-normalization embedding in batch")
        return self.Z / norms


def forward(params: ModelParams, X, project: bool = True) -> Forward:
    """One forward pass over a batch of inputs; project=False stops at the
    encoder."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != params.config.input_dim:
        raise DimensionError(f"inputs have shape {X.shape}, model expects "
                             f"dimension {params.config.input_dim}")
    H1 = np.tanh(X @ params.enc1_w.T + params.enc1_b)
    H2 = np.tanh(H1 @ params.enc2_w.T + params.enc2_b)
    if not project:
        return Forward(X, H1, H2)
    P1 = np.tanh(H2 @ params.proj1_w.T + params.proj1_b)
    return Forward(X, H1, H2, P1, P1 @ params.proj2_w.T + params.proj2_b)


def encode_batch(params: ModelParams, X) -> np.ndarray:
    """Encoder features for a batch of inputs, one row per sample."""
    return forward(params, X, project=False).H2


def encode_project_batch(params: ModelParams, X) -> np.ndarray:
    """Unit-norm embeddings for a batch of inputs, one row per sample."""
    return forward(params, X).embeddings()


def classify_batch(params: ModelParams, X) -> np.ndarray:
    return forward(params, X, project=False).H2 @ params.cls_w.T + params.cls_b


def backward(params: ModelParams, fw: Forward, dQ=None, labels=None,
             groups=()):
    """Flat gradients of several losses on one forward pass, stacked as the
    rows of J of shape (r, P); returns the cross-entropy losses and J.

    Row 0 is the loss whose gradient w.r.t. fw's unit embeddings is dQ,
    when dQ is given; then one row per entry of groups (an index array or
    a slice of fw's rows), the mean softmax cross-entropy of labels over
    those rows (NaN loss and a zero row for an empty group).  The chain through the encoder runs once over
    every stacked (row, sample) pair, and only the weight reductions are
    taken per row.  Projector blocks of the cross-entropy rows and
    classifier blocks of the embedding row are exactly zero.
    """
    n = fw.X.shape[0]
    lead = 0 if dQ is None else 1
    rows = [np.arange(n)[g] for g in groups]
    counts = [n] * lead + [r.size for r in rows]
    S = params.block_slices()
    J = np.zeros((len(counts), params.num_params))
    pairs, dH2, losses = [slice(None)] * lead, [], []
    if lead:
        norms = np.linalg.norm(fw.Z, axis=1, keepdims=True)
        Q = fw.Z / norms
        # through q = z/||z||:  dz = (dq - (dq.q) q) / ||z||
        dZ = (dQ - (dQ * Q).sum(axis=1, keepdims=True) * Q) / norms
        J[0, S["proj2_w"]] = (dZ.T @ fw.P1).ravel()
        J[0, S["proj2_b"]] = dZ.sum(axis=0)
        dZ3 = dZ @ params.proj2_w
        dZ3 *= 1.0 - fw.P1 * fw.P1
        J[0, S["proj1_w"]] = (dZ3.T @ fw.H2).ravel()
        J[0, S["proj1_b"]] = dZ3.sum(axis=0)
        dH2.append(dZ3 @ params.proj1_w)
    if groups:
        y = np.asarray(labels, dtype=np.int64)
        if y.shape != (n,):
            raise DimensionError(f"{y.shape} labels for {n} rows")
        # a single group indexes fw as given, so a slice copies nothing
        pairs.append(groups[0] if len(groups) == 1 else np.concatenate(rows))
        y, Hc = y[pairs[-1]], fw.H2[pairs[-1]]
        if np.any((y < 0) | (y >= params.config.n_classes)):
            raise ContractViolationError("cross-entropy needs a label in the "
                                         "model's class range on every sample")
        logp = log_softmax_rows(Hc @ params.cls_w.T + params.cls_b)
        at = np.arange(y.size)
        nll = -logp[at, y]
        dlogits = np.exp(logp)
        dlogits[at, y] -= 1.0
        sizes = np.array(counts[lead:])
        dlogits /= sizes.repeat(sizes)[:, None]
        dH2.append(dlogits @ params.cls_w)

    idx = pairs[0] if len(pairs) == 1 else np.concatenate([np.arange(n)] + rows)
    X, H1, H2 = fw.X[idx], fw.H1[idx], fw.H2[idx]
    dZ2 = np.concatenate(dH2) if len(dH2) > 1 else dH2[0]
    dZ2 *= 1.0 - H2 * H2
    dZ1 = dZ2 @ params.enc2_w
    dZ1 *= 1.0 - H1 * H1
    # bias gradients sum each row's segment of pairs: one product for all rows
    seg = np.repeat(np.eye(len(counts)), counts, axis=1)
    J[:, S["enc2_b"]] = seg @ dZ2
    J[:, S["enc1_b"]] = seg @ dZ1
    if groups:
        J[lead:, S["cls_b"]] = seg[lead:, lead * n:] @ dlogits
    a = 0
    for r, count in enumerate(counts):
        b = a + count
        J[r, S["enc2_w"]] = (dZ2[a:b].T @ H1[a:b]).ravel()
        J[r, S["enc1_w"]] = (dZ1[a:b].T @ X[a:b]).ravel()
        if r >= lead:
            c = slice(a - lead * n, b - lead * n)
            J[r, S["cls_w"]] = (dlogits[c].T @ Hc[c]).ravel()
            losses.append(nll[c].sum() / count if count else np.nan)
        a = b
    return np.array(losses), J


def ce_loss_and_grad(params: ModelParams, batch: Batch):
    """Mean cross-entropy of a fully labeled batch and its flat gradient,
    from the batch's own encoder pass."""
    losses, J = backward(params, forward(params, batch.inputs, project=False),
                         labels=batch.labels, groups=[slice(None)])
    return float(losses[0]), J[0]


def sgd_step(params: ModelParams, w: np.ndarray, lr: float) -> ModelParams:
    """params - lr * w for a gradient-like descent direction w of length P."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != params.flat.shape:
        raise DimensionError(f"update has shape {w.shape}, expected {params.flat.shape}")
    return ModelParams(params.config, params.flat - lr * w)


def save_checkpoint(params: ModelParams, path) -> None:
    """Write a versioned .npz checkpoint: config scalars + the flat vector."""
    cfg = params.config
    np.savez(
        path,
        version=np.int64(CHECKPOINT_VERSION),
        input_dim=np.int64(cfg.input_dim),
        n_classes=np.int64(cfg.n_classes),
        hidden_dim=np.int64(cfg.hidden_dim),
        proj_hidden_dim=np.int64(cfg.proj_hidden_dim),
        embed_dim=np.int64(cfg.embed_dim),
        flat=params.flat,
    )


def load_checkpoint(path) -> ModelParams:
    with np.load(path) as data:
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ContractViolationError(f"unsupported checkpoint version {version}")
        cfg = ModelConfig(
            input_dim=int(data["input_dim"]),
            n_classes=int(data["n_classes"]),
            hidden_dim=int(data["hidden_dim"]),
            proj_hidden_dim=int(data["proj_hidden_dim"]),
            embed_dim=int(data["embed_dim"]),
        )
        return ModelParams(cfg, data["flat"])
