"""Small MLP encoder / projector / classifier with a hand-coded backward pass.

The encoder is two tanh layers, the projector one tanh hidden layer with a
linear output that gets l2-normalized, and the classifier a linear head on the
encoder features (it bypasses the projector).  All parameters live in a single
flat float64 vector of length P, and every weight block is a view of it;
gradients and update directions are expressed in that same space.  One
forward pass keeps a batch's activations and their norms, and one backward
pass from them stacks every gradient of that batch (the embedding gradient,
and the cross-entropy of each group of its rows) as the rows of one (r, P)
matrix, with index arrays built once per tuple of group sizes, into a
buffer the caller may reuse from step to step.
A batch is its inputs and one integer label per row; every row that a
cross-entropy group reads must carry a label in the class range.
descend_ce takes every step of source pretraining in one call, for a
stack of models of one config in lockstep.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
import math

import numpy as np

from .errors import ContractViolationError, DegenerateInputError, DimensionError

@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    n_classes: int
    hidden_dim: int
    proj_hidden_dim: int
    embed_dim: int


# block order in the flat parameter vector
_PARAM_FIELDS = ("enc1_w", "enc1_b", "enc2_w", "enc2_b", "proj1_w", "proj1_b",
                 "proj2_w", "proj2_b", "cls_w", "cls_b")


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


def _size(config: ModelConfig) -> int:
    """P, the length of the flat vector."""
    return sum(s.stop - s.start for s, _ in _layout(config).values())


def _blocks(config: ModelConfig, vec: np.ndarray) -> dict:
    """One view of vec per parameter block, shaped as that block."""
    return {name: vec[s].reshape(shape)
            for name, (s, shape) in _layout(config).items()}


@dataclass(frozen=True)
class ModelParams:
    """Immutable parameters: a config and a read-only copy of one flat vector.

    blocks maps enc1_w ... cls_b to views of flat.  The adaptation loop
    (harness._train_epoch) steps a writable copy of flat in place and
    returns parameters around it, without a second copy; while it runs, it
    reads its copy through read-only params whose values change with each
    step, the only params whose values ever change.  Source pretraining
    (harness.pretrain_source) steps a stack of flat vectors in place and
    copies each row out.
    """

    config: ModelConfig
    flat: np.ndarray

    def __post_init__(self):
        flat = np.array(self.flat, dtype=np.float64)
        want = _size(self.config)
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


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_out, fan_in))


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Seeded uniform [-a, a] init with a = sqrt(6/(fan_in+fan_out)); zero biases."""
    return ModelParams(config, np.concatenate([
        _glorot(rng, *shape).ravel() if len(shape) == 2 else np.zeros(shape)
        for _, shape in _layout(config).values()]))


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

    @cached_property
    def normalized(self):
        """Read-only row norms of Z, shape (n, 1), and unit embeddings: the
        norms as np.linalg.norm forms them, without its Python wrappers."""
        norms = np.sqrt(np.add.reduce(self.Z * self.Z, axis=1, keepdims=True))
        if (norms == 0.0).any():
            raise DegenerateInputError("zero pre-normalization embedding in batch")
        unit = self.Z / norms
        norms.flags.writeable = unit.flags.writeable = False
        return norms, unit

    def embeddings(self) -> np.ndarray:
        """Unit-norm embeddings, one row per sample."""
        return self.normalized[1]


def forward(params: ModelParams, X, project: bool = True) -> Forward:
    """One forward pass over a batch of inputs; project=False stops at the
    encoder.  Biases and tanh apply in place, leaving X untouched."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.config.input_dim:
        raise DimensionError(f"inputs have shape {X.shape}, model expects "
                             f"dimension {params.config.input_dim}")
    names = ("enc1", "enc2", "proj1", "proj2")[:4 if project else 2]
    return Forward(*_layers(params.blocks, X, names))


def _layers(B: dict, X: np.ndarray, names) -> list:
    """X and its layers under blocks B, one per name (tanh but on proj2);
    X and B may carry a leading model axis."""
    layers = [X]
    for name in names:
        H = layers[-1] @ B[name + "_w"].mT
        H += B[name + "_b"]
        layers.append(H if name == "proj2" else np.tanh(H, out=H))
    return layers


def encode_batch(params: ModelParams, X) -> np.ndarray:
    """Encoder features for a batch of inputs, one row per sample."""
    return forward(params, X, project=False).H2


def encode_project_batch(params: ModelParams, X) -> np.ndarray:
    """Unit-norm embeddings for a batch of inputs, one row per sample."""
    return forward(params, X).embeddings()


def classify_batch(params: ModelParams, X) -> np.ndarray:
    B = params.blocks
    return forward(params, X, project=False).H2 @ B["cls_w"].T + B["cls_b"]


def log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise, shift-stabilized log-softmax over the last axis of an array
    of logits with two axes or more."""
    if logits.ndim < 2 or logits.shape[-1] == 0:
        raise DimensionError(f"expected rows of logits, got shape {logits.shape}")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


@lru_cache(maxsize=128)
def _group_layout(counts: tuple, lead: int):
    """backward's read-only segment sums, CE pair positions and group sizes."""
    seg = np.repeat(np.eye(len(counts)), counts, axis=1)
    sizes = np.array(counts[lead:], dtype=np.int64)
    layout = seg, np.arange(sizes.sum()), sizes.repeat(sizes)[:, None]
    for a in layout:
        a.flags.writeable = False
    return layout


def backward(params: ModelParams, fw: Forward, dQ=None, labels=None,
             groups=(), out=None):
    """Flat gradients of several losses on one forward pass, stacked as the
    rows of J of shape (r, P); returns the cross-entropy losses and J.

    Row 0 is the loss whose gradient w.r.t. fw's unit embeddings is dQ,
    when dQ is given; then one row per entry of groups (an index array or
    a slice of fw's rows), the mean softmax cross-entropy of labels over
    those rows (NaN loss and a zero row for an empty group).  The chain
    through the encoder runs once over every stacked (row, sample) pair,
    and only the weight reductions are taken per row, each into its block
    of J.  Projector blocks of the cross-entropy rows and classifier blocks
    of the embedding row are exactly zero.

    out, an (R, P) buffer with R >= r, receives J as out[:r]; backward
    writes every block but those zero blocks, so they must already hold
    zeros, as they do in a zeroed buffer reused by calls that all pass dQ.
    """
    n = fw.X.shape[0]
    lead = 0 if dQ is None else 1
    rows = [np.arange(n)[g] for g in groups]
    counts = (n,) * lead + tuple(r.size for r in rows)
    seg, at, sizes = _group_layout(counts, lead)
    B, L = params.blocks, _layout(params.config)
    shape = (len(counts), params.num_params)
    J = np.zeros(shape) if out is None else out[:shape[0]]
    if J.shape != shape:
        raise DimensionError(f"gradient buffer of shape {out.shape} cannot "
                             f"hold J of shape {shape}")
    def block(r, name):  # row r of J as one parameter block
        return J[r, L[name][0]].reshape(L[name][1])
    pairs, dH2, losses = [slice(None)] * lead, [], []
    if lead:
        # through q = z/||z||:  dz = (dq - (dq.q) q) / ||z||
        norms, Q = fw.normalized
        dZ = (dQ - (dQ * Q).sum(axis=1, keepdims=True) * Q) / norms
        np.matmul(dZ.T, fw.P1, out=block(0, "proj2_w"))
        J[0, L["proj2_b"][0]] = dZ.sum(axis=0)
        dZ3 = dZ @ B["proj2_w"]
        dZ3 *= 1.0 - fw.P1 * fw.P1
        np.matmul(dZ3.T, fw.H2, out=block(0, "proj1_w"))
        J[0, L["proj1_b"][0]] = dZ3.sum(axis=0)
        dH2.append(dZ3 @ B["proj1_w"])
    if groups:
        y = np.asarray(labels, dtype=np.int64)
        if y.shape != (n,):
            raise DimensionError(f"{y.shape} labels for {n} rows")
        # a single group indexes fw as given, so a slice copies nothing
        pairs.append(groups[0] if len(groups) == 1 else np.concatenate(rows))
        y, Hc = y[pairs[-1]], fw.H2[pairs[-1]]
        if y.size and (y.min() < 0 or y.max() >= params.config.n_classes):
            raise ContractViolationError("cross-entropy needs a label in the "
                                         "model's class range on every sample")
        logp = log_softmax_rows(Hc @ B["cls_w"].T + B["cls_b"])
        nll = -logp[at, y]
        dlogits = np.exp(logp)
        dlogits[at, y] -= 1.0
        dlogits /= sizes
        dH2.append(dlogits @ B["cls_w"])

    idx = pairs[0] if len(pairs) == 1 else np.concatenate([np.arange(n)] + rows)
    X, H1, H2 = fw.X[idx], fw.H1[idx], fw.H2[idx]
    dZ2 = np.concatenate(dH2) if len(dH2) > 1 else dH2[0]
    dZ2 *= 1.0 - H2 * H2
    dZ1 = dZ2 @ B["enc2_w"]
    dZ1 *= 1.0 - H1 * H1
    # bias gradients sum each row's segment of pairs: one product for all rows
    J[:, L["enc2_b"][0]] = seg @ dZ2
    J[:, L["enc1_b"][0]] = seg @ dZ1
    if groups:
        J[lead:, L["cls_b"][0]] = seg[lead:, lead * n:] @ dlogits
    a = 0
    for r, count in enumerate(counts):
        b = a + count
        np.matmul(dZ2[a:b].T, H1[a:b], out=block(r, "enc2_w"))
        np.matmul(dZ1[a:b].T, X[a:b], out=block(r, "enc1_w"))
        if r >= lead:
            c = slice(a - lead * n, b - lead * n)
            np.matmul(dlogits[c].T, Hc[c], out=block(r, "cls_w"))
            losses.append(nll[c].sum() / count if count else np.nan)
        a = b
    return np.array(losses), J


def descend_ce(config: ModelConfig, flat: np.ndarray, X, labels, orders,
               batch_size: int, lrs) -> None:
    """SGD on the mean cross-entropy of labeled inputs, S models of one
    config in lockstep, checked once: flat is a writable (S, P) stack of
    flat vectors, stepped in place, X of shape (S, n, d) and labels (S, n)
    model s's inputs and labels.  Each order of orders is an (S, m) array
    of rows; per batch_size of its columns every model takes flat - lr *
    grad bitwise on backward's cross-entropy row at its rate in lrs, shared
    by all models.  Every array has a leading model axis and each batched
    product is one gemm per model, so model s steps bitwise as it would
    alone, S = 1.  The projector's gradient is zero, and x - 0.0 is x, so
    its blocks keep their values bitwise."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(labels, dtype=np.int64)
    if X.ndim != 3 or X.shape[2] != config.input_dim:
        raise DimensionError(f"inputs have shape {X.shape}, models expect "
                             f"(S, n, {config.input_dim})")
    S, P, L = len(X), _size(config), _layout(config)
    if (flat.shape != (S, P) or flat.dtype != np.float64
            or not flat.flags.writeable or not flat.flags.c_contiguous):
        raise DimensionError(f"parameters of shape {flat.shape} are no "
                             f"writable float64 ({S}, {P}) stack")
    if y.shape != X.shape[:2] or np.any((y < 0) | (y >= config.n_classes)):
        raise ContractViolationError("labels must be one per row, in the class range")

    def view(vec, s, shape):  # a block as (S, rows, columns), a bias one row
        return vec[:, s].reshape(S, -1, shape[-1])

    grad = np.zeros((S, P))
    W = {name: view(flat, s, shape) for name, (s, shape) in L.items()}
    G = {name: view(grad, s, shape) for name, (s, shape) in L.items()}
    lrs, models = iter(lrs), np.arange(S)[:, None]
    for order in orders:
        for a in range(0, order.shape[1], batch_size):
            rows = order[:, a:a + batch_size]
            Xb, yb = X[models, rows], y[models, rows]
            _, H1, H2 = _layers(W, Xb, ("enc1", "enc2"))
            seg, at, sizes = _group_layout((yb.shape[1],), 0)
            dZ = np.exp(log_softmax_rows(H2 @ W["cls_w"].mT + W["cls_b"]))
            dZ[models, at, yb] -= 1.0
            dZ /= sizes
            # each layer's gradients, then through the tanh below it, its
            # input H turned into 1 - H * H in place
            for name, H in (("cls", H2), ("enc2", H1), ("enc1", Xb)):
                np.matmul(seg, dZ, out=G[name + "_b"])
                np.matmul(dZ.mT, H, out=G[name + "_w"])
                if H is not Xb:
                    dZ = dZ @ W[name + "_w"]
                    dZ *= np.subtract(1.0, np.multiply(H, H, out=H), out=H)
            np.subtract(flat, np.multiply(grad, next(lrs), out=grad), out=flat)


def _owning(config: ModelConfig, flat: np.ndarray) -> ModelParams:
    """Params around flat, a vector of the right length, made read-only in
    place of __post_init__'s copy; only a writable base that flat views, held
    by the caller, can still change it."""
    flat.flags.writeable = False
    params = object.__new__(ModelParams)
    object.__setattr__(params, "config", config)
    object.__setattr__(params, "flat", flat)
    return params
