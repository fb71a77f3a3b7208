"""Small MLP encoder / projector / classifier with hand-coded backward passes.

The encoder is two tanh layers, the projector one tanh hidden layer with a
linear output that gets l2-normalized, and the classifier a linear head on the
encoder features (it bypasses the projector).  All parameters live in a single
flat float64 vector of length P; gradients and update directions are expressed
in that same space.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolationError, DimensionError
from .numerics import log_softmax_rows

# origin tags carried by batch samples
ORIGIN_SOURCE = "source"
ORIGIN_TARGET = "target"


def origin_memory(domain_index: int) -> str:
    return f"memory:{domain_index}"


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    n_classes: int
    hidden_dim: int = 64
    proj_hidden_dim: int = 64
    embed_dim: int = 16


# flattening order; fixed for the lifetime of the format
_PARAM_FIELDS = (
    "enc1_w", "enc1_b", "enc2_w", "enc2_b",
    "proj1_w", "proj1_b", "proj2_w", "proj2_b",
    "cls_w", "cls_b",
)

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelParams:
    """Immutable parameter bundle; use sgd_step / unflatten to derive new ones."""

    config: ModelConfig
    enc1_w: np.ndarray
    enc1_b: np.ndarray
    enc2_w: np.ndarray
    enc2_b: np.ndarray
    proj1_w: np.ndarray
    proj1_b: np.ndarray
    proj2_w: np.ndarray
    proj2_b: np.ndarray
    cls_w: np.ndarray
    cls_b: np.ndarray

    @property
    def num_params(self) -> int:
        return sum(getattr(self, f).size for f in _PARAM_FIELDS)

    def flatten(self) -> np.ndarray:
        return np.concatenate([getattr(self, f).ravel() for f in _PARAM_FIELDS])

    def unflatten(self, flat: np.ndarray) -> "ModelParams":
        """Rebuild a params bundle from a flat vector with this model's shapes."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.num_params,):
            raise DimensionError(
                f"flat vector has length {flat.shape}, expected ({self.num_params},)"
            )
        out = {}
        offset = 0
        for f in _PARAM_FIELDS:
            shape = getattr(self, f).shape
            size = getattr(self, f).size
            out[f] = flat[offset:offset + size].reshape(shape).copy()
            offset += size
        return replace(self, **out)

    def block_slices(self) -> dict:
        """Map field name -> slice of the flat vector it occupies."""
        slices = {}
        offset = 0
        for f in _PARAM_FIELDS:
            size = getattr(self, f).size
            slices[f] = slice(offset, offset + size)
            offset += size
        return slices


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_out, fan_in))


def _block_shapes(config: ModelConfig) -> dict:
    """Shape of each parameter block, in flattening order."""
    d, h, ph, e, c = (config.input_dim, config.hidden_dim,
                      config.proj_hidden_dim, config.embed_dim, config.n_classes)
    return {"enc1_w": (h, d), "enc1_b": (h,), "enc2_w": (h, h), "enc2_b": (h,),
            "proj1_w": (ph, h), "proj1_b": (ph,), "proj2_w": (e, ph),
            "proj2_b": (e,), "cls_w": (c, h), "cls_b": (c,)}


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Seeded uniform [-a, a] init with a = sqrt(6/(fan_in+fan_out)); zero biases."""
    return ModelParams(config=config, **{
        f: _glorot(rng, *shape) if len(shape) == 2 else np.zeros(shape)
        for f, shape in _block_shapes(config).items()})


def zeros_like_params(params: ModelParams) -> ModelParams:
    return params.unflatten(np.zeros(params.num_params))


@dataclass
class Batch:
    """A mini-batch: inputs with per-sample ids, origin tags and optional labels.

    labels uses -1 for "absent"; source- and memory-tagged samples must be
    labeled, target-tagged samples must not be.
    """

    ids: list
    inputs: np.ndarray
    labels: np.ndarray
    origins: list

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.inputs.shape[0]
        if not (len(self.ids) == n == self.labels.shape[0] == len(self.origins)):
            raise DimensionError("batch fields disagree on sample count")
        for label, origin in zip(self.labels, self.origins):
            if origin == ORIGIN_TARGET and label >= 0:
                raise ContractViolationError("target-tagged sample carries a label")
            if origin != ORIGIN_TARGET and label < 0:
                raise ContractViolationError(f"{origin}-tagged sample lacks a label")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _check_input_dim(params: ModelParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != params.config.input_dim:
        raise DimensionError(
            f"inputs have shape {X.shape}, model expects dimension {params.config.input_dim}"
        )
    return X


def _encoder_forward(params: ModelParams, X: np.ndarray):
    H1 = np.tanh(X @ params.enc1_w.T + params.enc1_b)
    H2 = np.tanh(H1 @ params.enc2_w.T + params.enc2_b)
    return H1, H2


def _projector_forward(params: ModelParams, H2: np.ndarray):
    P1 = np.tanh(H2 @ params.proj1_w.T + params.proj1_b)
    Z = P1 @ params.proj2_w.T + params.proj2_b
    return P1, Z


def encode_batch(params: ModelParams, X) -> np.ndarray:
    """Encoder features for a batch of inputs, one row per sample."""
    X = _check_input_dim(params, X)
    _, H2 = _encoder_forward(params, X)
    return H2


def encode_project_batch(params: ModelParams, X) -> np.ndarray:
    """Unit-norm embeddings for a batch of inputs, one row per sample."""
    X = _check_input_dim(params, X)
    _, H2 = _encoder_forward(params, X)
    _, Z = _projector_forward(params, H2)
    norms = np.linalg.norm(Z, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        from .errors import DegenerateInputError
        raise DegenerateInputError("zero pre-normalization embedding in batch")
    return Z / norms


def classify_batch(params: ModelParams, X) -> np.ndarray:
    X = _check_input_dim(params, X)
    _, H2 = _encoder_forward(params, X)
    return H2 @ params.cls_w.T + params.cls_b


def _encoder_backward(params, X, H1, H2, dH2, grads):
    dZ2 = dH2 * (1.0 - H2 * H2)
    grads["enc2_w"] += dZ2.T @ H1
    grads["enc2_b"] += dZ2.sum(axis=0)
    dH1 = dZ2 @ params.enc2_w
    dZ1 = dH1 * (1.0 - H1 * H1)
    grads["enc1_w"] += dZ1.T @ X
    grads["enc1_b"] += dZ1.sum(axis=0)


def _grads_to_flat(params: ModelParams, grads: dict) -> np.ndarray:
    pieces = []
    for f in _PARAM_FIELDS:
        g = grads.get(f)
        if g is None:
            pieces.append(np.zeros(getattr(params, f).size))
        else:
            pieces.append(np.asarray(g, dtype=np.float64).ravel())
    return np.concatenate(pieces)


def ce_loss_and_grad(params: ModelParams, batch: Batch):
    """Mean softmax cross-entropy over a fully labeled batch and its flat gradient.

    The classifier path bypasses the projector, so the projector blocks of the
    returned gradient are exactly zero.
    """
    if np.any(batch.labels < 0):
        raise ContractViolationError("cross-entropy requires labels on every sample")
    X = _check_input_dim(params, batch.inputs)
    n = X.shape[0]
    y = batch.labels
    if np.any(y >= params.config.n_classes):
        raise ContractViolationError("label outside the model's class range")

    H1, H2 = _encoder_forward(params, X)
    logits = H2 @ params.cls_w.T + params.cls_b
    logp = log_softmax_rows(logits)
    loss = float(-logp[np.arange(n), y].mean())

    dlogits = np.exp(logp)
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n

    grads = {
        "cls_w": dlogits.T @ H2,
        "cls_b": dlogits.sum(axis=0),
        "enc1_w": np.zeros_like(params.enc1_w), "enc1_b": np.zeros_like(params.enc1_b),
        "enc2_w": np.zeros_like(params.enc2_w), "enc2_b": np.zeros_like(params.enc2_b),
    }
    dH2 = dlogits @ params.cls_w
    _encoder_backward(params, X, H1, H2, dH2, grads)
    return loss, _grads_to_flat(params, grads)


def embedding_backward(params: ModelParams, X: np.ndarray, dQ: np.ndarray) -> np.ndarray:
    """Flat gradient of a scalar loss given its gradient dQ w.r.t. the unit
    embeddings of X.  Classifier blocks are exactly zero."""
    X = _check_input_dim(params, X)
    H1, H2 = _encoder_forward(params, X)
    P1, Z = _projector_forward(params, H2)
    norms = np.linalg.norm(Z, axis=1, keepdims=True)
    Q = Z / norms

    # through q = z/||z||:  dz = (dq - (dq.q) q) / ||z||
    dZ = (dQ - (dQ * Q).sum(axis=1, keepdims=True) * Q) / norms

    grads = {
        "proj2_w": dZ.T @ P1,
        "proj2_b": dZ.sum(axis=0),
        "enc1_w": np.zeros_like(params.enc1_w), "enc1_b": np.zeros_like(params.enc1_b),
        "enc2_w": np.zeros_like(params.enc2_w), "enc2_b": np.zeros_like(params.enc2_b),
    }
    dP1 = dZ @ params.proj2_w
    dZ3 = dP1 * (1.0 - P1 * P1)
    grads["proj1_w"] = dZ3.T @ H2
    grads["proj1_b"] = dZ3.sum(axis=0)
    dH2 = dZ3 @ params.proj1_w
    _encoder_backward(params, X, H1, H2, dH2, grads)
    return _grads_to_flat(params, grads)


def sgd_step(params: ModelParams, w: np.ndarray, lr: float) -> ModelParams:
    """params - lr * w for a gradient-like descent direction w of length P."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (params.num_params,):
        raise DimensionError(f"update has shape {w.shape}, expected ({params.num_params},)")
    return params.unflatten(params.flatten() - lr * w)


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
        flat=params.flatten(),
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
        flat = np.asarray(data["flat"], dtype=np.float64)
    template = ModelParams(config=cfg, **{
        f: np.zeros(shape) for f, shape in _block_shapes(cfg).items()})
    return template.unflatten(flat)
