"""Unified feature bank: one unit-norm key per sample across source, memory
and current-target pools.

Keys are initialized from a frozen parameter snapshot and thereafter blended
toward fresh embeddings with a momentum coefficient, then re-normalized so
every stored key stays on the unit sphere.  The bank is mutated in place by a
single writer (the adaptation loop); lookups go through an id -> row index map,
and each query's negatives are drawn as rows of the bank other than its own.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateInputError, DimensionError,
                     InsufficientNegativesError, MissingEntryError)
from . import model as model_mod

DEFAULT_MOMENTUM = 0.5


@dataclass
class FeatureBank:
    embed_dim: int
    ids: list = field(default_factory=list)
    keys: np.ndarray = None
    origins: list = field(default_factory=list)
    _index: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.keys is None:
            self.keys = np.zeros((0, self.embed_dim))
        self.keys = np.asarray(self.keys, dtype=np.float64)
        if self.keys.ndim != 2 or self.keys.shape[1] != self.embed_dim:
            raise DimensionError(f"bank keys have shape {self.keys.shape}")
        if len(self.ids) != self.keys.shape[0] or len(self.origins) != self.keys.shape[0]:
            raise DimensionError("bank fields disagree on entry count")
        self._index = {sid: i for i, sid in enumerate(self.ids)}
        if len(self._index) != len(self.ids):
            raise DimensionError("duplicate sample ids in bank")

    def __len__(self) -> int:
        return len(self.ids)

    def row_of(self, sample_id) -> int:
        try:
            return self._index[sample_id]
        except KeyError:
            raise MissingEntryError(f"sample id {sample_id!r} not in bank") from None


def init_bank(params, pools) -> FeatureBank:
    """Build a bank from (ids, inputs, origin) pools using a frozen snapshot.

    pools: iterable of (ids, inputs, origin_tag) triples.  Every id must be
    globally unique across pools.
    """
    all_ids, all_origins, blocks = [], [], []
    for ids, inputs, origin in pools:
        inputs = np.asarray(inputs, dtype=np.float64)
        if len(ids) != inputs.shape[0]:
            raise DimensionError("pool ids and inputs disagree on sample count")
        if inputs.shape[0] == 0:
            continue
        all_ids.extend(ids)
        all_origins.extend([origin] * inputs.shape[0])
        blocks.append(model_mod.encode_project_batch(params, inputs))
    keys = (np.concatenate(blocks, axis=0) if blocks
            else np.zeros((0, params.config.embed_dim)))
    return FeatureBank(embed_dim=params.config.embed_dim,
                       ids=all_ids, keys=keys, origins=all_origins)


def momentum_update(bank: FeatureBank, sample_ids, embeddings,
                    momentum: float = DEFAULT_MOMENTUM) -> FeatureBank:
    """Blend stored keys toward fresh unit embeddings and re-normalize.

    k <- m*k + (1-m)*q, then k <- k/||k||.  Mutates the bank in place and
    returns it.  The blend of two unit vectors only vanishes when m = 1/2 and
    q = -k exactly; that degenerate case raises rather than storing a zero key.
    """
    if not (0.0 <= momentum <= 1.0):
        raise DegenerateInputError(f"momentum {momentum} outside [0, 1]")
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or embeddings.shape[1] != bank.embed_dim:
        raise DimensionError(f"embeddings have shape {embeddings.shape}")
    if len(sample_ids) != embeddings.shape[0]:
        raise DimensionError("ids and embeddings disagree on sample count")
    rows = [bank.row_of(s) for s in sample_ids]
    blended = momentum * bank.keys[rows] + (1.0 - momentum) * embeddings
    norms = np.linalg.norm(blended, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise DegenerateInputError("momentum blend produced a zero key")
    bank.keys[rows] = blended / norms
    return bank


def negative_rows(bank: FeatureBank, own: np.ndarray, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """For each bank row in own, `count` distinct other rows drawn uniformly.

    Row i of the result is rng.choice(N - 1, count, replace=False) with every
    index at or past own[i] shifted up by one: the same rows, from the same
    stream, as a draw among the bank's rows with own[i] deleted.  Raises when
    the bank has fewer than count other entries.
    """
    n = len(bank)
    if n - 1 < count:
        raise InsufficientNegativesError(
            f"bank holds {n - 1} candidate negatives, need {count}")
    rows = np.empty((len(own), count), dtype=np.int64)
    for i in range(len(own)):
        rows[i] = rng.choice(n - 1, size=count, replace=False)
    return rows + (rows >= own[:, None])


def export_bank_csv(bank: FeatureBank, path) -> None:
    """Write id, origin and key coordinates; floats via repr for exactness."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "origin"] + [f"k{j}" for j in range(bank.embed_dim)])
        for i, sid in enumerate(bank.ids):
            writer.writerow([sid, bank.origins[i]]
                            + [repr(float(v)) for v in bank.keys[i]])
