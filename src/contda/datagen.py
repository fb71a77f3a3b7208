"""Synthetic 2-D domain sequences with a shared label space.

A sequence is one labeled source domain followed by unlabeled targets drawn
from the same base shape, Gaussian blobs on a circle or two moons, under a
per-domain affine change: rotation about the origin, isotropic scale,
translation.  Splits are stratified so every class
appears on both sides.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError

SPLIT_FRACTION = 0.8

KIND_BLOBS = "gaussian-blobs"
KIND_MOONS = "two-moons"
KINDS = (KIND_BLOBS, KIND_MOONS)


@dataclass(frozen=True)
class DomainSpec:
    kind: str
    n_classes: int
    per_class: int
    rotation_deg: float = 0.0
    scale: float = 1.0
    translation: tuple = (0.0, 0.0)
    radius: float = 2.0
    std: float = 0.3

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DegenerateInputError(f"unknown domain kind {self.kind!r}")
        if self.kind == KIND_MOONS and self.n_classes != 2:
            raise DegenerateInputError("two-moons is a binary shape")
        if self.per_class < 2:
            raise DegenerateInputError("need at least two samples per class")
        if self.scale == 0.0:
            raise DegenerateInputError("zero scale collapses the domain")


class RowIds(Sequence):
    """Read-only ids "d<domain>:<row>" of a generated split's sorted rows,
    each formatted only when it is read; equal to the list of its strings."""

    def __init__(self, domain: int, rows: np.ndarray):
        self._domain, self._rows = domain, rows

    def __len__(self) -> int:
        return self._rows.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(RowIds(self._domain, self._rows[i]))
        return f"d{self._domain}:{int(self._rows[i]):05d}"

    def __iter__(self):
        return (f"d{self._domain}:{r:05d}" for r in self._rows.tolist())

    def __eq__(self, other):
        if not isinstance(other, (list, RowIds)):
            return NotImplemented
        return list(self) == list(other)


@dataclass(frozen=True)
class Dataset:
    ids: Sequence
    X: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class Domain:
    spec: DomainSpec
    train: Dataset
    holdout: Dataset


def _base_blobs(spec, rng):
    angles = 2.0 * np.pi * np.arange(spec.n_classes) / spec.n_classes
    means = spec.radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    X = np.concatenate([means[c] + spec.std * rng.standard_normal((spec.per_class, 2))
                        for c in range(spec.n_classes)])
    y = np.repeat(np.arange(spec.n_classes), spec.per_class)
    return X, y


def _base_moons(spec, rng):
    t = rng.uniform(0.0, np.pi, size=spec.per_class)
    upper = np.stack([np.cos(t), np.sin(t)], axis=1)
    t = rng.uniform(0.0, np.pi, size=spec.per_class)
    lower = np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=1)
    X = np.concatenate([upper, lower]) + spec.std * rng.standard_normal((2 * spec.per_class, 2))
    y = np.repeat(np.arange(2), spec.per_class)
    return X, y


_BASES = {KIND_BLOBS: _base_blobs, KIND_MOONS: _base_moons}


def rotation_matrix(degrees: float) -> np.ndarray:
    r = np.deg2rad(degrees)
    c, s = np.cos(r), np.sin(r)
    return np.array([[c, -s], [s, c]])


def generate_domain(spec: DomainSpec, index: int, rng: np.random.Generator) -> Domain:
    """Sample the base shape, apply the domain transform, split stratified."""
    X, y = _BASES[spec.kind](spec, rng)
    X = spec.scale * (X @ rotation_matrix(spec.rotation_deg).T) \
        + np.asarray(spec.translation, dtype=np.float64)

    train_idx, hold_idx = [], []
    for c in range(spec.n_classes):
        members = np.flatnonzero(y == c)
        members = members[rng.permutation(members.size)]
        cut = int(SPLIT_FRACTION * members.size)
        if cut == 0 or cut == members.size:
            raise DegenerateInputError("split leaves a class empty on one side")
        train_idx.append(members[:cut])
        hold_idx.append(members[cut:])

    def take(parts):
        # rows in index order; fancy indexing copies X and y
        idx = np.sort(np.concatenate(parts))
        return Dataset(ids=RowIds(index, idx), X=X[idx], y=y[idx])

    return Domain(spec=spec, train=take(train_idx), holdout=take(hold_idx))


def generate_sequence(specs, seed: int):
    """One Domain per spec, each sampled from an independent child stream."""
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(len(specs))
    return [generate_domain(spec, i, np.random.default_rng(children[i]))
            for i, spec in enumerate(specs)]


def preset_specs(name: str):
    """Named domain sequences used by the command line and the test-bed."""
    if name == "rot-blobs-5":
        # progressive rotation with one translated late domain: the shift
        # carries two of the four clusters across the source class layout,
        # so pseudo-labels of memories built there are systematically wrong
        # for about half the samples while earlier memories stay clean
        shifts = [(0.0, (0.0, 0.0)), (15.0, (0.0, 0.0)), (30.0, (0.0, 0.0)),
                  (35.0, (0.0, 1.0)), (50.0, (0.0, 0.0))]
        return [DomainSpec(kind=KIND_BLOBS, n_classes=4, per_class=500,
                           rotation_deg=rot, translation=tr,
                           radius=2.0, std=0.40)
                for rot, tr in shifts]
    if name == "moons-4":
        rotations = [0.0, 25.0, 50.0, 75.0]
        return [DomainSpec(kind=KIND_MOONS, n_classes=2, per_class=400,
                           rotation_deg=r, std=0.12)
                for r in rotations]
    raise DegenerateInputError(f"unknown preset {name!r}")


PRESETS = ("rot-blobs-5", "moons-4")

