"""Synthetic 2-D domain sequences with a shared label space.

A sequence is one labeled source domain followed by unlabeled targets drawn
from the same base shape, Gaussian blobs on a circle or two moons, under a
per-domain affine change: rotation about the origin, isotropic scale,
translation.  Splits are stratified so every class
appears on both sides.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError

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


@dataclass(frozen=True)
class Dataset:
    ids: list
    X: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class Domain:
    index: int
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
        return Dataset(ids=[f"d{index}:{i:05d}" for i in idx.tolist()],
                       X=X[idx], y=y[idx])

    return Domain(index=index, spec=spec, train=take(train_idx), holdout=take(hold_idx))


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


def export_domain_csv(domain: Domain, path) -> None:
    """id, split, label, coordinates; floats via repr for exact round-trip."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "split", "label", "x0", "x1"])
        for split_name, ds in (("train", domain.train), ("holdout", domain.holdout)):
            for i, sid in enumerate(ds.ids):
                writer.writerow([sid, split_name, int(ds.y[i])]
                                + [repr(float(v)) for v in ds.X[i]])


def import_domain_csv(path, index: int, spec: DomainSpec) -> Domain:
    """Domain of a CSV written by export_domain_csv; both splits must hold
    rows, and every row must be as wide as the header and carry a label in
    [0, spec.n_classes)."""
    rows = {"train": ([], [], []), "holdout": ([], [], [])}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:3] != ["id", "split", "label"]:
            raise DimensionError(f"unexpected domain csv header {header}")
        for row in reader:
            sid, split_name, label = row[0], row[1], int(row[2])
            if split_name not in rows:
                raise DimensionError(f"unknown split {split_name!r}")
            if len(row) != len(header):
                raise DimensionError(f"row {sid!r} has {len(row)} cells, "
                                     f"the header {len(header)}")
            if not 0 <= label < spec.n_classes:
                raise DegenerateInputError(f"row {sid!r} has label {label}, "
                                           f"outside [0, {spec.n_classes})")
            ids, xs, ys = rows[split_name]
            ids.append(sid)
            xs.append([float(v) for v in row[3:]])
            ys.append(label)

    def build(split_name):
        ids, xs, ys = rows[split_name]
        if not ids:
            raise DegenerateInputError(f"empty {split_name} split")
        return Dataset(ids=ids, X=np.array(xs, dtype=np.float64),
                       y=np.array(ys, dtype=np.int64))

    return Domain(index=index, spec=spec, train=build("train"),
                  holdout=build("holdout"))
