"""Seeded synthetic domain-shift generators and embedding-file ingestion.

The shift family is rotation plus translation of the class geometry: the
cheapest shift where inter-class layout and within-class spread are exactly
known. Target labels are generated but quarantined behind an evaluation-only
accessor so training code cannot touch them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SOURCE = "source"
TARGET = "target"
_DOMAIN_CODES = {SOURCE: "s", TARGET: "t"}
_CODE_DOMAINS = {v: k for k, v in _DOMAIN_CODES.items()}


class ParseError(ValueError):
    """A row of an embedding file could not be parsed."""


class SchemaError(ValueError):
    """An embedding file violates the documented schema."""


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass
class LabeledDataset:
    """Feature matrix with integer labels; -1 marks an unknown label.

    ``y`` on a target dataset exists for evaluation only: training reads the
    source's ``y`` and reaches target labels only through :meth:`eval_labels`,
    to measure accuracy and pseudo-label precision.
    """

    X: np.ndarray
    y: np.ndarray = field(repr=False)
    domain_tag: str
    name: str = ""

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64).reshape(-1)
        if self.X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {self.X.shape}")
        # one whole-array reduction; the per-row one is several times slower
        if not np.isfinite(self.X).all():
            row = int(np.argmin(np.isfinite(self.X).all(axis=1)))
            raise ValueError(f"X row {row} holds a non-finite value: {self.X[row].tolist()}")
        if self.y.shape[0] != self.X.shape[0]:
            raise ValueError(f"{self.y.shape[0]} labels for {self.X.shape[0]} rows")
        if self.domain_tag not in (SOURCE, TARGET):
            raise ValueError(f"domain_tag must be {SOURCE!r} or {TARGET!r}")
        if self.domain_tag == SOURCE and (self.y < 0).any():
            raise ValueError("source datasets must be fully labeled")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        known = self.y[self.y >= 0]
        return int(known.max()) + 1 if known.size else 0

    def eval_labels(self) -> np.ndarray:
        """True labels, for evaluation and measurement harnesses only."""
        return self.y.copy()


@dataclass(frozen=True)
class ShiftSpec:
    """Geometry of a blob benchmark plus the shift applied to the target."""

    k: int = 3
    d: int = 2
    n_per_class: int = 200
    rotation: float = 35.0
    translation: tuple[float, ...] = (1.0, 0.0)
    noise_sigma: float = 0.6
    seed: int = 0

    def __post_init__(self):
        _require_finite(
            rotation=self.rotation, translation=self.translation, noise_sigma=self.noise_sigma
        )
        if self.k < 2:
            raise ValueError(f"need at least 2 classes, got {self.k}")
        if self.d < 2:
            raise ValueError(f"need at least 2 dimensions, got {self.d}")
        if self.n_per_class < 1:
            raise ValueError(f"need at least 1 sample per class, got {self.n_per_class}")
        if self.noise_sigma <= 0:
            raise ValueError(f"noise_sigma must be positive, got {self.noise_sigma}")
        if len(self.translation) > self.d:
            raise ValueError(
                f"translation has {len(self.translation)} components for d={self.d}"
            )


def _rotation_matrix(d: int, degrees: float) -> np.ndarray:
    theta = np.deg2rad(degrees)
    rot = np.eye(d)
    rot[0, 0] = np.cos(theta)
    rot[0, 1] = -np.sin(theta)
    rot[1, 0] = np.sin(theta)
    rot[1, 1] = np.cos(theta)
    return rot


def _padded(vec, d: int) -> np.ndarray:
    out = np.zeros(d)
    out[: len(vec)] = vec
    return out


def gen_blobs(spec: ShiftSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Gaussian class blobs on a circle; the target copy is rotated and shifted.

    Class means sit on the unit circle scaled by 4 (in the first two
    dimensions). Source and target draw independent noise from separate
    seeded streams, so rotation=0, translation=0 yields two samples of the
    same distribution.
    """
    src_seq, tgt_seq = np.random.SeedSequence(spec.seed).spawn(2)
    angles = 2.0 * np.pi * np.arange(spec.k) / spec.k
    means = np.zeros((spec.k, spec.d))
    means[:, 0] = 4.0 * np.cos(angles)
    means[:, 1] = 4.0 * np.sin(angles)
    labels = np.repeat(np.arange(spec.k), spec.n_per_class)

    def draw(seq) -> np.ndarray:
        rng = np.random.default_rng(seq)
        noise = rng.normal(scale=spec.noise_sigma, size=(labels.size, spec.d))
        return means[labels] + noise

    x_src = draw(src_seq)
    x_tgt = draw(tgt_seq) @ _rotation_matrix(spec.d, spec.rotation).T
    x_tgt = x_tgt + _padded(spec.translation, spec.d)
    tag = f"blobs-k{spec.k}-rot{spec.rotation:g}-seed{spec.seed}"
    return (
        LabeledDataset(x_src, labels.copy(), SOURCE, name=f"{tag}-source"),
        LabeledDataset(x_tgt, labels.copy(), TARGET, name=f"{tag}-target"),
    )


def gen_two_moons_shift(
    n_per_class: int, rotation: float, noise_sigma: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Interleaved half-circles; the target copy is rotated about its centroid."""
    _require_finite(rotation=rotation, noise_sigma=noise_sigma)
    if n_per_class < 1:
        raise ValueError(f"need at least 1 sample per class, got {n_per_class}")
    if noise_sigma <= 0:
        raise ValueError(f"noise_sigma must be positive, got {noise_sigma}")
    src_seq, tgt_seq = np.random.SeedSequence(seed).spawn(2)
    labels = np.repeat(np.arange(2), n_per_class)

    def draw(seq) -> np.ndarray:
        rng = np.random.default_rng(seq)
        t = rng.uniform(0.0, np.pi, size=n_per_class)
        outer = np.column_stack([np.cos(t), np.sin(t)])
        t2 = rng.uniform(0.0, np.pi, size=n_per_class)
        inner = np.column_stack([1.0 - np.cos(t2), 0.5 - np.sin(t2)])
        pts = np.vstack([outer, inner])
        return pts + rng.normal(scale=noise_sigma, size=pts.shape)

    x_src = draw(src_seq)
    x_tgt = draw(tgt_seq)
    center = x_tgt.mean(axis=0)
    x_tgt = (x_tgt - center) @ _rotation_matrix(2, rotation).T + center
    tag = f"moons-rot{rotation:g}-seed{seed}"
    return (
        LabeledDataset(x_src, labels.copy(), SOURCE, name=f"{tag}-source"),
        LabeledDataset(x_tgt, labels.copy(), TARGET, name=f"{tag}-target"),
    )


def save_embeddings(dataset: LabeledDataset, path) -> None:
    """Write the documented CSV schema: f0..f{d-1}, label, domain."""
    path = Path(path)
    code = _DOMAIN_CODES[dataset.domain_tag]
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"f{i}" for i in range(dataset.d)] + ["label", "domain"])
        for row, label in zip(dataset.X, dataset.y):
            writer.writerow([repr(float(v)) for v in row] + [int(label), code])


def load_embeddings(path) -> LabeledDataset:
    """Parse an embedding CSV back into a dataset.

    The header fixes the dimension; every row must carry the same domain
    code, and label -1 is only legal for target rows.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        expected_features = [f"f{i}" for i in range(len(header) - 2)]
        if len(header) < 3 or header != expected_features + ["label", "domain"]:
            raise SchemaError(f"{path}: malformed header {header!r}")
        d = len(header) - 2
        rows, labels, domains = [], [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise SchemaError(
                    f"{path}:{line_no}: expected {d + 2} columns, found {len(row)}"
                )
            try:
                rows.append([float(v) for v in row[:d]])
                labels.append(int(row[d]))
            except ValueError as exc:
                raise ParseError(f"{path}:{line_no}: {exc}") from None
            domain_code = row[d + 1].strip()
            if domain_code not in _CODE_DOMAINS:
                raise SchemaError(f"{path}:{line_no}: domain must be 's' or 't', got {row[d + 1]!r}")
            if labels[-1] < -1:
                raise SchemaError(f"{path}:{line_no}: label must be >= -1, got {labels[-1]}")
            if labels[-1] == -1 and domain_code != "t":
                raise SchemaError(f"{path}:{line_no}: label -1 is only allowed when domain is 't'")
            domains.append(domain_code)
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    if len(set(domains)) != 1:
        raise SchemaError(f"{path}: mixed domain codes in one file")
    return LabeledDataset(
        X=np.array(rows),
        y=np.array(labels),
        domain_tag=_CODE_DOMAINS[domains[0]],
        name=path.stem,
    )
