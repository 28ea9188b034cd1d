"""Deterministic synthetic datasets, CSV ingestion, and seeded randomness.

All constructors are pure functions of (params, seed). Randomness comes from
counter-based Philox streams: ``substream(seed, name)`` is a fresh generator
keyed by both, so the data, noise, label and init streams are independent and
reproducible; a caller that draws across calls holds its generator. Standard
normals are drawn via the Box-Muller transform from the uniform stream; a
reimplementation with the same transform and key derivation matches them bit-for-bit.
"""

from __future__ import annotations

import csv
import hashlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .checkpoint import write_csv
from .errors import ConfigError, DataError, utf8_only
from .tensor import Tensor

RINGS_NOISE = 0.1  # std of the rings' radial noise
TEST_FRACTION = 0.2  # share of each class held out by stratified_split


def substream(seed: int, name: str) -> np.random.Generator:
    """A fresh Philox generator keyed by the first 16 bytes, little-endian, of
    sha256("{seed}:{name}"), so one (seed, name) pair always replays one stream."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest[:16], "little")))


def box_muller(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals from uniforms: r = sqrt(-2 ln u1), angle 2*pi*u2."""
    n = math.prod(shape)
    m = (n + 1) // 2
    u1 = 1.0 - gen.random(m)  # (0, 1]; keeps the log finite
    u2 = gen.random(m)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return z[:n].reshape(shape)


@dataclass
class Dataset:
    features: np.ndarray  # [N, d] float64
    labels: np.ndarray  # [N] int
    provenance: str

    @property
    def num_samples(self) -> int:
        return int(self.features.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])


def stratified_split(features: np.ndarray, labels: np.ndarray, provenance: str,
                     gen: np.random.Generator):
    """80/20 split with every class represented in both halves."""
    train_idx, test_idx = [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        gen.shuffle(idx)
        n_test = max(1, int(round(TEST_FRACTION * idx.size)))
        test_idx.extend(idx[:n_test])
        train_idx.extend(idx[n_test:])
    train_idx = np.sort(np.asarray(train_idx))
    test_idx = np.sort(np.asarray(test_idx))
    train = Dataset(features[train_idx], labels[train_idx], provenance)
    test = Dataset(features[test_idx], labels[test_idx], provenance)
    return train, test


def make_blobs(num_classes: int, per_class: int, dim: int, spread: float,
               seed: int) -> tuple[Dataset, Dataset]:
    """Gaussian clusters at fixed, well-separated centers.

    Centers sit on a circle of radius 4 in the first two coordinates (zero
    elsewhere), so class geometry is deterministic and simplex-like.
    ``RunConfig`` checks the ranges: ``num_classes >= 2``, ``per_class >= 5``
    (for the 80/20 split), ``dim >= 2`` and a finite ``spread > 0``.
    """
    gen = substream(seed, "data")
    centers = np.zeros((num_classes, dim))
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    centers[:, 0] = 4.0 * np.cos(angles)
    centers[:, 1] = 4.0 * np.sin(angles)

    features = np.concatenate(
        [centers[c] + spread * box_muller(gen, (per_class, dim)) for c in range(num_classes)]
    )
    labels = np.repeat(np.arange(num_classes), per_class)
    provenance = f"blobs(C={num_classes},per_class={per_class},d={dim},spread={spread},seed={seed})"
    return stratified_split(features, labels, provenance, gen)


def make_rings(num_classes: int, per_class: int, seed: int) -> tuple[Dataset, Dataset]:
    """Concentric 2-D annuli; radius grows with class index, so the class is
    recoverable from the norm but not by any linear classifier. ``RunConfig``
    checks ``num_classes >= 2`` and ``per_class >= 5``."""
    gen = substream(seed, "data")
    rows = []
    for c in range(num_classes):
        radius = 1.0 + c
        theta = 2.0 * np.pi * gen.random(per_class)
        r = radius + RINGS_NOISE * box_muller(gen, (per_class,))
        rows.append(np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1))
    features = np.concatenate(rows)
    labels = np.repeat(np.arange(num_classes), per_class)
    provenance = f"rings(C={num_classes},per_class={per_class},seed={seed},noise={RINGS_NOISE})"
    return stratified_split(features, labels, provenance, gen)


def standardize(ds: Dataset) -> tuple[Dataset, tuple[np.ndarray, np.ndarray]]:
    """Column-wise mean-0/std-1; constant columns become zero with a warning."""
    mean = ds.features.mean(axis=0)
    std = ds.features.std(axis=0)
    constant = std < 1e-12
    if np.any(constant):
        warnings.warn(
            f"{int(constant.sum())} constant feature column(s) standardized to zero"
        )
    safe_std = np.where(constant, 1.0, std)
    stats = (mean, safe_std)
    return apply_standardization(ds, stats), stats


def apply_standardization(ds: Dataset, stats: tuple[np.ndarray, np.ndarray]) -> Dataset:
    mean, std = stats
    return Dataset((ds.features - mean) / std, ds.labels.copy(), ds.provenance)


def save_csv(ds: Dataset, path, label_column: str = "label") -> None:
    # Python floats and ints: formatting them skips a numpy scalar per value
    write_csv(path, ([*row, int(label)]
                     for row, label in zip(ds.features.tolist(), ds.labels.tolist())),
              header=[f"x{i}" for i in range(ds.dim)] + [label_column])


def load_csv(path, label_column: str = "label",
             stats: tuple[np.ndarray, np.ndarray] | None = None) -> Dataset:
    """Parse a comma-separated UTF-8 file with a header row into a dataset;
    a leading byte-order mark, as spreadsheet exports write, is dropped.

    Every value must be a finite number and every label a non-negative
    integer below 2**63; a row that breaks this, or a byte that is not
    UTF-8, raises DataError naming the file (and the line, for a row).

    If ``stats`` is given those (train-split) statistics are applied, and a
    file with another feature count raises DataError; otherwise the rows
    are returned as they are in the file.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh, utf8_only(path, DataError):
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for i, name in enumerate(header):
            if name in header[:i]:
                raise DataError(f"{path}: column {name!r} appears twice in the header")
        if label_column not in header:
            raise ConfigError(f"{path}: no column named {label_column!r} in header")
        label_idx = header.index(label_column)
        feature_idx = [i for i in range(len(header)) if i != label_idx]
        if stats is not None and len(feature_idx) != len(stats[0]):
            raise DataError(f"{path}: {len(feature_idx)} feature columns, but the "
                            f"standardization statistics have {len(stats[0])}")

        rows = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise DataError(f"{path}:{line_no}: non-numeric row") from None

    if not rows:
        raise DataError(f"{path}: no data rows after the header")
    table = np.asarray(rows)
    finite = np.isfinite(table)
    if not finite.all():  # name the first line that holds a NaN or an infinity
        raise DataError(f"{path}:{int(np.argmin(finite.all(axis=1))) + 2}: non-finite value")
    labels = table[:, label_idx]
    bad = ~((labels >= 0.0) & (labels == np.trunc(labels)) & (labels < 2.0 ** 63))
    if bad.any():
        i = int(bad.argmax())
        kind = "negative" if labels[i] < 0.0 else "non-integer or oversized"
        raise DataError(f"{path}:{i + 2}: {kind} label {float(labels[i])}")
    ds = Dataset(table[:, feature_idx], labels.astype(np.int64), f"csv({path})")
    return ds if stats is None else apply_standardization(ds, stats)


def sample_noise_and_labels(noise: np.random.Generator, labels: np.random.Generator,
                            batch: int, noise_dim: int, num_classes: int) -> tuple[Tensor, Tensor]:
    """Draw z ~ N(0,1) from ``noise`` and uniform one-hot labels from ``labels``."""
    z = box_muller(noise, (batch, noise_dim))
    classes = labels.integers(0, num_classes, size=batch)
    y = np.zeros((batch, num_classes))
    y[np.arange(batch), classes] = 1.0
    return Tensor(z), Tensor(y)
