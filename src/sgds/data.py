"""Task streams: synthetic Gaussian-mixture classes, embedding files, splits."""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .model import BlobReader
from .numerics import ContractViolation, FormatError
from .rng import TAG_DATA, TAG_SPLIT, stream_rng

EMB_MAGIC = b"SGDSEMB1"


@dataclass
class Task:
    classes: tuple[int, ...]
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


@dataclass
class TaskStream:
    tasks: list[Task]
    input_dim: int

    def __post_init__(self):
        seen: set[int] = set()
        for i, t in enumerate(self.tasks, 1):
            if not len(t.test_y):
                raise ContractViolation(f"task {i} has no test samples")
            cs = set(t.classes)
            if cs & seen:
                raise ContractViolation("task class sets must be disjoint")
            seen |= cs
            for y in np.concatenate([t.train_y, t.test_y]):
                if int(y) not in cs:
                    raise ContractViolation("sample label outside its task's class set")
            if t.train_x.shape[1] != self.input_dim or t.test_x.shape[1] != self.input_dim:
                raise ContractViolation("all tasks must share input_dim")


@dataclass
class SyntheticSpec:
    """Gaussian-mixture stream with grouped (semantically related) classes."""

    groups: int = 4
    classes_per_group: int = 5
    dim: int = 64
    within_group_angle: float = 0.25
    noise_sigma: float = 0.15
    samples_per_class_train: int = 100
    samples_per_class_test: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.noise_sigma <= 0:
            raise ContractViolation("noise_sigma must be positive")
        if self.dim < self.groups:
            raise ContractViolation("dim must be >= groups to orthogonalize bases")

    @property
    def num_classes(self) -> int:
        return self.groups * self.classes_per_group


def split_classes(num_classes: int, num_tasks: int, seed: int) -> list[list[int]]:
    """Seeded Fisher-Yates shuffle of class ids, chunked into equal tasks."""
    if num_classes % num_tasks != 0:
        raise ContractViolation("num_classes must be divisible by num_tasks")
    rng = stream_rng(seed, TAG_SPLIT)
    perm = list(range(num_classes))
    for i in range(num_classes - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    per = num_classes // num_tasks
    return [perm[i * per:(i + 1) * per] for i in range(num_tasks)]


def _class_means(spec: SyntheticSpec) -> np.ndarray:
    """Unit class means: per-group near-orthogonal bases, rotated per class."""
    rng = stream_rng(spec.seed, TAG_DATA, 0)
    raw = rng.normal(size=(spec.groups, spec.dim))
    bases, _ = np.linalg.qr(raw.T)  # columns orthonormal
    bases = bases.T[: spec.groups]
    means = np.empty((spec.num_classes, spec.dim))
    for g in range(spec.groups):
        base = bases[g]
        for k in range(spec.classes_per_group):
            u = rng.normal(size=spec.dim)
            u -= (u @ base) * base
            n = np.linalg.norm(u)
            u = u / n if n > 0 else u
            c = g * spec.classes_per_group + k
            means[c] = np.cos(spec.within_group_angle) * base \
                + np.sin(spec.within_group_angle) * u
    return means


def generate_class_pool(spec: SyntheticSpec):
    """Per-class train/test sample arrays: mean + isotropic Gaussian noise."""
    means = _class_means(spec)
    train, test = {}, {}
    for c in range(spec.num_classes):
        rng = stream_rng(spec.seed, TAG_DATA, 1, c)
        train[c] = means[c] + spec.noise_sigma * rng.normal(
            size=(spec.samples_per_class_train, spec.dim))
        test[c] = means[c] + spec.noise_sigma * rng.normal(
            size=(spec.samples_per_class_test, spec.dim))
    return train, test


def make_task_stream(train: dict, test: dict, dim: int,
                     num_tasks: int, seed: int) -> TaskStream:
    """Assemble a TaskStream from per-class sample dicts via split_classes."""
    partition = split_classes(len(train), num_tasks, seed)
    tasks = []
    for chunk in partition:
        tx = np.concatenate([train[c] for c in chunk])
        ty = np.concatenate([np.full(len(train[c]), c, dtype=np.int64) for c in chunk])
        ex = np.concatenate([test[c] for c in chunk])
        ey = np.concatenate([np.full(len(test[c]), c, dtype=np.int64) for c in chunk])
        tasks.append(Task(tuple(chunk), tx, ty, ex, ey))
    return TaskStream(tasks, dim)


def generate_synthetic(spec: SyntheticSpec, num_tasks: int,
                       split_seed: int) -> TaskStream:
    train, test = generate_class_pool(spec)
    return make_task_stream(train, test, spec.dim, num_tasks, split_seed)


def _emb_record(dim: int) -> np.dtype:
    """One SGDSEMB1 sample: a u32 label, then ``dim`` float32 features."""
    return np.dtype([("label", "<u4"), ("x", "<f4", (dim,))])


def write_embeddings(path, x: np.ndarray, y: np.ndarray, num_classes: int) -> None:
    """Write samples in the SGDSEMB1 little-endian binary layout."""
    x = np.asarray(x, dtype="<f4")
    rec = np.empty(x.shape[0], dtype=_emb_record(x.shape[1]))
    rec["label"] = np.asarray(y, dtype=np.uint32)
    rec["x"] = x
    with open(path, "wb") as f:
        f.write(EMB_MAGIC + struct.pack("<III", x.shape[0], x.shape[1],
                                        num_classes) + rec.tobytes())


def load_embeddings(path):
    """Read an SGDSEMB1 file; returns (x, y, num_classes)."""
    r = BlobReader(path, EMB_MAGIC)
    if len(r.blob) < 20:
        raise FormatError(f"{r.name}: truncated header", len(r.blob))
    num_samples, dim, num_classes = r.unpack("<III", "header")
    if not 0 < dim < 1 << 29:  # a record's byte size must fit a C int
        raise FormatError(f"{r.name}: dim must be in [1, 2^29), got {dim}", 12)
    if num_classes == 0:
        raise FormatError(f"{r.name}: num_classes must be at least 1, got 0", 16)
    record = _emb_record(dim)
    expected = 20 + num_samples * record.itemsize
    if len(r.blob) != expected:
        raise FormatError(f"{r.name}: expected {expected} bytes, got {len(r.blob)}",
                          min(len(r.blob), expected))
    rec = r.array(record, num_samples, "samples")
    bad = np.flatnonzero(rec["label"] >= num_classes)
    if bad.size:
        i = int(bad[0])
        raise FormatError(f"{r.name}: label {rec['label'][i]} >= num_classes "
                          f"{num_classes}", 20 + i * record.itemsize)
    bad = np.flatnonzero(~np.isfinite(rec["x"]).all(axis=1))
    if bad.size:
        i = int(bad[0])
        raise FormatError(f"{r.name}: non-finite feature in sample {i}",
                          20 + i * record.itemsize)
    return rec["x"].astype(np.float64), rec["label"].astype(np.int64), num_classes


def embeddings_to_stream(x: np.ndarray, y: np.ndarray, num_classes: int,
                         num_tasks: int, seed: int,
                         test_per_class: int) -> TaskStream:
    """Split a loaded sample set into per-class train/test and chunk into tasks.

    The last ``test_per_class`` samples of each class (file order) are the
    test split.
    """
    train, test = {}, {}
    for c in range(num_classes):
        xc = x[y == c]
        if len(xc) <= test_per_class:
            raise ContractViolation(f"class {c} has too few samples for the test split")
        train[c] = xc[:-test_per_class] if test_per_class else xc
        test[c] = xc[len(xc) - test_per_class:]
    return make_task_stream(train, test, x.shape[1], num_tasks, seed)
