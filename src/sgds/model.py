"""Frozen residual-MLP backbone, per-task bottleneck adapters, fusion, adapter files."""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .numerics import ContractViolation, FormatError
from .rng import TAG_ADAPTER, TAG_BACKBONE, stream_rng

ADP_MAGIC = b"SGDSADP1"
BACKBONE_SEED = 0x5AC5  # backbone is a fixed function of (num_blocks, width)


@dataclass(frozen=True)
class Block:
    w1: np.ndarray  # (d, d)
    b1: np.ndarray  # (d,)
    w2: np.ndarray  # (d, d)
    b2: np.ndarray  # (d,)

    def mlp(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x @ self.w1 + self.b1, 0.0) @ self.w2 + self.b2


@dataclass(frozen=True)
class FrozenBackbone:
    num_blocks: int
    width: int
    blocks: tuple[Block, ...]

    @classmethod
    def create(cls, num_blocks: int, width: int,
               seed: int = BACKBONE_SEED) -> "FrozenBackbone":
        blocks = []
        for l in range(num_blocks):
            rng = stream_rng(seed, TAG_BACKBONE, l)
            s1 = 1.0 / np.sqrt(width)
            s2 = 0.5 / np.sqrt(width)
            blocks.append(Block(
                w1=rng.normal(scale=s1, size=(width, width)),
                b1=np.zeros(width),
                w2=rng.normal(scale=s2, size=(width, width)),
                b2=np.zeros(width),
            ))
        return cls(num_blocks, width, tuple(blocks))


@dataclass
class Adapter:
    """Bottleneck weights for one task, one (W_down, W_up) pair per target layer."""

    task_id: int
    rank: int
    layers: dict[int, tuple[np.ndarray, np.ndarray]]  # layer -> (W_down, W_up)

    @classmethod
    def create(cls, task_id: int, d: int, rank: int,
               target_layers: tuple[int, ...], seed: int) -> "Adapter":
        if rank > d // 2:
            raise ContractViolation("adapter rank must be <= d/2")
        layers = {}
        for l in sorted(target_layers):
            rng = stream_rng(seed, TAG_ADAPTER, task_id, l)
            w_down = rng.normal(scale=1.0 / np.sqrt(d), size=(d, rank))
            w_up = np.zeros((rank, d))  # task starts as an exact no-op
            layers[l] = (w_down, w_up)
        return cls(task_id, rank, layers)

    @property
    def target_layers(self) -> tuple[int, ...]:
        return tuple(sorted(self.layers))

    def flatten(self) -> np.ndarray:
        parts = []
        for l in self.target_layers:
            wd, wu = self.layers[l]
            parts.extend([wd.ravel(), wu.ravel()])
        return np.concatenate(parts)

    def with_flat(self, flat: np.ndarray) -> "Adapter":
        layers = {}
        off = 0
        for l in self.target_layers:
            wd, wu = self.layers[l]
            layers[l] = (flat[off:off + wd.size].reshape(wd.shape).copy(),
                         flat[off + wd.size:off + wd.size + wu.size].reshape(wu.shape).copy())
            off += wd.size + wu.size
        return Adapter(self.task_id, self.rank, layers)


def block_forward(x: np.ndarray, block: Block,
                  adapter_weights: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> np.ndarray:
    """x + MLP(x) + ReLU(x W_down) W_up."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != block.w1.shape[0]:
        raise ContractViolation("activation width does not match block width")
    out = x + block.mlp(x)
    if adapter_weights is not None:
        w_down, w_up = adapter_weights
        if w_down.shape[0] != x.shape[-1]:
            raise ContractViolation("adapter width does not match activation")
        out = out + np.maximum(x @ w_down, 0.0) @ w_up
    return out


def extract(x: np.ndarray, backbone: FrozenBackbone,
            adapter: Adapter | None, target_layers: tuple[int, ...],
            mask_hook=None) -> np.ndarray:
    """Run the backbone; returns the final-block features φ(x).

    ``mask_hook(layer, x) -> x`` is applied only at target layers, to the
    activation before it is fed to the block.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ContractViolation("empty input")
    if any(l < 0 or l >= backbone.num_blocks for l in target_layers):
        raise ContractViolation("target layer out of range")
    a = x
    for l, block in enumerate(backbone.blocks):
        weights = adapter.layers.get(l) if adapter is not None else None
        if mask_hook is not None and l in target_layers:
            a = mask_hook(l, a)
        a = block_forward(a, block, weights)
    return a


def merge_universal(adapters: list[Adapter]) -> Adapter:
    """Coordinate-wise sign-of-sum × max-magnitude fusion of all adapters."""
    if not adapters:
        raise ContractViolation("need at least one adapter to merge")
    ref = adapters[0]
    flats = []
    for a in adapters:
        if a.target_layers != ref.target_layers or a.rank != ref.rank:
            raise ContractViolation("adapters must share shape to merge")
        flats.append(a.flatten())
    stack = np.stack(flats)
    merged = np.sign(stack.sum(axis=0)) * np.abs(stack).max(axis=0)
    out = ref.with_flat(merged)
    out.task_id = -1
    return out


def save_adapter(path, adapter: Adapter, num_blocks: int, d: int) -> None:
    """SGDSADP1 checkpoint: header then row-major float64 matrices per layer."""
    bitmap = 0
    for l in adapter.target_layers:
        bitmap |= 1 << l
    with open(path, "wb") as f:
        f.write(ADP_MAGIC)
        f.write(struct.pack("<iIIIQ", adapter.task_id, num_blocks, d,
                            adapter.rank, bitmap))
        for l in adapter.target_layers:
            wd, wu = adapter.layers[l]
            f.write(np.ascontiguousarray(wd, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(wu, dtype="<f8").tobytes())


class BlobReader:
    """Bounds-checked little-endian reads through the bytes of one file."""

    def __init__(self, path, magic: bytes):
        with open(path, "rb") as f:
            self.blob = f.read()
        self.name = os.path.basename(path)
        if self.blob[:len(magic)] != magic:
            raise FormatError(f"{self.name}: bad magic", 0)
        self.off = len(magic)

    def _take(self, n: int, what: str) -> int:
        start = self.off
        if len(self.blob) - start < n:
            raise FormatError(f"{self.name}: truncated {what}", start)
        self.off += n
        return start

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, self.blob,
                                  self._take(struct.calcsize(fmt), what))

    def array(self, dtype, count: int, what: str) -> np.ndarray:
        dtype = np.dtype(dtype)
        return np.frombuffer(self.blob, dtype=dtype, count=count,
                             offset=self._take(dtype.itemsize * count, what)).copy()

    def end(self) -> None:
        if self.off != len(self.blob):
            raise FormatError(f"{self.name}: {len(self.blob) - self.off} "
                              "bytes past the end of the data", self.off)


def load_adapter(path) -> tuple[Adapter, int, int]:
    """Read an SGDSADP1 file; returns (adapter, num_blocks, d)."""
    r = BlobReader(path, ADP_MAGIC)
    task_id, num_blocks, d, rank, bitmap = r.unpack("<iIIIQ", "header")
    layers = {}
    for l in range(64):
        if bitmap & (1 << l):
            wd = r.array("<f8", d * rank, f"W_down of layer {l}")
            wu = r.array("<f8", rank * d, f"W_up of layer {l}")
            layers[l] = (wd.reshape(d, rank), wu.reshape(rank, d))
    r.end()
    return Adapter(task_id, rank, layers), num_blocks, d
