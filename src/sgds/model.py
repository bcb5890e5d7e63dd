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

    def mlp(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(pre-activation x w1 + b1, MLP output ReLU(pre) w2 + b2)."""
        pre = x @ self.w1 + self.b1
        return pre, np.maximum(pre, 0.0) @ self.w2 + self.b2


@dataclass(frozen=True)
class FrozenBackbone:
    num_blocks: int
    width: int
    blocks: tuple[Block, ...]

    @classmethod
    def create(cls, num_blocks: int, width: int) -> "FrozenBackbone":
        blocks = []
        for l in range(num_blocks):
            rng = stream_rng(BACKBONE_SEED, TAG_BACKBONE, l)
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


def block_forward(x: np.ndarray, block: Block,
                  adapter_weights: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> np.ndarray:
    """x + MLP(x) + ReLU(x W_down) W_up."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != block.w1.shape[0]:
        raise ContractViolation("activation width does not match block width")
    out = x + block.mlp(x)[1]
    if adapter_weights is not None:
        out = out + adapter_term(x, adapter_weights)[1]
    return out


def adapter_term(x: np.ndarray, adapter_weights: tuple[np.ndarray, np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(z = x W_down, ReLU(z) W_up): the residual an adapter adds to a block."""
    w_down, w_up = adapter_weights
    if w_down.shape[0] != x.shape[-1]:
        raise ContractViolation("adapter width does not match activation")
    z = x @ w_down
    return z, np.maximum(z, 0.0) @ w_up


def extract(x: np.ndarray, backbone: FrozenBackbone,
            adapters: list[Adapter | None], target_layers: tuple[int, ...],
            mask_hook=None) -> list[np.ndarray]:
    """Run the backbone under each adapter; returns one φ(x) per entry.

    A ``None`` entry is the bare backbone.  ``mask_hook(layer, x) -> x`` is
    applied only at target layers, to the activation before it is fed to the
    block.  Up to the first layer that is a target or holds adapter weights
    every entry sees the same activation, so the blocks before it, the hook
    there and that block's frozen ``x + MLP(x)`` run once; the adapter terms
    and the later blocks run per entry.  Each output is the same floats as a
    pass with that entry alone: every matmul sees the same operands.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ContractViolation("empty input")
    if any(l < 0 or l >= backbone.num_blocks for l in target_layers):
        raise ContractViolation("target layer out of range")
    weights = [{} if a is None else a.layers for a in adapters]
    split = min((*target_layers, *(l for w in weights for l in w),
                 backbone.num_blocks))
    a = x
    for block in backbone.blocks[:split]:
        a = block_forward(a, block)
    if split == backbone.num_blocks:
        return [a] * len(weights)
    if mask_hook is not None and split in target_layers:
        a = mask_hook(split, a)
    base = block_forward(a, backbone.blocks[split])
    feats = []
    for w in weights:
        h = base + adapter_term(a, w[split])[1] if split in w else base
        for l in range(split + 1, backbone.num_blocks):
            if mask_hook is not None and l in target_layers:
                h = mask_hook(l, h)
            h = block_forward(h, backbone.blocks[l], w.get(l))
        feats.append(h)
    return feats


def merge_universal(adapters: list[Adapter]) -> Adapter:
    """Coordinate-wise sign-of-sum × max-magnitude fusion of all adapters."""
    if not adapters:
        raise ContractViolation("need at least one adapter to merge")
    ref = adapters[0]
    if any(a.target_layers != ref.target_layers or a.rank != ref.rank
           for a in adapters):
        raise ContractViolation("adapters must share shape to merge")
    layers = {}
    for l in ref.target_layers:
        stacks = [np.stack(ws) for ws in zip(*(a.layers[l] for a in adapters))]
        layers[l] = tuple(np.sign(s.sum(axis=0)) * np.abs(s).max(axis=0)
                          for s in stacks)
    return Adapter(-1, ref.rank, layers)


def layer_bitmap(layers) -> int:
    """The u64 target-layer bitmap of the SGDSADP1 and SGDSSTA1 headers."""
    if any(not 0 <= l < 64 for l in layers):
        raise ContractViolation(f"target layers {tuple(layers)} do not fit "
                                "a 64-bit layer bitmap (0..63)")
    return sum(1 << l for l in set(layers))


def save_adapter(path, adapter: Adapter, num_blocks: int, d: int) -> None:
    """SGDSADP1 checkpoint: header then row-major float64 matrices per layer."""
    bitmap = layer_bitmap(adapter.target_layers)
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
        self.floats = []  # (offset, field, values) of each float array read

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
        start = self._take(dtype.itemsize * count, what)
        a = np.frombuffer(self.blob, dtype=dtype, count=count, offset=start)
        if dtype.kind == "f":
            self.floats.append((start, what, a))
        return a.copy()

    def end(self) -> None:
        if self.off != len(self.blob):
            raise FormatError(f"{self.name}: {len(self.blob) - self.off} "
                              "bytes past the end of the data", self.off)
        # one finiteness check per file; only a failure looks for the field
        arrays = [a for _, _, a in self.floats]
        if arrays and not np.isfinite(np.concatenate(arrays)).all():
            start, what, a = next(f for f in self.floats if not np.isfinite(f[2]).all())
            raise FormatError(f"{self.name}: non-finite {what}",
                              start + int(np.isfinite(a).argmin()) * a.itemsize)


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
