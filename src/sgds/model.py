"""Frozen residual-MLP backbone, per-task bottleneck adapters, fusion, blob reader."""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .numerics import ContractViolation, FormatError
from .rng import TAG_ADAPTER, TAG_BACKBONE, stream_rng

BACKBONE_SEED = 0x5AC5  # backbone is a fixed function of (num_blocks, width)


@dataclass(frozen=True)
class Block:
    w1: np.ndarray  # (d, d)
    w2: np.ndarray  # (d, d)

    def mlp(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(pre-activation x w1, MLP output ReLU(pre) w2)."""
        pre = x @ self.w1
        return pre, np.maximum(pre, 0.0) @ self.w2


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
                w2=rng.normal(scale=s2, size=(width, width)),
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


def frozen_forward(x: np.ndarray, blocks) -> np.ndarray:
    """``x`` through frozen blocks in order, with no adapter and no mask."""
    for block in blocks:
        x = block_forward(x, block)
    return x


def extract(x: np.ndarray, backbone: FrozenBackbone, adapters: list[Adapter],
            target_layers: tuple[int, ...], mask_hook=None) -> list[np.ndarray]:
    """Run the backbone under each adapter; returns one φ(x) per adapter.

    Every adapter holds weights at exactly ``target_layers``.
    ``mask_hook(layer, x) -> x`` is applied only at target layers, to the
    activation before it is fed to the block.  Up to the first target layer
    every adapter sees the same activation, so the blocks before it, the hook
    there and that block's frozen ``x + MLP(x)`` run once; the adapter terms
    and the later blocks run per adapter.  Each output is the same floats as
    a pass with that adapter alone: every matmul sees the same operands.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ContractViolation("empty input")
    layers = tuple(sorted(target_layers))
    if not layers or layers[0] < 0 or layers[-1] >= backbone.num_blocks:
        raise ContractViolation("target layers empty or out of range")
    if any(a.target_layers != layers for a in adapters):
        raise ContractViolation("adapter layers differ from the target layers")
    first = layers[0]
    a = frozen_forward(x, backbone.blocks[:first])
    if mask_hook is not None:
        a = mask_hook(first, a)
    base = block_forward(a, backbone.blocks[first])
    feats = []
    for adapter in adapters:
        w = adapter.layers
        h = base + adapter_term(a, w[first])[1]
        for l in range(first + 1, backbone.num_blocks):
            if mask_hook is not None and l in w:
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
