"""On-disk state checkpoints: adapters, classifier/Gaussian blob, counters."""
from __future__ import annotations

import os
import struct

import numpy as np

from .model import (BlobReader, FrozenBackbone, layer_bitmap, load_adapter,
                    save_adapter)
from .numerics import ContractViolation, FormatError
from .training import ContinualState

STATS_MAGIC = b"SGDSSTA1"
STATS_VERSION = 1


def save_state(dirpath, state: ContinualState) -> None:
    os.makedirs(dirpath, exist_ok=True)
    for i, adapter in enumerate(state.adapters):
        save_adapter(os.path.join(dirpath, f"adapter_{i:03d}.sgdsadp"),
                     adapter, state.backbone.num_blocks, state.backbone.width)
    d = state.backbone.width
    bitmap = layer_bitmap(state.target_layers)
    with open(os.path.join(dirpath, "stats.bin"), "wb") as f:
        f.write(STATS_MAGIC)
        f.write(struct.pack("<IIIQdB", STATS_VERSION, len(state.class_ids), d,
                            bitmap, state.k, int(state.masked)))
        for row, c in enumerate(state.class_ids):
            mean, var = state.class_stats[c]
            f.write(struct.pack("<I", c))
            f.write(np.ascontiguousarray(mean, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(var, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(state.classifier[row], dtype="<f8").tobytes())
    state.counters.dump_csv(os.path.join(dirpath, "counters.csv"))


def load_state(dirpath, backbone: FrozenBackbone) -> ContinualState:
    """Read a checkpoint directory, checking every file against the backbone."""
    r = BlobReader(os.path.join(dirpath, "stats.bin"), STATS_MAGIC)
    version, n_classes, d, bitmap, k, masked = r.unpack("<IIIQdB", "header")
    if version != STATS_VERSION:
        raise ContractViolation(f"unsupported stats version {version}")
    if masked not in (0, 1):
        raise FormatError(f"{r.name}: masking byte must be 0 or 1, got {masked}",
                          36)
    if d != backbone.width:
        raise ContractViolation("checkpoint width does not match backbone")
    target_layers = tuple(l for l in range(64) if bitmap & (1 << l))
    class_ids, class_stats, rows = [], {}, []
    for _ in range(n_classes):
        (c,) = r.unpack("<I", "class id")
        if c in class_stats:
            raise FormatError(f"{r.name}: class {c} given twice", r.off - 4)
        mean = r.array("<f8", d, f"mean of class {c}")
        var = r.array("<f8", d, f"variance of class {c}")
        rows.append(r.array("<f8", d, f"classifier row of class {c}"))
        class_ids.append(int(c))
        class_stats[int(c)] = (mean, var)
    r.end()
    state = ContinualState(
        backbone=backbone, target_layers=target_layers, k=k,
        masked=bool(masked),
        classifier=np.stack(rows) if rows else np.zeros((0, d)),
        class_ids=class_ids, class_stats=class_stats,
    )
    names = sorted(n for n in os.listdir(dirpath) if n.endswith(".sgdsadp"))
    if not names:
        raise ContractViolation(f"{dirpath}: no adapter_*.sgdsadp file")
    for name in names:
        adapter, num_blocks, ad = load_adapter(os.path.join(dirpath, name))
        if adapter.task_id != len(state.adapters):
            raise ContractViolation(
                f"{name}: adapter of task {adapter.task_id}, expected task "
                f"{len(state.adapters)} (task ids must run 0..T-1 in file order)")
        if (num_blocks, ad) != (backbone.num_blocks, backbone.width):
            raise ContractViolation(
                f"{name}: adapter for {num_blocks} blocks of width {ad}, "
                f"backbone has {backbone.num_blocks} of width {backbone.width}")
        if adapter.target_layers != target_layers:
            raise ContractViolation(
                f"{name}: adapter layers {adapter.target_layers} differ from "
                f"stats.bin layers {target_layers}")
        if state.adapters and adapter.rank != state.adapters[0].rank:
            raise ContractViolation(f"{name}: adapter rank {adapter.rank} "
                                    f"differs from {state.adapters[0].rank}")
        state.adapters.append(adapter)
    return state
