"""Per-task training loop, classifier construction, and prototype alignment."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import compute_prototypes
from .inference import embed
from .masking import (ActivationCounters, Phase, SemanticProfile,
                      SparsifierConfig, dispatch_probability,
                      formulate_strategy, relation_distribution,
                      sparsify_and_record)
from .model import Adapter, FrozenBackbone
from .numerics import (ContractViolation, OptimizerState, Tape, backward,
                       sgd_step)
from .rng import TAG_ALIGN, TAG_MASK, TAG_SHUFFLE, stream_rng, stream_uniforms

VAR_FLOOR = 1e-6


@dataclass
class TrainConfig:
    epochs: int = 20
    batch: int = 48
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    sgds_enabled: bool = True
    se_enabled: bool = True
    ac_enabled: bool = True
    param_reg_mode: str = "off"  # off | up | down | both
    param_reg_lambda: float = 0.1
    adapter_rank: int = 16
    align_samples: int = 256
    sparsifier: SparsifierConfig = field(default_factory=SparsifierConfig)

    def __post_init__(self):
        if self.se_enabled and self.ac_enabled and self.epochs < 2:
            raise ContractViolation("need >= 2 epochs when both phases enabled")
        if self.param_reg_mode not in ("off", "up", "down", "both"):
            raise ContractViolation(f"bad param_reg mode {self.param_reg_mode!r}")


@dataclass
class TaskLog:
    profiles: list[SemanticProfile]
    epoch_losses: list[float]
    epoch_phases: list[Phase]


@dataclass
class ContinualState:
    backbone: FrozenBackbone
    target_layers: tuple[int, ...]
    k: float
    masked_inference: bool
    adapters: list[Adapter] = field(default_factory=list)
    classifier: np.ndarray = None
    class_ids: list[int] = field(default_factory=list)
    class_stats: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    frozen_prototypes: dict[int, np.ndarray] = field(default_factory=dict)
    counters: ActivationCounters = None
    task_logs: list[TaskLog] = field(default_factory=list)

    @classmethod
    def create(cls, backbone: FrozenBackbone, cfg: TrainConfig) -> "ContinualState":
        sp = cfg.sparsifier
        return cls(
            backbone=backbone,
            target_layers=tuple(sorted(sp.target_layers)),
            k=sp.k,
            masked_inference=cfg.sgds_enabled,
            classifier=np.zeros((0, backbone.width)),
            counters=ActivationCounters(sp.target_layers, backbone.width),
        )


def build_classifier(prototypes: dict[int, np.ndarray], order) -> np.ndarray:
    """Rows of unit-normalized prototypes, in the given class order."""
    rows = []
    for c in order:
        p = np.asarray(prototypes[c], dtype=np.float64)
        n = np.linalg.norm(p)
        if n == 0.0:
            raise ContractViolation(f"zero prototype for class {c}")
        rows.append(p / n)
    return np.stack(rows) if rows else np.zeros((0, 0))


def expand_head(classifier: np.ndarray, class_ids, new_classes) -> tuple[np.ndarray, list[int]]:
    """Append zero rows for the new classes; old rows stay untouched."""
    for c in new_classes:
        if c in class_ids:
            raise ContractViolation(f"class {c} already present in head")
    extra = np.zeros((len(new_classes), classifier.shape[1]))
    return np.vstack([classifier, extra]), list(class_ids) + list(new_classes)


def fit_class_gaussians(features_by_class: dict[int, np.ndarray]):
    """Per-dimension sample mean and population variance, variance floored."""
    stats = {}
    for c, feats in features_by_class.items():
        feats = np.asarray(feats, dtype=np.float64)
        mean = feats.mean(axis=0)
        var = np.maximum(feats.var(axis=0), VAR_FLOOR)
        stats[c] = (mean, var)
    return stats


def align_old_prototypes(state: ContinualState, new_adapter: Adapter,
                         train_x: np.ndarray, align_samples: int,
                         run_seed: int, task_index: int):
    """Shift old class Gaussians by the mean feature displacement Δ.

    Δ is estimated from current-task inputs through the new vs previous
    adapter; pseudo-features sampled from each stored Gaussian are translated
    by Δ directly in feature space (never re-encoded).
    """
    if not state.adapters:
        return {}
    prev = state.adapters[-1]
    f_new = embed(train_x, state.backbone, new_adapter, state.target_layers,
                  state.k, state.masked_inference)
    f_old = embed(train_x, state.backbone, prev, state.target_layers,
                  state.k, state.masked_inference)
    delta = (f_new - f_old).mean(axis=0)
    aligned = {}
    for c, (mean, var) in state.class_stats.items():
        if align_samples > 0:
            rng = stream_rng(run_seed, TAG_ALIGN, task_index, c)
            pseudo = rng.normal(loc=mean, scale=np.sqrt(var),
                                size=(align_samples, mean.size))
            aligned[c] = (pseudo + delta).mean(axis=0)
        else:
            aligned[c] = mean + delta
    return aligned


def _epoch_phase(epoch: int, total_epochs: int) -> Phase:
    """1-based epochs; exploration covers exactly the first ⌊E/2⌋ epochs."""
    return Phase.EXPLORATION if epoch <= total_epochs // 2 else Phase.COMPACTION


def _epoch_mask_uniforms(run_seed, task_index, epoch, n, batch, layers, width):
    """Mask uniforms for one epoch's ``n`` rows in batch order, per layer.

    Row ``r`` is sample ``r % batch`` of batch ``r // batch``; its uniforms
    are the stream ``(run_seed, TAG_MASK, task, epoch, batch, sample, layer)``.
    """
    r = np.arange(n, dtype=np.uint64)
    keys = np.empty((n, 7), dtype=np.uint64)
    keys[:, :4] = (run_seed % (1 << 64), TAG_MASK, task_index, epoch)
    keys[:, 4], keys[:, 5] = r // np.uint64(batch), r % np.uint64(batch)
    uniforms = {}
    for l in layers:
        keys[:, 6] = l
        uniforms[l] = stream_uniforms(keys, width)
    return uniforms


def build_batch_tape(state, adapter_params, head_new, x, y, col_of, cfg, phase,
                     profiles, prev_adapters, mask_u):
    """Record one batch's forward graph; returns (tape, loss node, leaf names).

    ``mask_u`` maps each target layer to the batch's ``(B, width)`` mask
    uniforms; it is read only when SGDS is enabled.
    """
    tape = Tape()
    leaf_names: dict[int, str] = {}

    def param_leaf(name, arr):
        nid = tape.leaf(arr, trainable=True)
        leaf_names[nid] = name
        return nid

    wd_nodes, wu_nodes = {}, {}
    for l in state.target_layers:
        wd_nodes[l] = param_leaf(f"wd_{l}", adapter_params[l][0])
        wu_nodes[l] = param_leaf(f"wu_{l}", adapter_params[l][1])
    head_node = param_leaf("head_new", head_new)  # (d, n_new)

    masking = cfg.sgds_enabled
    sp = cfg.sparsifier
    a = tape.leaf(x)
    for l, block in enumerate(state.backbone.blocks):
        if l in state.target_layers and masking:
            phase_active = (cfg.se_enabled if phase is Phase.EXPLORATION
                            else cfg.ac_enabled)
            cfg_phase = replace(sp, phase=phase)
            # per-class probabilities from the counter state at batch start
            classes, row_class = np.unique(y, return_inverse=True)
            if phase_active:
                probs = np.stack([dispatch_probability(
                    profiles[int(c)], state.counters, l, cfg_phase)
                    for c in classes])
            else:
                probs = np.ones((len(classes), state.backbone.width))
            out = sparsify_and_record(
                tape.value(a), probs[row_class], sp.k, mask_u[l],
                counters=state.counters, c=y, layer=l, record=True)
            a = tape.mask_mul(a, (out != 0.0).astype(np.float64))
        # frozen MLP path
        h = tape.add(tape.matmul(tape.relu(tape.add(tape.matmul(a, tape.leaf(block.w1)),
                                                    tape.leaf(block.b1))),
                                 tape.leaf(block.w2)),
                     tape.leaf(block.b2))
        out = tape.add(a, h)
        if l in state.target_layers:
            branch = tape.matmul(tape.relu(tape.matmul(a, wd_nodes[l])), wu_nodes[l])
            out = tape.add(out, branch)
        a = out

    labels = np.array([col_of[int(c)] for c in y], dtype=np.int64)
    if state.classifier.shape[0]:
        logits_old = tape.matmul(a, tape.leaf(state.classifier.T))
        logits = tape.concat_cols(logits_old, tape.matmul(a, head_node))
    else:
        logits = tape.matmul(a, head_node)
    loss = tape.softmax_xent_mean(logits, labels)

    if cfg.param_reg_mode != "off" and prev_adapters:
        pen = None
        for l in state.target_layers:
            for prev in prev_adapters:
                pd, pu = prev.layers[l]
                if cfg.param_reg_mode in ("down", "both"):
                    term = tape.sum_squares(tape.matmul(wd_nodes[l], tape.leaf(pd.T)))
                    pen = term if pen is None else tape.add(pen, term)
                if cfg.param_reg_mode in ("up", "both"):
                    term = tape.sum_squares(tape.matmul(wu_nodes[l], tape.leaf(pu.T)))
                    pen = term if pen is None else tape.add(pen, term)
        if pen is not None:
            loss = tape.add(loss, tape.scale(pen, cfg.param_reg_lambda))
    return tape, loss, leaf_names


def _batch_step(*args):
    """One tape forward/backward over a batch; returns (loss, grads by name)."""
    tape, loss, leaf_names = build_batch_tape(*args)
    grads = backward(tape, loss)
    named = {leaf_names[nid]: g for nid, g in grads.items()}
    return float(tape.value(loss)), named


def train_task(state: ContinualState, task, cfg: TrainConfig,
               run_seed: int) -> ContinualState:
    """Train one task's adapter and head rows; updates state in place."""
    if set(task.classes) & set(state.class_ids):
        raise ContractViolation("task classes overlap previously seen classes")
    task_index = len(state.adapters)
    d = state.backbone.width

    # phase 1: semantic strategy formulation on frozen-backbone prototypes
    frozen = compute_prototypes(
        task.train_x, task.train_y,
        lambda xs: embed(xs, state.backbone, None, state.target_layers,
                         state.k, masked=False))
    state.frozen_prototypes.update(frozen)
    old = tuple(state.class_ids)
    pool = {c: state.frozen_prototypes[c] for c in (*old, *task.classes)}
    profiles = {}
    for c in task.classes:
        rel = relation_distribution(c, pool)
        profiles[c] = formulate_strategy(c, rel, old, task.classes)

    for c in task.classes:
        state.counters.ensure_class(c)

    # phase 2: adapter + new-head training
    adapter = Adapter.create(task_index, d, cfg.adapter_rank,
                             state.target_layers, run_seed)
    adapter_params = {l: (adapter.layers[l][0], adapter.layers[l][1])
                      for l in state.target_layers}
    head_new = np.zeros((d, len(task.classes)))
    params = {"head_new": head_new}
    for l in state.target_layers:
        params[f"wd_{l}"] = adapter_params[l][0]
        params[f"wu_{l}"] = adapter_params[l][1]
    col_of = {c: i for i, c in enumerate(state.class_ids)}
    col_of.update({c: len(state.class_ids) + i for i, c in enumerate(task.classes)})

    opt = OptimizerState(base_lr=cfg.lr, momentum=cfg.momentum,
                         weight_decay=cfg.weight_decay, total_epochs=cfg.epochs)
    epoch_losses, epoch_phases = [], []
    n = len(task.train_y)
    for epoch in range(1, cfg.epochs + 1):
        opt.epoch = epoch - 1
        phase = _epoch_phase(epoch, cfg.epochs)
        epoch_phases.append(phase)
        order = stream_rng(run_seed, TAG_SHUFFLE, task_index, epoch).permutation(n)
        epoch_u = (_epoch_mask_uniforms(run_seed, task_index, epoch, n,
                                        cfg.batch, state.target_layers, d)
                   if cfg.sgds_enabled else {})
        losses = []
        for start in range(0, n, cfg.batch):
            idx = order[start:start + cfg.batch]
            mask_u = {l: u[start:start + cfg.batch] for l, u in epoch_u.items()}
            loss, grads = _batch_step(
                state, adapter_params, head_new, task.train_x[idx],
                task.train_y[idx], col_of, cfg, phase, profiles,
                state.adapters, mask_u)
            sgd_step(opt, params, grads)
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))

    # phase 3: statistics, alignment, classifier rebuild
    feats = embed(task.train_x, state.backbone, adapter, state.target_layers,
                  state.k, state.masked_inference)
    new_stats = fit_class_gaussians(
        {c: feats[task.train_y == c] for c in task.classes})
    aligned = align_old_prototypes(state, adapter, task.train_x,
                                   cfg.align_samples, run_seed, task_index)
    for c, mean in aligned.items():
        state.class_stats[c] = (mean, state.class_stats[c][1])
    state.class_stats.update(new_stats)

    state.adapters.append(adapter)
    state.class_ids = list(state.class_ids) + list(task.classes)
    state.classifier = build_classifier(
        {c: state.class_stats[c][0] for c in state.class_ids}, state.class_ids)
    state.task_logs.append(TaskLog(
        profiles=[profiles[c] for c in task.classes],
        epoch_losses=epoch_losses,
        epoch_phases=epoch_phases,
    ))
    return state
