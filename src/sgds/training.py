"""Per-task training loop, classifier construction, and prototype alignment."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import compute_prototypes
from .inference import embed
from .masking import (ActivationCounters, Phase, SemanticProfile, Strategy,
                      dispatch_probability, formulate_strategy, relation_distribution,
                      reuse_probability, sparsify_and_record)
from .model import Adapter, Block, FrozenBackbone, adapter_term
from .numerics import ContractViolation, NumericError, cosine_lr, sgd_step
from .rng import TAG_ALIGN, TAG_MASK, TAG_SHUFFLE, stream_rng, stream_uniforms

VAR_FLOOR = 1e-6


@dataclass
class TrainConfig:
    epochs: int = 20
    batch: int = 48
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    se_enabled: bool = True
    ac_enabled: bool = True
    param_reg_mode: str = "off"  # off | up | down | both
    param_reg_lambda: float = 0.1
    adapter_rank: int = 16
    align_samples: int = 256
    beta: float = 0.5
    gamma: float = 1.0

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
    """What a run has learnt, and the only home of ``k``, the target layers
    and the masking switch, which training and inference both read."""

    backbone: FrozenBackbone
    target_layers: tuple[int, ...]
    k: float
    masked: bool
    adapters: list[Adapter] = field(default_factory=list)
    classifier: np.ndarray | None = None
    class_ids: list[int] = field(default_factory=list)
    class_stats: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    frozen_prototypes: dict[int, np.ndarray] = field(default_factory=dict)
    counters: ActivationCounters | None = None
    task_logs: list[TaskLog] = field(default_factory=list)
    # (adapters merged, their universal adapter); see inference.predict
    universal: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.k <= 1.0:
            raise ContractViolation(
                f"sparsity ratio k must be in (0, 1], got {self.k}")
        self.target_layers = tuple(sorted(self.target_layers))
        if self.classifier is None:
            self.classifier = np.zeros((0, self.backbone.width))
        if self.counters is None:
            self.counters = ActivationCounters(self.target_layers,
                                               self.backbone.width)


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


def fit_class_gaussians(features_by_class: dict[int, np.ndarray]):
    """Per-dimension sample mean and population variance, variance floored."""
    stats = {}
    for c, feats in features_by_class.items():
        feats = np.asarray(feats, dtype=np.float64)
        mean = feats.mean(axis=0)
        var = np.maximum(feats.var(axis=0), VAR_FLOOR)
        stats[c] = (mean, var)
    return stats


def align_old_prototypes(state: ContinualState, f_new: np.ndarray,
                         f_old: np.ndarray, align_samples: int,
                         run_seed: int, task_index: int):
    """Shift old class Gaussians by the mean feature displacement Δ.

    Δ is the mean of ``f_new`` (current-task inputs through the new adapter)
    minus ``f_old`` (the same inputs through the previous adapter);
    pseudo-features sampled from each stored Gaussian are translated by Δ
    directly in feature space (never re-encoded).
    """
    if not state.adapters:
        return {}
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


@dataclass
class BlockRecord:
    """What ``backward`` reads of one block from the first target layer on."""

    layer: int
    block: Block
    a: np.ndarray            # block input, after the mask
    pre: np.ndarray          # a @ w1 + b1
    mask: np.ndarray | None  # 0/1 input mask at a masked target layer
    z: np.ndarray | None     # a @ W_down at a target layer


@dataclass
class BatchTape:
    """The activations of one batch's forward pass that ``backward`` reads."""

    nodes: list[BlockRecord]
    features: np.ndarray
    classifier: np.ndarray  # old-class head rows; their logits come first
    dlogits: np.ndarray     # d loss / d logits
    penalty: list[tuple[str, np.ndarray, np.ndarray]]  # (param, W W_prev^T, W_prev)
    reg_lambda: float


def _check_finite(name: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise NumericError(f"non-finite {name}")


def build_batch_tape(state, params, x, slots, cfg, phase, counters, prior, mask_u):
    """Forward pass of one batch; returns (tape, loss).

    ``slots`` holds each row's index in the task's class list; the row's
    logit column is its slot after the old-class head rows, and it counts
    into row ``slot`` of the task's own ``counters``.  ``prior`` maps each
    target layer to ``F_old``, the earlier tasks' ``F``, and the task's reuse
    vectors by slot.  ``params`` maps ``head_new`` and
    ``wd_<l>``/``wu_<l>`` per target layer to the arrays ``sgd_step`` updates.
    ``mask_u`` maps each target layer to the batch's ``(B, width)`` mask
    uniforms; it is read only when ``state.masked``.  The orthogonality
    penalty runs against every adapter in ``state.adapters``.
    """
    phase_active = cfg.se_enabled if phase is Phase.EXPLORATION else cfg.ac_enabled
    nodes = []
    a = x
    for l, block in enumerate(state.backbone.blocks):
        target = l in state.target_layers
        if not (target or nodes):  # before the first target layer nothing trains
            a = a + block.mlp(a)[1]
            continue
        mask = None
        if target and state.masked:
            # the task's probability table from the counters at batch start
            if phase_active:
                probs = dispatch_probability(counters, l, phase, *prior[l],
                                             cfg.beta, cfg.gamma)[slots]
            else:
                probs = np.ones_like(a)
            out = sparsify_and_record(a, probs, state.k, mask_u[l], counters,
                                      slots, l)
            mask = (out != 0.0).astype(np.float64)
            a = a * mask
        pre, mlp_out = block.mlp(a)
        out = a + mlp_out
        z = None
        if target:
            z, term = adapter_term(a, (params[f"wd_{l}"], params[f"wu_{l}"]))
            out = out + term
        nodes.append(BlockRecord(l, block, a, pre, mask, z))
        a = out

    logits = np.concatenate([a @ state.classifier.T, a @ params["head_new"]],
                            axis=1)
    _check_finite("logits", logits)
    labels = len(state.classifier) + slots
    rows = np.arange(len(labels))
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    loss = (logsumexp - shifted[rows, labels]).mean()
    dlogits = np.exp(shifted - logsumexp[:, None])  # softmax
    dlogits[rows, labels] -= 1.0
    dlogits /= len(labels)

    # orthogonality penalty: sum of ||W W_prev^T||_F^2 over previous tasks
    penalty = []
    if cfg.param_reg_mode != "off":
        for l in state.target_layers:
            for prev in state.adapters:
                pd, pu = prev.layers[l]
                if cfg.param_reg_mode in ("down", "both"):
                    penalty.append((f"wd_{l}", params[f"wd_{l}"] @ pd.T, pd))
                if cfg.param_reg_mode in ("up", "both"):
                    penalty.append((f"wu_{l}", params[f"wu_{l}"] @ pu.T, pu))
    if penalty:
        pen = 0.0
        for _, v, _ in penalty:
            pen += np.sum(v * v)
        loss = loss + pen * cfg.param_reg_lambda
    _check_finite("loss", loss)
    tape = BatchTape(nodes, a, state.classifier, dlogits, penalty,
                     cfg.param_reg_lambda)
    return tape, float(loss)


def _accumulate(grads: dict, name: str, g: np.ndarray) -> None:
    grads[name] = grads[name] + g if name in grads else g


def backward(tape: BatchTape, params: dict) -> dict:
    """Gradients of the batch loss, keyed like ``params``.

    Each sum runs in one fixed order (penalty terms last to first, then the
    data term; at a block input the adapter, residual and MLP paths, then
    the mask), so a run repeats bit for bit.
    """
    grads: dict[str, np.ndarray] = {}
    for name, v, w_prev in reversed(tape.penalty):
        _accumulate(grads, name, (tape.reg_lambda * 2.0 * v) @ w_prev)
    n_old = len(tape.classifier)
    g_new = tape.dlogits[:, n_old:]
    grads["head_new"] = tape.features.T @ g_new
    g = g_new @ params["head_new"].T + tape.dlogits[:, :n_old] @ tape.classifier
    for node in reversed(tape.nodes):
        g_in = g
        if node.z is not None:
            wd, wu = f"wd_{node.layer}", f"wu_{node.layer}"
            _accumulate(grads, wu, np.maximum(node.z, 0.0).T @ g)
            g_z = (g @ params[wu].T) * (node.z > 0.0)
            _accumulate(grads, wd, node.a.T @ g_z)
            if node is tape.nodes[0]:
                break  # nothing before the first target layer trains
            g_in = g_z @ params[wd].T + g
        w1, w2 = node.block.w1, node.block.w2
        g_in = g_in + ((g @ w2.T) * (node.pre > 0.0)) @ w1.T
        if node.mask is not None:
            g_in = g_in * node.mask
        g = g_in
    for name, g in grads.items():
        _check_finite(f"gradient of {name}", g)
    return grads


def train_task(state: ContinualState, task, cfg: TrainConfig,
               run_seed: int) -> ContinualState:
    """Train one task's adapter and head rows, then add them to ``state`` in
    one block at the end, so a task that raises leaves the state as it was."""
    if (state.counters.class_ids != state.class_ids
            or set(state.frozen_prototypes) != set(state.class_ids)):
        raise ContractViolation(
            "counters or frozen prototypes do not match the state's classes: a loaded "
            "checkpoint can be scored but not trained until resume exists")
    if set(task.classes) & set(state.class_ids):
        raise ContractViolation("task classes overlap previously seen classes")
    task_index = len(state.adapters)
    d = state.backbone.width

    # phase 1: semantic strategy formulation on frozen-backbone prototypes
    frozen = compute_prototypes(
        embed(task.train_x, state.backbone, [None], state.target_layers,
              state.k, masked=False)[0], task.train_y)
    old = tuple(state.class_ids)
    pool = {**state.frozen_prototypes, **frozen}
    profiles = [formulate_strategy(c, relation_distribution(c, pool), old,
                                   task.classes) for c in task.classes]

    # the task counts into its own rows, so F_old and reuse hold for the task
    counters = ActivationCounters(state.target_layers, d)
    counters.add_task(task.classes)
    prior = {l: (f_c.sum(axis=0),
                 {s: reuse_probability(f_c, [p.relation[y] for y in old])
                  for s, p in enumerate(profiles)
                  if p.strategy is Strategy.KNOWLEDGE_REUSE})
             for l, f_c in state.counters.f_c.items()}

    # phase 2: adapter + new-head training
    adapter = Adapter.create(task_index, d, cfg.adapter_rank,
                             state.target_layers, run_seed)
    params = {"head_new": np.zeros((d, len(task.classes)))}
    for l in state.target_layers:
        params[f"wd_{l}"], params[f"wu_{l}"] = adapter.layers[l]
    slot_of = {c: i for i, c in enumerate(task.classes)}
    slots = np.array([slot_of[int(c)] for c in task.train_y], dtype=np.int64)

    velocity = {}
    epoch_losses, epoch_phases = [], []
    n = len(task.train_y)
    for epoch in range(1, cfg.epochs + 1):
        lr = cosine_lr(epoch - 1, cfg.epochs, cfg.lr)
        phase = _epoch_phase(epoch, cfg.epochs)
        epoch_phases.append(phase)
        order = stream_rng(run_seed, TAG_SHUFFLE, task_index, epoch).permutation(n)
        epoch_u = (_epoch_mask_uniforms(run_seed, task_index, epoch, n,
                                        cfg.batch, state.target_layers, d)
                   if state.masked else {})
        losses = []
        for start in range(0, n, cfg.batch):
            idx = order[start:start + cfg.batch]
            mask_u = {l: u[start:start + cfg.batch] for l, u in epoch_u.items()}
            try:  # the finite checks, not NumPy warnings, report an overflow
                with np.errstate(over="ignore", invalid="ignore"):
                    tape, loss = build_batch_tape(
                        state, params, task.train_x[idx], slots[idx], cfg,
                        phase, counters, prior, mask_u)
                    sgd_step(params, backward(tape, params), velocity, lr,
                             cfg.momentum, cfg.weight_decay)
                for name, p in params.items():
                    _check_finite(name, p)
            except NumericError as exc:
                raise NumericError(
                    f"task {task_index + 1}, epoch {epoch}, "
                    f"batch {start // cfg.batch + 1}: {exc}") from exc
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))

    # phase 3: statistics, alignment, classifier rebuild
    # the new adapter's features, then the previous adapter's for the drift
    feats = embed(task.train_x, state.backbone, [adapter, *state.adapters[-1:]],
                  state.target_layers, state.k, state.masked)
    aligned = align_old_prototypes(state, feats[0], feats[-1],
                                   cfg.align_samples, run_seed, task_index)
    class_stats = {c: (aligned.get(c, mean), var)
                   for c, (mean, var) in state.class_stats.items()}
    class_stats.update(fit_class_gaussians(
        {c: feats[0][task.train_y == c] for c in task.classes}))
    class_ids = [*state.class_ids, *task.classes]
    classifier = build_classifier(
        {c: class_stats[c][0] for c in class_ids}, class_ids)

    # commit: the only place the task changes the state
    base = state.counters.add_task(task.classes)
    for l, f_c in counters.f_c.items():
        state.counters.f_c[l][base:] = f_c
    state.adapters.append(adapter)
    state.class_ids, state.class_stats = class_ids, class_stats
    state.classifier = classifier
    state.frozen_prototypes.update(frozen)
    state.task_logs.append(TaskLog(profiles, epoch_losses, epoch_phases))
    return state
