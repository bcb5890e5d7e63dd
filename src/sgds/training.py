"""Per-task training loop, classifier construction, and prototype alignment."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .inference import embed
from .masking import (ActivationCounters, Phase, SemanticProfile, Strategy,
                      dispatch_probability, formulate_strategy, relation_distribution,
                      reuse_probability, sparsify_and_record)
from .model import (Adapter, Block, FrozenBackbone, adapter_term, frozen_forward,
                    stack_weights)
from .numerics import ContractViolation, NumericError, cosine_lr, sgd_step
from .rng import TAG_ALIGN, TAG_MASK, TAG_SHUFFLE, stream_rng, stream_uniforms

VAR_FLOOR = 1e-6
# rows of mask uniforms drawn per call: as many whole epochs as fit, at least
# one.  Larger draws run faster but raise the peak heap
MASK_TILE_ROWS = 512
# param_reg mode -> the penalised sides, as (parameter prefix, Adapter.layers
# index), in the penalty's summation order: down before up
PENALISED = {"off": (), "down": (("wd", 0),), "up": (("wu", 1),),
             "both": (("wd", 0), ("wu", 1))}


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
        if self.param_reg_mode not in PENALISED:
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
    # (adapters, stack_weights of them and their merge); see inference.predict
    universal: tuple | None = field(default=None, repr=False, compare=False)
    # id(test set) -> (that set, its frozen prefix) in run_single; inference._prefix
    prefixes: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.k <= 1.0:
            raise ContractViolation(
                f"sparsity ratio k must be in (0, 1], got {self.k}")
        self.target_layers = layers = tuple(sorted(self.target_layers))
        if not layers:
            raise ContractViolation(
                "no target layer: a state needs one for its adapters and masks")
        if layers[0] < 0 or layers[-1] >= self.backbone.num_blocks:
            raise ContractViolation(f"target layers {layers} are not blocks "
                                    f"of the {self.backbone.num_blocks}-block backbone")
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


def fit_class_gaussians(feats: np.ndarray, y: np.ndarray):
    """``{class: (mean, variance)}`` of the rows of ``feats`` labelled with
    each class of ``y``, in sorted class order: the per-dimension sample mean
    and population variance, variance floored."""
    stats = {}
    for c in np.unique(y):
        rows = feats[y == c]
        stats[int(c)] = (rows.mean(axis=0), np.maximum(rows.var(axis=0), VAR_FLOOR))
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
            pseudo = mean + np.sqrt(var) * rng.standard_normal(
                (align_samples, mean.size))
            aligned[c] = (pseudo + delta).mean(axis=0)
        else:
            aligned[c] = mean + delta
    return aligned


def _epoch_phase(epoch: int, total_epochs: int) -> Phase:
    """1-based epochs; exploration covers exactly the first ⌊E/2⌋ epochs."""
    return Phase.EXPLORATION if epoch <= total_epochs // 2 else Phase.COMPACTION


def _phase_on(cfg: TrainConfig, phase: Phase) -> bool:
    """Whether the phase's gate (``se_enabled``/``ac_enabled``) is on."""
    return cfg.se_enabled if phase is Phase.EXPLORATION else cfg.ac_enabled


def _epoch_mask_uniforms(run_seed, task_index, epochs, n, batch, layers, width):
    """Yield the mask uniforms of the ``n`` rows of each of ``epochs`` in
    turn, in batch order: ``{layer: (n, width)}``.

    Row ``r`` is sample ``r % batch`` of batch ``r // batch``; its uniforms
    are the stream ``(run_seed, TAG_MASK, task, epoch, batch, sample, layer)``.
    They are drawn a tile of as many whole epochs as fit ``MASK_TILE_ROWS``
    rows at a time, at least one, one draw per layer; a tile is released
    before the next is drawn, once the caller drops what it was given.
    """
    per = max(1, MASK_TILE_ROWS // n)
    r = np.arange(n, dtype=np.uint64)
    for i in range(0, len(epochs), per):
        tile = epochs[i:i + per]
        keys = np.empty((len(tile), n, 7), dtype=np.uint64)
        keys[..., :3] = (run_seed % (1 << 64), TAG_MASK, task_index)
        keys[..., 3] = np.asarray(tile, dtype=np.uint64)[:, None]
        keys[..., 4], keys[..., 5] = r // np.uint64(batch), r % np.uint64(batch)
        keys = keys.reshape(-1, 7)
        uniforms = {}
        for l in layers:
            keys[:, 6] = l
            uniforms[l] = stream_uniforms(keys, width).reshape(len(tile), n, width)
        for j in range(len(tile)):
            yield {l: u[j] for l, u in uniforms.items()}


@dataclass
class BlockRecord:
    """What ``backward`` reads of one block from the first target layer on."""

    layer: int
    block: Block
    a: np.ndarray            # block input, after the mask
    pre: np.ndarray          # a @ w1
    mask: np.ndarray | None  # 0/1 input mask at a masked target layer
    z: np.ndarray | None     # a @ W_down at a target layer


@dataclass
class BatchTape:
    """The activations of one batch's forward pass that ``backward`` reads."""

    nodes: list[BlockRecord]
    features: np.ndarray
    logits: np.ndarray      # read by train_task's finite scan
    classifier: np.ndarray  # old-class head rows; their logits come first
    dlogits: np.ndarray     # d loss / d logits
    # per penalised parameter W: (its name, W W_prev^T per previous adapter,
    # the W_prev^T stack), in the order of ``penalty_stacks``
    penalty: list[tuple[str, np.ndarray, np.ndarray]]
    reg_lambda: float


def penalty_stacks(adapters, target_layers, mode: str) -> dict[str, np.ndarray]:
    """Each penalised parameter's previous-adapter ``W_prev^T``, stacked:
    ``(m, rank, d)`` for ``wd_<l>`` and ``(m, d, rank)`` for ``wu_<l>``, keyed
    by layer, then down before up.  A task builds them once: its adapters
    commit only at its end."""
    return {f"{p}_{l}": np.stack([prev.layers[l][i].T for prev in adapters])
            for l in target_layers for p, i in PENALISED[mode] if adapters}


def build_batch_tape(state, params, x, slots, cfg, phase, counters, prior, mask_u,
                     prev):
    """Forward pass of one batch from the first target layer; returns (tape, loss).

    ``x`` is the batch's input to the first target layer: its rows through
    the frozen blocks before it (``frozen_forward``).  ``slots`` holds each
    row's index in the task's class list; the row's logit column is its slot
    after the old-class head rows, and it counts into row ``slot`` of the
    task's own ``counters``.  ``prior`` maps each target layer to ``F_old``,
    the earlier tasks' ``F``, and the task's reuse vectors by slot.
    ``params`` maps ``head_new`` and ``wd_<l>``/``wu_<l>`` per target layer
    to the arrays ``sgd_step`` updates.
    When ``state.masked``, the gate at a target layer draws against the
    batch's ``(B, width)`` uniforms in ``mask_u`` if it holds that layer's,
    and keeps every unit if not, as in an epoch whose phase is off.
    ``prev`` is ``penalty_stacks`` of ``state.adapters``: the orthogonality
    penalty runs against every one of them, and stacks that do not match
    the adapters and the mode raise rather than drop the penalty.
    """
    m = len(state.adapters)
    names = [f"{p}_{l}" for l in state.target_layers
             for p, _ in PENALISED[cfg.param_reg_mode]] if m else []
    if [*prev] != names or any(len(w) != m for w in prev.values()):
        raise ContractViolation(
            "penalty stacks do not match the previous adapters and param_reg mode")
    nodes = []
    a = x
    first = state.target_layers[0]
    for l, block in enumerate(state.backbone.blocks[first:], first):
        target = l in state.target_layers
        mask = None
        if target and state.masked:
            u = mask_u.get(l)
            if u is None:  # u < 1 for every uniform: the gate keeps every unit
                probs, u = np.ones_like(a), np.zeros_like(a)
            else:  # the task's probability table from the counters at batch start
                probs = dispatch_probability(counters, l, phase, *prior[l],
                                             cfg.beta, cfg.gamma)[slots]
            out = sparsify_and_record(a, probs, state.k, u, counters, slots, l)
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
    labels = len(state.classifier) + slots
    rows = np.arange(len(labels))
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    loss = (logsumexp - shifted[rows, labels]).mean()
    dlogits = np.exp(shifted - logsumexp[:, None])  # softmax
    dlogits[rows, labels] -= 1.0
    dlogits /= len(labels)

    # orthogonality penalty λ·Σ_l Σ_prev ||W W_prev^T||_F^2: one broadcast
    # matmul per penalised parameter, one pairwise sum per previous adapter
    penalty = [(name, params[name] @ w, w) for name, w in prev.items()]
    if penalty:
        sums = np.array([np.square(v).reshape(m, -1).sum(axis=1)
                         for _, v, _ in penalty])
        pen = 0.0
        # added one at a time in a fixed order: layer, previous adapter, side
        for term in sums.reshape(len(state.target_layers), -1, m).transpose(
                0, 2, 1).ravel().tolist():
            pen += term
        loss = loss + pen * cfg.param_reg_lambda
    tape = BatchTape(nodes, a, logits, state.classifier, dlogits, penalty,
                     cfg.param_reg_lambda)
    return tape, float(loss)


def _accumulate(grads: dict, name: str, g: np.ndarray) -> None:
    grads[name] = grads[name] + g if name in grads else g


def backward(tape: BatchTape, params: dict) -> dict:
    """Gradients of the batch loss, keyed like ``params``.

    Each sum runs in one fixed order (a penalised parameter's terms from the
    last previous adapter to the first, then the data term; at a block input
    the adapter, residual and MLP paths, then the mask), so a run repeats
    bit for bit.
    """
    grads: dict[str, np.ndarray] = {}
    for name, v, w in reversed(tape.penalty):
        # the terms come out last adapter first and contiguous, so the
        # reduce over axis 0 adds them one after another in that order
        terms = (tape.reg_lambda * 2.0 * v[::-1]) @ w[::-1].transpose(0, 2, 1)
        grads[name] = np.add.reduce(terms, axis=0)
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
    blocks, first = state.backbone.blocks, state.target_layers[0]

    # the frozen prefix runs once per task; a 1-row batch runs its own, since
    # NumPy sends a 1-row matmul to BLAS gemv, which rounds unlike gemm
    hoisted = frozen_forward(task.train_x, blocks[:first])

    # phase 1: semantic strategy formulation on frozen-backbone prototypes,
    # the prefix through the remaining blocks with no mask and no adapter
    frozen = {c: mean for c, (mean, _) in fit_class_gaussians(
        frozen_forward(hoisted, blocks[first:]), task.train_y).items()}
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
    # every parameter views one flat vector, which one check reads and sgd_step updates
    flat = np.concatenate([w.ravel() for w in params.values()])
    grad, velocity = np.empty_like(flat), np.zeros_like(flat)
    parts = np.split(flat, np.cumsum([w.size for w in params.values()])[:-1])
    params = {k: p.reshape(w.shape) for (k, w), p in zip(params.items(), parts)}
    adapter.layers = {l: (params[f"wd_{l}"], params[f"wu_{l}"]) for l in adapter.layers}
    slot_of = {c: i for i, c in enumerate(task.classes)}
    slots = np.array([slot_of[int(c)] for c in task.train_y], dtype=np.int64)

    prev = penalty_stacks(state.adapters, state.target_layers, cfg.param_reg_mode)
    epoch_losses, epoch_phases = [], []
    n = len(task.train_y)
    masked_epochs = [e for e in range(1, cfg.epochs + 1) if state.masked
                     and _phase_on(cfg, _epoch_phase(e, cfg.epochs))]
    draws = _epoch_mask_uniforms(run_seed, task_index, masked_epochs, n,
                                 cfg.batch, state.target_layers, d)
    for epoch in range(1, cfg.epochs + 1):
        lr = cosine_lr(epoch - 1, cfg.epochs, cfg.lr)
        phase = _epoch_phase(epoch, cfg.epochs)
        epoch_phases.append(phase)
        order = stream_rng(run_seed, TAG_SHUFFLE, task_index, epoch).permutation(n)
        epoch_u = next(draws) if epoch in masked_epochs else {}
        losses = []
        for start in range(0, n, cfg.batch):
            idx = order[start:start + cfg.batch]
            with np.errstate(over="ignore", invalid="ignore"):
                x = (frozen_forward(task.train_x[idx], blocks[:first])
                     if len(idx) == 1 else hoisted[idx])
                tape, loss = build_batch_tape(
                    state, params, x, slots[idx], cfg, phase, counters, prior,
                    {l: u[start:start + cfg.batch] for l, u in epoch_u.items()}, prev)
                grads = backward(tape, params)
                np.concatenate([grads[k].ravel() for k in params], out=grad)
                sgd_step(flat, grad, velocity, lr, cfg.momentum, cfg.weight_decay)
            # one check, not NumPy warnings, reports an overflow; a non-finite gradient
            # leaves its parameter non-finite, so only a failure scans for the first
            if not (np.isfinite(tape.logits).all() and math.isfinite(loss)
                    and np.isfinite(flat).all()):
                for name, value in [("logits", tape.logits), ("loss", loss),
                                    *((f"gradient of {k}", g) for k, g in grads.items()),
                                    *params.items()]:
                    if not np.isfinite(value).all():
                        raise NumericError(
                            f"task {task_index + 1}, epoch {epoch}, "
                            f"batch {start // cfg.batch + 1}: non-finite {name}")
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
        del epoch_u  # so the next tile is drawn with this one released

    # phase 3: statistics, alignment, classifier rebuild
    # the new adapter's features, then the previous adapter's for the drift
    with np.errstate(over="ignore", invalid="ignore"):
        feats = embed(task.train_x, state,
                      stack_weights([adapter, *state.adapters[-1:]]))
        aligned = align_old_prototypes(state, feats[0], feats[-1],
                                       cfg.align_samples, run_seed, task_index)
        class_stats = {c: (aligned.get(c, mean), var)
                       for c, (mean, var) in state.class_stats.items()}
        class_stats.update(fit_class_gaussians(feats[0], task.train_y))
        class_ids = [*state.class_ids, *task.classes]
        classifier = build_classifier(
            {c: class_stats[c][0] for c in class_ids}, class_ids)
    # finite weights can still embed to ±inf, which sgds eval would refuse
    checked = [feats[0], classifier, *(v for mv in class_stats.values() for v in mv)]
    if not np.isfinite(np.concatenate([a.ravel() for a in checked])).all():
        raise NumericError(f"task {task_index + 1}: non-finite features, class "
                           "statistics or classifier after training")

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
