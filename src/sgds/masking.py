"""Activation sparsification core: strategy scores, counters, probabilities.

Probability conventions for zero history (all deliberate):
  * reuse: a class whose counter row is all zero contributes 0 to the sum,
  * allocation: max F == 0 -> probability 1 everywhere (nothing is occupied),
  * compaction: max F_c[c] == 0 -> probability 1 everywhere (unconstrained).

``F_c`` is one ``(classes, width)`` array per target layer, its rows in
``ActivationCounters.class_ids`` order, and a layer's global count ``F`` is
its column sum.  A training task counts into counters of its own, whose rows
are its slots, and commits them at its end.  Formulas take rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import ContractViolation


class Strategy(Enum):
    KNOWLEDGE_REUSE = "KnowledgeReuse"
    NEW_SUBSPACE_ALLOCATION = "NewSubspaceAllocation"


class Phase(Enum):
    EXPLORATION = "Exploration"
    COMPACTION = "Compaction"


@dataclass
class SemanticProfile:
    class_id: int
    relation: dict[int, float]  # P(y|c) over old ∪ current classes
    s_old: float
    s_new: float
    strategy: Strategy


class ActivationCounters:
    """Per-class selection counts ``F_c``, one array per target layer."""

    def __init__(self, target_layers: tuple[int, ...], width: int):
        self.class_ids: list[int] = []
        self.f_c = {l: np.zeros((0, width), dtype=np.int64)
                    for l in sorted(target_layers)}

    def add_task(self, classes) -> int:
        """Give a task's classes the next ``F_c`` rows; returns the first."""
        if len(set(classes)) != len(classes) or set(classes) & set(self.class_ids):
            raise ContractViolation(f"classes {classes} repeat or have counter rows")
        base = len(self.class_ids)
        self.class_ids.extend(classes)
        self.f_c = {l: np.pad(f_c, ((0, len(classes)), (0, 0)))
                    for l, f_c in self.f_c.items()}
        return base

    def layer(self, layer: int) -> np.ndarray:
        if layer not in self.f_c:
            raise ContractViolation(f"layer {layer} is not a target layer")
        return self.f_c[layer]

    def record(self, rows: int | np.ndarray, layer: int,
               support: np.ndarray) -> None:
        """Count selected units: ``support`` is ``(..., width)`` booleans and
        ``rows`` the ``F_c`` row of each support row (or one for all).  The
        counts are summed by one 0/1 product of a row one-hot and ``support``."""
        f_c = self.layer(layer)
        support = np.asarray(support, dtype=bool)
        if support.shape[-1:] != f_c.shape[1:]:
            raise ContractViolation(f"support width is not {f_c.shape[1]}")
        rows = np.broadcast_to(rows, support.shape[:-1]).ravel()
        if rows.size and not 0 <= rows.min() <= rows.max() < len(self.class_ids):
            raise ContractViolation("a counter row was never handed out")
        # a 0/1 product sums repeated rows exactly (below 2^53), as add.at would
        onehot = np.zeros((len(self.class_ids), rows.size))
        onehot[rows, np.arange(rows.size)] = 1.0
        f_c += (onehot @ support.reshape(-1, f_c.shape[1])).astype(np.int64)

    def dump_csv(self, path) -> None:
        """Textual dump: layer, unit, F, then one F_c column per seen class."""
        with open(path, "w") as f:
            f.write(",".join(["layer,unit,F", *(f"c{c}" for c in self.class_ids)]) + "\n")
            for l, f_c in self.f_c.items():
                for j, total in enumerate(f_c.sum(axis=0)):
                    f.write(",".join(map(str, [l, j, total, *f_c[:, j]])) + "\n")


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ContractViolation("cosine similarity undefined for zero prototype")
    return float(a @ b / (na * nb))


def relation_distribution(c: int, prototypes: dict[int, np.ndarray]) -> dict[int, float]:
    """Softmax over cosine similarities of class c's prototype to every other."""
    if c not in prototypes:
        raise ContractViolation(f"class {c} missing from prototype set")
    mu_c = prototypes[c]
    ids = sorted(prototypes)
    sims = np.array([_cosine(mu_c, prototypes[y]) for y in ids])
    sims -= sims.max()
    e = np.exp(sims)
    p = e / e.sum()
    return {y: float(pv) for y, pv in zip(ids, p)}


def formulate_strategy(c: int, relation: dict[int, float],
                       old, new) -> SemanticProfile:
    """Sum relation mass over the old vs current classes; reuse iff S_old > S_new."""
    s_old = sum(relation[y] for y in old)
    s_new = sum(relation[y] for y in new)
    strategy = (Strategy.KNOWLEDGE_REUSE if s_old > s_new
                else Strategy.NEW_SUBSPACE_ALLOCATION)
    return SemanticProfile(c, dict(relation), s_old, s_new, strategy)


def reuse_probability(counts: np.ndarray, weights) -> np.ndarray:
    """1 - exp(-Σ_y P(y|c) · F_c[y]/max F_c[y]) over the old classes' rows
    ``counts`` and their weights ``P(y|c)``; zero rows contribute 0."""
    if len(weights) != len(counts):
        raise ContractViolation("reuse needs one weight per counter row")
    acc = np.zeros(np.shape(counts)[-1])
    for p, row in zip(weights, counts):
        row = row.astype(np.float64)
        mx = row.max()
        if mx > 0:
            acc += p * row / mx
    return 1.0 - np.exp(-acc)


def allocation_probability(counts: np.ndarray, beta: float) -> np.ndarray:
    """exp(-β · F/max F) of the global row ``counts``; 1 with no history."""
    row = np.asarray(counts, dtype=np.float64)
    mx = row.max()
    if mx == 0:
        return np.ones(row.shape)
    return np.exp(-beta * row / mx)


def compaction_probability(counts: np.ndarray, gamma: float) -> np.ndarray:
    """1 - exp(-γ · F_c/max F_c) per row of ``counts``; 1 in a row with no history."""
    rows = np.asarray(counts, dtype=np.float64)
    mx = rows.max(axis=-1, keepdims=True)
    p = 1.0 - np.exp(-gamma * rows / np.where(mx == 0, 1.0, mx))
    return np.where(mx == 0, 1.0, p)


def dispatch_probability(counters: ActivationCounters, layer: int,
                         phase: Phase, f_old: np.ndarray,
                         reuse: dict[int, np.ndarray],
                         beta: float, gamma: float) -> np.ndarray:
    """The ``(C, width)`` table of a task whose ``counters`` rows are its slots:
    own rows in compaction, else ``reuse``'s vectors (by slot) and, for the
    rest, the allocation row of ``F`` = ``f_old`` + the task's column sum."""
    f_c = counters.layer(layer)
    if phase is Phase.COMPACTION:
        return compaction_probability(f_c, gamma)
    table = np.tile(allocation_probability(f_old + f_c.sum(axis=0), beta),
                    (len(f_c), 1))
    for s, p in reuse.items():
        table[s] = p
    return table


def top_k_mask(a: np.ndarray, k: float) -> np.ndarray:
    """0/1 mask keeping the ⌊k·N⌋ largest-|a| coordinates per row.

    The coordinates a stable sort of ``-|a|`` puts first: ties go to the lower
    index and NaN ranks last.  A partition finds the ⌊k·N⌋-th largest
    magnitude; every larger one is kept, then ties with it in index order.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[-1]
    cap = int(math.floor(k * n))
    if cap < 1:
        raise ContractViolation("k·N < 1 would zero every activation")
    mag = np.fmax(np.abs(a), -1.0)  # fmax drops NaN: it becomes -1, below all
    thr = np.partition(mag, n - cap, axis=-1)[..., n - cap:n - cap + 1]
    above = mag > thr
    tie = mag == thr
    room = cap - above.sum(axis=-1, keepdims=True)
    return (above | (tie & (np.cumsum(tie, axis=-1) <= room))).astype(np.float64)


def sparsify_and_record(x: np.ndarray, p: np.ndarray, k: float,
                        u: np.ndarray,
                        counters: ActivationCounters | None = None,
                        rows: int | np.ndarray | None = None,
                        layer: int | None = None) -> np.ndarray:
    """Bernoulli mask ``u < p``, then magnitude Top-K per row; optionally count.

    ``x``, ``p`` and the pre-drawn uniforms ``u`` share one shape, ``(N,)``
    or ``(B, N)``; ``rows`` is the ``F_c`` row of each row.  The final support is the
    set of coordinates that survive both stages and are nonzero; only those
    are counted, into ``counters`` when given.
    """
    x = np.asarray(x, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if not x.shape == p.shape == np.shape(u):
        raise ContractViolation("activation, probability and uniform shapes differ")
    a = x * (u < p)
    # one partition finds each row's ⌊k·N⌋-th largest |a|.  If every row keeps
    # exactly ⌊k·N⌋ units at or above it, they are top_k_mask's units; if a
    # row's threshold is 0, the units the two differ on are zeros, whose
    # product is the same signed zero.  Other rows (ties past the cap at a
    # nonzero threshold, NaN) take top_k_mask, which also rejects ⌊k·N⌋ < 1
    n = a.shape[-1]
    cap = math.floor(k * n)
    out = None
    if cap >= 1:
        mag = np.abs(a)
        thr = np.partition(mag, n - cap, axis=-1)[..., n - cap, None]
        keep = mag >= thr
        if ((keep.sum(axis=-1, keepdims=True) == cap) | (thr == 0.0)).all():
            out = a * keep
    if out is None:
        out = a * top_k_mask(a, k)
    if counters is not None:
        if rows is None or layer is None:
            raise ContractViolation("recording requires counter rows and a layer")
        counters.record(rows, layer, out != 0.0)
    return out
