"""Activation sparsification core: strategy scores, counters, probabilities.

Probability conventions for zero history (all deliberate):
  * reuse: a class whose counter row is all zero contributes 0 to the sum,
  * allocation: max F == 0 -> probability 1 everywhere (nothing is occupied),
  * compaction: max F_c[c] == 0 -> probability 1 everywhere (unconstrained).
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
    old_classes: tuple[int, ...]
    s_old: float
    s_new: float
    strategy: Strategy


class ActivationCounters:
    """Global (F) and per-class (F_c) selection counts per target layer unit."""

    def __init__(self, target_layers: tuple[int, ...], width: int):
        self.target_layers = tuple(sorted(target_layers))
        self.width = width
        self._lidx = {l: i for i, l in enumerate(self.target_layers)}
        self.f = np.zeros((len(self.target_layers), width), dtype=np.int64)
        self.class_ids: list[int] = []
        self._cidx: dict[int, int] = {}
        self.f_c = np.zeros((0, len(self.target_layers), width), dtype=np.int64)

    def ensure_class(self, c: int) -> None:
        if c not in self._cidx:
            self._cidx[c] = len(self.class_ids)
            self.class_ids.append(c)
            self.f_c = np.concatenate(
                [self.f_c, np.zeros((1,) + self.f_c.shape[1:], dtype=np.int64)])

    def layer_row(self, layer: int) -> int:
        if layer not in self._lidx:
            raise ContractViolation(f"layer {layer} is not a target layer")
        return self._lidx[layer]

    def global_row(self, layer: int) -> np.ndarray:
        return self.f[self.layer_row(layer)]

    def class_row(self, c: int, layer: int) -> np.ndarray:
        if c not in self._cidx:
            raise ContractViolation(f"class {c} has no counter row")
        return self.f_c[self._cidx[c], self.layer_row(layer)]

    def record(self, c: int | np.ndarray, layer: int,
               support: np.ndarray) -> None:
        """Count selected units: ``support`` is ``(..., width)`` booleans and
        ``c`` the class of each row (or one class for every row)."""
        li = self.layer_row(layer)
        support = np.asarray(support, dtype=bool)
        if support.shape[-1:] != (self.width,):
            raise ContractViolation(f"support width is not {self.width}")
        classes = np.broadcast_to(c, support.shape[:-1]).ravel()
        missing = set(classes.tolist()) - self._cidx.keys()
        if missing:
            raise ContractViolation(f"class {min(missing)} has no counter row")
        hits = support.reshape(-1, self.width).astype(np.int64)
        self.f[li] += hits.sum(axis=0)
        # add.at, not fancy-index +=, so repeated classes all count
        np.add.at(self.f_c[:, li], [self._cidx[v] for v in classes.tolist()],
                  hits)

    def dump_csv(self, path) -> None:
        """Textual dump: layer, unit, F, then one F_c column per seen class."""
        with open(path, "w") as f:
            cols = ",".join(f"c{c}" for c in self.class_ids)
            f.write("layer,unit,F" + ("," + cols if cols else "") + "\n")
            for l in self.target_layers:
                li = self._lidx[l]
                for j in range(self.width):
                    per_class = ",".join(str(self.f_c[self._cidx[c], li, j])
                                         for c in self.class_ids)
                    f.write(f"{l},{j},{self.f[li, j]}"
                            + ("," + per_class if per_class else "") + "\n")


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
                       old_classes, new_classes) -> SemanticProfile:
    """Sum relation mass over old vs current classes; reuse iff S_old > S_new."""
    s_old = sum(relation[y] for y in old_classes)
    s_new = sum(relation[y] for y in new_classes)
    strategy = (Strategy.KNOWLEDGE_REUSE if s_old > s_new
                else Strategy.NEW_SUBSPACE_ALLOCATION)
    return SemanticProfile(c, dict(relation), tuple(old_classes),
                           s_old, s_new, strategy)


def reuse_probability(counters: ActivationCounters,
                      relation_old: dict[int, float], layer: int) -> np.ndarray:
    """1 - exp(-Σ_y P(y|c) · F_c[y,l,:]/max F_c[y,l,:]), zero rows contribute 0."""
    acc = np.zeros(counters.width)
    for y, p in relation_old.items():
        row = counters.class_row(y, layer).astype(np.float64)
        mx = row.max()
        if mx > 0:
            acc += p * row / mx
    return 1.0 - np.exp(-acc)


def allocation_probability(counters: ActivationCounters, layer: int,
                           beta: float) -> np.ndarray:
    """exp(-β · F[l,:]/max F[l,:]); fully available (1) with no history."""
    row = counters.global_row(layer).astype(np.float64)
    mx = row.max()
    if mx == 0:
        return np.ones(counters.width)
    return np.exp(-beta * row / mx)


def compaction_probability(counters: ActivationCounters, c: int, layer: int,
                           gamma: float) -> np.ndarray:
    """1 - exp(-γ · F_c[c,l,:]/max F_c[c,l,:]); unconstrained with no history."""
    row = counters.class_row(c, layer).astype(np.float64)
    mx = row.max()
    if mx == 0:
        return np.ones(counters.width)
    return 1.0 - np.exp(-gamma * row / mx)


def dispatch_probability(profile: SemanticProfile, counters: ActivationCounters,
                         layer: int, phase: Phase, beta: float,
                         gamma: float) -> np.ndarray:
    """Route to the phase/strategy-appropriate probability formula."""
    if phase is Phase.COMPACTION:
        return compaction_probability(counters, profile.class_id, layer, gamma)
    if profile.strategy is Strategy.KNOWLEDGE_REUSE:
        relation_old = {y: profile.relation[y] for y in profile.old_classes}
        return reuse_probability(counters, relation_old, layer)
    return allocation_probability(counters, layer, beta)


def top_k_mask(a: np.ndarray, k: float) -> np.ndarray:
    """0/1 mask keeping the ⌊k·N⌋ largest-|a| coordinates per row (stable ties)."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[-1]
    cap = int(math.floor(k * n))
    if cap < 1:
        raise ContractViolation("k·N < 1 would zero every activation")
    order = np.argsort(-np.abs(a), axis=-1, kind="stable")
    mask = np.zeros_like(a)
    np.put_along_axis(mask, order[..., :cap], 1.0, axis=-1)
    return mask


def sparsify_and_record(x: np.ndarray, p: np.ndarray, k: float,
                        u: np.ndarray,
                        counters: ActivationCounters | None = None,
                        c: int | np.ndarray | None = None,
                        layer: int | None = None) -> np.ndarray:
    """Bernoulli mask ``u < p``, then magnitude Top-K per row; optionally count.

    ``x``, ``p`` and the pre-drawn uniforms ``u`` share one shape, ``(N,)``
    or ``(B, N)``; ``c`` is the class of each row.  The final support is the
    set of coordinates that survive both stages and are nonzero; only those
    are counted, into ``counters`` when given.
    """
    x = np.asarray(x, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if not x.shape == p.shape == np.shape(u):
        raise ContractViolation("activation, probability and uniform shapes differ")
    a = x * (u < p)
    out = a * top_k_mask(a, k)
    if counters is not None:
        if c is None or layer is None:
            raise ContractViolation("recording requires a class and a layer")
        counters.record(c, layer, out != 0.0)
    return out
