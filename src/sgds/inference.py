"""Adapter retrieval, ensemble prediction, and the incremental metric protocol."""
from __future__ import annotations

import numpy as np

from .masking import top_k_mask
from .model import Adapter, extract, frozen_prefix, merge_universal
from .numerics import ContractViolation, NumericError


def _mask_hook(state):
    """Deterministic Top-``k`` at target layers if the state is masked."""
    return (lambda layer, a: a * top_k_mask(a, state.k)) if state.masked else None


def embed(x: np.ndarray, state, adapters: list[Adapter]) -> list[np.ndarray]:
    """Final-block embedding per adapter under the state's backbone, target
    layers and masking switch; ``x`` may be its ``_prefix`` pair."""
    return extract(x, state.backbone, adapters, state.target_layers,
                   _mask_hook(state))


def _prefix(key, x: np.ndarray, state):
    """``x``, or, while ``run_single`` holds the cache ``state.prefixes``
    open, the ``frozen_prefix`` pair of ``key``, the caller's array object.
    An entry holds ``key``, so its ``id`` is not reused while the cache is."""
    if state.prefixes is None:
        return x
    hit = state.prefixes.get(id(key))
    if hit is None or hit[0] is not key:
        hit = state.prefixes[id(key)] = (key, frozen_prefix(
            x, state.backbone, state.target_layers[0], _mask_hook(state)))
    return hit[1]


def _entropy(probs: np.ndarray) -> np.ndarray:
    safe = np.where(probs > 0, probs, 1.0)
    return -(probs * np.log(safe)).sum(axis=-1)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _universal_adapter(state) -> Adapter:
    """The merge of ``state.adapters``, cached on the state.

    The cache holds the adapters it merged and is rebuilt whenever the list
    no longer holds those same objects; an adapter is never changed in place
    once it is in the list.
    """
    merged, uni = state.universal or ((), None)
    if list(map(id, merged)) != list(map(id, state.adapters)):
        merged = tuple(state.adapters)
        uni = merge_universal(list(merged))
        state.universal = (merged, uni)
    return uni


def select_by_entropy(per_adapter: np.ndarray) -> np.ndarray:
    """Per-sample index of the adapter with the most confident prediction.

    ``per_adapter`` stacks each adapter's logits, shape (adapters, samples,
    classes); the lowest softmax entropy wins, ties going to the lower index.
    """
    return _entropy(_softmax(per_adapter)).argmin(axis=0)


def predict(x: np.ndarray, state) -> np.ndarray:
    """Ensemble of the selected task adapter and the universal (merged) adapter."""
    if not state.adapters:
        raise ContractViolation("no trained adapter to select from")
    key, x = x, np.atleast_2d(np.asarray(x, dtype=np.float64))
    # one check, not NumPy warnings, reports inputs that overflow a finite state
    with np.errstate(over="ignore", invalid="ignore"):
        *feats, uni_feats = embed(_prefix(key, x, state), state,
                                  [*state.adapters, _universal_adapter(state)])
        per_adapter = np.stack([f @ state.classifier.T for f in feats])
        t_star = select_by_entropy(per_adapter)
        total = (per_adapter[t_star, np.arange(x.shape[0])]
                 + uni_feats @ state.classifier.T)
    if not np.isfinite(total).all():
        raise NumericError("non-finite ensemble scores in predict")
    # argmax with ties resolved toward the lower class id
    row_class = np.asarray(state.class_ids, dtype=np.int64)
    is_max = total >= total.max(axis=1, keepdims=True)
    candidates = np.where(is_max, row_class, np.iinfo(np.int64).max)
    return candidates.min(axis=1)


def evaluate_row(state, test_sets) -> np.ndarray:
    """Accuracy (percent) of the current state on each given test set."""
    accs = []
    for test_x, test_y in test_sets:
        if len(test_y) == 0:
            raise ContractViolation("empty test set")
        pred = predict(test_x, state)
        accs.append(100.0 * float(np.mean(pred == test_y)))
    return np.array(accs)


def summarize(a: np.ndarray) -> tuple[float, float]:
    """(average incremental accuracy, final-task average accuracy)."""
    a = np.asarray(a, dtype=np.float64)
    t_total = a.shape[0]
    if t_total < 1 or a.shape[1] != t_total:
        raise ContractViolation("accuracy matrix must be square, T >= 1")
    for t in range(t_total):
        if np.any(np.isnan(a[t, : t + 1])):
            raise ContractViolation("incomplete lower-triangular matrix")
    a_bar = float(np.mean([a[t, : t + 1].mean() for t in range(t_total)]))
    a_final = float(a[t_total - 1, :].mean())
    return a_bar, a_final
