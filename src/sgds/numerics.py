"""Typed errors and SGD with momentum on a cosine learning-rate schedule."""
from __future__ import annotations

import math

import numpy as np


class ContractViolation(ValueError):
    """A documented precondition was broken by the caller."""


class FormatError(ContractViolation):
    """Malformed binary file; ``offset`` is the failing byte position."""

    def __init__(self, msg: str, offset: int):
        super().__init__(f"{msg} (byte offset {offset})")
        self.offset = offset


class NumericError(ArithmeticError):
    """Non-finite value produced during a forward or backward pass."""


def cosine_lr(epoch: int, total: int, base_lr: float) -> float:
    """Half-cosine decay from base_lr at epoch 0 toward 0 at epoch == total."""
    if total <= 0:
        raise ContractViolation("total epochs must be positive")
    if not 0 <= epoch < total:
        raise ContractViolation("epoch out of range")
    return base_lr * (1.0 + math.cos(math.pi * epoch / total)) / 2.0


def sgd_step(params: dict, grads: dict, velocity: dict, lr: float,
             momentum: float, weight_decay: float) -> None:
    """v <- m*v + g; p <- p - lr*v.  Updates params and velocity in place."""
    for name, p in params.items():
        g = grads[name]
        if np.shape(g) != np.shape(p):
            raise ContractViolation(f"shape mismatch for parameter {name!r}")
        if weight_decay:
            g = g + weight_decay * p
        v = velocity.get(name)
        if v is None:
            v = np.zeros_like(p)
        v = momentum * v + g
        velocity[name] = v
        p -= lr * v
