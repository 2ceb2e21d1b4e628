"""Parameter optimizers: plain SGD and bias-corrected Adam.

A trainer owns its own moment state keyed by parameter name, so two
trainers updating a shared parameter (multi-task training) keep independent
moments.  ``lr`` is a plain mutable attribute; the decay policy rewrites it
between steps.  Every step ends by zeroing the gradients it consumed.
Trainers do not check what they write: the training loop checks every
parameter for NaN or Inf after each step (:meth:`ParamSet.check_finite`).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .tensor import Parameter


class SgdTrainer:
    def __init__(self, lr: float = 0.1):
        self.lr = float(lr)

    def step(self, params: Iterable[Parameter]) -> None:
        for p in params:
            p.value -= self.lr * p.grad
            p.grad[...] = 0.0


class AdamTrainer:
    def __init__(self, lr: float = 0.001, beta_1: float = 0.9,
                 beta_2: float = 0.999, eps: float = 1e-8):
        self.lr = float(lr)
        self.beta_1 = float(beta_1)
        self.beta_2 = float(beta_2)
        self.eps = float(eps)
        self.t = 0
        self._moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, params: Iterable[Parameter]) -> None:
        """One bias-corrected step.  The moments are allocated once per
        parameter and updated in place, computing exactly
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g**2`` and
        ``p -= (lr*m_hat) / (sqrt(v_hat) + eps)`` in that operation order."""
        self.t += 1
        b1, b2 = self.beta_1, self.beta_2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for p in params:
            if p.name not in self._moments:
                self._moments[p.name] = (np.zeros_like(p.value), np.zeros_like(p.value))
            m, v = self._moments[p.name]
            g = p.grad
            m *= b1
            step = np.multiply(g, 1.0 - b1)
            m += step
            v *= b2
            np.multiply(g, g, out=step)
            step *= 1.0 - b2
            v += step
            np.divide(m, c1, out=step)
            step *= self.lr
            denom = np.divide(v, c2)
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            p.value -= step
            g[...] = 0.0
