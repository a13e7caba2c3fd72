"""Gradient-based optimizers for :class:`repro.nn.modules.Module` parameters."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from .modules import Parameter

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base class for optimizers operating on a list of parameters."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Clear gradients of all managed parameters.

        The default drops the reference (``param.grad = None``) instead of
        zeroing storage: under trace replay ``param.grad`` is a view into
        the process's trace arena, valid until the next traced step, which
        overwrites it wholesale, so zeroing it would be wasted work (and
        would mutate storage shared with the plan).  Pass
        ``set_to_none=False`` to zero in place for
        callers that accumulate gradients across micro-batches.
        """
        for param in self.parameters:
            if set_to_none:
                param.zero_grad()
            elif param.grad is not None:
                param.grad.fill(0.0)

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay.

    This is the optimizer used for both benign local training and the
    adversarial classifier training in the reproduction, matching the
    plain SGD used by the paper's FL emulator.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0.0:
            raise ValueError("weight decay must be non-negative")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        """Apply one update to every parameter that has a gradient.

        Updates run in place on ``param.data`` (and on the velocity buffers),
        so no per-parameter arrays are allocated on the hot path.  The
        operation order matches the out-of-place formulation exactly, keeping
        training trajectories bit-identical.
        """
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity = self._velocity.get(id(param))
                if velocity is None:
                    velocity = np.zeros_like(param.data)
                    self._velocity[id(param)] = velocity
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= self.lr * grad


class Adam(Optimizer):
    """Adam optimizer, used for training the DFA-G generator and DFA-R filter."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._first_moment: Dict[int, np.ndarray] = {}
        self._second_moment: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        """Apply one Adam update to every parameter that has a gradient.

        The moment buffers and ``param.data`` are updated in place with the
        same operation order as the textbook out-of-place formulation, so
        trajectories are unchanged while per-step allocations drop to the
        unavoidable temporaries.
        """
        self._step_count += 1
        bias_correction1 = 1.0 - self.beta1 ** self._step_count
        bias_correction2 = 1.0 - self.beta2 ** self._step_count
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            key = id(param)
            m = self._first_moment.get(key)
            v = self._second_moment.get(key)
            if m is None:
                m = np.zeros_like(param.data)
                v = np.zeros_like(param.data)
                self._first_moment[key] = m
                self._second_moment[key] = v
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias_correction1
            v_hat = v / bias_correction2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
