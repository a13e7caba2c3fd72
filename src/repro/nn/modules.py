"""Layer abstractions over the autograd engine.

The design mirrors a small subset of ``torch.nn``: a :class:`Module` base
class with parameter discovery, plus the three layers the reproduction
builds on: :class:`Linear` and :class:`Conv2d` for the paper's classifiers
and the DFA-R filter layer, and :class:`ConvTranspose2d` for the DFA-G
generator.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .tensor import Tensor

__all__ = ["Parameter", "Module", "Linear", "Conv2d", "ConvTranspose2d"]


class Parameter(Tensor):
    """A tensor that is registered as a learnable module parameter."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network modules.

    Subclasses define parameters and sub-modules as attributes in their
    ``__init__`` and implement :meth:`forward`.  Parameter and module
    discovery is attribute-order based, which keeps parameter names and
    the flat-vector layout stable across identically-constructed modules
    — a property the FL aggregation layer relies on.  No layer behaves
    differently in training and inference, so there is no train/eval
    mode.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, *inputs: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *inputs: Tensor) -> Tensor:
        return self.forward(*inputs)

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(name, parameter)`` pairs, depth first in registration order."""
        for name, param in self._parameters.items():
            yield prefix + name, param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix + mod_name + ".")

    def parameters(self) -> List[Parameter]:
        """Return all learnable parameters of this module tree."""
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar learnable parameters."""
        return sum(param.size for param in self.parameters())

    def zero_grad(self) -> None:
        """Clear gradients of all parameters."""
        for param in self.parameters():
            param.zero_grad()

    def requires_grad_(self, flag: bool) -> "Module":
        """Enable or disable gradient accumulation for all parameters."""
        for param in self.parameters():
            param.requires_grad = flag
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        child_repr = ", ".join(self._modules.keys())
        return f"{type(self).__name__}({child_repr})"


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            self.bias = Parameter(init.uniform((out_features,), rng, bound))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Conv2d(Module):
    """2-D convolution layer."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng))
        if bias:
            fan_in = in_channels * kernel_size * kernel_size
            bound = 1.0 / math.sqrt(fan_in)
            self.bias = Parameter(init.uniform((out_channels,), rng, bound))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class ConvTranspose2d(Module):
    """2-D transposed convolution layer (used by the DFA-G generator)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (in_channels, out_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.normal(shape, rng, std=0.05))
        if bias:
            self.bias = Parameter(init.zeros((out_channels,)))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv_transpose2d(
            x, self.weight, self.bias, stride=self.stride, padding=self.padding
        )
