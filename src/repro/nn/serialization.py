"""Conversion between module parameters and flat 1-D vectors.

Every robust-aggregation defense in the paper (Krum, mKrum, Bulyan, Median,
Trimmed mean, REFD) and every statistical attack (LIE, Fang, Min-Max)
operates on model updates represented as flat parameter vectors.  These
helpers guarantee a stable, loss-free round trip between that flat
representation and module state dicts.

Dtype policy
------------
All model parameters are ``float32``, and the flat representation keeps
that dtype by default: a flat vector is a *single contiguous buffer in the
module's native dtype*, so shipping it to a worker process, caching it, or
stacking it into a defense matrix costs half the bytes of the former
float64 representation.  Callers that need extra precision (the
numerical-gradient tests perturb individual coordinates by ``1e-5``) opt in
explicitly with ``dtype=np.float64``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.typing import DTypeLike

from .modules import Module

__all__ = ["FlatParams", "get_flat_params", "set_flat_params", "vector_to_state_dict"]


class FlatParams:
    """A contiguous flat parameter buffer with named zero-copy slices.

    ``vector`` is the single 1-D array holding every parameter of a module
    in registration order; ``self[name]`` returns a *view* into it reshaped
    to the parameter's shape, so reading or editing a named slice never
    copies.  The layout (names, offsets, shapes) is derived once from a
    reference module and can be reused across rounds.
    """

    __slots__ = ("vector", "_layout")

    def __init__(
        self, vector: np.ndarray, layout: "OrderedDict[str, Tuple[int, Tuple[int, ...]]]"
    ) -> None:
        self.vector = vector
        self._layout = layout

    # ------------------------------------------------------------------
    @staticmethod
    def layout_of(module: Module) -> "OrderedDict[str, Tuple[int, Tuple[int, ...]]]":
        """Return the ``name -> (offset, shape)`` layout of a module."""
        layout: "OrderedDict[str, Tuple[int, Tuple[int, ...]]]" = OrderedDict()
        offset = 0
        for name, param in module.named_parameters():
            layout[name] = (offset, param.data.shape)
            offset += param.data.size
        return layout

    @classmethod
    def from_module(cls, module: Module, dtype: Optional[DTypeLike] = None) -> "FlatParams":
        """Snapshot ``module``'s parameters into one contiguous buffer.

        ``dtype=None`` keeps the module's native parameter dtype (float32
        for every model in this repository); pass ``np.float64`` to opt in
        to double precision.
        """
        params = list(module.named_parameters())
        if dtype is None:
            dtype = np.result_type(*(p.data.dtype for _, p in params)) if params else np.float32
        total = sum(p.data.size for _, p in params)
        vector = np.empty(total, dtype=dtype)
        layout: "OrderedDict[str, Tuple[int, Tuple[int, ...]]]" = OrderedDict()
        offset = 0
        for name, param in params:
            count = param.data.size
            vector[offset : offset + count] = param.data.reshape(-1)
            layout[name] = (offset, param.data.shape)
            offset += count
        return cls(vector, layout)

    @classmethod
    def from_vector(cls, vector: np.ndarray, reference: Module) -> "FlatParams":
        """Wrap an existing flat vector with ``reference``'s slice layout."""
        vector = np.asarray(vector).ravel()
        expected = reference.num_parameters()
        if vector.size != expected:
            raise ValueError(
                f"flat vector has {vector.size} entries but the module has {expected} parameters"
            )
        return cls(vector, cls.layout_of(reference))

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Total number of scalar parameters in the buffer."""
        return self.vector.size

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the underlying buffer."""
        return self.vector.dtype

    @property
    def nbytes(self) -> int:
        """Size of the underlying buffer in bytes."""
        return self.vector.nbytes

    def names(self) -> List[str]:
        """Parameter names in buffer order."""
        return list(self._layout)

    def __contains__(self, name: str) -> bool:
        return name in self._layout

    def __getitem__(self, name: str) -> np.ndarray:
        """Zero-copy view of one named parameter, reshaped to its shape."""
        offset, shape = self._layout[name]
        count = int(np.prod(shape)) if shape else 1
        return self.vector[offset : offset + count].reshape(shape)

    def copy(self) -> "FlatParams":
        """Deep copy of the buffer; the layout is shared (it is immutable)."""
        return FlatParams(self.vector.copy(), self._layout)

    def with_vector(self, vector: np.ndarray) -> "FlatParams":
        """A new view object around ``vector`` reusing this buffer's layout."""
        vector = np.asarray(vector).ravel()
        if vector.size != self.size:
            raise ValueError(
                f"flat vector has {vector.size} entries but the layout expects {self.size}"
            )
        return FlatParams(vector, self._layout)

    def astype(self, dtype: DTypeLike) -> "FlatParams":
        """Buffer cast to ``dtype`` (no copy if the dtype already matches)."""
        return FlatParams(self.vector.astype(dtype, copy=False), self._layout)

    def write_to(self, module: Module) -> None:
        """Copy the buffer's values into ``module``'s parameters."""
        set_flat_params(module, self.vector)

    def to_state_dict(self) -> Dict[str, np.ndarray]:
        """Materialise a state dict (copies, so the buffer stays unshared)."""
        return OrderedDict((name, self[name].copy()) for name in self._layout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlatParams(size={self.size}, dtype={self.dtype}, slices={len(self._layout)})"


def get_flat_params(module: Module, dtype: Optional[DTypeLike] = None) -> np.ndarray:
    """Concatenate all parameters of ``module`` into one 1-D vector.

    The vector keeps the module's native parameter dtype (float32 for the
    paper's models) unless ``dtype`` explicitly requests another precision.
    """
    return FlatParams.from_module(module, dtype=dtype).vector


def set_flat_params(module: Module, vector: np.ndarray) -> None:
    """Write the values of a flat vector back into the module's parameters."""
    vector = np.asarray(vector)
    expected = module.num_parameters()
    if vector.size != expected:
        raise ValueError(
            f"flat vector has {vector.size} entries but the module has {expected} parameters"
        )
    offset = 0
    for param in module.parameters():
        count = param.data.size
        values = vector[offset : offset + count].reshape(param.data.shape)
        param.data = values.astype(param.data.dtype, copy=True)
        offset += count


def vector_to_state_dict(vector: np.ndarray, reference: Module) -> Dict[str, np.ndarray]:
    """Unflatten a vector into a state dict shaped like ``reference``'s parameters."""
    vector = np.asarray(vector)
    state: Dict[str, np.ndarray] = OrderedDict()
    offset = 0
    for name, param in reference.named_parameters():
        count = param.data.size
        if offset + count > vector.size:
            raise ValueError("vector is too short for the reference module")
        state[name] = (
            vector[offset : offset + count]
            .reshape(param.data.shape)
            .astype(param.data.dtype)
        )
        offset += count
    if offset != vector.size:
        raise ValueError("vector is too long for the reference module")
    return state
