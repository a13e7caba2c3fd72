"""Shared distance-matrix compute plane for the geometry-based defenses.

Krum/Multi-Krum, Bulyan and FoolsGold all reduce the round's update matrix
to a pairwise geometry — squared L2 distances for the Krum family, cosine
similarities for FoolsGold.  PR 2 moved the update pipeline to float32 flat
buffers, which silently broke the Gram-trick expansion
``‖x‖² + ‖y‖² − 2·x·y`` those modules used: for the near-duplicate benign
updates that dominate after a few converged rounds, the true squared
distance (~1e-6) sits far below the float32 rounding of the ~1e4 squared
norms (eps32 · ‖x‖² ≈ 1e-3), so the subtraction catastrophically cancels
and the neighbour ordering — hence *which client Krum accepts* — becomes
noise.

This module fixes that at the root and gives the defenses one shared
compute plane:

* :func:`pairwise_sq_distances` computes **exact row-block differences in
  float64** regardless of the input dtype: each ``(block, n)`` tile is
  ``Σ_d (x_i[d] − x_j[d])²`` accumulated in float64 over fixed-size column
  chunks, so there is no large-term cancellation at all and the result is
  bitwise independent of how rows are grouped into blocks.
* :func:`pairwise_cosine_similarities` normalizes rows in float64 once and
  computes the similarity Gram product per row block in float64 (cosine has
  no cancelling subtraction, but the float32 accumulation loses the
  near-duplicate structure FoolsGold keys on just the same).
* Row blocks route through a
  :class:`~repro.fl.dispatch_policy.DispatchPolicy` (``dispatch=``), which
  decides serial vs pooled from the benchmark-calibrated cost model — at
  the paper's 10-client scale the fan-out overhead loses to the serial
  kernel, so the policy keeps row blocks inline there.  Pooled backends
  whose fan-out pickles its work items receive the stacked matrix **once**
  (``publish``) and each envelope carries only a
  :class:`~repro.fl.executor.SharedArrayRef` plus row indices.  Bare calls
  (``dispatch=None``) run the serial kernels directly.

Determinism contract
--------------------
The per-pair reduction runs over fixed ``_DIM_CHUNK`` column chunks in a
fixed order, independent of the row-block partition, so serial, thread and
process backends — and any ``block_rows`` override — produce bitwise
identical matrices for the same input.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..fl.dispatch_policy import DispatchPolicy
from ..fl.executor import (
    SharedArrayRef,
    register_fanout_fn,
    resolve_shared_array,
)

__all__ = [
    "DISTANCE_BLOCK_FANOUT",
    "COSINE_BLOCK_FANOUT",
    "distance_block",
    "cosine_block",
    "pairwise_sq_distances",
    "pairwise_cosine_similarities",
]

#: Columns of the update matrix reduced per float64 accumulation step.  The
#: chunk size is a fixed constant so the accumulation order — and therefore
#: the bit pattern of every distance — does not depend on the row blocking.
_DIM_CHUNK = 1 << 16

#: Upper bound on the float64 temporary built per accumulation step
#: (``rows × right_span × min(dim, _DIM_CHUNK)`` elements ≈ 32 MB): the
#: block height, and for large ``n`` the right-hand row span inside
#: :func:`_exact_distance_block`, are both derived from it.
_TARGET_BLOCK_ELEMENTS = 1 << 22

#: Preferred number of row blocks per matrix, so a pooled executor has
#: work to overlap even for the paper's 10-client rounds.
_TARGET_BLOCKS = 4

#: Registered fan-out names (``module:label`` so worker processes resolve
#: them by importing this module on demand).
DISTANCE_BLOCK_FANOUT = "repro.defenses.distances:distance_block"
COSINE_BLOCK_FANOUT = "repro.defenses.distances:cosine_block"


def _default_block_rows(n: int, dim: int) -> int:
    """Rows per block: bounded by the temp-memory budget and spread over
    ``_TARGET_BLOCKS`` blocks so pooled backends overlap; pure function of
    the matrix shape, hence identical in the parent and every worker."""
    budget = _TARGET_BLOCK_ELEMENTS // max(1, n * min(dim, _DIM_CHUNK))
    spread = -(-n // _TARGET_BLOCKS)  # ceil(n / _TARGET_BLOCKS)
    return max(1, min(max(1, budget), spread))


def _row_blocks(n: int, rows: int) -> List[Tuple[int, int]]:
    return [(start, min(start + rows, n)) for start in range(0, n, rows)]


def _exact_distance_block(block: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Squared L2 distances from ``block`` rows to every ``matrix`` row.

    Differences are formed *before* squaring and accumulated in float64
    over fixed column chunks, so near-duplicate rows keep their full
    relative precision (no ``‖x‖²+‖y‖²−2x·y`` cancellation).  When ``n``
    alone blows the temp budget (many clients per round), the right-hand
    rows are additionally tiled: each pair's reduction still runs over the
    same fixed column chunks in the same order, so the tiling never
    changes a single bit of the result.
    """
    rows = block.shape[0]
    n, dim = matrix.shape
    out = np.zeros((rows, n), dtype=np.float64)
    chunk_cols = min(dim, _DIM_CHUNK) if dim else 1
    span = max(1, _TARGET_BLOCK_ELEMENTS // max(1, rows * chunk_cols))
    for start in range(0, dim, _DIM_CHUNK):
        left = np.asarray(block[:, start : start + _DIM_CHUNK], dtype=np.float64)
        for right_start in range(0, n, span):
            right_stop = min(right_start + span, n)
            right = np.asarray(
                matrix[right_start:right_stop, start : start + _DIM_CHUNK],
                dtype=np.float64,
            )
            diff = left[:, None, :] - right[None, :, :]
            out[:, right_start:right_stop] += np.einsum("bnd,bnd->bn", diff, diff)
    return out


def _resolve_matrix(matrix) -> np.ndarray:
    if isinstance(matrix, SharedArrayRef):
        return resolve_shared_array(matrix)
    return matrix


def _payload_block(payload) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve a ``(matrix, start, stop)`` fan-out payload to
    ``(left_block, matrix)``.

    ``matrix`` is either the in-process array or a
    :class:`~repro.fl.executor.SharedArrayRef` into the executor's
    published store.
    """
    matrix, start, stop = payload
    matrix = _resolve_matrix(matrix)
    return matrix[start:stop], matrix


def distance_block(payload) -> np.ndarray:
    """One ``(rows, n)`` tile of the squared-distance matrix (fan-out unit).

    See :func:`_payload_block` for the payload form; pure function of the
    payload, bit-identical to the serial path.
    """
    block, matrix = _payload_block(payload)
    return _exact_distance_block(block, matrix)


def cosine_block(payload) -> np.ndarray:
    """One ``(rows, n)`` tile of the cosine-similarity matrix (fan-out unit).

    The payload carries the float64 row-normalized matrix — the parent
    normalizes once, so every block is a plain float64 inner-product tile.
    The reduction runs through ``np.einsum`` (not BLAS) so each pair's
    accumulation order depends only on ``dim``, keeping the result bitwise
    independent of the row blocking — the same contract as
    :func:`distance_block`.
    """
    block, normalized = _payload_block(payload)
    # repro: allow[DT001] the payload contract ships float64 row-normalized
    # operands (asserted by the parent's cast above), invisible to the tracer
    return np.einsum("bd,nd->bn", block, normalized)


register_fanout_fn(DISTANCE_BLOCK_FANOUT, distance_block)
register_fanout_fn(COSINE_BLOCK_FANOUT, cosine_block)


def _pairwise_matrix(
    dispatch,
    name: str,
    kernel: Callable,
    source: np.ndarray,
    n: int,
    dim: int,
    rows_per_block: int,
) -> np.ndarray:
    """Assemble the full ``(n, n)`` matrix from row-block tiles.

    With no policy the tiles run inline; otherwise they go through
    ``dispatch.fanout`` (site ``"distance"``), which handles all backend
    gating: serial decisions (and capability fallbacks) run ``kernel``
    in-process, pickling backends get the matrix published once and the
    payloads rebuilt over the shared ref.
    """
    blocks = _row_blocks(n, rows_per_block)

    def build(payload_matrix):
        return [(payload_matrix, start, stop) for start, stop in blocks]

    if dispatch is None:
        tiles = [kernel(payload) for payload in build(source)]
    else:
        tiles = DispatchPolicy.coerce(dispatch).fanout(
            "distance",
            name,
            build(source),
            work=float(n) * float(n) * float(max(1, dim)),
            kernel=kernel,
            payload_by_ref=False,
            publish={"matrix": source},
            payloads_from_refs=lambda refs: build(refs["matrix"]),
        )
    return np.concatenate(tiles, axis=0)


def pairwise_sq_distances(
    matrix: np.ndarray,
    block_rows: Optional[int] = None,
    dispatch=None,
) -> np.ndarray:
    """Exact float64 ``(n, n)`` squared L2 distance matrix of ``matrix`` rows.

    Parameters
    ----------
    matrix:
        ``(n, dim)`` stacked update matrix, any floating dtype.
    block_rows:
        Rows per block (default: derived from the shape).  The result is
        bitwise independent of this value; it only exists for tests and
        tuning.
    dispatch:
        A :class:`~repro.fl.dispatch_policy.DispatchPolicy` (or spec string)
        deciding serial vs pooled per call.  ``None`` runs the serial
        kernels directly.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D (num_updates, dim)")
    n, dim = matrix.shape
    if n == 0:
        return np.zeros((0, 0), dtype=np.float64)
    rows = block_rows if block_rows is not None else _default_block_rows(n, dim)
    return _pairwise_matrix(
        dispatch,
        DISTANCE_BLOCK_FANOUT,
        distance_block,
        matrix,
        n,
        dim,
        max(1, int(rows)),
    )


def pairwise_cosine_similarities(
    matrix: np.ndarray,
    epsilon: float = 0.0,
    block_rows: Optional[int] = None,
    dispatch=None,
) -> np.ndarray:
    """Float64 ``(n, n)`` cosine-similarity matrix of ``matrix`` rows.

    Rows are normalized once in float64 (``‖x‖ + epsilon`` in the
    denominator, matching FoolsGold's guard against zero histories); the
    Gram product then runs per row block on the same dispatch plane as
    :func:`pairwise_sq_distances`.
    """
    matrix64 = np.asarray(matrix, dtype=np.float64)
    if matrix64.ndim != 2:
        raise ValueError("matrix must be 2-D (num_updates, dim)")
    n, dim = matrix64.shape
    if n == 0:
        return np.zeros((0, 0), dtype=np.float64)
    norms = np.sqrt(np.einsum("nd,nd->n", matrix64, matrix64)) + epsilon
    normalized = matrix64 / norms[:, None]
    rows = block_rows if block_rows is not None else _default_block_rows(n, dim)
    return _pairwise_matrix(
        dispatch,
        COSINE_BLOCK_FANOUT,
        cosine_block,
        normalized,
        n,
        dim,
        max(1, int(rows)),
    )
