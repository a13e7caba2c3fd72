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

Both run inline in the calling process.  Fanning the row blocks out across
a process pool was measured at 0.53–0.66× of this serial kernel at the
paper's 10-client scale on two cores, so that path was removed.

Determinism contract
--------------------
The per-pair reduction runs over fixed ``_DIM_CHUNK`` column chunks in a
fixed order, independent of the row-block partition, so any ``block_rows``
override — and any process the call runs in — produces bitwise
identical matrices for the same input.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = [
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

#: Preferred number of row blocks per matrix, which keeps each float64
#: temporary to about a quarter of the full plane even for the paper's
#: 10-client rounds.
_TARGET_BLOCKS = 4


def _default_block_rows(n: int, dim: int) -> int:
    """Rows per block: bounded by the temp-memory budget and spread over
    ``_TARGET_BLOCKS`` blocks; a pure function of the matrix shape."""
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


def _cosine_block(block: np.ndarray, normalized: np.ndarray) -> np.ndarray:
    """Cosine similarities from ``block`` rows to every ``normalized`` row.

    Both operands are the float64 row-normalized matrix (the caller
    normalizes once), so every block is a plain float64 inner-product tile.
    The reduction runs through ``np.einsum`` (not BLAS) so each pair's
    accumulation order depends only on ``dim``, keeping the result bitwise
    independent of the row blocking — the same contract as
    :func:`_exact_distance_block`.
    """
    # repro: allow[DT001] both operands are the caller's float64
    # row-normalized matrix, invisible to the tracer
    return np.einsum("bd,nd->bn", block, normalized)


def _pairwise_matrix(
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    source: np.ndarray,
    rows_per_block: int,
) -> np.ndarray:
    """Assemble the full ``(n, n)`` matrix from row-block tiles of ``kernel``."""
    tiles = [
        kernel(source[start:stop], source)
        for start, stop in _row_blocks(source.shape[0], rows_per_block)
    ]
    return np.concatenate(tiles, axis=0)


def pairwise_sq_distances(
    matrix: np.ndarray,
    block_rows: Optional[int] = None,
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
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D (num_updates, dim)")
    n, dim = matrix.shape
    if n == 0:
        return np.zeros((0, 0), dtype=np.float64)
    rows = block_rows if block_rows is not None else _default_block_rows(n, dim)
    return _pairwise_matrix(_exact_distance_block, matrix, max(1, int(rows)))


def pairwise_cosine_similarities(
    matrix: np.ndarray,
    epsilon: float = 0.0,
    block_rows: Optional[int] = None,
) -> np.ndarray:
    """Float64 ``(n, n)`` cosine-similarity matrix of ``matrix`` rows.

    Rows are normalized once in float64 (``‖x‖ + epsilon`` in the
    denominator, matching FoolsGold's guard against zero histories); the
    Gram product then runs per row block like :func:`pairwise_sq_distances`.
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
    return _pairwise_matrix(_cosine_block, normalized, max(1, int(rows)))
