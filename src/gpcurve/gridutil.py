"""Small grid helpers shared across modules."""

from __future__ import annotations

import numpy as np

__all__ = ["check_grid", "default_lambda_grid", "grid_positions", "pooled_union"]


def check_grid(grid, name: str = "grid") -> np.ndarray:
    """Validate a strictly increasing 1-d grid, naming the offending index."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array")
    diffs = np.diff(grid)
    bad = np.flatnonzero(diffs <= 0.0)
    if bad.size:
        i = int(bad[0])
        if diffs[i] == 0.0:
            raise ValueError(
                f"{name} has duplicate points at indices {i} and {i + 1} "
                f"(value {float(grid[i])!r})"
            )
        raise ValueError(f"{name} must be strictly increasing (violated at index {i})")
    return grid


def grid_positions(grid: np.ndarray, points: np.ndarray, what: str, where: str) -> np.ndarray:
    """Positions of ``points`` in the sorted ``grid``.  Raises ``ValueError``
    ("<what> has grid points outside <where>") unless each point is a point
    of the grid."""
    idx = np.searchsorted(grid, points)
    if np.any(idx >= grid.size) or not np.array_equal(grid[idx], points):
        raise ValueError(f"{what} has grid points outside {where}")
    return idx.astype(np.intp)


def pooled_union(grids) -> np.ndarray:
    """Sorted union of several 1-d grids with exact duplicates removed."""
    return np.unique(np.concatenate([np.asarray(g, dtype=float) for g in grids]))


def default_lambda_grid(start: float = 0.90, stop: float = 0.99, step: float = 0.01) -> np.ndarray:
    """Candidate interpolation weights, inclusive of both ends."""
    count = int(round((stop - start) / step)) + 1
    return np.round(np.linspace(start, stop, count), 12)
