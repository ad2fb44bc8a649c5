"""Uniform rectangular grids holding sampled height functions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle [x1_min, x1_max] x [x2_min, x2_max]."""

    x1_min: float
    x1_max: float
    x2_min: float
    x2_max: float

    def __post_init__(self):
        vals = (self.x1_min, self.x1_max, self.x2_min, self.x2_max)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("rectangle extents must be finite")
        if self.x1_max <= self.x1_min or self.x2_max <= self.x2_min:
            raise ValueError("rectangle extents must be strictly increasing")

    @property
    def width1(self) -> float:
        return self.x1_max - self.x1_min

    @property
    def width2(self) -> float:
        return self.x2_max - self.x2_min


@dataclass(frozen=True)
class GridFunction:
    """A scalar function u sampled on a uniform rectangular grid.

    ``values[j, i]`` is the sample at ``(x1_min + i*h1, x2_min + j*h2)``:
    rows run in x2, columns in x1 (row-major with x2 increasing by row).
    Values are finite and immutable after construction.
    """

    rect: Rectangle
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError("values must be a 2-D array (ny, nx)")
        ny, nx = vals.shape
        if nx < 3 or ny < 3:
            raise ValueError("grid needs at least 3 nodes in each direction")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must all be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    @property
    def ny(self) -> int:
        return self.values.shape[0]

    @property
    def h1(self) -> float:
        return self.rect.width1 / (self.nx - 1)

    @property
    def h2(self) -> float:
        return self.rect.width2 / (self.ny - 1)

    def x1(self) -> np.ndarray:
        return np.linspace(self.rect.x1_min, self.rect.x1_max, self.nx)

    def x2(self) -> np.ndarray:
        return np.linspace(self.rect.x2_min, self.rect.x2_max, self.ny)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays X1, X2 of shape (ny, nx)."""
        return np.meshgrid(self.x1(), self.x2())
