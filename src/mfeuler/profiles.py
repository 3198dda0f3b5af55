"""Initial-data profiles for density and bulk velocity.

Profiles are exactly periodic closed forms.  The density profile can be
normalized to unit mass (the probability-density convention both solvers
share); normalization constants come from a fine lattice quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import GridField, PeriodicGrid

DENSITY_FAMILIES = ("uniform", "bump", "sine")
VELOCITY_FAMILIES = ("zero", "constant", "sine")

_NORM_RESOLUTION = {1: 2**13, 2: 2**9}  # quadrature nodes per axis


@dataclass(frozen=True)
class DensityProfile:
    """Positive periodic density shape, optionally normalized to unit mass.

    * ``uniform``: 1
    * ``bump``: 1 + amplitude * exp(concentration * (cos(2 pi (x - L/2)/L) - 1))
      (a smooth periodic blob centered mid-box; product form in 2-d)
    * ``sine``: 1 + amplitude * sin(2 pi x_1 / L)
    """

    family: str = "bump"
    amplitude: float = 0.2
    concentration: float = 8.0
    period: float = 2.0 * np.pi
    dim: int = 1
    normalize: bool = True

    def __post_init__(self):
        if self.family not in DENSITY_FAMILIES:
            raise ValueError(f"unknown density family {self.family!r}")
        if self.family == "sine" and abs(self.amplitude) >= 1.0:
            raise ValueError("sine density amplitude must stay below 1 for positivity")
        if self.family == "bump" and self.amplitude <= -1.0:
            raise ValueError("bump density amplitude must exceed -1 for positivity")

    def shape_values(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        two_pi = 2.0 * np.pi / self.period
        if self.family == "uniform":
            return np.ones(pts.shape[0])
        if self.family == "sine":
            return 1.0 + self.amplitude * np.sin(two_pi * pts[:, 0])
        phases = np.cos(two_pi * (pts - 0.5 * self.period)) - 1.0
        return 1.0 + self.amplitude * np.exp(self.concentration * phases.sum(axis=1))

    @cached_property
    def mass(self):
        """Lattice quadrature of the raw shape over the torus."""
        grid = PeriodicGrid(self.dim, _NORM_RESOLUTION[self.dim], self.period)
        total = np.sum(self.shape_values(grid.points()))
        for _ in range(self.dim):
            total = total * grid.spacing
        return float(total)

    def __call__(self, points):
        vals = self.shape_values(points)
        return vals / self.mass if self.normalize else vals

    def on_grid(self, grid):
        return GridField(grid, self(grid.points()).reshape(grid.shape))


@dataclass(frozen=True)
class VelocityProfile:
    """Closed-form initial bulk velocity; component q varies along axis q."""

    family: str = "sine"
    amplitude: float = 0.1
    period: float = 2.0 * np.pi

    def __post_init__(self):
        if self.family not in VELOCITY_FAMILIES:
            raise ValueError(f"unknown velocity family {self.family!r}")

    def component(self, q, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.family == "zero":
            return np.zeros(pts.shape[0])
        if self.family == "constant":
            return np.full(pts.shape[0], self.amplitude)
        return self.amplitude * np.sin(2.0 * np.pi * pts[:, q] / self.period)

    def __call__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.stack([self.component(q, pts) for q in range(pts.shape[1])], axis=-1)

    def component_on_grid(self, grid, q):
        return GridField(grid, self.component(q, grid.points()).reshape(grid.shape))
