"""Initial-data profiles for density and bulk velocity.

Profiles are exactly periodic closed forms.  The density profile can be
normalized to unit mass (the probability-density convention both solvers
share); normalization constants come from a fine lattice quadrature, and the
raw shape on that lattice is evaluated once per profile value.  Each density
family is one term per axis combined across the axes, so the lattice shape
evaluates that term on the M axis coordinates only and combines them, with
no point cloud of the lattice; points and lattice share one expression per
family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DensityNotNormalizable
from .fields import GridField, PeriodicGrid, as_points, read_only

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
        if self.dim not in _NORM_RESOLUTION:
            raise ValueError(f"density dim must be 1 or 2, got {self.dim!r}")
        if not self.period > 0:
            raise ValueError(f"density period must be positive, got {self.period!r}")
        for name in ("amplitude", "concentration"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"density {name} must not be NaN or infinite, got {getattr(self, name)!r}")
        if not self.concentration > 0:
            raise ValueError(f"density concentration must be positive, got {self.concentration!r}")
        if self.family == "sine" and abs(self.amplitude) >= 1.0:
            raise ValueError("sine density amplitude must lie in (-1, 1) for positivity")
        if self.family == "bump" and self.amplitude <= -1.0:
            raise ValueError("bump density amplitude must exceed -1 for positivity")

    def _axis_term(self, x):
        """The family's term at coordinates ``x`` of one axis, a new array: the bump's cosine phase, or the sine."""
        two_pi = 2.0 * np.pi / self.period
        if self.family == "sine":
            return np.sin(two_pi * x)
        return np.cos(two_pi * (x - 0.5 * self.period)) - 1.0

    def _finish(self, combined):
        """1 + amplitude * exp(concentration * combined) for the bump, 1 + amplitude * combined for the sine,
        in place on ``combined``, which it returns."""
        if self.family == "bump":
            combined *= self.concentration
            np.exp(combined, out=combined)
        combined *= self.amplitude
        combined += 1.0
        return combined

    def shape_values(self, points):
        pts = as_points(points, self.dim)
        if self.family == "uniform":
            return np.ones(pts.shape[0])
        if self.family == "sine":
            return self._finish(self._axis_term(pts[:, 0]))
        return self._finish(self._axis_term(pts).sum(axis=1))

    @property
    def lattice(self) -> PeriodicGrid:
        """The normalization lattice: ``_NORM_RESOLUTION[dim]`` nodes per axis over the period."""
        return PeriodicGrid(self.dim, _NORM_RESOLUTION[self.dim], self.period)

    @cache
    def lattice_shape(self) -> np.ndarray:
        """Raw shape at every node of ``lattice``, flat in the C order of ``lattice.points()``, read-only.

        The family's term is evaluated on the axis coordinates and combined in one lattice array: in
        2-d the bump's phases add across the axes (``np.add.outer``) and the sine, which varies along
        axis 0, the slow index, repeats each value along axis 1.  Evaluated once per profile value and
        kept for the process: equal profiles share one array.
        """
        lattice = self.lattice
        m = lattice.points_per_dim
        if self.family == "uniform":
            return read_only(np.ones(m**self.dim))
        term = self._axis_term(lattice.axis_coords)
        if self.dim == 2:
            term = np.add.outer(term, term).ravel() if self.family == "bump" else np.repeat(term, m)
        return read_only(self._finish(term))

    @cached_property
    def mass(self):
        """Lattice quadrature of the raw shape over the torus."""
        h = self.lattice.spacing
        total = np.sum(self.lattice_shape())
        for _ in range(self.dim):
            total = total * h
        return float(total)

    def lattice_density(self) -> np.ndarray:
        """The density on ``lattice``, flat in C order, as a new array the caller may write: the raw
        shape, over its mass if the profile normalizes.  Raises DensityNotNormalizable unless its
        lattice mass is within 1e-6 of 1."""
        dens = self.lattice_shape() / self.mass if self.normalize else self.lattice_shape().copy()
        mass = float(np.sum(dens) * self.lattice.cell_volume)
        if not abs(mass - 1.0) <= 1e-6:  # a NaN mass fails too
            raise DensityNotNormalizable(f"density mass {mass!r} deviates from 1 by more than 1e-6")
        return dens

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
        if not self.period > 0:
            raise ValueError(f"velocity period must be positive, got {self.period!r}")
        if not np.isfinite(self.amplitude):
            raise ValueError(f"velocity amplitude must not be NaN or infinite, got {self.amplitude!r}")

    def component(self, q, points):
        pts = as_points(points)
        if self.family == "zero":
            return np.zeros(pts.shape[0])
        if self.family == "constant":
            return np.full(pts.shape[0], self.amplitude)
        return self.amplitude * np.sin(2.0 * np.pi * pts[:, q] / self.period)

    def __call__(self, points):
        pts = as_points(points)
        return np.stack([self.component(q, pts) for q in range(pts.shape[1])], axis=-1)
