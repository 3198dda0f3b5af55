"""Shared Brownian paths and the multiplicative noise coefficient field.

Reproducibility contract: every random draw comes from a counter-based Philox
generator keyed by (master_seed, stream tags).  Given the same master seed the
emitted bytes are identical regardless of how work is scheduled across
threads, and a sample's noise path does not depend on the particle count, so
sweeps over N reuse common random numbers by construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cache

import numpy as np


def stream(master_seed: int, *tags) -> np.random.Generator:
    """Deterministic generator for the stream identified by (master_seed, *tags)."""
    digest = hashlib.sha256(repr((int(master_seed),) + tuple(tags)).encode()).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class NoisePath:
    """Brownian increments over a uniform step grid, shared by both solvers."""

    increments: np.ndarray  # (steps, dim)
    dt: float
    master_seed: int
    sample_index: int

    @classmethod
    def generate(cls, master_seed, sample_index, n_steps, dim, dt):
        rng = stream(master_seed, "noise", int(sample_index))
        inc = rng.standard_normal((n_steps, dim)) * np.sqrt(dt)
        return cls(inc, float(dt), int(master_seed), int(sample_index))

    @property
    def n_steps(self):
        return self.increments.shape[0]

    @property
    def dim(self):
        return self.increments.shape[1]

    def terminal(self):
        """B_T, the terminal value of the path."""
        return self.increments.sum(axis=0)

    def coarsen(self, factor: int) -> "NoisePath":
        """Aggregate consecutive increments: the same path on a coarser step grid."""
        if self.n_steps % factor:
            raise ValueError("coarsening factor must divide the step count")
        inc = self.increments.reshape(self.n_steps // factor, factor, self.dim).sum(axis=1)
        return NoisePath(inc, self.dt * factor, self.master_seed, self.sample_index)


SIGMA_FAMILIES = ("constant", "sinusoidal")


@dataclass(frozen=True)
class SigmaField:
    """Per-component noise coefficient sigma_q(x), bounded with bounded gradient.

    ``constant`` is sigma_q(x) = base; ``sinusoidal`` modulates each component
    along its own axis: base * (1 + modulation * sin(2 pi x_q / period)).
    """

    family: str = "constant"
    base: float = 0.0
    modulation: float = 0.0
    period: float = 2.0 * np.pi

    def __post_init__(self):
        if self.family not in SIGMA_FAMILIES:
            raise ValueError(f"unknown sigma family {self.family!r}")
        if self.family == "sinusoidal" and self.period <= 0:
            raise ValueError("sigma period must be positive")

    def values(self, points: np.ndarray) -> np.ndarray:
        """Evaluate all components at points of shape (n, dim) -> (n, dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.family == "constant":
            return np.full_like(pts, self.base)
        return self.base * (1.0 + self.modulation * np.sin(2.0 * np.pi * pts / self.period))

    @cache
    def component_on_grid(self, grid, q: int) -> np.ndarray:
        """Component q at every lattice node, shape ``grid.shape``; built once per (sigma, grid, q), read-only."""
        vals = np.ascontiguousarray(self.values(grid.points())[:, q]).reshape(grid.shape)
        vals.flags.writeable = False
        return vals

    def sup_bounds(self, grid) -> tuple[float, float]:
        """Lattice estimates of sup|sigma| and sup|grad sigma| (C_b^1 check)."""
        sup_val = 0.0
        sup_grad = 0.0
        for q in range(grid.dim):
            vals = self.component_on_grid(grid, q)
            sup_val = max(sup_val, float(np.max(np.abs(vals))))
            grad = np.gradient(vals, grid.spacing, axis=q)
            sup_grad = max(sup_grad, float(np.max(np.abs(grad))))
        return sup_val, sup_grad
