"""Periodic spectral grid engine.

Everything lives on a torus of side ``period`` sampled at ``points_per_dim``
equispaced nodes per axis (a power of two).  Fourier coefficients follow

    c_k = (1 / period**dim) * sum_j f(x_j) exp(-i lambda_k . x_j) * h**dim

with lattice frequencies lambda_k = 2 pi k / period, so that the s = 0
Sobolev norm coincides with the lattice L2 norm.  The torus is a
computational truncation of free space: initial data is expected to sit well
inside the box, and circular convolutions are exact in that regime.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache, cached_property, reduce

import numpy as np

from .errors import AlphaTooSmall, KernelAliasingWarning

DEFAULT_PERIOD = 4.0 * 2.0 * np.pi


def _lattice(axis, dim):
    """Every point of the product lattice axis**dim, shape (len(axis)**dim, dim), C order."""
    mesh = np.meshgrid(*(axis,) * dim, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic lattice: ``points_per_dim`` nodes per axis on [0, period)."""

    dim: int
    points_per_dim: int
    period: float = DEFAULT_PERIOD

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("grid dim must be 1 or 2")
        m = self.points_per_dim
        if m < 2 or (m & (m - 1)) != 0:
            raise ValueError("points_per_dim must be a power of two >= 2")
        if not self.period > 0:
            raise ValueError("period must be positive")

    @property
    def spacing(self):
        return self.period / self.points_per_dim

    @property
    def shape(self):
        return (self.points_per_dim,) * self.dim

    @property
    def cell_volume(self):
        return self.spacing**self.dim

    @cached_property
    def axis_coords(self):
        return np.arange(self.points_per_dim) * self.spacing

    @cached_property
    def axis_modes(self):
        """Integer mode numbers in FFT order: 0..M/2-1, -M/2..-1."""
        m = self.points_per_dim
        return np.fft.fftfreq(m, d=1.0 / m).astype(int)

    @cached_property
    def axis_freqs(self):
        return 2.0 * np.pi * self.axis_modes / self.period

    @cached_property
    def freq_mesh(self):
        return tuple(np.meshgrid(*(self.axis_freqs,) * self.dim, indexing="ij"))

    @cached_property
    def freq_norm_sq(self):
        total = np.zeros(self.shape)
        for lam in self.freq_mesh:
            total = total + lam * lam
        return total

    def points(self):
        """All lattice nodes, shape (M**dim, dim), in the C order of ``shape``."""
        return _lattice(self.axis_coords, self.dim)

    def wrapped_points(self):
        """All lattice nodes folded to [-period/2, period/2) (minimum image), shape (M**dim, dim)."""
        half = 0.5 * self.period
        return (self.points() + half) % self.period - half

    def wrap(self, points):
        return np.mod(points, self.period)


@dataclass
class GridField:
    """Real scalar field sampled on a periodic lattice."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(f"values shape {self.values.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    def integral(self):
        return float(np.sum(self.values) * self.grid.cell_volume)

    def copy(self):
        return GridField(self.grid, self.values.copy())


@dataclass
class SpectralField:
    """Fourier coefficients of a GridField in FFT ordering."""

    grid: PeriodicGrid
    coeffs: np.ndarray


def to_spectral(field: GridField) -> SpectralField:
    m_total = field.grid.points_per_dim**field.grid.dim
    return SpectralField(field.grid, np.fft.fftn(field.values) / m_total)


def to_physical(spec: SpectralField) -> GridField:
    m_total = spec.grid.points_per_dim**spec.grid.dim
    return GridField(spec.grid, np.fft.ifftn(spec.coeffs * m_total).real)


def spectral_derivative(field: GridField, axis: int = 0) -> GridField:
    """Differentiate along ``axis`` by multiplying coefficients with i*lambda.

    The unmatched Nyquist mode is zeroed to keep the result real-symmetric.
    """
    grid = field.grid
    spec = to_spectral(field)
    lam = grid.freq_mesh[axis]
    coeffs = spec.coeffs * (1j * lam)
    nyquist = grid.axis_modes == -(grid.points_per_dim // 2)
    coeffs[(slice(None),) * axis + (nyquist,)] = 0.0
    return to_physical(SpectralField(grid, coeffs))


def sample_kernel(grid: PeriodicGrid, kernel) -> np.ndarray:
    """Sample a callable kernel at minimum-image lattice displacements."""
    vals = np.asarray(kernel(grid.wrapped_points()), dtype=float)
    return vals.reshape(grid.shape)


def convolve(field: GridField, kernel, mass_outside=None) -> GridField:
    """Circular convolution of a field with a kernel via spectral multiplication.

    Parameters
    ----------
    kernel : callable or ndarray
        Either an evaluable kernel (called on minimum-image lattice points)
        or pre-sampled lattice values of shape ``grid.shape``.
    mass_outside : float, optional
        Known kernel mass outside the half-period box; a
        ``KernelAliasingWarning`` is emitted when it exceeds 1e-6.
    """
    grid = field.grid
    if callable(kernel):
        kvals = sample_kernel(grid, kernel)
    else:
        kvals = np.asarray(kernel, dtype=float).reshape(grid.shape)
    if mass_outside is not None and mass_outside > 1e-6:
        warnings.warn(
            f"kernel mass {mass_outside:.3e} outside the half-period box wraps around",
            KernelAliasingWarning,
            stacklevel=2,
        )
    out = np.fft.ifftn(np.fft.fftn(field.values) * np.fft.fftn(kvals)).real * grid.cell_volume
    return GridField(grid, out)


def sobolev_norm(field: GridField, s: float) -> float:
    """Bessel-type Sobolev norm on the torus; s = 0 is the lattice L2 norm."""
    grid = field.grid
    coeffs = to_spectral(field).coeffs
    weight = (1.0 + grid.freq_norm_sq) ** s
    total = grid.period**grid.dim * np.sum(weight * np.abs(coeffs) ** 2)
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# Empirical measures: deposits and negative-Sobolev distances
# ---------------------------------------------------------------------------


@dataclass
class EmpiricalMeasure:
    """Atomic measure supported on particle positions.

    ``weights=None`` means the uniform probability weights 1/N.  Explicit
    weights may be scalar per point, shape (N,), or vector-valued, shape
    (N, m), e.g. velocity/N weights for the momentum measure.
    """

    points: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape[0] != self.points.shape[0]:
                raise ValueError("weights and points must agree on the particle count")

    @property
    def n_points(self):
        return self.points.shape[0]

    def scalar_weights(self):
        if self.weights is None:
            return np.full(self.n_points, 1.0 / self.n_points)
        if self.weights.ndim != 1:
            raise ValueError("expected scalar per-point weights")
        return self.weights

    def total_weight(self):
        return 1.0 if self.weights is None else float(np.sum(self.weights))


def _stencil(points: np.ndarray, grid: PeriodicGrid, scheme: str):
    """Assignment stencil shared by ``deposit`` and ``interpolate``.

    Returns ``(flat, factors)``.  ``flat`` holds the flat node index of every
    (corner, point) pair: shape (1, n_points) for ``nearest``, and for
    ``linear`` shape (2,) * dim + (n_points,) with the last axis's corner
    offset first, so that in C order axis 0 varies fastest.  ``factors`` holds
    the barycentric weight factors of the axes in axis order (none for
    ``nearest``), each broadcastable to ``flat.shape``; a corner's weight is
    their product, multiplied in that order.
    """
    m = grid.points_per_dim
    wrap = m - 1  # index & wrap == index mod m, as m is a power of two
    flat = 0
    factors = []
    for a, u in enumerate((points / grid.spacing).T):  # node units, one axis at a time
        if scheme == "nearest":
            node = np.rint(u).astype(int)[None] & wrap
        else:
            base = np.floor(u).astype(int)
            frac = u - base
            corner_shape = (2,) + (1,) * a + (u.size,)
            node = (np.array([base, base + 1]) & wrap).reshape(corner_shape)
            factors.append(np.array([1.0 - frac, frac]).reshape(corner_shape))
        flat = flat * m + node
    return flat, factors


def _weighted(values, factors):
    for f in factors:
        values = values * f
    return values


def deposit(measure: EmpiricalMeasure, grid: PeriodicGrid, scheme: str = "linear") -> GridField:
    """Spread particle weights onto the lattice as a density field.

    ``nearest`` assigns each particle to its closest node; ``linear`` spreads
    it over the 2**dim surrounding nodes with barycentric weights.  The
    lattice integral of the result equals the total deposited weight.
    """
    if scheme not in ("nearest", "linear"):
        raise ValueError(f"unknown deposit scheme {scheme!r}")
    flat, factors = _stencil(measure.points, grid, scheme)
    weights = _weighted(measure.scalar_weights(), factors)
    # corner-major order: each node sums its corner-0 contributions first, in particle order
    out = np.bincount(flat.ravel(), weights.ravel(), minlength=grid.points_per_dim**grid.dim)
    return GridField(grid, out.reshape(grid.shape) / grid.cell_volume)


def interpolate(field: GridField, points: np.ndarray, scheme: str = "linear") -> np.ndarray:
    """Read a lattice field back at arbitrary points (inverse of deposit)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if scheme == "spectral":
        return _trig_interpolate(field, pts)
    if scheme not in ("nearest", "linear"):
        raise ValueError(f"unknown interpolation scheme {scheme!r}")
    flat, factors = _stencil(pts, field.grid, scheme)
    terms = _weighted(field.values.ravel()[flat], factors)
    return terms.reshape(-1, pts.shape[0]).sum(axis=0)  # corners added in order


def _axis_phases(freqs: np.ndarray, points: np.ndarray, sign: complex):
    """Per-axis factors exp(sign * lambda * x_a) of the mode phases, one (n_freqs, n_points) table per axis.

    A mode's phase at a point is the product of its axes' factors, so a
    d-dimensional mode sum needs d tables of exponentials, not one per
    (mode, point) pair.
    """
    return [np.exp(sign * np.outer(freqs, x)) for x in points.T]


def _trig_interpolate(field: GridField, pts: np.ndarray) -> np.ndarray:
    """Type-2 mode sum: the trigonometric interpolant of the field at ``pts``."""
    grid = field.grid
    # contiguous (points, modes) tables: BLAS then sums each point's modes along a row
    phases = [np.ascontiguousarray(t.T) for t in _axis_phases(grid.axis_freqs, pts, 1j)]
    vals = np.tensordot(phases[-1], to_spectral(field).coeffs, axes=(1, -1))
    for phase in reversed(phases[:-1]):
        vals = np.einsum("n...k,nk->n...", vals, phase)
    return vals.real


@cache
def assignment_window(grid: PeriodicGrid, scheme: str) -> np.ndarray:
    """Fourier transform of the deposit assignment window (per-mode), built once per (grid, scheme)."""
    power = {"nearest": 1, "linear": 2}[scheme]
    axis = np.sinc(grid.axis_modes / grid.points_per_dim) ** power
    window = reduce(np.multiply.outer, (axis,) * grid.dim)
    window.flags.writeable = False
    return window


def _mode_axis(grid: PeriodicGrid, cutoff: int) -> np.ndarray:
    """Integer modes of one axis of the mode set."""
    if cutoff > grid.points_per_dim // 2:
        raise ValueError("freq_cutoff exceeds the grid Nyquist mode")
    top = cutoff + 1 if cutoff < grid.points_per_dim // 2 else cutoff
    return np.arange(-cutoff, top)


def mode_set(grid: PeriodicGrid, cutoff: int):
    """Integer modes with |k|_inf <= cutoff and their frequency vectors.

    At the Nyquist cutoff M/2 the lattice holds a single unmatched mode, so
    +M/2 is dropped rather than double-counting it.
    """
    modes = _lattice(_mode_axis(grid, cutoff), grid.dim)
    return modes, 2.0 * np.pi * modes / grid.period


def measure_mode_coefficients(measure: EmpiricalMeasure, grid: PeriodicGrid, cutoff: int):
    """Characteristic-function coefficients of an empirical measure.

    Returns an array of shape (n_modes,) for scalar weights or (n_modes, m)
    for vector weights, normalized like field coefficients (1/period**dim
    factor), computed by direct summation over particles.
    """
    lam = 2.0 * np.pi * _mode_axis(grid, cutoff) / grid.period
    phases = _axis_phases(lam, measure.points, -1j)
    phase = phases[0]
    for axis_phase in phases[1:]:
        phase = (phase[:, None, :] * axis_phase[None, :, :]).reshape(-1, measure.n_points)
    if measure.weights is None:
        coeffs = phase.mean(axis=1)
    else:
        coeffs = phase @ measure.weights
    return coeffs / grid.period**grid.dim


def field_mode_coefficients(field: GridField, cutoff: int):
    """Field Fourier coefficients restricted to |k|_inf <= cutoff, in mode-set order."""
    grid = field.grid
    modes, _ = mode_set(grid, cutoff)
    return to_spectral(field).coeffs[tuple(np.mod(modes, grid.points_per_dim).T)]


def neg_sobolev_distance(measure, fields, alpha, freq_cutoff=None, grid=None, check_alpha=True):
    """Negative-Sobolev distance between an empirical measure and grid fields.

    Compares characteristic-function coefficients of the measure with field
    coefficients over modes |k|_inf <= cutoff, weighted by
    (1 + |lambda|^2)**(-alpha).  ``fields`` may be a single GridField, a
    sequence of component fields matching vector weights, or ``None`` for the
    zero field (then ``grid`` must be supplied).  ``check_alpha=False``
    computes the bare truncated sum, which is finite for any alpha; it exists
    for oracle comparisons only.

    Raises
    ------
    AlphaTooSmall
        Unless alpha > dim/2 + 1, the frequency tail over point masses does
        not converge as the cutoff grows.
    """
    if fields is None:
        if grid is None:
            raise ValueError("grid required when comparing against the zero field")
        components = None
    elif isinstance(fields, GridField):
        grid = fields.grid
        components = [fields]
    else:
        components = list(fields)
        grid = components[0].grid
    if check_alpha and alpha <= grid.dim / 2.0 + 1.0:
        raise AlphaTooSmall(f"alpha = {alpha} must exceed dim/2 + 1 = {grid.dim / 2 + 1}")
    cutoff = grid.points_per_dim // 2 if freq_cutoff is None else int(freq_cutoff)

    mcoeffs = measure_mode_coefficients(measure, grid, cutoff)
    if mcoeffs.ndim == 1:
        mcoeffs = mcoeffs[:, None]
    n_comp = mcoeffs.shape[1]
    if components is None:
        fcoeffs = np.zeros_like(mcoeffs)
    else:
        if len(components) != n_comp:
            raise ValueError("component count of fields and measure weights differ")
        fcoeffs = np.stack([field_mode_coefficients(f, cutoff) for f in components], axis=-1)

    _, freqs = mode_set(grid, cutoff)
    weight = (1.0 + np.sum(freqs * freqs, axis=1)) ** (-alpha)
    diff2 = np.sum(np.abs(mcoeffs - fcoeffs) ** 2, axis=1)
    total = grid.period**grid.dim * np.sum(weight * diff2)
    return float(np.sqrt(total))


def neg_sobolev_tail_bound(grid: PeriodicGrid, alpha, cutoff, mass_bound=2.0, outer=None):
    """Bound for the distance-squared mass in modes with |k|_inf > cutoff.

    Characteristic coefficients of measures with total variation at most
    ``mass_bound`` are bounded by mass_bound/period**dim, so the tail of the
    squared distance is at most the weighted mode count times that square.
    ``outer`` limits the sum to cutoff < |k|_inf <= outer (default: grid
    Nyquist plus a continuum estimate beyond).
    """
    lam_unit = 2.0 * np.pi / grid.period
    coeff = grid.period**grid.dim * (mass_bound / grid.period**grid.dim) ** 2

    def lattice_sum(k_lo, k_hi):
        k = np.arange(-k_hi, k_hi + 1)
        if grid.dim == 1:
            sel = np.abs(k) > k_lo
            lam2 = (lam_unit * k[sel]) ** 2
        else:
            kx, ky = np.meshgrid(k, k, indexing="ij")
            sel = np.maximum(np.abs(kx), np.abs(ky)) > k_lo
            lam2 = lam_unit**2 * (kx[sel] ** 2 + ky[sel] ** 2)
        return float(np.sum((1.0 + lam2) ** (-alpha)))

    if outer is not None:
        return coeff * lattice_sum(cutoff, int(outer))
    inner = lattice_sum(cutoff, max(4 * cutoff, 64))
    # continuum estimate beyond the explicit range (mode density 1/lam_unit per axis)
    lam_max = lam_unit * max(4 * cutoff, 64)
    if grid.dim == 1:
        cont = 2.0 * lam_max ** (1 - 2 * alpha) / ((2 * alpha - 1) * lam_unit)
    else:
        cont = 2.0 * np.pi * lam_max ** (2 - 2 * alpha) / ((2 * alpha - 2) * lam_unit**2)
    return coeff * (inner + cont)
