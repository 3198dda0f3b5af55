"""Periodic spectral grid engine.

Everything lives on a torus of side ``period`` sampled at ``points_per_dim``
equispaced nodes per axis (a power of two), with lattice frequencies
lambda_k = 2 pi k / period.  The grid owns the package's one Fourier layout,
the ``rfftn`` half spectrum over the trailing lattice axes of any stack of
real fields: ``PeriodicGrid.rfft``/``irfft`` transform to and from it (no
other module calls ``np.fft``), with the one-axis transforms that ``rfftn``
is made of and so to its bits, into an ``out`` array if the caller hands
one in, and ``PeriodicGrid.half`` cuts a full
FFT-order array to it.  The leading axes keep all their modes, the last axis
its columns 0..M/2, and each interior column stands for itself and its
conjugate partner.  ``sobolev_weight`` carries the Bessel factor
(1 + |lambda|^2)**s, that column multiplicity and the normalisation, so that
||f||_s^2 = sum sobolev_weight(grid, s) * |grid.rfft(f)|^2.  Every distance
is that sum, ``sobolev_mode_sum``, on the half box |k|_inf <= cutoff of
``_mode_box``, of a difference of (components, modes) arrays: fields'
``box_spectra`` or a measure's phase sums (type 1), (modes, m) for its (N, m)
weights, over the cell volume, summed over blocks of points of ``PHASE_BLOCK``
table entries, so that their memory does not grow with N.  ``interpolate``,
the one lattice reader, reads a stack of fields by the stencil or by the
spectral interpolant (type 2): the real part of the multiplicity-weighted coefficients against
exp(+i lambda_k . x) at the Nyquist cutoff.
At that cutoff in 2-d the leading axis's Nyquist row counts as -M/2 on the
half-spectrum columns and as +M/2 through their conjugate partners; on the
lattice nodes the two agree.  The torus is a computational truncation of
free space: initial data is expected to sit well inside the box, and
circular convolutions are exact in that regime.  The one assignment stencil
``_stencil`` and its adjoint ``gather`` fill arrays their caller hands in,
if it does, in place of new ones: the particle-mesh pass hands in the
arrays its sweep's state owns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, reduce

import numpy as np

from .errors import AlphaTooSmall

DEFAULT_PERIOD = 4.0 * 2.0 * np.pi

# Complex entries of one block of points in ``measure_mode_coefficients``: the block's two phase tables and
# its weighted copy of the left one, 512 KiB in all, which stay in cache and bound a call's memory.
PHASE_BLOCK = 2**15


def _lattice(axis, dim):
    """Every point of the product lattice axis**dim, shape (len(axis)**dim, dim), C order."""
    mesh = np.meshgrid(*(axis,) * dim, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def as_points(points, dim=None) -> np.ndarray:
    """``points`` as a float (n, dim) array, a row per point in 1-d too (any width for ``dim=None``); else ValueError."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or dim not in (None, pts.shape[1]):
        raise ValueError(f"expected points of shape (n, {'dim' if dim is None else dim}), got shape {pts.shape}")
    return pts


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

    def rfft(self, values: np.ndarray, out=None) -> np.ndarray:
        """Half spectrum of a stack of real fields, shape (...) + grid.shape: ``rfftn`` over the lattice axes.

        ``rfftn`` is this composition, one-axis ``rfft`` over the last axis then ``fft`` over the one before
        it in 2-d, so the bits are its bits; the one-axis calls skip its argument handling.  ``out``, if
        given, receives the spectrum from the last one-axis call.
        """
        if self.dim == 1:
            return np.fft.rfft(values, out=out)
        return np.fft.fft(np.fft.rfft(values), axis=-2, out=out)

    def irfft(self, spectrum: np.ndarray, out=None) -> np.ndarray:
        """The real fields, shape (...) + grid.shape, of a stack of half spectra: the inverse of ``rfft``,
        ``ifft`` over axis -2 in 2-d then ``irfft`` to M points over the last axis, as ``irfftn`` does;
        ``out``, if given, receives the fields from that last call."""
        if self.dim == 2:
            spectrum = np.fft.ifft(spectrum, axis=-2)
        return np.fft.irfft(spectrum, self.points_per_dim, out=out)

    def half(self, array: np.ndarray) -> np.ndarray:
        """Columns 0..M/2 of the last axis of a full FFT-order array: the modes ``rfft`` keeps."""
        return array[..., : self.points_per_dim // 2 + 1]


@dataclass
class GridField:
    """Real scalar field sampled on a periodic lattice."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(f"values shape {self.values.shape} != grid shape {self.grid.shape}")

    def integral(self):
        return float(np.sum(self.values) * self.grid.cell_volume)


def sample_kernel(grid: PeriodicGrid, kernel) -> np.ndarray:
    """Sample a callable kernel at minimum-image lattice displacements: shape grid.shape, or
    (components,) + grid.shape for a kernel whose values have shape (n_points, components)."""
    vals = np.asarray(kernel(grid.wrapped_points()), dtype=float)
    return vals.reshape(grid.shape) if vals.ndim == 1 else vals.T.reshape((-1,) + grid.shape)


def read_only(array: np.ndarray) -> np.ndarray:
    """``array`` itself, made read-only: how every cached operator is handed out."""
    array.flags.writeable = False
    return array


def _column_multiplicity(grid: PeriodicGrid) -> np.ndarray:
    """Modes per half-spectrum column: 2 on interior columns, which stand for their conjugate partners too, else 1."""
    return np.r_[1.0, np.full(grid.points_per_dim // 2 - 1, 2.0), 1.0]


@cache
def sobolev_weight(grid: PeriodicGrid, s: float) -> np.ndarray:
    """Weights w with ||f||_s^2 = sum w * |grid.rfft(f)|^2, read-only: (1 + |lambda|^2)**s times the
    column multiplicity and the normalisation period**dim / M**(2 dim)."""
    norm_sq = grid.half(grid.freq_norm_sq)  # |lambda|^2 is even in every mode number
    norm = grid.period**grid.dim / float(grid.points_per_dim**grid.dim) ** 2
    return read_only((1.0 + norm_sq) ** s * _column_multiplicity(grid) * norm)


# ---------------------------------------------------------------------------
# Empirical measures: deposits and negative-Sobolev distances
# ---------------------------------------------------------------------------


@dataclass
class EmpiricalMeasure:
    """Atomic measure supported on particle positions.

    ``weights`` is (N, m) after construction, a column per component, e.g.
    velocity/N for the momentum measure: ``None`` becomes one column of the
    uniform probability weights 1/N and an (N,) array one column.  A measure
    of no points, or with a non-finite point or weight, is a ValueError.
    """

    points: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.points = as_points(self.points)
        n = self.n_points
        if n == 0:
            raise ValueError("an empirical measure needs at least one point")
        weights = np.full((n, 1), 1.0 / n) if self.weights is None else np.asarray(self.weights, dtype=float)
        if weights.ndim not in (1, 2) or weights.shape[0] != n:
            raise ValueError(f"weights of shape {weights.shape} for {n} points: expected (N,) or (N, m)")
        self.weights = weights[:, None] if weights.ndim == 1 else weights
        for name, values in (("points", self.points), ("weights", self.weights)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"an empirical measure with non-finite {name}")

    @property
    def n_points(self):
        return self.points.shape[0]


def _stencil(nodes: np.ndarray, grid: PeriodicGrid, scheme: str, out=None):
    """Assignment stencil of points given in node units (position / spacing).

    The one stencil behind every particle-lattice transfer: ``deposit``,
    ``interpolate`` (the fluid velocity read-back) and the particle-mesh pass.
    Returns ``(flat, weights)`` of one shape: (1, n_points) for ``nearest``,
    and for ``linear`` (2,) * dim + (n_points,) with the last axis's corner
    offset first, so that in C order axis 0 varies fastest.  ``flat`` holds
    the flat node index of every (corner, point) pair and ``weights`` its
    barycentric weight, the product of the axes' factors in axis order (ones
    for ``nearest``).  Node indices wrap with an integer mask, so a shifted
    coordinate needs no float wrap.  ``out``, a ``(flat, weights)`` pair of
    that shape, receives the stencil in place of two new arrays.
    """
    nodes = as_points(nodes, grid.dim)
    n = nodes.shape[0]
    m = grid.points_per_dim
    wrap = m - 1  # index & wrap == index mod m, as m is a power of two
    corners = 1 if scheme == "nearest" else 2
    if out is None:
        shape = (corners,) * (grid.dim if corners == 2 else 1) + (n,)
        out = np.empty(shape, dtype=int), np.empty(shape)
    flat, weights = (array.reshape(-1, n) for array in out)  # in row j, axis a's corner is digit a of j in base corners
    for a, u in enumerate(nodes.T):  # one axis at a time
        if a == 0:  # straight into the first rows
            node, factor = flat[:corners], weights[:corners]
        else:
            node, factor = np.empty((corners, n), dtype=int), np.empty((corners, n))
        if scheme == "nearest":
            np.rint(u, out=factor[0])
            node[0] = factor[0]
            factor.fill(1.0)
        else:  # (1 - frac, frac), the floor held in factor[0] first
            np.floor(u, out=factor[0])
            node[0] = factor[0]
            np.add(node[0], 1, out=node[1])
            np.subtract(u, factor[0], out=factor[1])
            np.subtract(1.0, factor[1], out=factor[0])
        node &= wrap
        if a > 0:
            done = corners**a  # rows filled by the earlier axes; block c is them times m plus corner c, the last first
            for c in reversed(range(corners)):
                block = slice(c * done, (c + 1) * done)
                np.multiply(flat[:done], m, out=flat[block])
                flat[block] += node[c]
                np.multiply(weights[:done], factor[c], out=weights[block])
    return out


def gather(values: np.ndarray, stencil, terms=None) -> np.ndarray:
    """Read lattice fields at the stencil's points, shape (n_points, components): the deposit's adjoint.

    ``values`` has shape (components,) + grid.shape.  Each point's value is
    its corners' weighted node values added in corner order.  ``terms``, an
    array of shape (components,) + the stencil's shape, holds the weighted
    node values in place of a new array.
    """
    flat, weights = stencil
    n = flat.shape[-1]
    if terms is None:
        terms = np.empty((len(values),) + flat.shape)
    np.take(values.reshape(len(values), -1), flat, axis=1, out=terms, mode="clip")  # in range; "clip" skips a copy
    terms *= weights
    return terms.reshape(len(values), -1, n).sum(axis=1).T


def deposit(measure: EmpiricalMeasure, grid: PeriodicGrid, scheme: str = "linear") -> GridField:
    """Spread particle weights, one column, onto the lattice as a density field.

    ``nearest`` assigns each particle to its closest node; ``linear`` spreads
    it over the 2**dim surrounding nodes with barycentric weights.  The
    lattice integral of the result equals the total deposited weight.
    """
    if scheme not in ("nearest", "linear"):
        raise ValueError(f"unknown deposit scheme {scheme!r}")
    if measure.weights.shape[1] != 1:
        raise ValueError("expected scalar per-point weights")
    flat, weights = _stencil(measure.points / grid.spacing, grid, scheme)
    weights = weights * measure.weights[:, 0]
    # corner-major order: each node sums its corner-0 contributions first, in particle order
    out = np.bincount(flat.ravel(), weights.ravel(), minlength=grid.points_per_dim**grid.dim)
    return GridField(grid, out.reshape(grid.shape) / grid.cell_volume)


def interpolate(values: np.ndarray, points, grid: PeriodicGrid, scheme: str = "linear") -> np.ndarray:
    """Read lattice fields ``values``, shape (components,) + grid.shape, at points (n, grid.dim): shape (n, components).

    The adjoint of ``deposit``; one stencil, or one pair of phase tables for ``spectral``, serves every
    component.  Values whose trailing shape is not ``grid.shape`` are a ValueError.
    """
    if np.shape(values)[1:] != grid.shape:
        raise ValueError(f"values of shape {np.shape(values)} on a grid of shape {grid.shape}: expected (components,) + grid shape")
    pts = np.asarray(points, dtype=float)
    if scheme == "spectral":
        return _trig_interpolate(grid, values, pts)
    if scheme not in ("nearest", "linear"):
        raise ValueError(f"unknown interpolation scheme {scheme!r}")
    return gather(values, _stencil(pts / grid.spacing, grid, scheme))


@cache
def assignment_window(grid: PeriodicGrid, scheme: str) -> np.ndarray:
    """Fourier transform of the deposit assignment window (per-mode), built once per (grid, scheme)."""
    power = {"nearest": 1, "linear": 2}[scheme]
    axis = np.sinc(grid.axis_modes / grid.points_per_dim) ** power
    return read_only(reduce(np.multiply.outer, (axis,) * grid.dim))


def _mode_box(grid: PeriodicGrid, cutoff: int):
    """The half box |k|_inf <= cutoff: ``((lead, last), index)``, its modes per axis and its index into a half spectrum.

    The leading axes run -cutoff..cutoff, or -M/2..M/2 - 1 at the Nyquist cutoff M/2, where the lattice
    holds the one mode -M/2 = +M/2; the last axis runs 0..cutoff.  ``index`` picks the box in C order from
    the lattice axes of ``grid.rfft``'s output, negative leading modes from the end, as in FFT order.
    """
    m = grid.points_per_dim
    if cutoff < 0:
        raise ValueError(f"freq_cutoff = {cutoff} must be nonnegative")
    if cutoff > m // 2:
        raise ValueError("freq_cutoff exceeds the grid Nyquist mode")
    lead, last = np.arange(-cutoff, min(cutoff + 1, m // 2)), np.arange(cutoff + 1)
    return (lead, last), np.ix_(*(lead,) * (grid.dim - 1), last)


def _table_rows(grid: PeriodicGrid, modes):
    """The (first mode, mode step, rows) of the left and of the right phase table of a mode box."""
    lead, last = modes
    if grid.dim == 2:
        return (lead[0], 1, lead.size), (last[0], 1, last.size)
    digit = math.isqrt(last.size - 1) + 1
    return (last[0], digit, -(-last.size // digit)), (0, 1, digit)


def _phase_tables(grid: PeriodicGrid, modes, points: np.ndarray, sign: complex):
    """Two small phase tables that factor every phase of a mode box.

    ``modes`` is the pair (leading axis, last axis) of ``_mode_box``.
    Returns ``(left, right)`` of shapes (A, n_points) and (F, n_points): the
    phase exp(sign * lambda_k . x_n) of the j-th mode of the box in C order is
    left[j // F, n] * right[j % F, n].  In 2-d the rows are the modes of axis
    0 and of axis 1.  In 1-d the mode k_0 + j of the one axis is split into
    digits as (k_0 + F a) + b with F = ceil(sqrt(K)), so A*F >= K and the
    entries j >= K are padding.  A mode sum then never holds a modes x points
    table.  Each table's rows are a geometric sequence in the mode number,
    built by repeated multiplication from two exponentials per point, so a
    point's entries do not depend on the other points in the call.
    """
    points = as_points(points, grid.dim)
    outer, inner = _table_rows(grid, modes)
    unit = sign * 2.0 * np.pi / grid.period

    def rows(x, first, step, count):
        table = np.empty((count, x.size), dtype=complex)
        table[0] = np.exp(unit * first * x)
        ratio = np.exp(unit * step * x)
        for r in range(1, count):
            np.multiply(table[r - 1], ratio, out=table[r])
        return table

    return rows(points[:, 0], *outer), rows(points[:, -1], *inner)


def _trig_interpolate(grid: PeriodicGrid, values: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Type-2 mode sum: the trigonometric interpolants of the fields ``values`` at ``pts``, shape (n, components).

    With a field's normalised coefficients on the half box at the Nyquist cutoff, times the column
    multiplicity, in C order as a (rows of ``left``, rows of ``right``) matrix C, its value at x_n is
    Re sum_a left[a, n] * (C @ right)[a, n].
    """
    modes, box = _mode_box(grid, grid.points_per_dim // 2)
    left, right = _phase_tables(grid, modes, pts, 1j)
    scale = _column_multiplicity(grid) / grid.points_per_dim**grid.dim
    spectra = grid.rfft(values)[(slice(None),) + box] * scale
    coeffs = np.zeros((len(values), left.shape[0] * right.shape[0]), dtype=complex)
    coeffs[:, : spectra[0].size] = spectra.reshape(len(values), -1)
    return np.sum(left * (coeffs.reshape(len(values), left.shape[0], -1) @ right), axis=1).real.T


def measure_mode_coefficients(measure: EmpiricalMeasure, grid: PeriodicGrid, cutoff: int):
    """Phase sums S_k = sum_n w_n exp(-i lambda_k . x_n) of an empirical measure on the half box |k|_inf <= cutoff.

    The modes are those of ``_mode_box(grid, cutoff)`` in C order, and S
    is on the scale of ``grid.rfft`` times the cell volume: for a measure with
    lattice density f, S / h**dim approximates grid.rfft(f) there.  Returns shape
    (n_modes, m), a column per weight column.  The sum over particles is
    exact.  It runs over blocks of points in order: a block's weight columns
    are folded into its left phase table as extra rows, the block is one
    matrix product (left * w) @ right.T, and the products are added in block
    order.  A block holds about ``PHASE_BLOCK`` entries in its tables and
    their weighted copy, in a multiple of 8 points, so a call's memory does
    not grow with N or the cutoff.  A short block is padded to a multiple of 8
    with points of weight zero: OpenBLAS's complex products give the same
    bits for any thread count at such lengths, and not always at others.  A
    measure of one block is one product over its points; over several blocks
    the partial sums change the order of BLAS's additions, which moves S at
    rounding level (about 1e-15 relative) against one product over all points.
    """
    modes, _ = _mode_box(grid, cutoff)
    n_modes = modes[0].size ** (grid.dim - 1) * modes[1].size
    positions, columns = as_points(measure.points, grid.dim), measure.weights.T
    (_, _, a), (_, _, f) = _table_rows(grid, modes)
    block = max(1, PHASE_BLOCK // ((1 + len(columns)) * a + f) // 8) * 8
    total = None
    for start in range(0, len(positions), block):
        points, weights = positions[start : start + block], columns[:, start : start + block]
        if len(points) % 8:  # pad to a multiple of 8 points of weight zero, which adds exact zeros
            pad = 8 - len(points) % 8
            points = np.concatenate((points, np.zeros((pad, grid.dim))))
            weights = np.concatenate((weights, np.zeros((len(columns), pad))), axis=1)
        left, right = _phase_tables(grid, modes, points, -1j)
        part = (weights[:, None, :] * left).reshape(-1, len(points)) @ right.T
        if total is None:  # the first block is the total, to the bit
            total = part
        else:
            total += part
    return total.reshape(len(columns), -1)[:, :n_modes].T


def box_spectra(values: np.ndarray, grid: PeriodicGrid, cutoff: int) -> np.ndarray:
    """One ``grid.rfft`` of a stack of fields, shape (fields,) + grid.shape, cut to the half box
    |k|_inf <= cutoff: shape (fields, modes), the modes of ``_mode_box`` in C order."""
    _, box = _mode_box(grid, cutoff)
    return grid.rfft(values)[(slice(None),) + box].reshape(len(values), -1)


def sobolev_mode_sum(diff: np.ndarray, s, grid: PeriodicGrid, cutoff: int) -> float:
    """sum of ``sobolev_weight(grid, s)`` * sum_c |diff_c|^2 over the half box |k|_inf <= cutoff, for any s.

    ``diff`` has shape (components, modes), on the modes of ``box_spectra``.
    """
    _, box = _mode_box(grid, cutoff)
    return float(np.sum(sobolev_weight(grid, s)[box].ravel() * np.sum(np.abs(diff) ** 2, axis=0)))


def _require_alpha(alpha, grid: PeriodicGrid):
    if alpha <= grid.dim / 2.0 + 1.0:
        raise AlphaTooSmall(f"alpha = {alpha} must exceed dim/2 + 1 = {grid.dim / 2 + 1}")


def neg_sobolev_distance(measure: EmpiricalMeasure, spectra: np.ndarray, alpha, grid: PeriodicGrid, cutoff: int):
    """The square root of ``sobolev_mode_sum`` at s = -alpha of S / h**dim - spectra.

    S is the measure's ``measure_mode_coefficients`` transposed, one row per
    weight column, and ``spectra`` the fields' ``box_spectra`` on the same box.

    Raises
    ------
    AlphaTooSmall
        Unless alpha > dim/2 + 1, the frequency tail over point masses does
        not converge as the cutoff grows.
    ValueError
        If ``spectra`` and the measure's coefficients differ in shape.
    """
    _require_alpha(alpha, grid)
    diff = measure_mode_coefficients(measure, grid, cutoff).T / grid.cell_volume  # (components, modes)
    if diff.shape != spectra.shape:
        raise ValueError(f"field spectra of shape {spectra.shape} against measure coefficients of shape {diff.shape}")
    return math.sqrt(sobolev_mode_sum(diff - spectra, -alpha, grid, cutoff))


def neg_sobolev_tail_bound(grid: PeriodicGrid, alpha, cutoff, outer=None):
    """Bound for the distance-squared mass in modes with |k|_inf > cutoff.

    The distance compares a probability measure with a unit-mass density, so
    their difference has total variation at most 2 and each of its
    characteristic coefficients is bounded by 2/period**dim; the tail of the
    squared distance is at most the weighted mode count times that square.
    ``outer`` limits the sum to cutoff < |k|_inf <= outer (default: grid
    Nyquist plus a continuum estimate beyond).

    Raises
    ------
    AlphaTooSmall
        Under ``neg_sobolev_distance``'s rule, unless alpha > dim/2 + 1: below
        it the continuum estimate has no finite value.
    """
    _require_alpha(alpha, grid)
    if cutoff < 0:
        raise ValueError(f"freq_cutoff = {cutoff} must be nonnegative")
    lam_unit = 2.0 * np.pi / grid.period
    coeff = grid.period**grid.dim * (2.0 / grid.period**grid.dim) ** 2

    def lattice_sum(k_lo, k_hi):
        # one row of the box |k|_inf <= k_hi at a time, leading mode k0 fixed; 1-d is the single row k0 = 0
        k = np.arange(-k_hi, k_hi + 1)
        lam2 = (lam_unit * k) ** 2
        beyond = lam2[np.abs(k) > k_lo]
        total = 0.0
        for k0, lam2_0 in (zip(k, lam2) if grid.dim == 2 else [(0, 0.0)]):
            row = lam2 if abs(k0) > k_lo else beyond
            total += np.sum((1.0 + (lam2_0 + row)) ** (-alpha))
        return float(total)

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
