"""N-particle system: forces, splitting integrator, well-prepared initial data.

The first-order system is

    dX_k = V_k dt
    dV_k = -(1/N) sum_l grad potential(X_k - X_l) dt + sigma(X_k) V_k o dB

with Stratonovich noise shared by all particles.  One step splits into a
symplectic-Euler drift and an exact noise map: freezing X, the noise-only
equation dV_q = sigma_q V_q o dB_q has pathwise solution
V_q * exp(sigma_q(X) dB_q), so the noise substep carries no time-discretization
error.  A step advances a sweep of systems, each with its own N and kernel,
on one shared increment: one ``ParticleState`` holds the rows of every system
in order, and one system is the sweep of one.  Forces come either from the
exact O(N^2) pair sum, system by system, or from one fused particle-mesh pass
for the whole sweep: one assignment stencil places the particles on two
interlaced lattices, the nodes and the nodes shifted by half a cell, and
serves as the deposit and, by its adjoint, as the gather.  Between the two,
one ``grid.rfft``/``grid.irfft`` pair and one operator cached per (kernel,
grid, scheme) convolve with the sampled force kernel and divide out the
assignment window.  ``sweep_spectrum``, the pass up to that inverse
transform, serves the mollified densities of the gauge too.  The first pass
on a state makes its per-row arrays and ``step`` hands them on.  A pass keeps
its deposit spectrum with them, marked with the positions array, sizes and
grid it deposited, so the next pass on the same three, such as the force after
a gauge, makes no stencil and no deposit; any other pass fills them again.
``read_at_particles`` reads lattice fields at the rows through a current
pass's stencil.  Forces and densities are new arrays every time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, pairwise

import numpy as np

from .errors import GridTooCoarse, NonFiniteState
from . import fields
from .fields import PeriodicGrid, _stencil, as_points, assignment_window, read_only, sample_kernel
from .kernels import ScaledKernel
from .noise import SigmaField, stream

FORCE_METHODS = ("direct", "particle_mesh")


@dataclass
class ParticleState:
    """A sweep of particle systems on one clock: every system's rows in order, ``sizes`` the N of each."""

    positions: np.ndarray  # (rows, dim), torus coordinates in [0, period)
    velocities: np.ndarray  # (rows, dim)
    time: float = 0.0
    sizes: tuple | None = None  # by default one system of all the rows
    # per deposit scheme, the ``PassArrays`` of these rows: made by the first force or density, handed on by
    # ``step``, refilled by a pass unless they are current for this state's positions, sizes and that pass's grid
    scratch: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.positions = as_points(self.positions)
        self.velocities = as_points(self.velocities)
        if self.positions.shape != self.velocities.shape:
            raise ValueError("positions and velocities must share a shape")
        self.sizes = (self.n_particles,) if self.sizes is None else tuple(map(int, self.sizes))
        if sum(self.sizes) != self.n_particles or any(n < 0 for n in self.sizes):
            raise ValueError(f"system sizes {self.sizes} are not counts adding up to the {self.n_particles} rows")

    @property
    def n_particles(self):
        return self.positions.shape[0]

    @property
    def dim(self):
        return self.positions.shape[1]

    def split(self, rows: np.ndarray) -> list:
        """``rows``, one per particle, as one view per system, in order."""
        return [rows[start:stop] for start, stop in pairwise(accumulate(self.sizes, initial=0))]


@dataclass
class PassArrays:
    """A sweep's particle-mesh arrays for one deposit scheme: the node coordinates (2 * rows, dim), the interlaced
    stencil and the gather's terms, and the deposit spectrum, each filled again by a refill, with the ``mark``
    they are current for.

    ``mark`` is (positions, sizes, grid): the very positions array deposited (compared with ``is``), the
    state's sizes and the grid.  A pass whose state and grid match it reuses the stencil and the spectrum.
    """

    nodes: np.ndarray
    stencil: tuple
    terms: np.ndarray
    spectrum: np.ndarray | None = None
    mark: tuple | None = None

    def current(self, state: ParticleState, grid: PeriodicGrid) -> bool:
        return self.mark is not None and self.mark[0] is state.positions and self.mark[1:] == (state.sizes, grid)


def validate_kernel_box(kernel: ScaledKernel, period: float):
    """The kernel's effective support must fit inside half the torus."""
    radius = kernel.support_radius()
    if radius >= 0.5 * period:
        raise GridTooCoarse(
            f"kernel support radius {radius:.4g} does not fit in half the period, {0.5 * period:.4g}"
        )


def validate_kernel_mesh(kernel: ScaledKernel, grid: PeriodicGrid):
    """The particle-mesh rules: the kernel box check, and a lattice spacing of at most a quarter of the
    kernel's effective width, beyond which the sampled kernel would alias badly."""
    validate_kernel_box(kernel, grid.period)
    if grid.spacing > kernel.effective_width() / 4.0:
        raise GridTooCoarse(
            f"grid spacing {grid.spacing:.4g} > effective kernel width / 4 = "
            f"{kernel.effective_width() / 4.0:.4g}"
        )


def min_image(disp: np.ndarray, period: float) -> np.ndarray:
    return disp - period * np.round(disp / period)


def force_direct(positions: np.ndarray, kernel: ScaledKernel, period: float):
    """Exact pair-sum force -(1/N) sum_l grad potential(X_k - X_l), minimum image, on one system's (N, dim) rows.

    The self term vanishes because the potential gradient of a symmetric C^1
    kernel is zero at the origin; no special-casing of l = k is needed.
    """
    validate_kernel_box(kernel, period)
    block = 1024  # particles per chunk: a chunk's displacements are block * N rows
    n, dim = positions.shape
    forces = np.empty_like(positions)
    for start in range(0, n, block):
        chunk = positions[start : start + block]
        disp = min_image(chunk[:, None, :] - positions[None, :, :], period)
        grads = kernel.potential_gradient(disp.reshape(-1, dim))
        forces[start : start + block] = -grads.reshape(disp.shape).sum(axis=1) / n
    return forces


@cache
def _half_cell_phase(grid: PeriodicGrid) -> np.ndarray:
    """Half-cell shift P = exp(i lambda . h/2) on the modes ``grid.rfft`` keeps, as a real field sees it:
    (P(k) + conj P(-k)) / 2, which differs from P only on modes with a Nyquist component."""
    phase = np.ones(grid.shape, dtype=complex)
    for lam in grid.freq_mesh:
        phase = phase * np.exp(1j * lam * grid.spacing / 2.0)
    phase = 0.5 * (phase + np.conj(np.roll(np.flip(phase), 1, axis=tuple(range(grid.dim)))))
    return read_only(grid.half(phase).copy())


@cache
def force_transfer(kernel: ScaledKernel, grid: PeriodicGrid, scheme: str) -> np.ndarray:
    """Interlaced deposit spectrum to the force on both lattices, built once per (kernel, grid, scheme).

    Entry [q, 0] is -1/4 g_q / W^2 and [q, 1] that times the conjugate half-cell phase: g_q the transform
    of the sampled force-kernel component q, W the assignment window (divided out once for deposit and
    gather), 1/4 the two interlacing halves; a density's 1/cell_volume and a convolution's cell_volume cancel.
    The kernel must pass ``validate_kernel_mesh`` first; a kernel that fails raises on every call, as a raise
    caches nothing.
    """
    validate_kernel_mesh(kernel, grid)
    window = grid.half(assignment_window(grid, scheme))
    direct = -0.25 * grid.rfft(sample_kernel(grid, kernel.potential_gradient)) / window**2
    return read_only(np.stack([direct, direct * np.conj(_half_cell_phase(grid))], axis=1))


@cache
def mollifier_transfer(kernel: ScaledKernel, grid: PeriodicGrid, scheme: str) -> np.ndarray:
    """Interlaced deposit spectrum to the mollified density, built once per (kernel, grid, scheme).

    1/2 m / W: m the transform of ``kernel.density`` on the lattice, W the assignment window.
    """
    m_hat = grid.rfft(sample_kernel(grid, kernel.density))
    return read_only(0.5 * m_hat / grid.half(assignment_window(grid, scheme)))


def interlaced_stencils(state: ParticleState, grid: PeriodicGrid, scheme: str) -> tuple:
    """One ``(flat, weights)`` stencil, shape (corners..., 2 * rows), of the rows of ``state`` at node coordinate
    u = x/h and then at u + 1/2, on the lattice shifted by half a cell (the integer wrap folds it back).

    Its 2 * systems row blocks run lattice first, then system; block b's node indices are offset by
    b * M**dim, in place, so that one ``np.bincount`` deposits each block onto a lattice of its own.
    The arrays are the state's ``scratch``, its ``PassArrays``, made by its sweep's first pass; a refill
    clears their mark, as the kept deposit spectrum no longer matches the stencil.
    """
    if scheme not in ("nearest", "linear"):
        raise ValueError(f"unknown deposit scheme {scheme!r}")
    rows = state.n_particles
    if scheme not in state.scratch:
        shape = ((1,) if scheme == "nearest" else (2,) * grid.dim) + (2 * rows,)
        stencil = np.empty(shape, dtype=int), np.empty(shape)
        state.scratch[scheme] = PassArrays(np.empty((2 * rows, state.dim)), stencil, np.empty((state.dim,) + shape))
    arrays = state.scratch[scheme]
    arrays.mark = None
    nodes, stencil = arrays.nodes, arrays.stencil
    np.divide(state.positions, grid.spacing, out=nodes[:rows])
    np.add(nodes[:rows], 0.5, out=nodes[rows:])
    _stencil(nodes, grid, scheme, stencil)
    starts = list(accumulate(state.sizes * 2, initial=0))
    for block in range(1, len(starts) - 1):
        stencil[0][..., starts[block] : starts[block + 1]] += block * grid.points_per_dim**grid.dim
    return stencil


def deposit_spectrum(stencil, grid: PeriodicGrid, systems: int = 1, out=None) -> np.ndarray:
    """Interlaced spectra of unit-weight particles, F[lattice] + half-cell phase * F[shifted lattice],
    shape (systems,) + the half spectrum, written into ``out`` if given.

    One ``np.bincount`` deposits both lattices of every system as (2, systems) + grid.shape, and one
    real FFT transforms them all.  The phase moves the shifted lattice back onto the particles, so that
    their average (interlacing) cancels the odd-order alias images of the point masses; the 1/2 and
    the window are left to the transfer operators.
    """
    flat, weights = stencil
    counts = np.bincount(flat.ravel(), weights.ravel(), minlength=2 * systems * grid.points_per_dim**grid.dim)
    halves = grid.rfft(counts.reshape((2, systems) + grid.shape))
    if out is None:
        out = np.empty_like(halves[0])
    return np.add(halves[0], np.multiply(_half_cell_phase(grid), halves[1], out=out), out=out)


def gather(values, stencil, terms=None) -> np.ndarray:
    """The interlaced deposit's adjoint, shape (points, components): one ``fields.gather`` of all the stencil's
    rows, weighing the node values in ``terms`` if given, then each point's second-lattice read added to its first.

    ``values`` has shape (components, 2, systems) + grid.shape: per component, the fields on the lattice
    and on the shifted lattice, of every system.
    """
    read = fields.gather(values, stencil, terms)
    points = len(read) // 2
    read[:points] += read[points:]
    return read[:points]


def read_at_particles(values, state: ParticleState, grid: PeriodicGrid, scheme: str) -> np.ndarray:
    """Lattice fields ``values``, (components,) + grid.shape, read at every row of ``state``, shape (rows,
    components), through the stencil of the state's current pass for ``scheme``: to the bits of
    ``fields.interpolate(values, state.positions, grid, scheme)``, with no stencil of its own.

    The stencil's first rows place the particles on the plain lattice, each system's node indices offset
    by a multiple of M**dim, a power of two, which a mask takes off.

    Raises
    ------
    ValueError
        Unless a pass for ``scheme`` on the state's positions, sizes and ``grid`` is current.
    """
    arrays = state.scratch.get(scheme)
    if arrays is None or not arrays.current(state, grid):
        raise ValueError(f"no current {scheme!r} particle-mesh pass on these particles and grid")
    flat, weights = arrays.stencil
    first = slice(state.n_particles)
    plain = np.bitwise_and(flat[..., first], grid.points_per_dim**grid.dim - 1)
    return fields.gather(values, (plain, weights[..., first]))


@cache
def _sweep_transfer(operator, kernels: tuple, grid: PeriodicGrid, scheme: str) -> np.ndarray:
    """The transfer ``operator`` of each kernel of a sweep stacked on a systems axis just before the half
    spectrum, built once per (operator, tuple of kernels): (dim, 2, systems) + the half spectrum for
    ``force_transfer``, (systems,) + it for ``mollifier_transfer``.  The inverse transform of the force
    product is then one run of values, which ``fields.gather`` reads at the stencil's offset node indices."""
    stack = [operator(kernel, grid, scheme) for kernel in kernels]
    return read_only(np.stack(stack, axis=-1 - grid.dim))


def sweep_spectrum(state: ParticleState, operator, kernels, grid: PeriodicGrid, scheme: str) -> tuple:
    """The sweep's particle-mesh pass up to the inverse transform: its stencil, and ``operator``
    (``force_transfer`` or ``mollifier_transfer``) of each system's kernel times its deposit spectrum.

    The pass keeps the deposit spectrum in the state's ``PassArrays`` for ``scheme``, marked with the
    positions array, the sizes and the grid, so a pass on the same rows and grid, such as the force after
    a gauge, makes no stencil and no deposit.  Positions are never written in place, so an unchanged
    array holds unchanged rows.

    Raises
    ------
    ValueError
        Unless there is one kernel per system and no system is empty, which would have no N to divide by.
    """
    if len(kernels) != len(state.sizes):
        raise ValueError(f"{len(state.sizes)} particle systems but {len(kernels)} kernels")
    if 0 in state.sizes:
        raise ValueError(f"system sizes {state.sizes} include an empty system")
    arrays = state.scratch.get(scheme)
    if arrays is None or not arrays.current(state, grid):
        stencil = interlaced_stencils(state, grid, scheme)
        arrays = state.scratch[scheme]
        shape = (len(state.sizes),) + _half_cell_phase(grid).shape
        kept = arrays.spectrum if arrays.spectrum is not None and arrays.spectrum.shape == shape else None
        arrays.spectrum = deposit_spectrum(stencil, grid, len(state.sizes), kept)  # in place while the shape holds
        arrays.mark = (state.positions, state.sizes, grid)
    transfer = _sweep_transfer(operator, tuple(kernels), grid, scheme)
    return arrays.stencil, transfer * arrays.spectrum


def force_particle_mesh(state: ParticleState, kernels, grid: PeriodicGrid, deposit_scheme: str = "linear"):
    """Particle-mesh forces on a sweep of systems as one fused step, one row per particle of ``state``.

    The interlaced deposit of every system, ``force_transfer`` of its kernel
    times 1/N for its N in ``state.sizes``, then ``gather``: one stencil, one
    ``np.bincount``, one ``grid.rfft``/``grid.irfft`` pair and one
    ``fields.gather`` for both lattices of the whole sweep; after a gauge on the
    same state, the stencil and the deposit are that pass's.  Each system's
    bins and transforms are its own, so its forces are those of a sweep of one.

    Raises
    ------
    ValueError
        Unless there is one kernel per system and no system is empty.
    GridTooCoarse
        If a kernel breaks a rule of ``validate_kernel_mesh``.
    """
    stencil, spectrum = sweep_spectrum(state, force_transfer, kernels, grid, deposit_scheme)
    for system, n in enumerate(state.sizes):  # (T * D) * (1/N); a 1/N folded into the cached T would change the bits
        spectrum[:, :, system] *= 1.0 / n
    return gather(grid.irfft(spectrum), stencil, state.scratch[deposit_scheme].terms)


def wrap_positions(pos: np.ndarray, period: float) -> np.ndarray:
    """``np.mod(pos, period)`` bit for bit, which for pos in [-period, 2 * period) is the cheaper
    pos + (period, 0.0 or -period); when that sum leaves a value outside [0, period), it is ``np.mod``.

    ``pos`` is wrapped in place and returned, or left untouched when the result is a new ``np.mod``
    array: a caller uses the returned array and hands in one it owns.
    """
    below, above = pos < 0.0, pos >= period
    moved = np.concatenate((pos[below] + period, pos[above] - period))
    if not (moved.min(initial=0.0) >= 0.0 and moved.max(initial=0.0) < period):
        return np.mod(pos, period)
    np.add(pos, period, out=pos, where=below)
    np.subtract(pos, period, out=pos, where=above)
    pos += 0.0  # -0.0 becomes +0.0, as in np.mod
    return pos


def step(
    state: ParticleState,
    dB: np.ndarray,
    dt: float,
    kernels,
    sigma: SigmaField,
    period: float,
    method: str = "direct",
    grid: PeriodicGrid | None = None,
    deposit_scheme: str = "linear",
    context: str = "",
) -> ParticleState:
    """Advance a sweep of particle systems, ``state`` with one of ``kernels`` per system, one step on one increment.

    Each system takes a symplectic-Euler drift, then the exact noise factor.
    The noise coefficient is evaluated at the post-drift positions (the
    frozen-position justification of the exact factor); positions re-wrap into
    the torus.  The direct force is summed system by system, the particle-mesh
    force in one pass; the rest runs once on the sweep's rows, row by row, so
    each system steps exactly as a sweep of one.  Returns the stepped sweep,
    with the same ``sizes``.

    Raises
    ------
    ValueError
        Unless there is one kernel per system.
    NonFiniteState
        Naming the N of the first system whose state became non-finite.
    """
    if len(kernels) != len(state.sizes):  # sweep_spectrum checks too; the direct force needs it here
        raise ValueError(f"{len(state.sizes)} particle systems but {len(kernels)} kernels")
    if method == "direct":
        forces = np.empty_like(state.positions)
        for rows, positions, kernel in zip(state.split(forces), state.split(state.positions), kernels):
            rows[...] = force_direct(positions, kernel, period)
    elif method == "particle_mesh":
        if grid is None:
            raise ValueError("particle_mesh force needs a grid")
        forces = force_particle_mesh(state, kernels, grid, deposit_scheme)
    else:
        raise ValueError(f"unknown force method {method!r}")
    # in place, to the same bits: on a sweep every temporary holds 8 bytes per particle and component
    forces *= dt
    vel = state.velocities + forces
    pos = vel * dt
    pos += state.positions
    pos = wrap_positions(pos, period)
    factors = sigma.values(pos)
    factors *= np.asarray(dB)
    vel *= np.exp(factors, out=factors)
    if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(vel))):
        finite = np.isfinite(pos).all(axis=1) & np.isfinite(vel).all(axis=1)
        n = next(len(rows) for rows in state.split(finite) if not rows.all())
        raise NonFiniteState(f"particle state of N = {n} became non-finite ({context})")
    return ParticleState(pos, vel, state.time + dt, state.sizes, state.scratch)


# ---------------------------------------------------------------------------
# Well-prepared initial data
# ---------------------------------------------------------------------------


def init_well_prepared(
    density,
    velocity,
    n: int,
    scheme: str = "stratified",
    master_seed: int = 0,
    seed_tags=(),
) -> ParticleState:
    """Positions sampled from the density profile, velocities read off the velocity profile.

    Both dimensions read the profile's ``lattice_density()`` on
    ``density.lattice``, which checks its mass on the same lattice.
    In 1-d, ``stratified`` inverts the accumulated CDF, with breakpoints at the
    nodes and the period, at the quantile midpoints (k - 1/2)/N; ``iid`` draws
    uniforms from the stream tagged by (master_seed, "init", *seed_tags) and
    inverts the same CDF.  In 2-d (``iid`` only) each particle picks a node with
    probability proportional to its density, by inverting the nodes' CDF in C
    order at a uniform draw (what ``Generator.choice(p=...)`` computes on the
    same draws, here in the array ``lattice_density()`` hands over), then moves
    uniformly into that node's cell, both draws from the same stream.  Velocities
    are exact samples of the velocity profile, so the kinetic mismatch vanishes
    at t = 0 by construction.

    Raises
    ------
    DensityNotNormalizable
        If the lattice mass of the density deviates from 1 by more than 1e-6.
    """
    if scheme not in ("stratified", "iid"):
        raise ValueError(f"unknown init scheme {scheme!r}")
    if scheme == "stratified" and density.dim != 1:
        raise ValueError("stratified initialization is defined for dim=1 only; use iid")
    lattice = density.lattice
    dens = density.lattice_density()
    rng = stream(master_seed, "init", *seed_tags)
    if density.dim == 1:
        cdf = np.concatenate([[0.0], np.cumsum(dens) * lattice.spacing])
        cdf /= cdf[-1]
        u = (np.arange(n) + 0.5) / n if scheme == "stratified" else rng.random(n)
        positions = np.interp(u, cdf, np.append(lattice.axis_coords, density.period))[:, None]
    else:
        cdf = np.divide(dens, dens.sum(), out=dens)
        np.cumsum(cdf, out=cdf)
        cdf /= cdf[-1]
        cells = cdf.searchsorted(rng.random(n), side="right")
        rows, cols = np.divmod(cells, lattice.points_per_dim)
        axis = lattice.axis_coords
        positions = np.stack([axis[rows], axis[cols]], axis=1) + rng.random((n, 2)) * lattice.spacing
    return ParticleState(positions, np.asarray(velocity(positions)), 0.0)
