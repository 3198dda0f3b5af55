import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mfeuler.config import RunConfig, validate
from mfeuler.coupling import build_run, coupled_step, mollified_density, q_functional
from mfeuler.errors import DensityNotNormalizable, GridTooCoarse, NonFiniteState
from mfeuler.fluid import EulerConfig
import mfeuler.fields as fields_mod
import mfeuler.particles as particles_mod
from mfeuler.fields import (
    EmpiricalMeasure,
    PeriodicGrid,
    _column_multiplicity,
    assignment_window,
    box_spectra,
    deposit,
    interpolate,
    neg_sobolev_distance,
    sample_kernel,
)
from mfeuler.kernels import MollifierSpec, ScaledKernel
from mfeuler.noise import NoisePath, SigmaField, stream
from mfeuler.particles import (
    ParticleState,
    _half_cell_phase,
    deposit_spectrum,
    force_direct,
    force_particle_mesh,
    force_transfer,
    gather,
    init_well_prepared,
    interlaced_stencils,
    mollifier_transfer,
    step,
    wrap_positions,
)
from mfeuler.profiles import DensityProfile, VelocityProfile
from sde_oracles import ito_reference

TWO_PI = 2.0 * math.pi


def gaussian_kernel(n, width=2.0, beta=0.5, dim=1):
    return ScaledKernel(MollifierSpec("gaussian", width, dim), n, beta)


def test_single_particle_force_zero():
    st = ParticleState(np.array([[1.0]]), np.array([[0.0]]))
    f = force_direct(st.positions, gaussian_kernel(1, width=0.2), TWO_PI)
    assert np.all(f == 0.0)


def test_two_particles_action_reaction_and_closed_form():
    period = 32.0 * math.pi  # large torus: minimum image equals the raw displacement
    kern = gaussian_kernel(2, width=1.0)
    r = 0.7
    st = ParticleState(np.array([[5.0 + r], [5.0]]), np.zeros((2, 1)))
    f = force_direct(st.positions, kern, period)
    assert f[0, 0] == -f[1, 0]
    expected = -0.5 * kern.potential_gradient(np.array([[r]]))[0, 0]
    assert f[0, 0] == pytest.approx(expected, rel=1e-14)


def test_permutation_equivariance():
    # permuting indices reorders each pair sum, so agreement is exact up to
    # the roundoff of re-associated additions
    rng = np.random.default_rng(0)
    pos = rng.random((128, 1)) * TWO_PI
    kern = gaussian_kernel(128, width=1.0)
    f = force_direct(pos, kern, TWO_PI)
    perm = rng.permutation(128)
    f_perm = force_direct(pos[perm], kern, TWO_PI)
    np.testing.assert_allclose(f[perm], f_perm, rtol=0, atol=1e-14 * np.max(np.abs(f)))


def test_momentum_conservation():
    rng = np.random.default_rng(1)
    n = 256
    pos = rng.random((n, 1)) * TWO_PI
    f = force_direct(pos, gaussian_kernel(n), TWO_PI)
    assert abs(f.sum()) <= 1e-12 * n * np.max(np.abs(f))


def test_particle_mesh_single_particle_small():
    grid = PeriodicGrid(1, 128, TWO_PI)
    kern = gaussian_kernel(16, width=1.0)
    st = ParticleState(np.array([[2.13]]), np.zeros((1, 1)))
    f = force_particle_mesh(st, [kern], grid)
    # direct answer is exactly zero; PM noise stays at interpolation-error level
    peak = float(np.max(np.abs(kern.potential_gradient(np.linspace(-1, 1, 101)[:, None]))))
    assert np.max(np.abs(f)) < 1e-3 * peak


def test_particle_mesh_matches_direct():
    grid = PeriodicGrid(1, 256, TWO_PI)
    kern = gaussian_kernel(1024, width=4.0)
    rng = np.random.default_rng(2)
    pos = rng.random((1024, 1)) * TWO_PI
    st = ParticleState(pos, np.zeros_like(pos))
    fd = force_direct(st.positions, kern, TWO_PI)
    fp = force_particle_mesh(st, [kern], grid)
    assert np.max(np.abs(fd - fp)) < 1e-3 * np.max(np.abs(fd))


def test_particle_mesh_refinement_halves_error():
    kern = gaussian_kernel(1024, width=2.0)
    rng = np.random.default_rng(3)
    pos = rng.random((1024, 1)) * TWO_PI
    st = ParticleState(pos, np.zeros_like(pos))
    fd = force_direct(st.positions, kern, TWO_PI)
    devs = []
    for m in (128, 256, 512):
        fp = force_particle_mesh(st, [kern], PeriodicGrid(1, m, TWO_PI))
        devs.append(np.max(np.abs(fd - fp)))
    assert devs[0] >= 2.0 * devs[1]
    assert devs[1] >= 2.0 * devs[2]


def test_particle_mesh_2d_matches_direct():
    grid = PeriodicGrid(2, 64, TWO_PI)
    kern = ScaledKernel(MollifierSpec("gaussian", 1.0, 2), 256, 0.5)
    rng = np.random.default_rng(4)
    pos = rng.random((256, 2)) * TWO_PI
    st = ParticleState(pos, np.zeros_like(pos))
    fd = force_direct(st.positions, kern, TWO_PI)
    fp = force_particle_mesh(st, [kern], grid)
    assert np.max(np.abs(fd - fp)) < 5e-3 * np.max(np.abs(fd))


def test_particle_mesh_bump_matches_direct_with_operators_built_once(monkeypatch):
    grid = PeriodicGrid(1, 512, TWO_PI)
    kern = ScaledKernel(MollifierSpec("bump", 2.0, 1), 64, 0.5)
    rng = np.random.default_rng(0)
    pos = rng.random((64, 1)) * TWO_PI
    st = ParticleState(pos, np.zeros_like(pos))
    fd = force_direct(st.positions, kern, TWO_PI)
    fp = force_particle_mesh(st, [kern], grid)
    assert np.max(np.abs(fd - fp)) < 1e-3 * np.max(np.abs(fd))

    def resample(*args):
        raise AssertionError("force kernel sampled again for the same (kernel, grid)")

    monkeypatch.setattr(particles_mod, "sample_kernel", resample)
    np.testing.assert_array_equal(force_particle_mesh(st, [kern], grid), fp)
    monkeypatch.undo()
    operators = [
        force_transfer(kern, grid, "linear"),
        mollifier_transfer(kern, grid, "linear"),
        _half_cell_phase(grid),
        assignment_window(grid, "linear"),
    ]
    assert not any(op.flags.writeable for op in operators)


@pytest.mark.parametrize("scheme", ["linear", "nearest"])
def test_force_transfer_samples_the_2d_force_kernel_once(monkeypatch, scheme):
    grid, kern, _ = _pm_case(2)
    calls = []
    gradient = ScaledKernel.potential_gradient
    monkeypatch.setattr(ScaledKernel, "potential_gradient", lambda self, x: calls.append(len(x)) or gradient(self, x))
    transfer = force_transfer.__wrapped__(kern, grid, scheme)  # uncached
    assert calls == [grid.points_per_dim**2]
    monkeypatch.undo()
    # reference: one sampled kernel per component, as composed before
    window = assignment_window(grid, scheme)[..., : grid.points_per_dim // 2 + 1]
    sampled = [sample_kernel(grid, lambda x: np.asarray(kern.potential_gradient(x))[:, q]) for q in range(2)]
    direct = -0.25 * np.fft.rfftn(sampled, axes=(-2, -1)) / window**2
    reference = np.stack([direct, direct * np.conj(_half_cell_phase(grid))], axis=1)
    assert transfer.tobytes() == reference.tobytes()


def _parent_force(pos, kernel, grid, scheme):
    """The particle-mesh force as composed before the fused step: two deposits,
    an FFT pair per component and interpolation at float-wrapped half-cell shifts."""
    phase = np.ones(grid.shape, dtype=complex)
    for lam in grid.freq_mesh:
        phase = phase * np.exp(1j * lam * grid.spacing / 2.0)
    window = assignment_window(grid, scheme)
    h, period = grid.spacing, grid.period
    direct_hat = np.fft.fftn(deposit(EmpiricalMeasure(pos), grid, scheme).values)
    shifted_hat = np.fft.fftn(deposit(EmpiricalMeasure(np.mod(pos + h / 2.0, period)), grid, scheme).values)
    dens_hat = 0.5 * (direct_hat + phase * shifted_hat) / window
    forces = np.empty_like(pos)
    for q in range(grid.dim):
        g_hat = np.fft.fftn(sample_kernel(grid, lambda pts: np.asarray(kernel.potential_gradient(pts))[:, q]))
        corrected = dens_hat * g_hat * grid.cell_volume / window
        direct = interpolate(np.fft.ifftn(corrected).real[None], pos, grid, scheme)[:, 0]
        shifted_field = np.fft.ifftn(corrected * phase).real[None]
        shifted = interpolate(shifted_field, np.mod(pos - h / 2.0, period), grid, scheme)[:, 0]
        forces[:, q] = -0.5 * (direct + shifted)
    return forces


def _pm_case(dim):
    """A lattice and a force kernel that it resolves, with the peak of |grad potential|."""
    if dim == 1:
        grid, kern = PeriodicGrid(1, 512, TWO_PI), gaussian_kernel(1024, width=2.0)
    else:
        grid, kern = PeriodicGrid(2, 64, TWO_PI), ScaledKernel(MollifierSpec("gaussian", 1.0, 2), 256, 0.5)
    radial = np.zeros((401, dim))
    radial[:, 0] = np.linspace(-2.0, 2.0, 401)
    return grid, kern, float(np.max(np.abs(kern.potential_gradient(radial))))


def _particle_sets(n, dim, grid, on_nodes):
    """Random particles, one just below the period and, if ``on_nodes``, some exactly on nodes and one at 0."""
    rng = np.random.default_rng(100 * n + dim)
    below = np.full((1, dim), np.nextafter(grid.period, 0.0))
    nodes = rng.integers(0, grid.points_per_dim, (8, dim)) * grid.spacing
    if n == 1:
        sets = [rng.random((1, dim)) * grid.period, below]
        return sets + [np.zeros((1, dim)), nodes[:1]] if on_nodes else sets
    pos = rng.random((n, dim)) * grid.period
    pos[0] = below
    if on_nodes:
        pos[1] = 0.0
        pos[2:10] = nodes
    return [pos]


@pytest.mark.parametrize("n", [1, 8192])
@pytest.mark.parametrize("scheme", ["linear", "nearest"])
@pytest.mark.parametrize("dim", [1, 2])
def test_fused_force_matches_parent_pipeline(dim, scheme, n):
    # The lattice and the lattice shifted by half a cell differ by exactly one
    # node, so the fused step agrees with the parent's composition up to
    # rounding.  The scale is max |F|, or the force one particle at the peak
    # of |grad potential| exerts when that is larger: for N = 1 the exact
    # particle-mesh self-force vanishes and max |F| is rounding noise.
    # Nearest-node particles exactly on a node are covered by the next test.
    grid, kern, peak = _pm_case(dim)
    for pos in _particle_sets(n, dim, grid, on_nodes=scheme == "linear"):
        st = ParticleState(pos, np.zeros_like(pos))
        fused = force_particle_mesh(st, [kern], grid, scheme)
        parent = _parent_force(pos, kern, grid, scheme)
        scale = max(float(np.max(np.abs(parent))), peak / n)
        assert np.max(np.abs(fused - parent)) <= 1e-12 * scale
        assert np.max(np.abs(fused.sum(axis=0))) <= 1e-12 * n * scale


@pytest.mark.parametrize("scheme", ["linear", "nearest"])
@pytest.mark.parametrize("dim", [1, 2])
def test_mollified_density_matches_parent_composition(dim, scheme):
    # the parent deposited twice, took the real part of the interlaced
    # density and convolved it with the sampled mollifier; in 2-d a mollifier
    # this narrow keeps weight on the modes with a Nyquist component, which
    # shows whether the half-cell phase acts on the real fields, as there
    from mfeuler.coupling import mollified_density

    grid, _, _ = _pm_case(dim)
    kern = ScaledKernel(MollifierSpec("gaussian", 2.0 / dim, dim), 2048, 0.5)
    (pos,) = _particle_sets(8192, dim, grid, on_nodes=False)
    h, period = grid.spacing, grid.period
    phase = np.ones(grid.shape, dtype=complex)
    for lam in grid.freq_mesh:
        phase = phase * np.exp(1j * lam * h / 2.0)
    direct_hat = np.fft.fftn(deposit(EmpiricalMeasure(pos), grid, scheme).values)
    shifted_hat = np.fft.fftn(deposit(EmpiricalMeasure(np.mod(pos + h / 2.0, period)), grid, scheme).values)
    dens = np.fft.ifftn(0.5 * (direct_hat + phase * shifted_hat) / assignment_window(grid, scheme)).real
    kvals = sample_kernel(grid, kern.density)
    parent = np.fft.ifftn(np.fft.fftn(dens) * np.fft.fftn(kvals)).real * grid.cell_volume  # circular convolution
    (fused,) = mollified_density(ParticleState(pos, np.zeros_like(pos)), [kern], grid, scheme)
    assert np.max(np.abs(fused - parent)) <= 1e-12 * np.max(np.abs(parent))


@pytest.mark.parametrize("dim", [1, 2])
def test_nearest_particles_on_nodes_feel_no_self_force_and_conserve_momentum(dim):
    # A particle on a node sits exactly halfway between two nodes of the
    # shifted lattice.  The fused step deposits and gathers it at the same
    # node there, so a lone particle feels no force and the forces of a crowd
    # sum to zero; the parent's shifted deposit and gather rounded it to
    # different nodes (a self-force of 0.11 and 0.22 of the peak in 1-d and 2-d).
    grid, kern, peak = _pm_case(dim)
    for pos in (np.zeros((1, dim)), np.full((1, dim), 5 * grid.spacing)):
        f = force_particle_mesh(ParticleState(pos, np.zeros_like(pos)), [kern], grid, "nearest")
        assert np.max(np.abs(f)) <= 1e-12 * peak
    (crowd,) = _particle_sets(8192, dim, grid, on_nodes=True)
    f = force_particle_mesh(ParticleState(crowd, np.zeros_like(crowd)), [kern], grid, "nearest")
    assert np.max(np.abs(f.sum(axis=0))) <= 1e-12 * len(crowd) * np.max(np.abs(f))


@pytest.mark.parametrize("scheme", ["linear", "nearest"])
@pytest.mark.parametrize("dim", [1, 2])
def test_interlaced_stencils_deposit_and_gather_are_adjoint(dim, scheme):
    # per lattice: sum_n w_n gather(f)(x_n) == <deposit of w, f> on the lattice
    grid, _, _ = _pm_case(dim)
    rng = np.random.default_rng(dim)
    (pos,) = _particle_sets(512, dim, grid, on_nodes=True)
    w = rng.standard_normal(len(pos))
    f = rng.standard_normal(grid.shape)
    stencil = interlaced_stencils(ParticleState(pos, np.zeros_like(pos)), grid, scheme)
    n, size = len(pos), grid.points_per_dim**dim
    axes = tuple(range(-dim, 0))
    for s in range(2):
        # lattice s moved to the first row block, weighted by w, and the other one weighted by 0:
        # the spectrum of lattice s alone
        flat, weights = (np.roll(a, -s * n, axis=-1) for a in stencil)
        flat = flat % size + size * (np.arange(2 * n) >= n)
        spectrum = deposit_spectrum((flat, weights * np.concatenate([w, 0.0 * w])), grid)
        counts = np.fft.irfftn(spectrum, s=grid.shape, axes=axes)
        fields = np.zeros((1, 2, 1) + grid.shape)
        fields[0, s, 0] = f
        read = gather(fields, stencil)[:, 0]
        assert abs(np.dot(w, read) - np.sum(counts * f)) <= 1e-12 * np.sum(np.abs(w)) * np.max(np.abs(f))


def _sweep_case(dim):
    """A sweep of three systems on the particle-mesh case of ``dim``, its kernel once per system; the largest
    system has particles on nodes, at 0 and just below the period."""
    grid, kern, _ = _pm_case(dim)
    sizes = (1, 7, 256)
    pos = np.concatenate([_particle_sets(n, dim, grid, on_nodes=n > 10)[0] for n in sizes])
    vel = np.random.default_rng(dim).standard_normal(pos.shape)
    return grid, (kern,) * len(sizes), sizes, pos, vel


def _two_stencil_pass(state, grid, scheme, values):
    """The interlaced deposit spectrum and gather written with one stencil, one ``np.bincount`` and one
    ``fields.gather`` per lattice, each lattice's systems at node offsets s * M**dim."""
    size = grid.points_per_dim**grid.dim
    systems = len(state.sizes)
    u = state.positions / grid.spacing
    stencils = [fields_mod._stencil(u, grid, scheme), fields_mod._stencil(u + 0.5, grid, scheme)]
    stops = np.cumsum(state.sizes)
    for flat, _ in stencils:
        for system in range(1, systems):
            flat[..., stops[system - 1] : stops[system]] += system * size
    counts = [np.bincount(flat.ravel(), weights.ravel(), minlength=systems * size) for flat, weights in stencils]
    halves = grid.rfft(np.stack(counts).reshape((2, systems) + grid.shape))
    spectrum = halves[0] + _half_cell_phase(grid) * halves[1]
    read = fields_mod.gather(values[:, 0], stencils[0])
    read += fields_mod.gather(values[:, 1], stencils[1])
    return spectrum, read


@pytest.mark.parametrize("scheme", ["linear", "nearest"])
@pytest.mark.parametrize("dim", [1, 2])
def test_one_interlaced_stencil_matches_a_stencil_per_lattice_bitwise(dim, scheme):
    grid, _, sizes, pos, vel = _sweep_case(dim)
    state = ParticleState(pos, vel, sizes=sizes)
    values = np.random.default_rng(dim).standard_normal((dim, 2, len(sizes)) + grid.shape)
    expected_spectrum, expected_read = _two_stencil_pass(state, grid, scheme, values)
    for _ in range(2):  # the pass that makes the sweep's arrays, then one that fills them again
        stencil = interlaced_stencils(state, grid, scheme)
        assert np.array_equal(deposit_spectrum(stencil, grid, len(sizes)), expected_spectrum)
        assert np.array_equal(gather(values, stencil, state.scratch[scheme].terms), expected_read)


@pytest.mark.parametrize(
    "start,move",
    [
        # moves shorter than one period: just under one period either way, to exactly 0.0
        ([1.0, 3.0, 2.0, 5.0, 0.5], [np.nextafter(TWO_PI, 0.0), -np.nextafter(TWO_PI, 0.0), 0.25, -5.0, 0.0]),
        ([2.0**-52, 3.0], [-1.5 * 2.0**-52, 0.1]),  # to -2**-53, where adding the period rounds to exactly it
        ([4.0, 0.5], [2.5 * TWO_PI, -1.7 * TWO_PI]),  # longer than one period
    ],
    ids=["within_one_period", "rounds_to_period", "longer_than_period"],
)
def test_position_wrap_matches_np_mod_bit_for_bit(start, move):
    start = np.array(start)[:, None]
    move = np.array(move)[:, None]
    kern = gaussian_kernel(len(start), width=0.05)
    st = ParticleState(start, move)
    out = step(st, np.zeros(1), 1.0, [kern], SigmaField("constant", 0.0), TWO_PI, method="direct")
    vel = st.velocities + force_direct(st.positions, kern, TWO_PI) * 1.0
    expected = np.mod(st.positions + vel * 1.0, TWO_PI)
    assert out.positions.tobytes() == expected.tobytes()


def test_grid_too_coarse_raises():
    grid = PeriodicGrid(1, 16, TWO_PI)
    kern = gaussian_kernel(4096, width=1.0)
    st = ParticleState(np.array([[1.0]]), np.zeros((1, 1)))
    with pytest.raises(GridTooCoarse):
        force_particle_mesh(st, [kern], grid)


def test_kernel_support_must_fit_half_box():
    kern = gaussian_kernel(2, width=2.0)  # support ~ 16 at N=2
    st = ParticleState(np.array([[0.0], [1.0]]), np.zeros((2, 1)))
    with pytest.raises(GridTooCoarse):
        force_direct(st.positions, kern, TWO_PI)


def test_free_motion_exact():
    # kernel so narrow the particles never overlap: force is exactly zero
    kern = gaussian_kernel(2, width=0.05)
    sigma = SigmaField("constant", 0.0)
    st = ParticleState(np.array([[0.5], [2.0]]), np.array([[0.3], [-0.1]]))
    dt = 0.25
    for _ in range(8):
        st = step(st, np.zeros(1), dt, [kern], sigma, TWO_PI, method="direct")
    assert st.time == pytest.approx(2.0)
    np.testing.assert_allclose(st.velocities, [[0.3], [-0.1]], atol=1e-12)
    np.testing.assert_allclose(
        st.positions, np.mod([[0.5 + 0.3 * 2.0], [2.0 - 0.1 * 2.0]], TWO_PI), atol=1e-10
    )


def test_noise_exactness_constant_sigma():
    sigma = SigmaField("constant", 0.3)
    kern = gaussian_kernel(1, width=0.2)
    path = NoisePath.generate(42, 0, 500, 1, 1e-2)
    st = ParticleState(np.array([[1.0]]), np.array([[0.7]]))
    for dB in path.increments:
        st = step(st, dB, path.dt, [kern], sigma, TWO_PI, method="direct")
    exact = 0.7 * math.exp(0.3 * path.terminal()[0])
    assert abs(st.velocities[0, 0] - exact) <= 1e-12 * abs(exact)


def test_common_noise_ratio_dt_independent():
    sigma = SigmaField("constant", 0.4)
    kern = gaussian_kernel(2, width=0.1)

    def ratio(n_steps):
        path = NoisePath.generate(9, 0, n_steps, 1, 1.0 / n_steps)
        st = ParticleState(np.array([[1.0], [4.0]]), np.array([[0.5], [0.2]]))
        for dB in path.increments:
            st = step(st, dB, path.dt, [kern], sigma, TWO_PI, method="direct")
        return st.velocities[0, 0] / st.velocities[1, 0]

    assert ratio(64) == pytest.approx(0.5 / 0.2, rel=1e-12)
    assert ratio(256) == pytest.approx(0.5 / 0.2, rel=1e-12)


def test_determinism_same_seed():
    cfgs = []
    for _ in range(2):
        path = NoisePath.generate(123, 5, 50, 1, 1e-2)
        sigma = SigmaField("sinusoidal", 0.25, 0.5, TWO_PI)
        kern = gaussian_kernel(64)
        dens = DensityProfile("bump", 0.2, 8.0, TWO_PI, 1, True)
        vel = VelocityProfile("sine", 0.1, TWO_PI)
        st = init_well_prepared(dens, vel, 64, scheme="stratified")
        grid = PeriodicGrid(1, 128, TWO_PI)
        for dB in path.increments:
            st = step(st, dB, path.dt, [kern], sigma, TWO_PI, method="particle_mesh", grid=grid)
        cfgs.append(st)
    np.testing.assert_array_equal(cfgs[0].positions, cfgs[1].positions)
    np.testing.assert_array_equal(cfgs[0].velocities, cfgs[1].velocities)


def test_non_finite_state_raises():
    sigma = SigmaField("constant", 1e300)
    kern = gaussian_kernel(1, width=0.2)
    st = ParticleState(np.array([[1.0]]), np.array([[1.0]]))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState, match="seed=1"):
        step(st, np.array([5.0]), 1e-2, [kern], sigma, TWO_PI, method="direct", context="seed=1 step=0")


def test_non_finite_state_names_the_first_failing_system():
    # sigma = base * (1 + 2 sin(x)) is -base at x = 3 pi/2 and 3 base at pi/2: a huge increment takes the
    # velocity there to 0 and to infinity, so of the sweep N = 1, 2, 3 the system of N = 2 fails first
    sigma = SigmaField("sinusoidal", 1.0, 2.0, TWO_PI)
    kern = gaussian_kernel(1, width=0.05)
    starts = ((1, 1.5 * math.pi), (2, 0.5 * math.pi), (3, 0.5 * math.pi))
    pos = np.concatenate([np.full((n, 1), x) for n, x in starts])
    sweep = ParticleState(pos, np.ones_like(pos), 0.0, [n for n, _ in starts])
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState, match=r"N = 2 became non-finite \(seed=1 step=0\)"):
        step(sweep, np.array([1e3]), 1e-2, [kern] * 3, sigma, TWO_PI, method="direct", context="seed=1 step=0")
    first = ParticleState(pos[:1], np.ones((1, 1)))
    alone = step(first, np.array([1e3]), 1e-2, [kern], sigma, TWO_PI, method="direct")
    assert np.all(alone.velocities == 0.0)


@pytest.mark.parametrize(
    "sizes,kernels,message",
    [
        ((2,), 0, "1 particle systems but 0 kernels"),
        ((1, 1), 1, "2 particle systems but 1 kernels"),
        ((2,), 2, "1 particle systems but 2 kernels"),
    ],
    ids=["unequal_counts", "fewer_kernels", "more_kernels"],
)
def test_step_rejects_a_bad_sweep(sizes, kernels, message):
    # a sweep needs one kernel per system, in step and in the particle-mesh force alike
    state = ParticleState(np.ones((2, 1)), np.ones((2, 1)), 0.0, sizes)
    kernels = [gaussian_kernel(2, width=0.05)] * kernels
    for method in ("direct", "particle_mesh"):
        with pytest.raises(ValueError, match=message):
            step(state, np.zeros(1), 1e-2, kernels, SigmaField("constant", 0.0), TWO_PI, method, PeriodicGrid(1, 512))
    with pytest.raises(ValueError, match=message):
        force_particle_mesh(state, kernels, PeriodicGrid(1, 512))


def test_sweep_systems_are_views_of_its_rows_in_order():
    pos = np.arange(12.0).reshape(6, 2)
    vel = -pos
    sweep = ParticleState(pos, vel, 0.5, [1, 3, 2])
    systems = sweep.split(sweep.positions)
    assert [len(rows) for rows in systems] == [1, 3, 2]
    np.testing.assert_array_equal(np.concatenate(systems), pos)
    np.testing.assert_array_equal(np.concatenate(sweep.split(sweep.velocities)), vel)
    assert all(np.shares_memory(rows, sweep.positions) for rows in systems)
    systems[1][0] = 99.0  # a view: the sweep's row 1 changes with it
    assert np.all(sweep.positions[1] == 99.0)
    assert ParticleState(pos, vel).sizes == (6,)
    (alone,) = ParticleState(pos, vel).split(pos)
    assert np.shares_memory(alone, pos) and len(alone) == 6


@pytest.mark.parametrize(
    "sizes", [(2, 3), (7,), (3, 3, 1), (), (7, -1)], ids=["short", "long_one", "long", "none", "negative"]
)
def test_sweep_sizes_must_add_up_to_its_rows(sizes):
    with pytest.raises(ValueError, match=r"are not counts adding up to the 6 rows"):
        ParticleState(np.zeros((6, 1)), np.zeros((6, 1)), 0.0, sizes)


def systems_of(sweep):
    """One one-system state per system of a sweep, in order, over views of its rows through ``split``."""
    rows = zip(sweep.split(sweep.positions), sweep.split(sweep.velocities))
    return [ParticleState(pos, vel, sweep.time) for pos, vel in rows]


@pytest.mark.parametrize("sigma_family", ["constant", "sinusoidal"])
@pytest.mark.parametrize("method,scheme", [("particle_mesh", "linear"), ("particle_mesh", "nearest"), ("direct", "linear")])
@pytest.mark.parametrize("dim", [1, 2])
def test_sweep_step_equals_each_system_stepped_alone(dim, method, scheme, sigma_family):
    # three steps of the sweep N = 1, 7, 256, each system with its own kernel, each step against one-system sweeps
    grid = PeriodicGrid(dim, 1024 if dim == 1 else 128)  # the default period; resolves every kernel below
    sigma = SigmaField(sigma_family, 0.3, 0.5, grid.period)
    rng = np.random.default_rng(dim)
    sizes = (1, 7, 256)
    kernels = [ScaledKernel(MollifierSpec("gaussian", 0.5 * dim, dim), n, 0.5) for n in sizes]
    states = [ParticleState(rng.random((n, dim)) * grid.period, rng.standard_normal((n, dim))) for n in sizes]
    pos = np.concatenate([state.positions for state in states])
    vel = np.concatenate([state.velocities for state in states])
    sweep = ParticleState(pos, vel, 0.0, sizes)
    path = NoisePath.generate(9, 0, 3, dim, 1e-2)
    for dB in path.increments:
        swept = step(sweep, dB, path.dt, kernels, sigma, grid.period, method, grid, scheme)
        assert swept.sizes == sizes
        for state, kernel, together in zip(systems_of(sweep), kernels, systems_of(swept)):
            alone = step(state, dB, path.dt, [kernel], sigma, grid.period, method, grid, scheme)
            assert np.array_equal(together.positions, alone.positions)
            assert np.array_equal(together.velocities, alone.velocities)
            assert together.time == alone.time
        sweep = swept


def _transient_peak(call):
    """Bytes ``call()`` holds at its peak beyond what was held before it, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_pm_force_and_step_reuse_the_sweeps_arrays():
    # the default rate study's sweep, 16128 rows: after one force its stencils and gather terms are the sweep's own,
    # so a force holds about 3 and a step about 5 values per row at its peak (12.8 each when they were new per call)
    cfg = validate(RunConfig())
    run = build_run(cfg, 0, cfg.study.n_values)
    state, rows = run.particles, run.particles.n_particles

    def force(s):
        return force_particle_mesh(s, run.kernels, run.grid, run.deposit_scheme)

    def advance(s):
        dB = run.path.increments[0]
        return step(s, dB, run.dt, run.kernels, run.sigma, run.grid.period, "particle_mesh", run.grid, run.deposit_scheme)

    force(state)
    assert _transient_peak(lambda: force(state)) < 4 * 8 * rows
    stepped = advance(state)
    assert stepped.scratch is state.scratch
    assert _transient_peak(lambda: advance(stepped)) < 7 * 8 * rows


def test_runs_sharing_a_state_stepped_in_alternation_equal_each_run_alone():
    # two samples from one initial state share its arrays through every step; each must step as if alone
    cfg = validate(RunConfig())
    cfg.grid.points_per_dim = 128
    cfg.study.t_final = 0.02
    n_values = (64, 256)
    first = build_run(cfg, 0, n_values)
    second = replace(build_run(cfg, 1, n_values), particles=first.particles)
    alone = [build_run(cfg, 0, n_values), build_run(cfg, 1, n_values)]
    assert np.array_equal(alone[1].particles.positions, first.particles.positions)
    for _ in range(3):
        first, second = coupled_step(first), coupled_step(second)
        alone = [coupled_step(run) for run in alone]
        assert first.particles.scratch is second.particles.scratch
        for together, run in zip((first, second), alone):
            assert np.array_equal(together.particles.positions, run.particles.positions)
            assert np.array_equal(together.particles.velocities, run.particles.velocities)
            assert q_functional(together) == q_functional(run)


def test_kept_forces_densities_and_stencils_are_not_the_sweeps_arrays():
    grid, kern, _ = _pm_case(1)
    sigma = SigmaField("sinusoidal", 0.3, 0.5, grid.period)
    (pos,) = _particle_sets(4096, 1, grid, on_nodes=False)
    state = ParticleState(pos, np.zeros_like(pos))
    forces = force_particle_mesh(state, [kern], grid)
    (density,) = mollified_density(state, [kern], grid)
    copies = [forces.copy(), density.copy()]
    moved = step(state, np.array([0.3]), 0.05, [kern], sigma, grid.period, "particle_mesh", grid)
    assert moved.scratch is state.scratch
    fresh = ParticleState(moved.positions, moved.velocities)  # the same rows without the sweep's arrays
    assert np.array_equal(force_particle_mesh(moved, [kern], grid), force_particle_mesh(fresh, [kern], grid))
    assert np.array_equal(mollified_density(moved, [kern], grid), mollified_density(fresh, [kern], grid))
    for before, after in zip(copies, [forces, density]):
        assert np.array_equal(before, after)


def _count_pass_calls(monkeypatch):
    """Record by name every ``np.bincount``, ``_stencil`` and ``fields.gather`` call a particle-mesh pass makes."""
    calls = []
    for module, name in ((np, "bincount"), (fields_mod, "_stencil"), (particles_mod, "_stencil"), (fields_mod, "gather")):

        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("dim", [1, 2])
def test_a_pm_pass_makes_one_stencil_one_bincount_and_one_gather(monkeypatch, dim):
    grid, kernels, sizes, pos, vel = _sweep_case(dim)
    force_particle_mesh(ParticleState(pos, vel, sizes=sizes), kernels, grid)  # builds the cached operators
    mollified_density(ParticleState(pos, vel, sizes=sizes), kernels, grid)
    calls = _count_pass_calls(monkeypatch)
    force_particle_mesh(ParticleState(pos, vel, sizes=sizes), kernels, grid)
    assert sorted(calls) == ["_stencil", "bincount", "gather"]
    calls.clear()
    mollified_density(ParticleState(pos, vel, sizes=sizes), kernels, grid)
    assert sorted(calls) == ["_stencil", "bincount"]


@pytest.mark.parametrize("dim", [1, 2])
def test_a_density_on_a_fresh_state_makes_the_arrays_of_the_next_force_and_step(dim):
    grid, kernels, sizes, pos, vel = _sweep_case(dim)
    sigma = SigmaField("sinusoidal", 0.3, 0.5, grid.period)
    state = ParticleState(pos, vel, sizes=sizes)
    density = mollified_density(state, kernels, grid)
    arrays = state.scratch["linear"]
    forces = force_particle_mesh(state, kernels, grid)
    assert state.scratch["linear"] is arrays
    moved = step(state, np.full(dim, 0.3), 0.05, kernels, sigma, grid.period, "particle_mesh", grid)
    assert moved.scratch["linear"] is arrays
    assert np.array_equal(density, mollified_density(ParticleState(pos.copy(), vel.copy(), sizes=sizes), kernels, grid))
    assert np.array_equal(forces, force_particle_mesh(ParticleState(pos.copy(), vel.copy(), sizes=sizes), kernels, grid))


def test_stratified_uniform_subinterval_quantiles():
    # uniform profile on the torus [0, pi), half of [0, 2pi): the quantile midpoints are equispaced
    period = TWO_PI / 2.0
    dens = DensityProfile("uniform", period=period)
    st = init_well_prepared(dens, VelocityProfile("zero", 0.0, period), 4, scheme="stratified")
    expected = (np.arange(4) + 0.5) / 4.0 * period
    np.testing.assert_allclose(st.positions[:, 0], expected, atol=2 * TWO_PI / 2**14)


def test_init_velocities_exact_samples():
    dens = DensityProfile("bump", 0.2, 8.0, TWO_PI, 1, True)
    vel = VelocityProfile("sine", 0.1, TWO_PI)
    for scheme in ("stratified", "iid"):
        st = init_well_prepared(dens, vel, 32, scheme=scheme, master_seed=4)
        np.testing.assert_array_equal(st.velocities, np.asarray(vel(st.positions)))


def test_init_rejects_unnormalized_density():
    dens = DensityProfile("bump", 0.2, 8.0, TWO_PI, 1, normalize=False)
    vel = VelocityProfile("zero", 0.0, TWO_PI)
    with pytest.raises(DensityNotNormalizable):
        init_well_prepared(dens, vel, 8)


def lattice_density_2d_reference(density):
    """The 2-d density written out on its own 2^9 lattice: the nodes, and the shape at every node, over its mass if
    the profile normalizes."""
    lattice = PeriodicGrid(2, 2**9, density.period)
    h = lattice.spacing
    pts = lattice.points()
    raw = density.shape_values(pts)
    return pts, raw / float(np.sum(raw) * h * h) if density.normalize else raw


def init_2d_reference(reference, velocity, n, h, master_seed, seed_tags):
    """The 2-d ``iid`` init written out on a ``lattice_density_2d_reference``: one ``Generator.choice``, one jitter."""
    pts, dens = reference
    rng = stream(master_seed, "init", *seed_tags)
    cells = rng.choice(dens.size, size=n, p=dens / dens.sum())
    positions = pts[cells] + rng.random((n, 2)) * h
    return positions, np.asarray(velocity(positions))


def init_1d_reference(density, velocity, n, scheme, master_seed, seed_tags):
    """The 1-d init written out on its own 2^13 nodes: the normalized density at every node, the CDF
    with breakpoints at the nodes and the period, inverted at the quantile midpoints or at uniform draws."""
    period = density.period
    h = period / 2**13
    axis = np.arange(2**13) * h
    dens = np.asarray(density(axis[:, None]))
    cdf = np.concatenate([[0.0], np.cumsum(dens) * h])
    cdf /= cdf[-1]
    if scheme == "stratified":
        u = (np.arange(n) + 0.5) / n
    else:
        u = stream(master_seed, "init", *seed_tags).random(n)
    positions = np.interp(u, cdf, np.concatenate([axis, [period]]))[:, None]
    return positions, np.asarray(velocity(positions))


@pytest.mark.parametrize("scheme", ["stratified", "iid"])
@pytest.mark.parametrize("family", ["bump", "sine", "uniform"])
def test_init_1d_matches_reference_bitwise(family, scheme):
    dens = DensityProfile(family, 0.3, 6.0, TWO_PI, 1, True)
    vel = VelocityProfile("sine", 0.1, TWO_PI)
    for n in (1, 7, 256, 8192):
        st = init_well_prepared(dens, vel, n, scheme=scheme, master_seed=9, seed_tags=(2, n))
        positions, velocities = init_1d_reference(dens, vel, n, scheme, 9, (2, n))
        assert np.array_equal(st.positions, positions)
        assert np.array_equal(st.velocities, velocities)


def _unit_mass_raw_profile(family):
    """A 2-d profile that does not normalize, on the period that gives its raw shape unit lattice mass."""
    period = DensityProfile(family, 0.3, 6.0, 1.0, 2, True).mass ** -0.5
    return DensityProfile(family, 0.3, 6.0, period, 2, False)


@pytest.mark.parametrize("family", ["bump", "sine", "uniform"])
def test_init_2d_matches_reference_bitwise(family):
    # the cells drawn by inverse CDF are Generator.choice(p=...) on the same stream, for a raw profile too
    for dens in (DensityProfile(family, 0.3, 6.0, TWO_PI, 2, True), _unit_mass_raw_profile(family)):
        vel = VelocityProfile("sine", 0.1, dens.period)
        reference = lattice_density_2d_reference(dens)
        for seed in (0, 3, 11, 12, 29):
            for n in (1, 7, 256, 2048):
                st = init_well_prepared(dens, vel, n, scheme="iid", master_seed=seed, seed_tags=(0, n))
                positions, velocities = init_2d_reference(reference, vel, n, dens.lattice.spacing, seed, (0, n))
                assert np.array_equal(st.positions, positions)
                assert np.array_equal(st.velocities, velocities)


def test_init_2d_rejects_unnormalized_density():
    dens = DensityProfile("bump", 0.2, 8.0, TWO_PI, 2, normalize=False)
    vel = VelocityProfile("zero", 0.0, TWO_PI)
    with pytest.raises(DensityNotNormalizable):
        init_well_prepared(dens, vel, 8, scheme="iid")


@pytest.mark.parametrize(
    "build,error,match",
    [
        (lambda: DensityProfile("sine", math.nan), ValueError, "density amplitude must not be NaN"),
        (lambda: DensityProfile("bump", math.nan), ValueError, "density amplitude must not be NaN"),
        (lambda: DensityProfile("bump", 0.2, math.nan), ValueError, "density concentration must not be NaN"),
        # refused when the profile is built, before any lattice evaluation could overflow; a negative
        # concentration would overflow the bump's exponential on the lattice
        (lambda: DensityProfile("bump", math.inf), ValueError, "density amplitude must not be NaN or infinite"),
        (lambda: DensityProfile("bump", 0.2, math.inf), ValueError, "density concentration must not be NaN or inf"),
        (lambda: DensityProfile("bump", 0.2, -1e3), ValueError, "density concentration must be positive"),
        (lambda: EulerConfig(dt=1e-3, hyperviscosity_nu=math.nan), ValueError, "hyperviscosity_nu"),
        (
            lambda: init_well_prepared(DensityProfile(), VelocityProfile("sine", math.nan), 4),
            ValueError,
            "velocity amplitude must not be NaN or infinite",
        ),
        (lambda: VelocityProfile("constant", math.inf), ValueError, "velocity amplitude must not be NaN or infinite"),
    ],
    ids=[
        "sine_amplitude",
        "bump_amplitude",
        "concentration",
        "inf_amplitude",
        "inf_concentration",
        "overflow",
        "nu",
        "velocity_nan",
        "velocity_inf",
    ],
)
def test_non_finite_initial_data_raises_instead_of_nan_particles(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_profile_lattice_shape_cached_read_only():
    a = DensityProfile("bump", 0.2, 8.0, TWO_PI, 2, True)
    shape = a.lattice_shape()
    assert shape.shape == (2**18,)
    assert DensityProfile("bump", 0.2, 8.0, TWO_PI, 2, True).lattice_shape() is shape
    with pytest.raises(ValueError):
        shape[0] = 0.0
    other = DensityProfile("bump", 0.4, 8.0, TWO_PI, 2, True).lattice_shape()
    assert other is not shape and not np.array_equal(other, shape)
    np.testing.assert_array_equal(shape, a.shape_values(a.lattice.points()))
    # a geometry the lattice cannot take is refused when the profile is built, naming the field
    for field, value in (("dim", 3), ("dim", 0), ("period", -1.0), ("period", 0.0)):
        with pytest.raises(ValueError, match=f"density {field}"):
            DensityProfile("bump", **{field: value})
    for value in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="velocity period must be positive"):
            VelocityProfile("sine", 0.1, value)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", ["bump", "sine", "uniform"])
def test_lattice_shape_from_the_axes_is_shape_values_on_the_lattice_points(family, dim):
    profile = DensityProfile(family, 0.3, 6.0, 5.0, dim, True)
    shape = profile.lattice_shape()
    assert shape.tobytes() == profile.shape_values(profile.lattice.points()).tobytes()


@pytest.mark.parametrize("family", ["bump", "sine", "uniform"])
def test_2d_lattice_shape_and_init_peak_memory(family):
    # the shape is evaluated on the axes into one lattice array, and the init's CDF is the one array
    # lattice_density() hands over: no lattice point cloud, no copies for Generator.choice
    profile = DensityProfile(family, 0.25, 7.0, TWO_PI, 2, True)
    vel = VelocityProfile("sine", 0.1, TWO_PI)
    DensityProfile.lattice_shape.cache_clear()
    tracemalloc.start()
    try:
        profile.lattice_shape()
        shape_peak = tracemalloc.get_traced_memory()[1]
        init_well_prepared(profile, vel, 2048, "iid", 1, (0, 2048))  # the mass is cached too from here on
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        init_well_prepared(profile, vel, 2048, "iid", 2, (0, 2048))
        init_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    lattice_bytes = 2**18 * 8  # one float64 array on the 2-d normalization lattice
    assert shape_peak <= 1.5 * lattice_bytes
    assert init_peak <= 1.5 * lattice_bytes


def test_stratified_density_term_decreases_with_n():
    from mfeuler.coupling import mollified_density
    from mfeuler.profiles import DensityProfile

    grid = PeriodicGrid(1, 512, TWO_PI)
    dens = DensityProfile("bump", 0.2, 8.0, TWO_PI, 1, True)
    vel = VelocityProfile("zero", 0.0, TWO_PI)
    rho = dens.on_grid(grid)
    errs = []
    for j in range(8, 13):
        n = 2**j
        st = init_well_prepared(dens, vel, n, scheme="stratified")
        kern = gaussian_kernel(n)
        (mol,) = mollified_density(st, [kern], grid)
        errs.append(float(np.sum((mol - rho.values) ** 2) * grid.cell_volume))
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_iid_init_distance_matches_sampling_variance():
    # at t = 0 an iid sample's mean squared distance is its variance, (1 - |rho_k|^2) / N per mode with rho_0 = 1;
    # the sampling law's bias (its cells sit half a 2^13-node cell off the nodes) is far below one SE
    grid = PeriodicGrid(1, 512, TWO_PI)
    alpha = 2.0
    dens = DensityProfile("bump", 0.2, 8.0, TWO_PI, 1, True)
    vel = VelocityProfile("zero", 0.0, TWO_PI)
    rho = dens.on_grid(grid)
    spectrum = grid.rfft(rho.values)
    rho_hat = spectrum / spectrum[0]
    cutoff = grid.points_per_dim // 2
    rho_spectra = box_spectra(rho.values[None], grid, cutoff)
    weights = _column_multiplicity(grid) * (1.0 + grid.half(grid.freq_norm_sq)) ** -alpha
    for n in (256, 1024, 4096):
        samples = [init_well_prepared(dens, vel, n, "iid", 21, (m, n)) for m in range(400)]
        sq = [neg_sobolev_distance(EmpiricalMeasure(st.positions), rho_spectra, alpha, grid, cutoff) ** 2 for st in samples]
        expected = np.sum(weights * (1.0 - np.abs(rho_hat) ** 2)) / (n * grid.period)
        se = np.std(sq, ddof=1) / math.sqrt(len(sq))
        assert abs(np.mean(sq) - expected) < 4.0 * se, (n, np.mean(sq), expected, se)


def test_noise_path_statistics():
    path = NoisePath.generate(2, 3, 20000, 1, 0.01)
    inc = path.increments[:, 0]
    se_mean = math.sqrt(0.01 / inc.size)
    assert abs(inc.mean()) < 5 * se_mean
    var = inc.var()
    se_var = 0.01 * math.sqrt(2.0 / inc.size)
    assert abs(var - 0.01) < 5 * se_var


def test_noise_path_coarsen_preserves_terminal():
    path = NoisePath.generate(5, 1, 64, 2, 0.5 / 64)
    coarse = path.coarsen(8)
    np.testing.assert_allclose(coarse.terminal(), path.terminal(), atol=1e-15)
    assert coarse.dt == pytest.approx(path.dt * 8)


def test_ito_oracles_converge_to_exact_factor():
    sigma = SigmaField("constant", 0.3)
    path = NoisePath.generate(6, 0, 2**10, 1, 1.0 / 2**10)
    exact = math.exp(0.3 * path.terminal()[0])
    errs = {}
    for scheme in ("euler", "corrected"):
        increments = path.increments[:, None]  # (steps, 1 path, dim)
        v = ito_reference(np.array([[1.0]]), np.array([[0.0]]), sigma, increments, path.dt, TWO_PI, scheme)
        errs[scheme] = abs(v[0, 0] - exact)
    assert errs["euler"] < 5e-3
    assert errs["corrected"] < errs["euler"]


@pytest.mark.parametrize("dim", [1, 2])
def test_the_pass_refuses_one_kernel_for_a_sweep_of_three_systems(dim):
    grid, kernels, sizes, pos, vel = _sweep_case(dim)
    state = ParticleState(pos, vel, sizes=sizes)
    with pytest.raises(ValueError, match="3 particle systems but 1 kernels"):
        force_particle_mesh(state, kernels[:1], grid)
    with pytest.raises(ValueError, match="3 particle systems but 1 kernels"):
        mollified_density(state, kernels[:1], grid)


@pytest.mark.parametrize("dim", [1, 2])
def test_a_force_after_a_gauge_on_the_same_state_reuses_its_deposit(monkeypatch, dim):
    grid, kernels, sizes, pos, vel = _sweep_case(dim)
    fresh = force_particle_mesh(ParticleState(pos.copy(), vel.copy(), sizes=sizes), kernels, grid)
    state = ParticleState(pos, vel, sizes=sizes)
    density = mollified_density(state, kernels, grid)
    calls = _count_pass_calls(monkeypatch)
    forces = force_particle_mesh(state, kernels, grid)
    assert calls == ["gather"]
    assert np.array_equal(forces, fresh)
    assert np.array_equal(mollified_density(state, kernels, grid), density)
    assert calls == ["gather"]


@pytest.mark.parametrize("dim", [1, 2])
def test_a_pass_refills_unless_positions_sizes_and_grid_all_match(monkeypatch, dim):
    grid, kernels, sizes, pos, vel = _sweep_case(dim)
    state = ParticleState(pos, vel, sizes=sizes)
    finer = PeriodicGrid(dim, 2 * grid.points_per_dim, grid.period)
    cases = [  # each after a pass that marked the shared arrays for ``state`` on ``grid``
        (ParticleState(pos, vel, scratch=state.scratch), kernels[:1], grid),  # the same array as one system
        (ParticleState(pos.copy(), vel, sizes=sizes, scratch=state.scratch), kernels, grid),  # equal rows, new array
        (state, kernels, finer),  # another grid
    ]
    for moved, kern, lattice in cases:
        expected = force_particle_mesh(ParticleState(pos.copy(), vel.copy(), sizes=moved.sizes), kern, lattice)
        mollified_density(state, kernels, grid)
        calls = _count_pass_calls(monkeypatch)
        assert np.array_equal(force_particle_mesh(moved, kern, lattice), expected)
        assert sorted(calls) == ["_stencil", "bincount", "gather"]
        monkeypatch.undo()
    expected = force_particle_mesh(ParticleState(pos.copy(), vel.copy(), sizes=sizes), kernels, grid)
    mollified_density(state, kernels, grid)
    interlaced_stencils(state, finer, "linear")  # a stencil made outside a pass clears the mark
    assert np.array_equal(force_particle_mesh(state, kernels, grid), expected)


@pytest.mark.parametrize("scheme", ["nearest", "linear"])
@pytest.mark.parametrize("dim", [1, 2])
def test_reading_through_the_pass_stencil_is_interpolate_bitwise_and_needs_a_current_pass(dim, scheme):
    # the stencil's first rows, node indices masked back to the plain lattice, read what interpolate reads
    grid, kernels, sizes, pos, vel = _sweep_case(dim)
    state = ParticleState(pos, vel, sizes=sizes)
    values = np.random.default_rng(40 + dim).standard_normal((dim,) + grid.shape)
    with pytest.raises(ValueError, match="no current 'linear' particle-mesh pass"):
        particles_mod.read_at_particles(values, state, grid, "linear")
    mollified_density(state, kernels, grid, scheme)
    got = particles_mod.read_at_particles(values, state, grid, scheme)
    assert got.tobytes() == interpolate(values, pos, grid, scheme).tobytes()
    moved = ParticleState(pos.copy(), vel, sizes=sizes, scratch=state.scratch)
    with pytest.raises(ValueError, match="particle-mesh pass on these particles and grid"):
        particles_mod.read_at_particles(values, moved, grid, scheme)


def test_runs_sharing_a_state_with_gauges_between_steps_equal_each_run_alone():
    # a gauge marks the shared arrays for one run's rows: the other run's next force must refill them,
    # and a run's own force after its gauge may reuse them
    cfg = validate(RunConfig())
    cfg.grid.points_per_dim = 128
    cfg.study.t_final = 0.02
    n_values = (64, 256)
    first = build_run(cfg, 0, n_values)
    second = replace(build_run(cfg, 1, n_values), particles=first.particles)
    alone = [build_run(cfg, 0, n_values), build_run(cfg, 1, n_values)]
    for index in range(4):
        if index % 2:  # gauge and step each run in turn: the force follows its own run's gauge
            gauges = [q_functional(first)]
            first = coupled_step(first)
            gauges.append(q_functional(second))
            second = coupled_step(second)
        else:  # both gauges, then both steps: each force follows the other run's pass
            gauges = [q_functional(first), q_functional(second)]
            first, second = coupled_step(first), coupled_step(second)
        assert gauges == [q_functional(run) for run in alone]
        alone = [coupled_step(run) for run in alone]
        assert first.particles.scratch is second.particles.scratch
        for together, run in zip((first, second), alone):
            assert np.array_equal(together.particles.positions, run.particles.positions)
            assert np.array_equal(together.particles.velocities, run.particles.velocities)


def test_the_force_validates_each_kernel_once_and_a_bad_kernel_on_every_call(monkeypatch):
    grid = PeriodicGrid(1, 512, TWO_PI)
    state = ParticleState(np.array([[1.0], [2.5]]), np.zeros((2, 1)))
    checked = []
    validate_mesh = particles_mod.validate_kernel_mesh
    monkeypatch.setattr(particles_mod, "validate_kernel_mesh", lambda k, g: checked.append(k) or validate_mesh(k, g))
    kern = gaussian_kernel(1024, width=2.0345)  # a kernel no other test builds an operator for
    for _ in range(3):
        force_particle_mesh(state, [kern], grid)
    assert checked == [kern]
    coarse = PeriodicGrid(1, 16, TWO_PI)
    for _ in range(2):
        with pytest.raises(GridTooCoarse):
            force_particle_mesh(state, [kern], coarse)
    assert checked == [kern] * 3


@pytest.mark.parametrize("sizes", [(6,), (1, 3, 2), (0, 4, 0, 2, 0)])
def test_split_gives_the_views_of_np_split(sizes):
    rows = np.arange(12.0).reshape(6, 2)
    state = ParticleState(rows, rows, sizes=sizes)
    got, expected = state.split(rows), np.split(rows, np.cumsum(sizes[:-1]))
    assert [view.shape for view in got] == [view.shape for view in expected]
    assert all(np.array_equal(view, want) for view, want in zip(got, expected))
    assert all(np.shares_memory(view, rows) for view in got if view.size)


def _wrap_reference(pos, period):
    """The wrap as a sum with ``np.where`` offsets into a new array, falling back to ``np.mod``."""
    wrapped = pos + np.where(pos < 0.0, period, np.where(pos >= period, -period, 0.0))
    if not (wrapped.min(initial=0.0) >= 0.0 and wrapped.max(initial=0.0) < period):
        return np.mod(pos, period)
    return wrapped


def _sigma_reference(sigma, pts):
    return sigma.base * (1.0 + sigma.modulation * np.sin(2.0 * np.pi * pts / sigma.period))


def test_in_place_wrap_and_sigma_match_np_mod_and_the_new_array_forms_bitwise():
    period = TWO_PI
    edges = [-1e-17, -0.0, 0.0, period, -period, np.nextafter(period, 0.0), 3 * period, np.inf, -np.inf, np.nan]
    edges += [1e-300, -1e-300]
    rng = np.random.default_rng(8)
    random_rows = rng.random((4096, 1)) * 3 * period - period
    arrays = [np.array([[value], [1.0], [period - 1.0]]) for value in edges]
    arrays += [np.array(edges)[:, None], random_rows, rng.random((4096, 2)) * period + 0.01 * rng.standard_normal((4096, 2))]
    for pos in arrays:
        with np.errstate(invalid="ignore"):
            expected, old = np.mod(pos, period), _wrap_reference(pos, period)
            given = pos.copy()
            wrapped = wrap_positions(given, period)
        assert wrapped.tobytes() == expected.tobytes() == old.tobytes()
        assert wrapped is given or given.tobytes() == pos.tobytes()  # wrapped in place, or left untouched
    sigma = SigmaField("sinusoidal", 0.3, 0.5, period)
    for pos in arrays[-3:]:
        with np.errstate(invalid="ignore"):  # sin of +-inf
            assert sigma.values(pos).tobytes() == _sigma_reference(sigma, pos).tobytes()


def _boost_errors(method, grid):
    """Largest position (modulo the period) and velocity errors of a boosted run, 200 steps at N = 256.

    With constant sigma, (X, V) -> (X + s, V + c exp(sigma B_t)) maps the symplectic-Euler runs onto
    each other, where s = sum_n c exp(sigma B_n) dt: each drift moves by the offset before its factor.
    The direct force sees differences only; the particle-mesh force also sees the lattice.
    """
    c, dt, sigma0, n = 0.3, 1e-3, 0.25, 256
    sigma = SigmaField("constant", sigma0)
    kernel = gaussian_kernel(n)
    path = NoisePath.generate(5, 0, 200, 1, dt)
    B = np.concatenate(([0.0], np.cumsum(path.increments[:, 0])))
    plain = init_well_prepared(DensityProfile(), VelocityProfile("sine", 0.1, TWO_PI), n)
    boosted = ParticleState(plain.positions.copy(), plain.velocities + c)
    for dB in path.increments:
        plain = step(plain, dB, dt, [kernel], sigma, TWO_PI, method, grid)
        boosted = step(boosted, dB, dt, [kernel], sigma, TWO_PI, method, grid)
    s = np.sum(c * np.exp(sigma0 * B[:-1]) * dt)
    moved = np.remainder(boosted.positions - plain.positions - s + math.pi, TWO_PI) - math.pi
    offset = boosted.velocities - plain.velocities - c * math.exp(sigma0 * B[-1])
    return np.max(np.abs(moved)), np.max(np.abs(offset))


def test_direct_particles_are_galilean_boost_covariant():
    position, velocity = _boost_errors("direct", None)
    assert position < 1e-12 and velocity < 1e-12


def test_particle_mesh_boost_error_falls_with_the_mesh():
    # measured 1.4e-7 / 6.7e-7 at M = 512 and 1.8e-8 / 8.3e-8 at M = 1024
    coarse = _boost_errors("particle_mesh", PeriodicGrid(1, 512, TWO_PI))
    fine = _boost_errors("particle_mesh", PeriodicGrid(1, 1024, TWO_PI))
    assert coarse[0] < 3e-7 and coarse[1] < 1.5e-6
    assert fine[0] <= coarse[0] / 4 and fine[1] <= coarse[1] / 4


@pytest.mark.parametrize("dim", [1, 2])
def test_the_pass_refuses_an_empty_system(dim):
    # an empty system has no N to divide its spectrum or density row by; the state itself may hold one
    grid = PeriodicGrid(dim, 512 if dim == 1 else 64, TWO_PI)
    kernels = [ScaledKernel(MollifierSpec("gaussian", 2.0 / dim, dim), 1024, 0.5)] * 2
    pos = np.random.default_rng(9).random((4, dim)) * TWO_PI
    state = ParticleState(pos, np.zeros_like(pos), sizes=(4, 0))
    with pytest.raises(ValueError, match=r"system sizes \(4, 0\) include an empty system"):
        force_particle_mesh(state, kernels, grid)
    with pytest.raises(ValueError, match=r"system sizes \(4, 0\) include an empty system"):
        mollified_density(state, kernels, grid)


@pytest.mark.parametrize("factor", [0, -1, 3])
def test_noise_path_coarsen_refuses_a_factor_that_is_not_a_positive_divisor(factor):
    path = NoisePath.generate(5, 1, 64, 2, 0.5 / 64)
    with pytest.raises(ValueError, match=f"coarsening factor {factor} must be a positive divisor of the step count 64"):
        path.coarsen(factor)
