import math

import numpy as np
import pytest

from mfeuler.errors import DensityNotNormalizable, GridTooCoarse, NonFiniteState
import mfeuler.particles as particles_mod
from mfeuler.fields import PeriodicGrid, assignment_window
from mfeuler.kernels import MollifierSpec, ScaledKernel
from mfeuler.noise import NoisePath, SigmaField
from mfeuler.particles import (
    ParticleState,
    _half_cell_phase,
    force_direct,
    force_kernel_spectrum,
    force_particle_mesh,
    init_well_prepared,
    ito_reference,
    sampled_mollifier,
    step,
)
from mfeuler.profiles import DensityProfile, VelocityProfile

TWO_PI = 2.0 * math.pi


def gaussian_kernel(n, width=2.0, beta=0.5, dim=1):
    return ScaledKernel(MollifierSpec("gaussian", width, dim), n, beta)


def test_single_particle_force_zero():
    st = ParticleState(np.array([[1.0]]), np.array([[0.0]]))
    f = force_direct(st, gaussian_kernel(1, width=0.2), TWO_PI)
    assert np.all(f == 0.0)


def test_two_particles_action_reaction_and_closed_form():
    period = 32.0 * math.pi  # large torus: minimum image equals the raw displacement
    kern = gaussian_kernel(2, width=1.0)
    r = 0.7
    st = ParticleState(np.array([[5.0 + r], [5.0]]), np.zeros((2, 1)))
    f = force_direct(st, kern, period)
    assert f[0, 0] == -f[1, 0]
    expected = -0.5 * kern.potential_gradient(np.array([[r]]))[0, 0]
    assert f[0, 0] == pytest.approx(expected, rel=1e-14)


def test_permutation_equivariance():
    # permuting indices reorders each pair sum, so agreement is exact up to
    # the roundoff of re-associated additions
    rng = np.random.default_rng(0)
    pos = rng.random((128, 1)) * TWO_PI
    kern = gaussian_kernel(128, width=1.0)
    f = force_direct(ParticleState(pos, np.zeros_like(pos)), kern, TWO_PI)
    perm = rng.permutation(128)
    f_perm = force_direct(ParticleState(pos[perm], np.zeros_like(pos)), kern, TWO_PI)
    np.testing.assert_allclose(f[perm], f_perm, rtol=0, atol=1e-14 * np.max(np.abs(f)))


def test_momentum_conservation():
    rng = np.random.default_rng(1)
    n = 256
    pos = rng.random((n, 1)) * TWO_PI
    f = force_direct(ParticleState(pos, np.zeros_like(pos)), gaussian_kernel(n), TWO_PI)
    assert abs(f.sum()) <= 1e-12 * n * np.max(np.abs(f))


def test_particle_mesh_single_particle_small():
    grid = PeriodicGrid(1, 128, TWO_PI)
    kern = gaussian_kernel(16, width=1.0)
    st = ParticleState(np.array([[2.13]]), np.zeros((1, 1)))
    f = force_particle_mesh(st, kern, grid)
    # direct answer is exactly zero; PM noise stays at interpolation-error level
    peak = float(np.max(np.abs(kern.potential_gradient(np.linspace(-1, 1, 101)[:, None]))))
    assert np.max(np.abs(f)) < 1e-3 * peak


def test_particle_mesh_matches_direct():
    grid = PeriodicGrid(1, 256, TWO_PI)
    kern = gaussian_kernel(1024, width=4.0)
    rng = np.random.default_rng(2)
    pos = rng.random((1024, 1)) * TWO_PI
    st = ParticleState(pos, np.zeros_like(pos))
    fd = force_direct(st, kern, TWO_PI)
    fp = force_particle_mesh(st, kern, grid)
    assert np.max(np.abs(fd - fp)) < 1e-3 * np.max(np.abs(fd))


def test_particle_mesh_refinement_halves_error():
    kern = gaussian_kernel(1024, width=2.0)
    rng = np.random.default_rng(3)
    pos = rng.random((1024, 1)) * TWO_PI
    st = ParticleState(pos, np.zeros_like(pos))
    fd = force_direct(st, kern, TWO_PI)
    devs = []
    for m in (128, 256, 512):
        fp = force_particle_mesh(st, kern, PeriodicGrid(1, m, TWO_PI))
        devs.append(np.max(np.abs(fd - fp)))
    assert devs[0] >= 2.0 * devs[1]
    assert devs[1] >= 2.0 * devs[2]


def test_particle_mesh_2d_matches_direct():
    grid = PeriodicGrid(2, 64, TWO_PI)
    kern = ScaledKernel(MollifierSpec("gaussian", 1.0, 2), 256, 0.5)
    rng = np.random.default_rng(4)
    pos = rng.random((256, 2)) * TWO_PI
    st = ParticleState(pos, np.zeros_like(pos))
    fd = force_direct(st, kern, TWO_PI)
    fp = force_particle_mesh(st, kern, grid)
    assert np.max(np.abs(fd - fp)) < 5e-3 * np.max(np.abs(fd))


def test_particle_mesh_bump_matches_direct_with_operators_built_once(monkeypatch):
    grid = PeriodicGrid(1, 512, TWO_PI)
    kern = ScaledKernel(MollifierSpec("bump", 2.0, 1), 64, 0.5)
    rng = np.random.default_rng(0)
    pos = rng.random((64, 1)) * TWO_PI
    st = ParticleState(pos, np.zeros_like(pos))
    fd = force_direct(st, kern, TWO_PI)
    fp = force_particle_mesh(st, kern, grid)
    assert np.max(np.abs(fd - fp)) < 1e-3 * np.max(np.abs(fd))

    def resample(*args):
        raise AssertionError("force kernel sampled again for the same (kernel, grid)")

    monkeypatch.setattr(particles_mod, "sample_kernel", resample)
    np.testing.assert_array_equal(force_particle_mesh(st, kern, grid), fp)
    monkeypatch.undo()
    operators = [
        *force_kernel_spectrum(kern, grid),
        sampled_mollifier(kern, grid),
        _half_cell_phase(grid),
        assignment_window(grid, "linear"),
    ]
    assert not any(op.flags.writeable for op in operators)


def test_grid_too_coarse_raises():
    grid = PeriodicGrid(1, 16, TWO_PI)
    kern = gaussian_kernel(4096, width=1.0)
    st = ParticleState(np.array([[1.0]]), np.zeros((1, 1)))
    with pytest.raises(GridTooCoarse):
        force_particle_mesh(st, kern, grid)


def test_kernel_support_must_fit_half_box():
    kern = gaussian_kernel(2, width=2.0)  # support ~ 16 at N=2
    st = ParticleState(np.array([[0.0], [1.0]]), np.zeros((2, 1)))
    with pytest.raises(GridTooCoarse):
        force_direct(st, kern, TWO_PI)


def test_free_motion_exact():
    # kernel so narrow the particles never overlap: force is exactly zero
    kern = gaussian_kernel(2, width=0.05)
    sigma = SigmaField("constant", 0.0)
    st = ParticleState(np.array([[0.5], [2.0]]), np.array([[0.3], [-0.1]]))
    dt = 0.25
    for _ in range(8):
        st = step(st, np.zeros(1), dt, kern, sigma, TWO_PI, method="direct")
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
        st = step(st, dB, path.dt, kern, sigma, TWO_PI, method="direct")
    exact = 0.7 * math.exp(0.3 * path.terminal()[0])
    assert abs(st.velocities[0, 0] - exact) <= 1e-12 * abs(exact)


def test_common_noise_ratio_dt_independent():
    sigma = SigmaField("constant", 0.4)
    kern = gaussian_kernel(2, width=0.1)

    def ratio(n_steps):
        path = NoisePath.generate(9, 0, n_steps, 1, 1.0 / n_steps)
        st = ParticleState(np.array([[1.0], [4.0]]), np.array([[0.5], [0.2]]))
        for dB in path.increments:
            st = step(st, dB, path.dt, kern, sigma, TWO_PI, method="direct")
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
        st = init_well_prepared(dens, vel, 64, TWO_PI, scheme="stratified")
        grid = PeriodicGrid(1, 128, TWO_PI)
        for dB in path.increments:
            st = step(st, dB, path.dt, kern, sigma, TWO_PI, method="particle_mesh", grid=grid)
        cfgs.append(st)
    np.testing.assert_array_equal(cfgs[0].positions, cfgs[1].positions)
    np.testing.assert_array_equal(cfgs[0].velocities, cfgs[1].velocities)


def test_non_finite_state_raises():
    sigma = SigmaField("constant", 1e300)
    kern = gaussian_kernel(1, width=0.2)
    st = ParticleState(np.array([[1.0]]), np.array([[1.0]]))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState, match="seed=1"):
        step(st, np.array([5.0]), 1e-2, kern, sigma, TWO_PI, method="direct", context="seed=1 step=0")


def test_stratified_uniform_subinterval_quantiles():
    # uniform density on [pi/2, 3pi/2): quantile midpoints are equispaced
    a, b = TWO_PI / 4.0, 3.0 * TWO_PI / 4.0

    def dens(pts):
        x = np.atleast_2d(pts)[:, 0]
        return np.where((x >= a) & (x < b), 1.0 / (b - a), 0.0)

    vel = VelocityProfile("zero", 0.0, TWO_PI)
    st = init_well_prepared(dens, vel, 4, TWO_PI, scheme="stratified", resolution=2**14)
    expected = a + (np.arange(4) + 0.5) / 4.0 * (b - a)
    np.testing.assert_allclose(st.positions[:, 0], expected, atol=2 * TWO_PI / 2**14)


def test_init_velocities_exact_samples():
    dens = DensityProfile("bump", 0.2, 8.0, TWO_PI, 1, True)
    vel = VelocityProfile("sine", 0.1, TWO_PI)
    for scheme in ("stratified", "iid"):
        st = init_well_prepared(dens, vel, 32, TWO_PI, scheme=scheme, master_seed=4)
        np.testing.assert_array_equal(st.velocities, np.asarray(vel(st.positions)))


def test_init_rejects_unnormalized_density():
    dens = DensityProfile("bump", 0.2, 8.0, TWO_PI, 1, normalize=False)
    vel = VelocityProfile("zero", 0.0, TWO_PI)
    with pytest.raises(DensityNotNormalizable):
        init_well_prepared(dens, vel, 8, TWO_PI)


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
        st = init_well_prepared(dens, vel, n, TWO_PI, scheme="stratified")
        kern = gaussian_kernel(n)
        mol = mollified_density(st.positions, kern, grid)
        errs.append(float(np.sum((mol.values - rho.values) ** 2) * grid.cell_volume))
    assert all(a > b for a, b in zip(errs, errs[1:]))


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


def test_sigma_field_lattice_bounds():
    grid = PeriodicGrid(1, 256, TWO_PI)
    const = SigmaField("constant", 0.3)
    sup, sup_grad = const.sup_bounds(grid)
    assert sup == pytest.approx(0.3) and sup_grad == pytest.approx(0.0, abs=1e-14)
    wav = SigmaField("sinusoidal", 0.25, 0.5, TWO_PI)
    sup, sup_grad = wav.sup_bounds(grid)
    assert sup == pytest.approx(0.25 * 1.5, rel=1e-3)
    assert sup_grad == pytest.approx(0.25 * 0.5, rel=1e-2)
    assert np.isfinite(sup) and np.isfinite(sup_grad)


def test_ito_oracles_converge_to_exact_factor():
    sigma = SigmaField("constant", 0.3)
    path = NoisePath.generate(6, 0, 2**10, 1, 1.0 / 2**10)
    exact = math.exp(0.3 * path.terminal()[0])
    errs = {}
    for scheme in ("euler", "corrected"):
        v = ito_reference(np.array([[1.0]]), np.array([[0.0]]), sigma, path.increments, path.dt, TWO_PI, scheme)
        errs[scheme] = abs(v[0, 0] - exact)
    assert errs["euler"] < 5e-3
    assert errs["corrected"] < errs["euler"]
