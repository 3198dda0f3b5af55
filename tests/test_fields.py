import math

import numpy as np
import pytest

from mfeuler.errors import AlphaTooSmall, KernelAliasingWarning
from mfeuler.fields import (
    EmpiricalMeasure,
    GridField,
    PeriodicGrid,
    convolve,
    deposit,
    interpolate,
    measure_mode_coefficients,
    mode_set,
    neg_sobolev_distance,
    neg_sobolev_tail_bound,
    sobolev_norm,
    spectral_derivative,
    to_physical,
    to_spectral,
)
from mfeuler.kernels import MollifierSpec, ScaledKernel

TWO_PI = 2.0 * math.pi


def grid1(m=64, period=TWO_PI):
    return PeriodicGrid(1, m, period)


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(3, 64, TWO_PI)
    with pytest.raises(ValueError):
        PeriodicGrid(1, 100, TWO_PI)
    with pytest.raises(ValueError):
        PeriodicGrid(1, 64, -1.0)


def test_constant_field_spectrum():
    g = grid1()
    spec = to_spectral(GridField(g, np.ones(g.shape)))
    assert spec.coeffs[0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(spec.coeffs[1:])) < 1e-14


def test_sine_coefficients():
    g = grid1()
    spec = to_spectral(GridField(g, np.sin(g.axis_coords)))
    assert spec.coeffs[1] == pytest.approx(-0.5j, abs=1e-14)
    assert spec.coeffs[-1] == pytest.approx(0.5j, abs=1e-14)


def test_round_trip_identity():
    g = grid1(128)
    rng = np.random.default_rng(0)
    f = GridField(g, rng.standard_normal(g.shape))
    back = to_physical(to_spectral(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_spectral_derivative():
    g = grid1(128)
    const = spectral_derivative(GridField(g, np.full(g.shape, 3.0)))
    assert np.max(np.abs(const.values)) < 1e-13
    s = GridField(g, np.sin(g.axis_coords))
    ds = spectral_derivative(s)
    assert np.max(np.abs(ds.values - np.cos(g.axis_coords))) < 1e-10
    dds = spectral_derivative(ds)
    assert np.max(np.abs(dds.values + np.sin(g.axis_coords))) < 1e-9


def test_spectral_derivative_2d():
    g = PeriodicGrid(2, 32, TWO_PI)
    xx, yy = np.meshgrid(g.axis_coords, g.axis_coords, indexing="ij")
    f = GridField(g, np.sin(xx) * np.cos(yy))
    dx = spectral_derivative(f, 0)
    np.testing.assert_allclose(dx.values, np.cos(xx) * np.cos(yy), atol=1e-10)
    dy = spectral_derivative(f, 1)
    np.testing.assert_allclose(dy.values, -np.sin(xx) * np.sin(yy), atol=1e-10)


def test_parseval():
    g = grid1(128)
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(g.shape)
    f = GridField(g, vals)
    lattice_l2 = math.sqrt(np.sum(vals**2) * g.cell_volume)
    assert sobolev_norm(f, 0.0) == pytest.approx(lattice_l2, abs=1e-10)


def test_sobolev_norm_examples():
    g = grid1()
    f = GridField(g, np.sin(g.axis_coords))
    assert sobolev_norm(f, 0.0) == pytest.approx(math.sqrt(math.pi), abs=1e-12)
    assert sobolev_norm(f, 1.0) == pytest.approx(math.sqrt(2 * math.pi), abs=1e-12)
    zero = GridField(g, np.zeros(g.shape))
    assert sobolev_norm(zero, 2.0) == 0.0


def test_convolve_constant_with_unit_mass_kernel():
    g = grid1(256)
    kern = ScaledKernel(MollifierSpec("gaussian", 1.0, 1), 64, 0.5)
    f = GridField(g, np.full(g.shape, 2.5))
    out = convolve(f, kern.density)
    np.testing.assert_allclose(out.values, 2.5, rtol=0, atol=1e-9)


def test_convolve_matches_direct_double_loop():
    g = grid1(128)
    rng = np.random.default_rng(7)
    fvals = rng.standard_normal(g.shape)
    kern = ScaledKernel(MollifierSpec("gaussian", 1.0, 1), 16, 0.5)
    kvals = np.asarray(kern.density(g.wrapped_points()[:, 0]))
    out = convolve(GridField(g, fvals), kern.density)
    direct = np.empty_like(fvals)
    for i in range(g.points_per_dim):
        acc = 0.0
        for j in range(g.points_per_dim):
            acc += fvals[j] * kvals[(i - j) % g.points_per_dim]
        direct[i] = acc * g.spacing
    np.testing.assert_allclose(out.values, direct, rtol=0, atol=1e-6)


def test_convolve_dirac_deposit_reproduces_kernel():
    g = grid1(256)
    kern = ScaledKernel(MollifierSpec("gaussian", 1.0, 1), 256, 0.5)
    # particle exactly on a lattice node: deposit is an exact lattice Dirac
    x0 = g.axis_coords[64]
    dep = deposit(EmpiricalMeasure(np.array([[x0]])), g, "nearest")
    out = convolve(dep, kern.density)
    expected = np.asarray(kern.density((g.axis_coords - x0 + g.period / 2) % g.period - g.period / 2))
    np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-8)


def test_convolve_warns_on_aliasing_mass():
    g = grid1(64, period=2.0)
    kern = ScaledKernel(MollifierSpec("gaussian", 1.0, 1), 1, 0.5)
    f = GridField(g, np.ones(g.shape))
    with pytest.warns(KernelAliasingWarning):
        convolve(f, kern.density, mass_outside=kern.mass_outside(g.period / 2))


def test_deposit_single_particle_nearest():
    g = grid1()
    dep = deposit(EmpiricalMeasure(np.array([[g.axis_coords[5]]])), g, "nearest")
    assert dep.values[5] == pytest.approx(1.0 / g.spacing, abs=1e-12)
    assert np.count_nonzero(dep.values) == 1
    assert dep.integral() == pytest.approx(1.0, abs=1e-12)


def test_deposit_unit_mass_and_node_degeneracy():
    g = grid1(128)
    rng = np.random.default_rng(2)
    pts = rng.random((65, 1)) * g.period
    dep = deposit(EmpiricalMeasure(pts), g, "linear")
    assert dep.integral() == pytest.approx(1.0, abs=1e-12)
    # a particle exactly on a node deposits identically under both schemes
    node_pt = np.array([[g.axis_coords[17]]])
    lin = deposit(EmpiricalMeasure(node_pt), g, "linear")
    near = deposit(EmpiricalMeasure(node_pt), g, "nearest")
    np.testing.assert_array_equal(lin.values, near.values)


def test_deposit_2d_mass():
    g = PeriodicGrid(2, 32, TWO_PI)
    rng = np.random.default_rng(3)
    pts = rng.random((40, 2)) * g.period
    for scheme in ("nearest", "linear"):
        dep = deposit(EmpiricalMeasure(pts), g, scheme)
        assert dep.integral() == pytest.approx(1.0, abs=1e-12)


def test_interpolate_lattice_and_constant():
    g = grid1(64)
    f = GridField(g, np.sin(g.axis_coords))
    got = interpolate(f, g.axis_coords[:, None], "linear")
    np.testing.assert_allclose(got, f.values, atol=1e-14)
    c = GridField(g, np.full(g.shape, 4.2))
    rng = np.random.default_rng(4)
    pts = rng.random((10, 1)) * g.period
    np.testing.assert_allclose(interpolate(c, pts, "linear"), 4.2, atol=1e-14)
    np.testing.assert_allclose(interpolate(c, pts, "spectral"), 4.2, atol=1e-12)


def _reference_deposit(pts, w, g, scheme):
    # per-corner np.add.at accumulation, corner by corner
    m = g.points_per_dim
    u = pts / g.spacing
    out = np.zeros(g.shape)
    if scheme == "nearest":
        idx = np.mod(np.rint(u).astype(int), m)
        np.add.at(out, tuple(idx.T), w)
    elif g.dim == 1:
        base = np.floor(u).astype(int)
        frac = u - base
        np.add.at(out, np.mod(base[:, 0], m), w * (1.0 - frac[:, 0]))
        np.add.at(out, np.mod(base[:, 0] + 1, m), w * frac[:, 0])
    else:
        base = np.floor(u).astype(int)
        fx, fy = (u - base).T
        i0, i1 = np.mod(base, m), np.mod(base + 1, m)
        np.add.at(out, (i0[:, 0], i0[:, 1]), w * (1 - fx) * (1 - fy))
        np.add.at(out, (i1[:, 0], i0[:, 1]), w * fx * (1 - fy))
        np.add.at(out, (i0[:, 0], i1[:, 1]), w * (1 - fx) * fy)
        np.add.at(out, (i1[:, 0], i1[:, 1]), w * fx * fy)
    return out / g.cell_volume


def _reference_interpolate(vals, pts, g, scheme):
    m = g.points_per_dim
    u = pts / g.spacing
    if scheme == "nearest":
        return vals[tuple(np.mod(np.rint(u).astype(int), m).T)]
    base = np.floor(u).astype(int)
    frac = u - base
    i0, i1 = np.mod(base, m), np.mod(base + 1, m)
    if g.dim == 1:
        return vals[i0[:, 0]] * (1.0 - frac[:, 0]) + vals[i1[:, 0]] * frac[:, 0]
    fx, fy = frac.T
    return (
        vals[i0[:, 0], i0[:, 1]] * (1 - fx) * (1 - fy)
        + vals[i1[:, 0], i0[:, 1]] * fx * (1 - fy)
        + vals[i0[:, 0], i1[:, 1]] * (1 - fx) * fy
        + vals[i1[:, 0], i1[:, 1]] * fx * fy
    )


@pytest.mark.parametrize("scheme", ["nearest", "linear"])
@pytest.mark.parametrize("dim", [1, 2])
def test_stencil_matches_per_corner_reference_and_is_adjoint(dim, scheme):
    g = PeriodicGrid(dim, 16, 5.0)
    rng = np.random.default_rng(11 + dim)
    pts = rng.random((200, dim)) * g.period
    # a lattice node, the last node, and points that round or spill past the period
    pts[:4] = np.array([3, 15, 15.7, 16 - 1e-9])[:, None] * g.spacing
    w = rng.standard_normal(200)
    field = GridField(g, rng.standard_normal(g.shape))

    dep = deposit(EmpiricalMeasure(pts, w), g, scheme)
    np.testing.assert_array_equal(dep.values, _reference_deposit(pts, w, g, scheme))
    vals = interpolate(field, pts, scheme)
    np.testing.assert_array_equal(vals, _reference_interpolate(field.values, pts, g, scheme))

    lattice_side = g.cell_volume * np.sum(dep.values * field.values)
    particle_side = np.sum(w * vals)
    assert lattice_side == pytest.approx(particle_side, rel=1e-12)


@pytest.mark.parametrize("weights", ["uniform", "scalar", "vector"])
def test_mode_coefficients_2d_match_dense_sum(weights):
    g = PeriodicGrid(2, 16, 5.0)
    rng = np.random.default_rng(12)
    pts = rng.random((37, 2)) * g.period
    w = {"uniform": None, "scalar": rng.standard_normal(37), "vector": rng.standard_normal((37, 2))}[weights]
    for cutoff in (3, 8):  # 8 is the Nyquist cutoff, where the mode set is asymmetric
        _, freqs = mode_set(g, cutoff)
        dense = np.exp(-1j * freqs @ pts.T)
        expected = (dense.mean(axis=1) if w is None else dense @ w) / g.period**2
        got = measure_mode_coefficients(EmpiricalMeasure(pts, w), g, cutoff)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_spectral_interpolation_2d_exact_for_band_limited_field():
    g = PeriodicGrid(2, 16, TWO_PI)
    xx, yy = np.meshgrid(g.axis_coords, g.axis_coords, indexing="ij")
    f = GridField(g, np.sin(xx) * np.cos(2 * yy))
    pts = np.random.default_rng(13).random((50, 2)) * g.period
    got = interpolate(f, pts, "spectral")
    np.testing.assert_allclose(got, np.sin(pts[:, 0]) * np.cos(2 * pts[:, 1]), rtol=0, atol=1e-12)


def test_dirac_distance_matches_direct_sum():
    g = grid1()
    measure = EmpiricalMeasure(np.zeros((1, 1)))
    cutoff = 16
    val = neg_sobolev_distance(measure, None, 1.0, cutoff, grid=g, check_alpha=False)
    k = np.arange(-cutoff, cutoff + 1).astype(float)
    direct = math.sqrt((1.0 / TWO_PI) * np.sum((1.0 + k**2) ** -1.0))
    assert val == pytest.approx(direct, abs=1e-12)


def test_dirac_distance_2d_direct_sum():
    g = PeriodicGrid(2, 32, TWO_PI)
    measure = EmpiricalMeasure(np.zeros((1, 2)))
    cutoff = 8
    val = neg_sobolev_distance(measure, None, 2.5, cutoff, grid=g)
    k = np.arange(-cutoff, cutoff + 1).astype(float)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    direct = math.sqrt(np.sum((1.0 + kx**2 + ky**2) ** -2.5) / TWO_PI**2)
    assert val == pytest.approx(direct, abs=1e-12)


def test_alpha_too_small_rejected():
    g = grid1()
    measure = EmpiricalMeasure(np.zeros((1, 1)))
    with pytest.raises(AlphaTooSmall):
        neg_sobolev_distance(measure, None, 1.5, 16, grid=g)
    with pytest.raises(AlphaTooSmall):
        neg_sobolev_distance(measure, None, 1.0, 16, grid=g)


def test_distance_monotone_in_alpha():
    g = grid1(128)
    rng = np.random.default_rng(5)
    measure = EmpiricalMeasure(rng.random((32, 1)) * g.period)
    f = GridField(g, np.full(g.shape, 1.0 / g.period))
    vals = [neg_sobolev_distance(measure, f, a) for a in (1.6, 2.0, 3.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_distance_translation_invariance():
    g = grid1(128)
    rng = np.random.default_rng(6)
    pts = rng.random((32, 1)) * g.period
    rho = GridField(g, 1.0 / g.period + 0.02 * np.cos(g.axis_coords))
    base = neg_sobolev_distance(EmpiricalMeasure(pts), rho, 2.0)
    shift = 8 * g.spacing  # lattice shift keeps the field values a pure roll
    shifted_rho = GridField(g, np.roll(rho.values, 8))
    shifted = neg_sobolev_distance(
        EmpiricalMeasure(np.mod(pts + shift, g.period)), shifted_rho, 2.0
    )
    assert shifted == pytest.approx(base, abs=1e-12)


def test_lattice_deposit_of_field_has_tiny_distance():
    # measure supported on lattice nodes with weights rho_j h reproduces the
    # field coefficients exactly up to the cutoff
    g = grid1(64)
    rho_vals = (1.0 + 0.3 * np.cos(g.axis_coords)) / g.period
    rho = GridField(g, rho_vals)
    measure = EmpiricalMeasure(g.axis_coords[:, None], rho_vals * g.spacing)
    val = neg_sobolev_distance(measure, rho, 2.0, 16)
    assert val < 1e-13


def test_momentum_distance_vanishes_in_degenerate_case():
    # velocity-weighted lattice measure against the exact product field:
    # when the position measure matches rho and weights sample v exactly,
    # the momentum distance collapses to zero
    g = grid1(64)
    rho_vals = (1.0 + 0.3 * np.cos(g.axis_coords)) / g.period
    v_vals = 0.1 * np.sin(g.axis_coords)
    rho = GridField(g, rho_vals)
    product = GridField(g, rho_vals * v_vals)
    weights = (rho_vals * g.spacing)[:, None] * v_vals[:, None]
    measure = EmpiricalMeasure(g.axis_coords[:, None], weights)
    assert neg_sobolev_distance(measure, [product], 2.0, 16) < 1e-13
    assert neg_sobolev_distance(EmpiricalMeasure(g.axis_coords[:, None], rho_vals * g.spacing), rho, 2.0, 16) < 1e-13


def test_vector_measure_distance_components():
    g = grid1(64)
    rng = np.random.default_rng(8)
    pts = rng.random((16, 1)) * g.period
    weights = rng.standard_normal((16, 1)) / 16.0
    zero = GridField(g, np.zeros(g.shape))
    v = neg_sobolev_distance(EmpiricalMeasure(pts, weights), [zero], 2.0, 16)
    s = neg_sobolev_distance(EmpiricalMeasure(pts, weights[:, 0]), zero, 2.0, 16)
    assert v == pytest.approx(s, abs=1e-14)


def test_cutoff_tail_bound():
    g = grid1(256)
    rng = np.random.default_rng(9)
    measure = EmpiricalMeasure(rng.random((64, 1)) * g.period)
    rho = GridField(g, np.full(g.shape, 1.0 / g.period))
    alpha = 2.0
    d_small = neg_sobolev_distance(measure, rho, alpha, 32)
    d_large = neg_sobolev_distance(measure, rho, alpha, 64)
    gap = abs(d_large**2 - d_small**2)
    bound = neg_sobolev_tail_bound(g, alpha, 32, mass_bound=2.0, outer=64)
    assert gap <= bound


def test_mollified_deposit_matches_direct_sum():
    from mfeuler.coupling import mollified_density

    g = grid1(256)
    kern = ScaledKernel(MollifierSpec("gaussian", 1.0, 1), 64, 0.5)
    rng = np.random.default_rng(10)
    pts = rng.random((64, 1)) * g.period
    mol = mollified_density(pts, kern, g, "linear")
    wrapped = (g.axis_coords[None, :] - pts[:, 0:1] + g.period / 2) % g.period - g.period / 2
    direct = np.asarray(kern.density(wrapped.ravel())).reshape(wrapped.shape).mean(axis=0)
    # deposit interpolation error bound ~ (h / kernel scale)^2
    scale = float(np.max(direct))
    tol = (g.spacing * kern.compression) ** 2 * scale
    np.testing.assert_allclose(mol.values, direct, rtol=0, atol=tol)
