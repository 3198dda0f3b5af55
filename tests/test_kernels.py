import math
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import mfeuler
from mfeuler import kernels
from mfeuler.config import RunConfig
from mfeuler.coupling import make_kernel
from mfeuler.errors import DivisionDegenerate, QuadratureNotConverged
from mfeuler.fields import PeriodicGrid, sample_kernel
from mfeuler.kernels import (
    FAMILIES,
    QUAD_BLOCK,
    HypothesisReport,
    QUAD_POINTS,
    MollifierSpec,
    ScaledKernel,
    TaylorWeightFamily,
    hypothesis_report,
    mollification_error_ratio,
    multi_indices,
)


def test_gaussian_density_closed_form():
    spec = MollifierSpec("gaussian", 1.0, 1)
    vals = spec.density(np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(vals, np.array([1.0, math.exp(-0.5)]) / math.sqrt(2 * math.pi), rtol=0, atol=1e-12)


def test_density_symmetry_exact():
    for family in ("gaussian", "bump"):
        spec = MollifierSpec(family, 1.3, 1)
        rng = np.random.default_rng(11)
        xs = rng.uniform(-3, 3, (1000, 1))
        assert np.array_equal(spec.density(xs), spec.density(-xs))


def test_gradient_antisymmetry_exact():
    spec = MollifierSpec("gaussian", 1.0, 1)
    kern = ScaledKernel(spec, 64, 0.5)
    rng = np.random.default_rng(12)
    xs = rng.uniform(-2, 2, (1000, 1))
    g1 = np.asarray(kern.potential_gradient(xs))
    g2 = np.asarray(kern.potential_gradient(-xs))
    assert np.array_equal(g1, -g2)
    assert np.all(np.asarray(kern.potential_gradient(np.zeros((1, 1)))) == 0.0)


def test_self_convolution_gaussian():
    spec = MollifierSpec("gaussian", 1.0, 1)
    assert spec.self_convolution(np.zeros((1, 1)))[0] == pytest.approx(1.0 / math.sqrt(4 * math.pi), abs=1e-12)
    # symmetric by construction
    vals = spec.self_convolution(np.array([[0.4], [-0.4]]))
    assert vals[0] == vals[1]


@pytest.mark.parametrize("dim", [1, 2])
def test_quadrature_fallback_matches_gaussian_closed_form(dim):
    # the 2-d lattice at a reduced resolution keeps this fast
    spec = MollifierSpec("gaussian", 1.0, dim, quad_points=QUAD_POINTS if dim == 1 else 128)
    pts = np.array([[0.7], [-1.3]]) if dim == 1 else np.array([[0.7, -0.3], [-1.1, 0.4]])
    quad = spec._convolve_quadrature(pts, spec.density)
    np.testing.assert_allclose(quad, spec.self_convolution(pts), rtol=0, atol=1e-12)
    # one vector-valued pass, component axis first
    grad = spec._convolve_quadrature(pts, lambda y: spec.gradient(y).T)
    assert grad.shape == (dim, len(pts))
    np.testing.assert_allclose(grad.T, spec.self_convolution_gradient(pts), rtol=0, atol=1e-12)
    lams = np.array([[0.0], [0.9], [2.5]]) if dim == 1 else np.array([[0.0, 0.0], [0.9, -0.4], [1.5, 2.0]])
    np.testing.assert_allclose(spec._fourier_quadrature(lams, spec.density), spec.fourier(lams), rtol=0, atol=1e-12)
    # a shifted density has a phase that tells the axes apart
    shift = np.array([0.3, -0.2])[:dim]
    shifted = spec._fourier_quadrature(lams, lambda y: spec.density(y - shift))
    np.testing.assert_allclose(shifted, np.exp(-1j * lams @ shift) * spec.fourier(lams), rtol=0, atol=1e-12)
    # the gaussian checks cannot see the end weights (the density there is 1e-14 of its peak); the
    # trapezoid lattice integrates a constant over its box exactly
    box = spec._fourier_quadrature(np.zeros((1, dim)), lambda y: np.ones(len(y)))[0]
    assert box.real == pytest.approx((2.0 * spec.truncation_radius()) ** dim, rel=1e-12)
    with pytest.raises(QuadratureNotConverged):
        MollifierSpec("bump", 1.0, dim, quad_points=32).self_convolution_gradient(0.5 * pts)


def test_convolve_quadrature_makes_one_integrand_call_per_resolution_2d():
    # 6 points at quad_points = 64 fit one block of QUAD_BLOCK entries at either resolution;
    # a loop over points and components would make 6 * 2 * 2 = 24 calls
    spec = MollifierSpec("gaussian", 1.0, 2, quad_points=64)
    calls = []

    def grad(y):
        calls.append(len(y))
        return spec.gradient(y).T

    pts = np.random.default_rng(5).uniform(-1.0, 1.0, (6, 2))
    spec._convolve_quadrature(pts, grad)
    assert calls == [6 * 65**2, 6 * 33**2]


@pytest.mark.parametrize("dim", [1, 2])
def test_mass_outside_quadrature_matches_gaussian_tail(dim):
    spec = MollifierSpec("gaussian", 1.0, dim)
    big = spec.truncation_radius()
    h = 2.0 * big / spec._quad_resolution()
    # a radius halfway between lattice nodes makes the cut a midpoint rule
    radius = big - (math.floor((big - 5.0) / h) + 0.5) * h
    tracemalloc.start()
    try:
        mass = spec._mass_outside_quadrature(radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 2-d lattice is capped at QUAD_POINTS_2D per axis: 4097**2 nodes would take 134 MB per array
    assert peak < 100e6
    assert mass == pytest.approx(1.0 - math.erf(radius / math.sqrt(2.0)) ** dim, abs=1e-8)


def test_quadrature_not_converged_raises():
    spec = MollifierSpec("bump", 1.0, 1, quad_points=32)
    with pytest.raises(QuadratureNotConverged):
        spec.self_convolution(np.linspace(-0.5, 0.5, 5)[:, None])


def _without_skip(monkeypatch):
    """Make every convolution quadrature take its full sum at every point (an infinite reach)."""
    convolve = kernels._convolve
    monkeypatch.setattr(kernels, "_convolve", lambda *args, reach=math.inf: convolve(*args))


def assert_same_bits(actual, expected):
    """Equal shapes and equal float64 bit patterns, so -0.0 differs from +0.0."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("dim", [1, 2])
def test_empty_point_batches_give_empty_results(family, dim):
    spec = MollifierSpec(family, 1.0, dim)
    empty = np.empty((0, dim))
    assert spec.self_convolution(empty).shape == (0,)
    assert spec.self_convolution_gradient(empty).shape == (0, dim)


def test_skipped_blocks_match_the_unskipped_sum_at_the_support_edge(monkeypatch):
    # full-resolution blocks hold 16 rows and half-resolution blocks 31; the convolution vanishes beyond 2 w
    spec = MollifierSpec("bump", 1.0, 1)
    edge = 2.0 * spec.width
    pts = np.full(64, 5.0)
    pts[[15, 16]] = edge * (1.0 + 1e-6), -edge * (1.0 - 1e-6)  # far | near across the first full boundary
    pts[[30, 31]] = -edge * (1.0 - 1e-6), edge * (1.0 + 1e-6)  # near | far across the first half boundary
    pts[47] = 0.5
    pts = pts[:, None]
    skipped = [spec.self_convolution(pts), spec.self_convolution_gradient(pts)]
    far = np.abs(pts[:, 0]) > edge
    for vals in skipped:
        assert_same_bits(vals[far], np.zeros_like(vals[far]))
    _without_skip(monkeypatch)
    assert_same_bits(skipped[0], spec.self_convolution(pts))
    assert_same_bits(skipped[1], spec.self_convolution_gradient(pts))


@pytest.mark.parametrize("dim", [1, 2])
def test_far_batch_is_positive_zero_after_one_empty_call_per_resolution(dim):
    spec = MollifierSpec("bump", 1.0, dim)
    calls = []

    def grad(y):
        calls.append(len(y))
        return spec.gradient(y).T

    rng = np.random.default_rng(8)
    dirs = rng.normal(size=(40, dim))
    pts = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * rng.uniform(2.001, 10.0, (40, 1))
    grad_vals = spec._convolve_quadrature(pts, grad)
    assert calls == [0, 0]
    assert_same_bits(grad_vals, np.zeros((dim, 40)))
    assert_same_bits(spec.self_convolution(pts), np.zeros(40))


def test_quadrature_not_converged_raises_for_one_near_point_among_far_ones():
    spec = MollifierSpec("bump", 1.0, 1, quad_points=32)
    pts = np.full((40, 1), 5.0)
    pts[37] = 0.5
    with pytest.raises(QuadratureNotConverged):
        spec.self_convolution(pts)


def test_coupled_bump_force_kernel_integrand_sees_only_blocks_near_the_support(monkeypatch):
    # the coupled-bump kernel: M = 512, N = 1024, width 2; 21 of the 512 lattice points lie within 2 w
    cfg = RunConfig()
    cfg.kernel.family = "bump"
    kern = make_kernel(cfg, cfg.particles.n)
    grid = PeriodicGrid(cfg.grid.dim, cfg.grid.points_per_dim, cfg.grid.period)
    n = kern.spec._quad_resolution()
    rows = {n + 1: [], n // 2 + 1: []}  # integrand rows seen, by lattice size
    gradient = MollifierSpec.gradient

    def counting(spec, y):
        nodes = next(q for q in rows if len(y) % q == 0)
        rows[nodes].append(len(y) // nodes)
        return gradient(spec, y)

    monkeypatch.setattr(MollifierSpec, "gradient", counting)
    sample_kernel(grid, kern.potential_gradient)
    for seen in rows.values():
        assert 1 <= len(seen) <= 2 and sum(seen) < 64


@pytest.mark.parametrize("n", [256, 1024, 8192])
def test_bump_kernel_samples_match_the_unskipped_quadrature_bit_for_bit_1d(n, monkeypatch):
    grid = PeriodicGrid(1, 512, 2.0 * math.pi)
    kern = ScaledKernel(MollifierSpec("bump", 2.0, 1), n, 0.5)
    skipped = [sample_kernel(grid, kern.potential_gradient), sample_kernel(grid, kern.potential)]
    _without_skip(monkeypatch)
    assert_same_bits(skipped[0], sample_kernel(grid, kern.potential_gradient))
    assert_same_bits(skipped[1], sample_kernel(grid, kern.potential))


@pytest.mark.parametrize("m", [16, 32])
def test_bump_kernel_samples_match_the_unskipped_quadrature_bit_for_bit_2d(m, monkeypatch):
    # at either 2-d resolution a block holds one row, so a row's sum does not depend on its batch and the
    # unskipped reference is taken on the rows within 3 w only (on the whole M = 32 lattice it takes 20 s)
    spec = MollifierSpec("bump", 1.0, 2)
    assert QUAD_BLOCK // (spec._quad_resolution() // 2 + 1) ** 2 == 0
    kern = ScaledKernel(spec, 256, 0.5)
    grid = PeriodicGrid(2, m, 2.0 * math.pi)
    skipped = [sample_kernel(grid, kern.potential_gradient), sample_kernel(grid, kern.potential)]
    pts = grid.wrapped_points()
    ring = np.linalg.norm(pts, axis=1) * kern.compression < 3.0 * spec.width
    assert np.any(ring & (np.linalg.norm(pts, axis=1) * kern.compression > 2.0 * spec.width))
    for vals in skipped:
        flat = vals.reshape(-1, len(pts))
        assert_same_bits(flat[:, ~ring], np.zeros_like(flat[:, ~ring]))
    _without_skip(monkeypatch)
    assert_same_bits(skipped[0].reshape(2, -1)[:, ring], kern.potential_gradient(pts[ring]).T)
    assert_same_bits(skipped[1].reshape(-1)[ring], kern.potential(pts[ring]))


def test_scaled_normalization_quadrature():
    for family in ("gaussian", "bump"):
        for n, beta in ((1, 0.5), (16, 0.5), (256, 0.3), (4096, 0.7)):
            kern = ScaledKernel(MollifierSpec(family, 1.0, 1), n, beta)
            r = kern.density_support_radius()
            nodes = np.linspace(-r, r, 2**12 + 1)
            mass = np.trapezoid(kern.density(nodes[:, None]), nodes)
            assert mass == pytest.approx(1.0, abs=1e-8), (family, n, beta)


def test_scaling_consistency_machine_precision():
    spec = MollifierSpec("gaussian", 1.0, 1)
    kern = ScaledKernel(spec, 16, 0.5)
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1, 1, (1000, 1))
    lhs = kern.potential(xs)
    rhs = 16**0.5 * spec.self_convolution(xs * 16**0.5)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-15)
    # N = 1 reduces to the base potential
    base = ScaledKernel(spec, 1, 0.5)
    np.testing.assert_array_equal(base.potential(xs), spec.self_convolution(xs))


def test_scaled_peak_value():
    # d=1, beta=0.5, N=16, gaussian width 1 at the origin
    kern = ScaledKernel(MollifierSpec("gaussian", 1.0, 1), 16, 0.5)
    assert kern.potential(np.zeros((1, 1)))[0] == pytest.approx(4.0 / math.sqrt(4 * math.pi), abs=1e-12)


def test_fourier_transform_values():
    spec = MollifierSpec("gaussian", 1.0, 1)
    np.testing.assert_allclose(spec.fourier(np.array([[0.0], [1.0]])), [1.0, math.exp(-0.5)], rtol=0, atol=1e-14)
    bump = MollifierSpec("bump", 1.0, 1)
    assert bump.fourier(np.zeros((1, 1)))[0] == pytest.approx(1.0, abs=1e-10)


def test_fourier_convolution_identity_against_grid_fft():
    # FFT of lattice samples of the base density, squared, matches the
    # potential transform at lattice frequencies
    for family in ("gaussian", "bump"):
        spec = MollifierSpec(family, 1.0, 1)
        period, m = 8.0 * math.pi, 2048
        h = period / m
        xs = (np.arange(m) * h + 0.5 * period) % period - 0.5 * period
        dens = spec.density(xs[:, None])
        hat = np.fft.fft(dens) * h
        lam = 2.0 * np.pi * np.fft.fftfreq(m, d=h)
        sel = np.abs(lam) <= 4.0
        pot_hat = spec.fourier(lam[sel][:, None]) ** 2
        np.testing.assert_allclose(hat[sel].real ** 2, pot_hat, rtol=0, atol=1e-6)


def test_bump_gradient_matches_finite_differences():
    spec = MollifierSpec("bump", 1.0, 1)
    xs = np.linspace(-0.7, 0.7, 7)[:, None]
    eps = 1e-6
    grad = spec.gradient(xs)[:, 0]
    fd = (spec.density(xs + eps) - spec.density(xs - eps)) / (2 * eps)
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)


def test_taylor_weight_order_and_zero_index():
    fam1 = TaylorWeightFamily(MollifierSpec("gaussian", 1.0, 1))
    assert fam1.order == 1
    fam2 = TaylorWeightFamily(MollifierSpec("gaussian", 1.0, 2))
    assert fam2.order == 2
    assert multi_indices(1, 2) == [(2,)]
    assert multi_indices(2, 1) == [(1, 0), (0, 1)]
    xs = np.linspace(-2, 2, 9)[:, None]
    w0 = fam1.weight((0,), 0, xs)
    grad = fam1.spec.gradient(xs)[:, 0]
    np.testing.assert_array_equal(w0, -grad)


def test_taylor_weight_fourier_gaussian_closed_form():
    # for the unit gaussian, the first-order weight transform is (lam^2 - 1) * base transform
    fam = TaylorWeightFamily(MollifierSpec("gaussian", 1.0, 1))
    lam = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    got = fam.weight_fourier((1,), 0, lam[:, None])
    expected = (lam**2 - 1.0) * np.exp(-0.5 * lam**2)
    np.testing.assert_allclose(got.real, expected, rtol=0, atol=1e-8)
    np.testing.assert_allclose(got.imag, 0.0, rtol=0, atol=1e-8)


def test_hypothesis_report_gaussian():
    fam = TaylorWeightFamily(MollifierSpec("gaussian", 1.0, 1))
    report = hypothesis_report(fam, freq_window=8.0, space_window=10.0, ceiling=1e3)
    assert report.order == 1
    # gaussian decays faster than any polynomial: finite supremum, bounded
    assert report.tail_decay.bounded
    assert report.tail_decay.sup_value < 1.0
    # |alpha| = 0 is excluded from the ratio checks
    assert all(sum(alpha) >= 1 for (_, alpha) in report.fourier_ratio)
    # the scan clamps to frequencies where the denominator is reliable
    assert report.freq_window_used <= 8.0
    assert report.freq_window_used == pytest.approx(math.sqrt(2 * math.log(1e10)), rel=0.02)
    # the first-order ratio grows like lam^2 - 1: sup sits at the (used) edge
    check = report.fourier_ratio[(0, (1,))]
    assert check.sup_value == pytest.approx(report.freq_window_used**2 - 1.0, rel=0.02)
    assert check.sup_location > 0.95 * report.freq_window_used
    assert check.growing_at_edge is True
    # remainder envelope at order L+1 = 2 is finite
    env = report.remainder_envelope[(0, (2,))]
    assert env.bounded
    text = report.to_text()
    assert "taylor_order: 1" in text
    assert "multi_index_orders: 0,1" in text
    assert "remainder_order: 2" in text


def _check(sup, at, bounded, growing=False):
    # the fields ``HypothesisReport.to_text`` reads of one supremum
    return SimpleNamespace(sup_value=sup, sup_location=at, bounded=bounded, growing_at_edge=growing)


def _report(dim, order, tail, ratios, envelopes):
    return HypothesisReport("gaussian", dim, 1.0, order, 1e3, 8.0, 6.5, 10.0, tail, ratios, envelopes)


REPORT_HEAD = """mfeuler kernel hypothesis report
family: gaussian
dim: {dim}
width: 1.0
taylor_order: {order}
multi_index_orders: {orders}
remainder_order: {remainder}
ceiling: 1000.0
freq_window: 8.0
freq_window_used: 6.5
space_window: 10.0
"""


def test_hypothesis_report_text_is_pinned():
    # ratio sups to 8 significant digits, every other float by repr, a trend line on ratio rows only,
    # rows in sorted (q, alpha) order whatever order the scan filled them in
    one_d = _report(
        1,
        1,
        _check(0.12345678901234, 1.0, True),
        {(0, (1,)): _check(41.123456789012, 6.4876543210987, True, growing=True)},
        {(0, (2,)): _check(0.5, 1.4142135623730951, True)},
    )
    assert one_d.to_text() == REPORT_HEAD.format(dim=1, order=1, orders="0,1", remainder=2) + (
        "tail_decay.sup: 0.12345678901234\n"
        "tail_decay.sup_at: 1.0\n"
        "tail_decay.bounded: yes\n"
        "fourier_ratio.q1.alpha(1,).sup: 41.123457\n"
        "fourier_ratio.q1.alpha(1,).sup_at: 6.4876543210987\n"
        "fourier_ratio.q1.alpha(1,).bounded: yes\n"
        "fourier_ratio.q1.alpha(1,).trend: growing over window\n"
        "remainder_envelope.q1.alpha(2,).sup: 0.5\n"
        "remainder_envelope.q1.alpha(2,).sup_at: 1.4142135623730951\n"
        "remainder_envelope.q1.alpha(2,).bounded: yes\n"
    )
    two_d = _report(
        2,
        2,
        _check(2000.0, 3.25, False),
        {
            (1, (1, 0)): _check(1.5e12, 0.75, False),
            (0, (1, 0)): _check(2.0, 6.5, True, growing=True),
            (0, (0, 2)): _check(123.456789012345, 0.1, True),
        },
        {
            (1, (0, 3)): _check(1e-300, 0.0, True),
            (0, (3, 0)): _check(1234.5, 9.999, False),
        },
    )
    assert two_d.to_text() == REPORT_HEAD.format(dim=2, order=2, orders="0,1,2", remainder=3) + (
        "tail_decay.sup: 2000.0\n"
        "tail_decay.sup_at: 3.25\n"
        "tail_decay.bounded: no\n"
        "fourier_ratio.q1.alpha(0, 2).sup: 123.45679\n"
        "fourier_ratio.q1.alpha(0, 2).sup_at: 0.1\n"
        "fourier_ratio.q1.alpha(0, 2).bounded: yes\n"
        "fourier_ratio.q1.alpha(0, 2).trend: settled\n"
        "fourier_ratio.q1.alpha(1, 0).sup: 2\n"
        "fourier_ratio.q1.alpha(1, 0).sup_at: 6.5\n"
        "fourier_ratio.q1.alpha(1, 0).bounded: yes\n"
        "fourier_ratio.q1.alpha(1, 0).trend: growing over window\n"
        "fourier_ratio.q2.alpha(1, 0).sup: 1.5e+12\n"
        "fourier_ratio.q2.alpha(1, 0).sup_at: 0.75\n"
        "fourier_ratio.q2.alpha(1, 0).bounded: no\n"
        "fourier_ratio.q2.alpha(1, 0).trend: settled\n"
        "remainder_envelope.q1.alpha(3, 0).sup: 1234.5\n"
        "remainder_envelope.q1.alpha(3, 0).sup_at: 9.999\n"
        "remainder_envelope.q1.alpha(3, 0).bounded: no\n"
        "remainder_envelope.q2.alpha(0, 3).sup: 1e-300\n"
        "remainder_envelope.q2.alpha(0, 3).sup_at: 0.0\n"
        "remainder_envelope.q2.alpha(0, 3).bounded: yes\n"
    )


def test_hypothesis_report_gaussian_2d_smoke():
    # low-resolution scan: exercises the 2-d multi-index and quadrature paths
    fam = TaylorWeightFamily(MollifierSpec("gaussian", 1.0, 2, quad_points=128))
    report = hypothesis_report(fam, freq_window=3.0, space_window=4.0, n_samples=24)
    assert report.order == 2
    # |alpha| in {1, 2} and two components: (2 + 3) * 2 ratio checks
    assert len(report.fourier_ratio) == 10
    # remainder order 3 has four multi-indices per component
    assert len(report.remainder_envelope) == 8
    assert report.tail_decay.bounded
    assert "multi_index_orders: 0,1,2" in report.to_text()
    # the gaussian is symmetric under swapping the axes, so component 1 at alpha (a, b) and component 2
    # at (b, a) are one supremum; printed to the quadrature's accuracy, the two lines agree
    lines = dict(line.partition(": ")[::2] for line in report.to_text().splitlines())
    for a, b in (alpha for q, alpha in report.fourier_ratio if q == 0):
        assert lines[f"fourier_ratio.q1.alpha{(a, b)}.sup"] == lines[f"fourier_ratio.q2.alpha{(b, a)}.sup"]


def test_hypothesis_report_bump_flags_unbounded_ratio():
    # the bump transform has near-zeros inside the window where the
    # domination ratio genuinely blows up; the report must say so
    fam = TaylorWeightFamily(MollifierSpec("bump", 1.0, 1))
    report = hypothesis_report(fam, freq_window=6.0, space_window=8.0, ceiling=1e3)
    # compact support: the decay envelope vanishes beyond radius 1
    assert report.tail_decay.sup_value == 0.0
    check = report.fourier_ratio[(0, (1,))]
    assert not check.bounded
    assert check.sup_value > 1e3


def test_hypothesis_report_underflow_raises():
    fam = TaylorWeightFamily(MollifierSpec("gaussian", 2.0, 1))
    with pytest.raises(DivisionDegenerate):
        hypothesis_report(fam, freq_window=40.0, space_window=5.0)


def test_mollification_ratio_constant_is_zero():
    kern = ScaledKernel(MollifierSpec("gaussian", 1.0, 1), 64, 0.5)
    probes = np.linspace(0, 2 * math.pi, 33)[:, None]
    ratio = mollification_error_ratio(kern, lambda x: np.ones(len(x)), 1.0, probes)
    assert ratio < 1e-12


def test_mollification_ratio_linear_function():
    kern = ScaledKernel(MollifierSpec("gaussian", 1.0, 1), 32, 0.5)
    probes = np.linspace(-1.0, 1.0, 21)[:, None]
    ratio = mollification_error_ratio(kern, lambda x: x[:, 0], 1.0, probes)
    assert 0.0 < ratio < 10.0


def test_mollification_sweep_bounded_by_first_value():
    spec = MollifierSpec("gaussian", 1.0, 1)
    probes = np.linspace(0, 2 * math.pi, 65)[:, None]
    ratios = []
    for j in range(4, 15):
        kern = ScaledKernel(spec, 2**j, 0.5)
        ratios.append(mollification_error_ratio(kern, lambda x: np.sin(x[:, 0]), 1.0, probes))
    assert all(r <= 2.0 * ratios[0] for r in ratios)


def _mollification_ratio_reference(kernel, f, grad_sup, probes):
    """The one-dimensional formula before the shared quadrature lattice."""
    radius = kernel.density_support_radius()
    n = kernel.spec.quad_points
    nodes = np.linspace(-radius, radius, n + 1)
    wts = np.full(n + 1, nodes[1] - nodes[0])
    wts[0] *= 0.5
    wts[-1] *= 0.5
    dens = kernel.density(nodes[:, None]) * wts
    shift = probes[:, None] - nodes[None, :]
    conv = np.asarray(f(shift.ravel())).reshape(shift.shape) @ dens
    err = np.abs(np.asarray(f(probes)) - conv)
    return float(np.max(err) / (kernel.smoothing_length * grad_sup))


@pytest.mark.parametrize(
    ("f", "noise"), [(np.sin, 0.0), (lambda x: x, 1e-13)], ids=["sin", "identity"]
)
def test_mollification_ratio_matches_one_dimensional_reference(f, noise):
    # the reference takes flat points, the ratio (n, 1) points.  For the identity the exact error
    # is zero, so both ratios are rounding noise: compare them to max|f| / smoothing length.
    probes = np.linspace(0.0, 2.0 * math.pi, 65)
    for n in (2**4, 2**9, 2**14):
        kern = ScaledKernel(MollifierSpec("gaussian", 1.0, 1), n, 0.5)
        ref = _mollification_ratio_reference(kern, f, 1.0, probes)
        scale = np.max(np.abs(f(probes))) / kern.smoothing_length
        got = mollification_error_ratio(kern, lambda x: f(x[:, 0]), 1.0, probes[:, None])
        assert got == pytest.approx(ref, rel=1e-13, abs=noise * scale), n


_RATIO_2D = """
import numpy as np
from mfeuler.kernels import MollifierSpec, ScaledKernel, mollification_error_ratio

probes = np.linspace(0.0, 2.0 * np.pi, 65)
probes = np.stack([probes, np.zeros_like(probes)], axis=-1)
kern = ScaledKernel(MollifierSpec("gaussian", 1.0, 2), 16, 0.5)
print(repr(mollification_error_ratio(kern, lambda x: np.sin(x[:, 0]), 1.0, probes)))
"""


def test_2d_mollification_ratio_identical_across_blas_thread_counts():
    # the 2-d quadrature sums over 513**2 lattice nodes run inside BLAS products
    src = os.path.dirname(os.path.dirname(mfeuler.__file__))
    ratios = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _RATIO_2D], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        ratios.add(proc.stdout.strip())
    assert len(ratios) == 1, ratios
