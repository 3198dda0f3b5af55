import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import mfeuler
import mfeuler.fields as fields_mod
from mfeuler.coupling import mollified_density
from mfeuler.errors import AlphaTooSmall, KernelAliasingWarning
from mfeuler.fields import (
    EmpiricalMeasure,
    GridField,
    PeriodicGrid,
    box_spectra,
    deposit,
    interpolate,
    measure_mode_coefficients,
    neg_sobolev_distance,
    neg_sobolev_tail_bound,
    sobolev_mode_sum,
    sobolev_weight,
)
from mfeuler.kernels import MollifierSpec, ScaledKernel, TaylorWeightFamily
from mfeuler.noise import SigmaField
from mfeuler.particles import ParticleState
from mfeuler.profiles import DensityProfile, VelocityProfile

TWO_PI = 2.0 * math.pi


def grid1(m=64, period=TWO_PI):
    return PeriodicGrid(1, m, period)


@pytest.mark.parametrize("lead", [(), (2, 3)], ids=["field", "stack"])
@pytest.mark.parametrize("dim, m", [(1, 64), (2, 16)], ids=["1d", "2d"])
def test_grid_transforms_equal_numpy_nd_transforms(dim, m, lead):
    # the one-axis calls of grid.rfft/irfft are the composition rfftn/irfftn make, to the bit
    g = PeriodicGrid(dim, m, TWO_PI)
    axes = tuple(range(-dim, 0))
    values = np.random.default_rng(dim).standard_normal(lead + g.shape)
    spectrum = g.rfft(values)
    assert np.array_equal(spectrum, np.fft.rfftn(values, axes=axes))
    assert np.array_equal(g.irfft(spectrum), np.fft.irfftn(spectrum, s=g.shape, axes=axes))


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(3, 64, TWO_PI)
    with pytest.raises(ValueError):
        PeriodicGrid(1, 100, TWO_PI)
    with pytest.raises(ValueError):
        PeriodicGrid(1, 64, -1.0)


def sobolev_norm(f, s):
    """||f||_s from the half-spectrum weight: sqrt(sum sobolev_weight(grid, s) * |grid.rfft(f)|^2)."""
    return math.sqrt(np.sum(sobolev_weight(f.grid, s) * np.abs(f.grid.rfft(f.values)) ** 2))


def lattice_measure_coefficients(g, f):
    # the measure f(x_j) h on the nodes; its phase sums over the period are the
    # normalised Fourier coefficients of f, rfftn(f) / m on the half box
    sums = measure_mode_coefficients(EmpiricalMeasure(g.axis_coords[:, None], f * g.spacing), g, g.points_per_dim // 4)
    return sums[:, 0] / g.period


def test_constant_field_spectrum():
    g = grid1()
    coeffs = lattice_measure_coefficients(g, np.ones(g.shape))
    assert coeffs.shape == (17,)
    assert coeffs[0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(coeffs[1:])) < 1e-14


def test_sine_coefficients():
    g = grid1()
    f = np.sin(g.axis_coords)
    coeffs = lattice_measure_coefficients(g, f)
    np.testing.assert_allclose(coeffs, np.fft.rfftn(f)[:17] / g.points_per_dim, rtol=0, atol=1e-14)
    assert coeffs[1] == pytest.approx(-0.5j, abs=1e-14)
    # the half box holds k >= 0 only; the k = -1 coefficient 0.5j is the conjugate of k = 1
    assert np.conj(coeffs[1]) == pytest.approx(0.5j, abs=1e-14)
    assert coeffs[0] == pytest.approx(0.0, abs=1e-14)
    assert np.max(np.abs(coeffs[2:])) < 1e-14


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


def test_convolve_warns_on_aliasing_mass():
    # the mollified density convolves with a kernel whose mass wraps around
    g = grid1(64, period=2.0)
    kern = ScaledKernel(MollifierSpec("gaussian", 1.0, 1), 1, 0.5)
    with pytest.warns(KernelAliasingWarning):
        mollified_density(ParticleState(np.array([[0.3]]), np.zeros((1, 1))), [kern], g)
    # the check runs per kernel: of a sweep's two kernels, the one whose mass wraps warns, once
    narrow = ScaledKernel(MollifierSpec("gaussian", 0.05, 1), 1, 0.5)
    sweep = ParticleState(np.array([[0.3], [0.7]]), np.zeros((2, 1)), 0.0, (1, 1))
    mollified_density(sweep, [narrow, narrow], g)  # no warning: the test suite turns warnings into errors
    with pytest.warns(KernelAliasingWarning, match="wraps around") as caught:
        mollified_density(sweep, [narrow, kern], g)
    assert len(caught) == 1


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
    f = np.sin(g.axis_coords)
    got = interpolate(f[None], g.axis_coords[:, None], g, "linear")
    np.testing.assert_allclose(got[:, 0], f, atol=1e-14)
    c = np.full((1,) + g.shape, 4.2)
    rng = np.random.default_rng(4)
    pts = rng.random((10, 1)) * g.period
    np.testing.assert_allclose(interpolate(c, pts, g, "linear"), 4.2, atol=1e-14)
    np.testing.assert_allclose(interpolate(c, pts, g, "spectral"), 4.2, atol=1e-12)


@pytest.mark.parametrize("scheme", ["nearest", "linear", "spectral"])
@pytest.mark.parametrize("dim", [1, 2])
def test_interpolate_reads_a_stack_as_its_components(dim, scheme):
    # one read of a stack of three fields equals three one-field reads, bit for bit
    g = PeriodicGrid(dim, 32 if dim == 1 else 16, 5.0)
    rng = np.random.default_rng(40 + dim)
    stack = rng.standard_normal((3,) + g.shape)
    pts = rng.random((50, dim)) * g.period
    got = interpolate(stack, pts, g, scheme)
    assert got.shape == (50, 3)
    expected = np.stack([interpolate(f[None], pts, g, scheme)[:, 0] for f in stack], axis=-1)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("scheme", ["nearest", "linear", "spectral"])
@pytest.mark.parametrize("shape", [(1, 64), (1, 256), (64,), (1, 128, 128)], ids=["coarser", "finer", "no_stack", "2d"])
def test_interpolate_refuses_values_of_another_lattice(shape, scheme):
    # a 64-node field on a 128-node grid used to read node 63 for every point past it
    g = grid1(128)
    with pytest.raises(ValueError, match=rf"values of shape {re.escape(str(shape))} on a grid of shape \(128,\)"):
        interpolate(np.zeros(shape), np.zeros((3, 1)), g, scheme)


@pytest.mark.parametrize("dim", [1, 2])
def test_measure_weights_are_columns_and_phase_sums_have_a_column_axis(dim):
    g = PeriodicGrid(dim, 16, 5.0)
    rng = np.random.default_rng(50 + dim)
    pts = rng.random((9, dim)) * g.period
    scalar, vector = rng.standard_normal(9), rng.standard_normal((9, 2))
    uniform = EmpiricalMeasure(pts)
    assert uniform.weights.shape == (9, 1)
    assert uniform.weights.tobytes() == np.full((9, 1), 1.0 / 9).tobytes()
    explicit = measure_mode_coefficients(EmpiricalMeasure(pts, np.full(9, 1.0 / 9)), g, 4)
    assert measure_mode_coefficients(uniform, g, 4).tobytes() == explicit.tobytes()
    n_modes = 5 if dim == 1 else 9 * 5
    for w, m in ((None, 1), (scalar, 1), (scalar[:, None], 1), (vector, 2)):
        measure = EmpiricalMeasure(pts, w)
        assert measure.weights.shape == (9, m)
        assert measure_mode_coefficients(measure, g, 4).shape == (n_modes, m)
    sums = measure_mode_coefficients(EmpiricalMeasure(pts, scalar), g, 4)
    assert sums.tobytes() == measure_mode_coefficients(EmpiricalMeasure(pts, scalar[:, None]), g, 4).tobytes()


def test_deposit_refuses_two_weight_columns():
    measure = EmpiricalMeasure(np.zeros((3, 1)), np.ones((3, 2)))
    with pytest.raises(ValueError, match="expected scalar per-point weights"):
        deposit(measure, grid1())


def _reference_deposit(pts, w, g, scheme):
    # per-corner np.add.at accumulation, corner by corner; a corner's weight is formed before it meets w
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
        np.add.at(out, (i0[:, 0], i0[:, 1]), (1 - fx) * (1 - fy) * w)
        np.add.at(out, (i1[:, 0], i0[:, 1]), fx * (1 - fy) * w)
        np.add.at(out, (i0[:, 0], i1[:, 1]), (1 - fx) * fy * w)
        np.add.at(out, (i1[:, 0], i1[:, 1]), fx * fy * w)
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
        vals[i0[:, 0], i0[:, 1]] * ((1 - fx) * (1 - fy))
        + vals[i1[:, 0], i0[:, 1]] * (fx * (1 - fy))
        + vals[i0[:, 0], i1[:, 1]] * ((1 - fx) * fy)
        + vals[i1[:, 0], i1[:, 1]] * (fx * fy)
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
    vals = interpolate(field.values[None], pts, g, scheme)[:, 0]
    np.testing.assert_array_equal(vals, _reference_interpolate(field.values, pts, g, scheme))

    lattice_side = g.cell_volume * np.sum(dep.values * field.values)
    particle_side = np.sum(w * vals)
    assert lattice_side == pytest.approx(particle_side, rel=1e-12)


def _half_box(g, cutoff):
    """Integer modes |k|_inf <= cutoff of the rfftn half spectrum, C order: the last axis 0..cutoff."""
    lead = np.arange(-cutoff, min(cutoff + 1, g.points_per_dim // 2))
    axes = (lead,) * (g.dim - 1) + (np.arange(cutoff + 1),)
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g.dim)


def _assert_mode_coefficients_match_dense_sum(g, cutoffs, weights, seed, n=37):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, g.dim)) * g.period
    w = {"uniform": None, "scalar": rng.standard_normal(n), "vector": rng.standard_normal((n, 2))}[weights]
    for cutoff in cutoffs:
        dense = np.exp(-1j * (2.0 * np.pi / g.period) * _half_box(g, cutoff) @ pts.T)
        expected = (dense.mean(axis=1) if w is None else dense @ w).reshape(len(dense), -1)
        got = measure_mode_coefficients(EmpiricalMeasure(pts, w), g, cutoff)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("weights", ["uniform", "scalar", "vector"])
def test_mode_coefficients_2d_match_dense_sum(weights):
    # 8 is the Nyquist cutoff, where the leading axis holds -8..7 and the last axis 0..8
    _assert_mode_coefficients_match_dense_sum(PeriodicGrid(2, 16, 5.0), (3, 8), weights, 12)


@pytest.mark.parametrize("weights", ["uniform", "scalar", "vector"])
def test_mode_coefficients_1d_match_dense_sum(weights):
    # 4, 9 and 17 modes (17 is prime, so its digit table is padded); 16 is the Nyquist cutoff
    _assert_mode_coefficients_match_dense_sum(PeriodicGrid(1, 32, 5.0), (3, 8, 16), weights, 14)


@pytest.mark.parametrize("dim", [1, 2])
def test_spectral_interpolation_matches_dense_trigonometric_sum(dim):
    g = PeriodicGrid(dim, 32 if dim == 1 else 16, 5.0)
    rng = np.random.default_rng(15 + dim)
    field = GridField(g, rng.standard_normal(g.shape))
    pts = rng.random((41, dim)) * g.period
    if dim == 1:
        modes = np.stack(np.meshgrid(*(g.axis_modes,) * dim, indexing="ij"), axis=-1).reshape(-1, dim)
        coeffs = np.fft.fftn(field.values) / g.points_per_dim**dim  # normalised coefficients, FFT order
        dense = np.exp(1j * (2.0 * np.pi / g.period) * pts @ modes.T) @ coeffs.ravel()
    else:
        # the real half-box sum: each interior column of the last axis also stands for its conjugate partner
        modes = _half_box(g, g.points_per_dim // 2)
        column = modes[:, -1]
        count = np.where((column == 0) | (column == g.points_per_dim // 2), 1.0, 2.0)
        coeffs = count * np.fft.rfftn(field.values)[tuple(modes.T)] / g.points_per_dim**dim
        dense = np.exp(1j * (2.0 * np.pi / g.period) * pts @ modes.T) @ coeffs
    got = interpolate(field.values[None], pts, g, "spectral")[:, 0]
    assert np.max(np.abs(got - dense.real)) <= 1e-12 * np.max(np.abs(dense.real))


def test_spectral_interpolation_2d_returns_node_values_of_a_random_field():
    # off the lattice the leading axis's Nyquist row may be read as -M/2 or +M/2; on it both agree
    g = PeriodicGrid(2, 16, 5.0)
    field = GridField(g, np.random.default_rng(19).standard_normal(g.shape))
    got = interpolate(field.values[None], g.points(), g, "spectral")[:, 0]
    np.testing.assert_allclose(got, field.values.ravel(), rtol=0, atol=1e-12)


def test_mode_coefficients_peak_memory_stays_small():
    # a modes x particles table would take 512 * 8192 * 16 B = 64 MiB here
    g = PeriodicGrid(1, 512, TWO_PI)
    rng = np.random.default_rng(16)
    measure = EmpiricalMeasure(rng.random((8192, 1)) * g.period, rng.standard_normal((8192, 1)) / 8192)
    tracemalloc.start()
    try:
        measure_mode_coefficients(measure, g, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_mode_coefficients_peak_memory_does_not_grow_with_the_points():
    # one table of modes x points would take 1025 * 65536 * 16 B = 1 GiB, and whole-length phase tables 97 MiB
    g = PeriodicGrid(1, 2048, TWO_PI)
    rng = np.random.default_rng(22)
    measure = EmpiricalMeasure(rng.random((65536, 1)) * g.period, rng.standard_normal((65536, 1)) / 65536)
    tracemalloc.start()
    try:
        measure_mode_coefficients(measure, g, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _block_points(g, cutoff, columns):
    """Points in one block of ``measure_mode_coefficients``: PHASE_BLOCK over a point's table entries, in eights."""
    modes, _ = fields_mod._mode_box(g, cutoff)
    left, right = fields_mod._phase_tables(g, modes, np.zeros((1, g.dim)), -1j)
    return max(1, fields_mod.PHASE_BLOCK // ((1 + columns) * len(left) + len(right)) // 8) * 8


def _one_product_mode_coefficients(pts, w, g, cutoff):
    """The phase sums as one matrix product over every point: weighted left table times the right table."""
    modes, _ = fields_mod._mode_box(g, cutoff)
    n_modes = modes[0].size ** (g.dim - 1) * modes[1].size
    left, right = fields_mod._phase_tables(g, modes, pts, -1j)
    weighted = (w.T[:, None, :] * left).reshape(-1, len(pts))
    return (weighted @ right.T).reshape(w.shape[1], -1)[:, :n_modes].T


@pytest.mark.parametrize("columns", [1, 2])
@pytest.mark.parametrize("dim, m, cutoff", [(1, 512, 256), (1, 64, 20), (2, 64, 16), (2, 16, 8)])
def test_mode_coefficients_of_one_block_are_one_product_bitwise(dim, m, cutoff, columns):
    # a block's point count is a multiple of 8; a measure of fewer points is padded with points of weight zero
    g = PeriodicGrid(dim, m, TWO_PI)
    rng = np.random.default_rng(23 + dim)
    block = _block_points(g, cutoff, columns)
    for n in (1, 7, 8, 64, block):
        pts = rng.random((n, dim)) * g.period
        w = rng.standard_normal((n, columns))
        got = measure_mode_coefficients(EmpiricalMeasure(pts, w), g, cutoff)
        padded = -(-n // 8) * 8 - n
        pts, w = np.concatenate((pts, np.zeros((padded, dim)))), np.concatenate((w, np.zeros((padded, columns))))
        assert got.tobytes() == _one_product_mode_coefficients(pts, w, g, cutoff).tobytes()


@pytest.mark.parametrize("dim, m, cutoff", [(1, 32, 16), (2, 16, 8)])
def test_mode_coefficients_over_several_blocks_match_dense_sum(dim, m, cutoff):
    # past one block, and with a last block shorter than the others
    g = PeriodicGrid(dim, m, 5.0)
    _assert_mode_coefficients_match_dense_sum(g, (cutoff,), "vector", 24 + dim, n=3 * _block_points(g, cutoff, 2) + 5)


@pytest.mark.parametrize("entries", [1, 2**9])
@pytest.mark.parametrize("dim", [1, 2])
def test_mode_coefficients_match_dense_sum_for_any_block_size(monkeypatch, dim, entries):
    # the smallest blocks, of 8 points, and a few blocks; either way the 37 points end in a padded block
    monkeypatch.setattr(fields_mod, "PHASE_BLOCK", entries)
    g = PeriodicGrid(1, 32, 5.0) if dim == 1 else PeriodicGrid(2, 16, 5.0)
    _assert_mode_coefficients_match_dense_sum(g, (3, g.points_per_dim // 2), "vector", 25 + dim)


@pytest.mark.parametrize(
    "points, weights, message",
    [
        (np.empty((0, 1)), None, "at least one point"),
        (np.empty((0, 1)), np.empty((0, 1)), "at least one point"),
        (np.array([[0.5], [np.nan]]), None, "non-finite points"),
        (np.array([[0.5, np.inf]]), None, "non-finite points"),
        (np.zeros((2, 1)), np.array([1.0, np.nan]), "non-finite weights"),
        (np.zeros((2, 1)), np.array([[1.0, -np.inf], [0.0, 0.0]]), "non-finite weights"),
    ],
    ids=["empty", "empty_explicit_weights", "nan_point", "inf_point_2d", "nan_weight", "inf_weight_column"],
)
def test_measure_refuses_no_points_and_non_finite_values(points, weights, message):
    with pytest.raises(ValueError, match=message):
        EmpiricalMeasure(points, weights)


_MODE_SUM_DIGEST = """
import hashlib
import numpy as np
from mfeuler.fields import (
    EmpiricalMeasure, PeriodicGrid, box_spectra, interpolate, measure_mode_coefficients, neg_sobolev_distance
)

rng = np.random.default_rng(17)
digest = hashlib.sha256()
for dim, m, cutoff in ((1, 512, 256), (2, 64, 32)):
    g = PeriodicGrid(dim, m, 2.0 * np.pi)
    pts = rng.random((8192, dim)) * g.period
    for w in (None, rng.standard_normal(8192), rng.standard_normal((8192, dim))):
        digest.update(measure_mode_coefficients(EmpiricalMeasure(pts, w), g, cutoff).tobytes())
    digest.update(interpolate(rng.standard_normal((1,) + g.shape), pts, g, "spectral").tobytes())
    spectra = box_spectra(rng.standard_normal((dim,) + g.shape), g, cutoff)
    distance = neg_sobolev_distance(EmpiricalMeasure(pts, rng.standard_normal((8192, dim))), spectra, 2.5, g, cutoff)
    digest.update(np.float64(distance).tobytes())
print(digest.hexdigest())
"""


def test_mode_sums_identical_across_blas_thread_counts():
    # the sums over particles and modes run inside BLAS matrix products
    src = os.path.dirname(os.path.dirname(mfeuler.__file__))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _MODE_SUM_DIGEST], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


_UNEVEN_MODE_SUM_DIGEST = """
import hashlib
import numpy as np
from mfeuler.fields import EmpiricalMeasure, PeriodicGrid, measure_mode_coefficients

rng = np.random.default_rng(26)
digest = hashlib.sha256()
for dim, m, cutoff in ((1, 512, 256), (2, 64, 16), (2, 64, 32)):
    g = PeriodicGrid(dim, m, 2.0 * np.pi)
    for n in (1001, 3003):
        measure = EmpiricalMeasure(rng.random((n, dim)) * g.period, rng.standard_normal((n, dim)))
        digest.update(measure_mode_coefficients(measure, g, cutoff).tobytes())
print(digest.hexdigest())
"""


def test_mode_sums_of_any_point_count_identical_across_blas_thread_counts():
    # OpenBLAS's complex products split their work over threads to the same bits when the inner length is
    # a multiple of 8, and not always otherwise: a block of points is padded to a multiple of 8
    src = os.path.dirname(os.path.dirname(mfeuler.__file__))
    digests = set()
    for threads in ("1", "2", "3"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _UNEVEN_MODE_SUM_DIGEST], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


def test_spectral_interpolation_2d_exact_for_band_limited_field():
    g = PeriodicGrid(2, 16, TWO_PI)
    xx, yy = np.meshgrid(g.axis_coords, g.axis_coords, indexing="ij")
    f = np.sin(xx) * np.cos(2 * yy)
    pts = np.random.default_rng(13).random((50, 2)) * g.period
    got = interpolate(f[None], pts, g, "spectral")[:, 0]
    np.testing.assert_allclose(got, np.sin(pts[:, 0]) * np.cos(2 * pts[:, 1]), rtol=0, atol=1e-12)


def zero_spectra(g, cutoff):
    """The ``box_spectra`` of the zero field: zeros of shape (1, modes of the half box)."""
    return box_spectra(np.zeros((1,) + g.shape), g, cutoff)


def test_dirac_distance_matches_direct_sum():
    # the bare alpha = 1 sum, below the distance's alpha guard, from the mode sum of the Dirac's phase sums over h
    g = grid1()
    measure = EmpiricalMeasure(np.zeros((1, 1)))
    cutoff = 16
    val = math.sqrt(sobolev_mode_sum(measure_mode_coefficients(measure, g, cutoff).T / g.cell_volume, -1.0, g, cutoff))
    k = np.arange(-cutoff, cutoff + 1).astype(float)
    direct = math.sqrt((1.0 / TWO_PI) * np.sum((1.0 + k**2) ** -1.0))
    assert val == pytest.approx(direct, abs=1e-12)


def test_dirac_distance_2d_direct_sum():
    g = PeriodicGrid(2, 32, TWO_PI)
    measure = EmpiricalMeasure(np.zeros((1, 2)))
    cutoff = 8
    val = neg_sobolev_distance(measure, zero_spectra(g, cutoff), 2.5, g, cutoff)
    k = np.arange(-cutoff, cutoff + 1).astype(float)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    direct = math.sqrt(np.sum((1.0 + kx**2 + ky**2) ** -2.5) / TWO_PI**2)
    assert val == pytest.approx(direct, abs=1e-12)


def test_alpha_too_small_rejected():
    g = grid1()
    measure = EmpiricalMeasure(np.zeros((1, 1)))
    with pytest.raises(AlphaTooSmall):
        neg_sobolev_distance(measure, zero_spectra(g, 16), 1.5, g, 16)
    with pytest.raises(AlphaTooSmall):
        neg_sobolev_distance(measure, zero_spectra(g, 16), 1.0, g, 16)


def test_distance_monotone_in_alpha():
    g = grid1(128)
    rng = np.random.default_rng(5)
    measure = EmpiricalMeasure(rng.random((32, 1)) * g.period)
    spectra = box_spectra(np.full((1,) + g.shape, 1.0 / g.period), g, 64)
    vals = [neg_sobolev_distance(measure, spectra, a, g, 64) for a in (1.6, 2.0, 3.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_distance_translation_invariance():
    g = grid1(128)
    rng = np.random.default_rng(6)
    pts = rng.random((32, 1)) * g.period
    rho = 1.0 / g.period + 0.02 * np.cos(g.axis_coords)
    base = neg_sobolev_distance(EmpiricalMeasure(pts), box_spectra(rho[None], g, 64), 2.0, g, 64)
    shift = 8 * g.spacing  # lattice shift keeps the field values a pure roll
    shifted_rho = box_spectra(np.roll(rho, 8)[None], g, 64)
    shifted = neg_sobolev_distance(EmpiricalMeasure(np.mod(pts + shift, g.period)), shifted_rho, 2.0, g, 64)
    assert shifted == pytest.approx(base, abs=1e-12)


def test_lattice_deposit_of_field_has_tiny_distance():
    # measure supported on lattice nodes with weights rho_j h reproduces the
    # field coefficients exactly up to the cutoff
    g = grid1(64)
    rho_vals = (1.0 + 0.3 * np.cos(g.axis_coords)) / g.period
    measure = EmpiricalMeasure(g.axis_coords[:, None], rho_vals * g.spacing)
    val = neg_sobolev_distance(measure, box_spectra(rho_vals[None], g, 16), 2.0, g, 16)
    assert val < 1e-13


def test_momentum_distance_vanishes_in_degenerate_case():
    # velocity-weighted lattice measure against the exact product field:
    # when the position measure matches rho and weights sample v exactly,
    # the momentum distance collapses to zero
    g = grid1(64)
    rho_vals = (1.0 + 0.3 * np.cos(g.axis_coords)) / g.period
    v_vals = 0.1 * np.sin(g.axis_coords)
    rho, product = box_spectra(np.stack([rho_vals, rho_vals * v_vals]), g, 16)
    weights = (rho_vals * g.spacing)[:, None] * v_vals[:, None]
    measure = EmpiricalMeasure(g.axis_coords[:, None], weights)
    assert neg_sobolev_distance(measure, product[None], 2.0, g, 16) < 1e-13
    assert neg_sobolev_distance(EmpiricalMeasure(g.axis_coords[:, None], rho_vals * g.spacing), rho[None], 2.0, g, 16) < 1e-13


def test_vector_measure_distance_components():
    g = grid1(64)
    rng = np.random.default_rng(8)
    pts = rng.random((16, 1)) * g.period
    weights = rng.standard_normal((16, 1)) / 16.0
    v = neg_sobolev_distance(EmpiricalMeasure(pts, weights), zero_spectra(g, 16), 2.0, g, 16)
    s = neg_sobolev_distance(EmpiricalMeasure(pts, weights[:, 0]), zero_spectra(g, 16), 2.0, g, 16)
    assert v == pytest.approx(s, abs=1e-14)


def test_distance_refuses_spectra_of_another_shape():
    # two velocity components against one field, and a field cut to another box, each name both shapes
    g = grid1(64)
    rng = np.random.default_rng(20)
    pts = rng.random((16, 1)) * g.period
    with pytest.raises(ValueError, match=r"shape \(1, 17\) against measure coefficients of shape \(2, 17\)"):
        neg_sobolev_distance(EmpiricalMeasure(pts, rng.standard_normal((16, 2))), zero_spectra(g, 16), 2.0, g, 16)
    with pytest.raises(ValueError, match=r"shape \(1, 9\) against measure coefficients of shape \(1, 17\)"):
        neg_sobolev_distance(EmpiricalMeasure(pts), zero_spectra(g, 8), 2.0, g, 16)


@pytest.mark.parametrize("weights", [np.ones((5, 2, 2)), np.float64(0.2)], ids=["rank3", "scalar"])
def test_measure_refuses_weights_of_another_rank_naming_the_shape(weights):
    pts = np.zeros((5, 1))
    with pytest.raises(ValueError, match=rf"weights of shape {re.escape(str(weights.shape))} for 5 points"):
        EmpiricalMeasure(pts, weights)


@pytest.mark.parametrize("dim, m", [(1, 64), (2, 16)], ids=["1d", "2d"])
def test_field_against_field_mode_sum_is_the_sobolev_norm_of_the_difference(dim, m):
    # at the Nyquist cutoff the half box is the whole half spectrum, so the sum is ||f - g||_s^2
    grid = PeriodicGrid(dim, m, 5.0)
    f, g = np.random.default_rng(21 + dim).standard_normal((2, 3) + grid.shape)
    cutoff = m // 2
    for s in (-2.5, 0.0, 1.5):
        got = sobolev_mode_sum(box_spectra(f, grid, cutoff) - box_spectra(g, grid, cutoff), s, grid, cutoff)
        expected = np.sum(sobolev_weight(grid, s) * np.abs(grid.rfft(f - g)) ** 2)
        assert got == pytest.approx(expected, rel=1e-12)


def test_cutoff_tail_bound():
    g = grid1(256)
    rng = np.random.default_rng(9)
    measure = EmpiricalMeasure(rng.random((64, 1)) * g.period)
    rho = np.full((1,) + g.shape, 1.0 / g.period)
    alpha = 2.0
    d_small = neg_sobolev_distance(measure, box_spectra(rho, g, 32), alpha, g, 32)
    d_large = neg_sobolev_distance(measure, box_spectra(rho, g, 64), alpha, g, 64)
    gap = abs(d_large**2 - d_small**2)
    bound = neg_sobolev_tail_bound(g, alpha, 32, outer=64)
    assert gap <= bound


def _dense_tail_sum(g, alpha, k_lo, k_hi):
    """The weighted mode count over k_lo < |k|_inf <= k_hi from the full integer table of the box."""
    axis = np.arange(-k_hi, k_hi + 1)
    k = np.stack(np.meshgrid(*(axis,) * g.dim, indexing="ij"), axis=-1).reshape(-1, g.dim)
    k = k[np.max(np.abs(k), axis=1) > k_lo]
    return np.sum((1.0 + np.sum((2.0 * np.pi / g.period * k) ** 2, axis=1)) ** (-alpha))


@pytest.mark.parametrize("dim", [1, 2])
def test_tail_bound_matches_dense_mode_table(dim):
    g = PeriodicGrid(dim, 64, 5.0)
    alpha = 2.5
    coeff = g.period**dim * (2.0 / g.period**dim) ** 2
    assert neg_sobolev_tail_bound(g, alpha, 8, outer=40) == pytest.approx(
        coeff * _dense_tail_sum(g, alpha, 8, 40), rel=1e-13
    )
    explicit = coeff * _dense_tail_sum(g, alpha, 32, 128)  # the default explicit range max(4 cutoff, 64)
    continuum = neg_sobolev_tail_bound(g, alpha, 32) - explicit
    assert 0 < continuum < 0.5 * explicit


@pytest.mark.parametrize("dim,alpha", [(1, 0.4), (1, 1.5), (2, 1.0), (2, 2.0)])
def test_tail_bound_refuses_alpha_below_the_distance_rule(dim, alpha):
    # below dim/2 + 1 the 1-d bound came out negative and the 2-d one divided by zero
    g = PeriodicGrid(dim, 64, TWO_PI)
    with pytest.raises(AlphaTooSmall, match=f"alpha = {alpha} must exceed dim/2 \\+ 1"):
        neg_sobolev_tail_bound(g, alpha, 16)
    with pytest.raises(AlphaTooSmall):
        neg_sobolev_tail_bound(g, alpha, 8, outer=40)


@pytest.mark.parametrize("dim", [1, 2])
def test_negative_freq_cutoff_is_refused_naming_it(dim):
    g = PeriodicGrid(dim, 16, 2 * math.pi)
    measure = EmpiricalMeasure(np.full((4, dim), 1.0))
    with pytest.raises(ValueError, match="freq_cutoff = -1 must be nonnegative"):
        neg_sobolev_distance(measure, np.zeros((1, 1)), 2.5, g, -1)
    with pytest.raises(ValueError, match="freq_cutoff = -2 must be nonnegative"):
        box_spectra(np.zeros((1,) + g.shape), g, -2)
    with pytest.raises(ValueError, match="freq_cutoff = -3 must be nonnegative"):
        neg_sobolev_tail_bound(g, 2.5, -3)


def test_tail_bound_peak_memory_stays_small():
    # a dense integer table of the (8 * 256 + 1)^2 modes would take about 64 MiB here
    g = PeriodicGrid(2, 512, TWO_PI)
    tracemalloc.start()
    try:
        neg_sobolev_tail_bound(g, 2.5, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_distance_is_one_half_spectrum_sobolev_sum():
    # sum of sobolev_weight(grid, -alpha) |S/h^d - rfftn(f)|^2 over the half box, for a 2-d vector measure
    g = PeriodicGrid(2, 16, 5.0)
    rng = np.random.default_rng(18)
    pts = rng.random((23, 2)) * g.period
    w = rng.standard_normal((23, 2)) / 23
    comps = rng.standard_normal((2,) + g.shape)
    for cutoff in (3, 8):
        box = _half_box(g, cutoff)
        phases = np.exp(-1j * (2.0 * np.pi / g.period) * box @ pts.T)
        spectra = np.stack([np.fft.rfftn(f)[tuple(box.T)] for f in comps], axis=-1)
        weight = sobolev_weight(g, -2.5)[tuple(box.T)]
        expected = math.sqrt(np.sum(weight[:, None] * np.abs(phases @ w / g.cell_volume - spectra) ** 2))
        got = neg_sobolev_distance(EmpiricalMeasure(pts, w), box_spectra(comps, g, cutoff), 2.5, g, cutoff)
        assert got == pytest.approx(expected, rel=1e-12)


def test_mollified_deposit_matches_direct_sum():
    from mfeuler.coupling import mollified_density

    g = grid1(256)
    kern = ScaledKernel(MollifierSpec("gaussian", 1.0, 1), 64, 0.5)
    rng = np.random.default_rng(10)
    pts = rng.random((64, 1)) * g.period
    (mol,) = mollified_density(ParticleState(pts, np.zeros_like(pts)), [kern], g, "linear")
    wrapped = (g.axis_coords[None, :] - pts[:, 0:1] + g.period / 2) % g.period - g.period / 2
    direct = kern.density(wrapped.reshape(-1, 1)).reshape(wrapped.shape).mean(axis=0)
    # deposit interpolation error bound ~ (h / kernel scale)^2
    scale = float(np.max(direct))
    tol = (g.spacing * kern.compression) ** 2 * scale
    np.testing.assert_allclose(mol, direct, rtol=0, atol=tol)


_FLAT = np.linspace(0.1, 0.3, 3)  # three 1-d points in the wrong layout
_SPEC1 = MollifierSpec("gaussian", 1.0, 1)
_KERN1 = ScaledKernel(_SPEC1, 16, 0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: _SPEC1.density(_FLAT),
        lambda: _SPEC1.density(0.1),
        lambda: _SPEC1.gradient(_FLAT),
        lambda: _SPEC1.self_convolution(_FLAT),
        lambda: MollifierSpec("bump", 1.0, 1).self_convolution_gradient(_FLAT),
        lambda: _SPEC1.fourier(_FLAT),
        lambda: _KERN1.density(_FLAT),
        lambda: _KERN1.potential(_FLAT),
        lambda: _KERN1.potential_gradient(_FLAT),
        lambda: TaylorWeightFamily(_SPEC1).weight((1,), 0, _FLAT),
        lambda: TaylorWeightFamily(_SPEC1).weight_fourier((1,), 0, _FLAT),
        lambda: _SPEC1.density(np.zeros((3, 2))),
        lambda: MollifierSpec("gaussian", 1.0, 2).density(np.zeros(2)),
        lambda: ParticleState(_FLAT, _FLAT),
        lambda: EmpiricalMeasure(_FLAT),
        lambda: deposit(EmpiricalMeasure(_FLAT), grid1()),
        lambda: deposit(EmpiricalMeasure(np.zeros((3, 1))), PeriodicGrid(2, 16, TWO_PI)),
        lambda: interpolate(np.zeros((1, 64)), _FLAT, grid1()),
        lambda: interpolate(np.zeros((1, 64)), _FLAT, grid1(), "spectral"),
        lambda: interpolate(np.zeros((1, 16, 16)), np.zeros((3, 1)), PeriodicGrid(2, 16, TWO_PI)),
        lambda: interpolate(np.zeros((1, 16, 16)), np.zeros((3, 1)), PeriodicGrid(2, 16, TWO_PI), "spectral"),
        lambda: measure_mode_coefficients(EmpiricalMeasure(np.zeros((3, 1))), PeriodicGrid(2, 16, TWO_PI), 4),
        lambda: mollified_density(ParticleState(_FLAT, _FLAT), [_KERN1], grid1()),
        lambda: DensityProfile("uniform")(np.zeros(3)),
        lambda: DensityProfile("bump")(np.zeros(3)),
        lambda: DensityProfile("sine")(np.zeros(3)),
        lambda: DensityProfile("bump", dim=2)(np.zeros((3, 1))),
        lambda: VelocityProfile("sine")(np.zeros(3)),
        lambda: VelocityProfile("zero").component(0, np.zeros(3)),
        lambda: SigmaField("constant", 0.3).values(np.zeros(3)),
        lambda: SigmaField("sinusoidal", 0.3, 0.5).values(np.zeros(3)),
    ],
    ids=[
        "spec_density_flat",
        "spec_density_scalar",
        "spec_gradient_flat",
        "spec_self_convolution_flat",
        "bump_self_convolution_gradient_flat",
        "spec_fourier_flat",
        "scaled_density_flat",
        "scaled_potential_flat",
        "scaled_potential_gradient_flat",
        "taylor_weight_flat",
        "taylor_weight_fourier_flat",
        "spec_1d_given_2d_points",
        "spec_2d_given_one_point",
        "particle_state_flat",
        "measure_flat",
        "deposit_flat",
        "deposit_1d_points_on_2d_grid",
        "interpolate_flat",
        "interpolate_spectral_flat",
        "interpolate_1d_points_on_2d_grid",
        "interpolate_spectral_1d_points_on_2d_grid",
        "mode_sum_1d_points_on_2d_grid",
        "mollified_density_flat",
        "density_uniform_flat",
        "density_bump_flat",
        "density_sine_flat",
        "density_2d_given_1d_points",
        "velocity_flat",
        "velocity_component_flat",
        "sigma_constant_flat",
        "sigma_sinusoidal_flat",
    ],
)
def test_points_outside_the_n_by_dim_layout_raise(call):
    # a batch of points is an (n, dim) array in every layer; any other shape is an error, not a guess
    with pytest.raises(ValueError, match=r"expected points of shape \(n, (1|2|dim)\), got shape"):
        call()
