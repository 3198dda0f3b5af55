"""Mollifier kernels and their scaled families.

The interaction potential of the particle system is built from a smooth,
symmetric probability density (the *base mollifier*) convolved with itself.
A scaled family compresses that potential around each particle:

    scaled(x) = N**beta * base(N**(beta/dim) * x),   beta in (0, 1),

which keeps unit mass while shrinking the interaction range as the particle
count N grows.  Two families are shipped: ``gaussian`` (closed forms for
values, gradients, self-convolution and Fourier transforms) and ``bump``
(compactly supported; exercises the quadrature fallbacks).

Every quadrature fallback (bump self-convolution and gradient, Fourier
transforms, tail mass, mollification error) is a sum on one product trapezoid
lattice, ``_quad_lattice``, taken a block of points at a time, in any dimension.

Every evaluation takes a batch of points of shape ``(n, dim)``, in one
dimension too, and returns one value (shape ``(n,)``) or one row (shape
``(n, dim)``) per point; any other shape raises ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DivisionDegenerate, QuadratureNotConverged
from .fields import _lattice, as_points

FAMILIES = ("gaussian", "bump")

# Default one-dimensional quadrature resolution for the fallback paths; the
# two-dimensional fallbacks use the reduced value to stay affordable.
QUAD_POINTS = 2**12
QUAD_POINTS_2D = 2**9

# Kernel values below TRUNCATION_EPS (relative to the peak) are treated as
# zero when choosing quadrature/truncation domains.
TRUNCATION_EPS = 1e-14

# Entries of one block of (point, quadrature node) pairs: 16 points on the
# default 1-d lattice, so that a block's temporaries (512 KiB each) stay in cache.
QUAD_BLOCK = 16 * (QUAD_POINTS + 1)


def _quad_lattice(radius, n, dim):
    """Product trapezoid lattice on [-radius, radius]**dim: nodes (Q, dim) and weights (Q,), Q = (n + 1)**dim."""
    axis = np.linspace(-radius, radius, n + 1)
    weights = np.full(n + 1, axis[1] - axis[0])
    weights[[0, -1]] *= 0.5
    return _lattice(axis, dim), np.prod(_lattice(weights, dim), axis=1)


def _blocked(points, fn, entries, reach=math.inf):
    """``fn`` over blocks of rows of ``points`` of about QUAD_BLOCK / ``entries`` rows, joined on the last axis.

    ``fn`` must be exactly zero at every row p with |p| > ``reach``.  A block whose rows all lie beyond
    that (with a relative margin of 1e-9 against rounding) is filled with +0.0 without a call; rows
    are never filtered inside a block, since a row's rounding in ``fn`` may depend on its place there.
    """
    rows = max(1, QUAD_BLOCK // entries)
    far = np.einsum("ij,ij->i", points, points) > (reach * (1.0 + 1e-9)) ** 2
    blocks = [slice(start, start + rows) for start in range(0, len(points), rows)]
    vals = [None if far[b].all() else fn(points[b]) for b in blocks]
    # the component shape comes from an evaluated block, else from one empty call
    like = next((v for v in vals if v is not None), None)
    if like is None:
        like = fn(points[:0])
    parts = [
        np.zeros(like.shape[:-1] + (len(points[b]),), like.dtype) if v is None else v for b, v in zip(blocks, vals)
    ]
    return np.concatenate(parts or [like], axis=-1)


def _convolve(points, g, density, radius, n, dim, reach=math.inf):
    """sum_j g(p - y_j) density(y_j) w_j on the (radius, n, dim) lattice, for every row p of ``points``.

    ``g`` maps displacements (m, dim) to values (..., m), component axis first.  The sum is taken
    as exactly zero at rows p with |p| > ``reach`` (see ``_blocked``).  The lattice is a product, so
    the sum contracts one axis at a time with the axis weights: in 2-d an (n + 1, n + 1) product per
    row, not one over all (n + 1)**2 nodes, whose split across BLAS threads would change the rounding.
    """
    axis, weights = _quad_lattice(radius, n, 1)
    nodes = _lattice(axis[:, 0], dim)
    dens = density(nodes).reshape((n + 1,) * dim)

    def weighted_sum(block):
        vals = g((block[:, None, :] - nodes).reshape(-1, dim))
        out = vals.reshape(vals.shape[:-1] + (len(block),) + dens.shape) * dens
        for _ in range(dim):
            out = out @ weights
        return out

    return _blocked(points, weighted_sum, len(nodes), reach)


@dataclass(frozen=True)
class MollifierSpec:
    """Base mollifier: a symmetric C^2 probability density on R^dim.

    Parameters
    ----------
    family : str
        ``"gaussian"`` or ``"bump"``.
    width : float
        Base length scale: the standard deviation for the gaussian family,
        the support radius for the bump family.
    dim : int
        Spatial dimension (1 or 2).
    quad_points : int
        Per-dimension resolution of the fallback quadratures.
    """

    family: str
    width: float = 1.0
    dim: int = 1
    quad_points: int = QUAD_POINTS

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; choose from {FAMILIES}")
        if not self.width > 0:
            raise ValueError("kernel width must be positive")
        if self.dim not in (1, 2):
            raise ValueError("kernel dim must be 1 or 2")
        if self.quad_points < 16:
            raise ValueError("quad_points too small")

    # -- family constants ------------------------------------------------

    @cached_property
    def _bump_norm(self):
        """Normalization constant of the bump profile exp(-1/(1-|x/w|^2))."""
        w = self.width

        def profile(r):
            s = np.clip((r / w) ** 2, 0.0, 1.0)
            return np.where(s < 1.0, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)

        if self.dim == 1:
            nodes, wts = _quad_lattice(w, self.quad_points, 1)
            return 1.0 / float(profile(nodes[:, 0]) @ wts)
        # radial reduction: integral over the disc = 2*pi * int_0^w g(r^2/w^2) r dr
        nodes = np.linspace(0.0, w, self.quad_points + 1)
        return 1.0 / float(2.0 * math.pi * np.trapezoid(profile(nodes) * nodes, nodes))

    def truncation_radius(self):
        """Radius beyond which the base density is below TRUNCATION_EPS * peak."""
        if self.family == "bump":
            return self.width
        # gaussian: exp(-r^2 / 2 w^2) < eps  =>  r > w sqrt(2 ln 1/eps)
        return self.width * math.sqrt(2.0 * math.log(1.0 / TRUNCATION_EPS))

    # -- base density and derivatives ------------------------------------

    def density(self, x):
        """Evaluate the base mollifier (a probability density) at ``x``."""
        pts = as_points(x, self.dim)
        r2 = np.einsum("ij,ij->i", pts, pts)
        w = self.width
        if self.family == "gaussian":
            return (2.0 * math.pi * w * w) ** (-self.dim / 2.0) * np.exp(-0.5 * r2 / (w * w))
        s = r2 / (w * w)
        inside = s < 1.0
        vals = np.zeros_like(r2)
        vals[inside] = np.exp(-1.0 / (1.0 - s[inside]))
        vals *= self._bump_norm / w**self.dim
        return vals

    def gradient(self, x):
        """Closed-form gradient of the base mollifier, shape (n, dim)."""
        pts = as_points(x, self.dim)
        w = self.width
        if self.family == "gaussian":
            return -pts / (w * w) * self.density(pts)[:, None]
        s = np.einsum("ij,ij->i", pts, pts) / (w * w)
        inside = s < 1.0
        grad = np.zeros_like(pts)
        if np.any(inside):
            g = np.exp(-1.0 / (1.0 - s[inside]))
            coef = self._bump_norm / w**self.dim * g / (1.0 - s[inside]) ** 2
            grad[inside] = -2.0 * pts[inside] / (w * w) * coef[:, None]
        return grad

    # -- self-convolution (the interaction potential at scale 1) ----------

    def self_convolution(self, x):
        """(density * density)(x): closed form for gaussian, quadrature for bump."""
        pts = as_points(x, self.dim)
        if self.family == "gaussian":
            var = 2.0 * self.width * self.width
            r2 = np.einsum("ij,ij->i", pts, pts)
            return (2.0 * math.pi * var) ** (-self.dim / 2.0) * np.exp(-0.5 * r2 / var)
        return self._convolve_quadrature(pts, self.density)

    def self_convolution_gradient(self, x):
        """Gradient of the self-convolution; (density * gradient) for the bump."""
        pts = as_points(x, self.dim)
        if self.family == "gaussian":
            return -pts / (2.0 * self.width**2) * self.self_convolution(pts)[:, None]
        return self._convolve_quadrature(pts, lambda y: self.gradient(y).T).T

    def _quad_resolution(self):
        # two-dimensional fallbacks cap the per-axis resolution to stay affordable
        return self.quad_points if self.dim == 1 else min(self.quad_points, QUAD_POINTS_2D)

    def _convolve_quadrature(self, pts, other):
        """Trapezoid evaluation of (density * other)(pts) with a refinement check on every component.

        ``other`` must vanish outside the density's support.  The bump's density is exactly zero beyond
        its width w, so the convolution is exactly zero beyond 2 w and those points are skipped.
        """
        n, radius = self._quad_resolution(), self.truncation_radius()
        reach = 2.0 * radius if self.family == "bump" else math.inf
        full, half = (_convolve(pts, other, self.density, radius, m, self.dim, reach=reach) for m in (n, n // 2))
        residual = np.max(np.abs(full - half), initial=0.0)
        if residual > 1e-8:
            raise QuadratureNotConverged(
                f"self-convolution quadrature residual {residual:.3e} > 1e-8 at {n} points"
            )
        return full

    # -- Fourier transform -------------------------------------------------

    def fourier(self, lam):
        """Transform int density(x) exp(-i lam.x) dx; equals 1 at lam = 0.

        Real-valued for these symmetric families.  Gaussian uses the closed
        form; the bump falls back to a trapezoid cosine transform over its
        support.
        """
        pts = as_points(lam, self.dim)
        if self.family == "gaussian":
            return np.exp(-0.5 * self.width**2 * np.einsum("ij,ij->i", pts, pts))
        return self._fourier_quadrature(pts, self.density).real

    def _fourier_quadrature(self, lams, func):
        """sum_j func(y_j) w_j exp(-i lam.y_j) on the quadrature lattice, for every row lam of ``lams``.

        The lattice is a product, so the phase factors by axis: the sum contracts the last axis first.
        """
        n, dim = self._quad_resolution(), self.dim
        nodes, weights = _quad_lattice(self.truncation_radius(), n, dim)
        axis = nodes[: n + 1, -1]
        table = (func(nodes) * weights).reshape(-1, n + 1).T

        def transform(block):
            out = np.exp(-1j * block[:, -1:] * axis) @ table
            for a in range(dim - 2, -1, -1):
                phase = np.exp(-1j * block[:, a : a + 1] * axis)
                out = np.einsum("bkj,bj->bk", out.reshape(len(block), (n + 1) ** a, n + 1), phase)
            return out[:, 0]

        return _blocked(lams, transform, n + 1)

    def mass_outside(self, radius):
        """Upper bound for base-density mass outside the centered box of half-width ``radius``."""
        if self.family == "bump":
            return 0.0 if radius >= self.width else self._mass_outside_quadrature(radius)
        # per-axis gaussian tail, union bound over axes
        tail = math.erfc(radius / (self.width * math.sqrt(2.0)))
        return min(1.0, self.dim * tail)

    def _mass_outside_quadrature(self, radius):
        nodes, weights = _quad_lattice(self.truncation_radius(), self._quad_resolution(), self.dim)
        outside = np.max(np.abs(nodes), axis=1) > radius
        return float(np.sum(self.density(nodes) * weights * outside))


@dataclass(frozen=True)
class ScaledKernel:
    """N- and beta-dependent rescaling of a base mollifier.

    ``density`` is the rescaled mollifier (still a probability density),
    ``potential`` the rescaled self-convolution used as interaction potential,
    and ``potential_gradient`` the force kernel.
    """

    spec: MollifierSpec
    n_particles: int
    beta: float

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in the open interval (0, 1)")

    @property
    def compression(self):
        """Spatial compression factor N**(beta/dim)."""
        return self.n_particles ** (self.beta / self.spec.dim)

    @property
    def amplitude(self):
        return self.n_particles**self.beta

    @property
    def smoothing_length(self):
        """The mollification scale N**(-beta/dim) entering the error bounds."""
        return 1.0 / self.compression

    def density(self, x):
        return self.amplitude * self.spec.density(as_points(x, self.spec.dim) * self.compression)

    def potential(self, x):
        return self.amplitude * self.spec.self_convolution(as_points(x, self.spec.dim) * self.compression)

    def potential_gradient(self, x):
        pts = as_points(x, self.spec.dim)
        return self.amplitude * self.compression * self.spec.self_convolution_gradient(pts * self.compression)

    def effective_width(self):
        """Resolvable width of the potential: FWHM for gaussian, support diameter for bump."""
        scale = self.smoothing_length
        if self.spec.family == "gaussian":
            std = math.sqrt(2.0) * self.spec.width * scale
            return 2.0 * math.sqrt(2.0 * math.log(2.0)) * std
        return 4.0 * self.spec.width * scale

    def support_radius(self):
        """Radius outside which the potential is negligible (< TRUNCATION_EPS * peak)."""
        # the potential is the base density convolved with itself: the bump's support doubles, and the
        # gaussian's variance doubles, which stretches its truncation radius by sqrt(2)
        factor = 2.0 if self.spec.family == "bump" else math.sqrt(2.0)
        return factor * self.spec.truncation_radius() * self.smoothing_length

    def density_support_radius(self):
        return self.spec.truncation_radius() * self.smoothing_length

    def mass_outside(self, radius):
        return self.spec.mass_outside(radius * self.compression)


# ---------------------------------------------------------------------------
# Taylor weight functions and the kernel hypothesis diagnostics
# ---------------------------------------------------------------------------


def multi_indices(dim, total):
    """All multi-indices of the given total order, e.g. (2,) or (1,1)."""
    if dim == 1:
        return [(total,)]
    return [(total - j, j) for j in range(total + 1)]


@dataclass(frozen=True)
class TaylorWeightFamily:
    """Weight functions pairing monomials with base-mollifier derivatives.

    For a multi-index a and component q the weight is

        (-1)**(1+|a|) * x**a / a! * d_q density(x),

    defined for 0 <= |a| <= order+1 where order = floor((dim+2)/2).  At |a| = 0
    this reduces to the negative gradient component.
    """

    spec: MollifierSpec
    order: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "order", (self.spec.dim + 2) // 2)

    def weight(self, alpha, q, x):
        alpha = tuple(alpha)
        if len(alpha) != self.spec.dim:
            raise ValueError("multi-index length must equal dim")
        total = sum(alpha)
        if not 0 <= total <= self.order + 1:
            raise ValueError(f"multi-index order {total} outside 0..{self.order + 1}")
        pts = as_points(x, self.spec.dim)
        sign = (-1.0) ** (1 + total)
        mono = np.ones(pts.shape[0])
        fact = 1.0
        for axis, power in enumerate(alpha):
            if power:
                mono = mono * pts[:, axis] ** power
                fact *= math.factorial(power)
        return sign * mono / fact * self.spec.gradient(pts)[:, q]

    def weight_fourier(self, alpha, q, lam):
        """Numeric Fourier transform of the weight at frequencies ``lam``, shape (n,), complex."""
        return self.spec._fourier_quadrature(as_points(lam, self.spec.dim), lambda y: self.weight(alpha, q, y))


@dataclass
class HypothesisCheckResult:
    sup_value: float
    sup_location: float
    bounded: bool
    growing_at_edge: bool = False


@dataclass
class HypothesisReport:
    """Numerical suprema for the three kernel decay/domination hypotheses."""

    family: str
    dim: int
    width: float
    order: int
    ceiling: float
    freq_window: float
    freq_window_used: float
    space_window: float
    tail_decay: HypothesisCheckResult
    fourier_ratio: dict
    remainder_envelope: dict

    def to_text(self):
        lines = [
            "mfeuler kernel hypothesis report",
            f"family: {self.family}",
            f"dim: {self.dim}",
            f"width: {self.width!r}",
            f"taylor_order: {self.order}",
            f"multi_index_orders: {','.join(str(k) for k in range(self.order + 1))}",
            f"remainder_order: {self.order + 1}",
            f"ceiling: {self.ceiling!r}",
            f"freq_window: {self.freq_window!r}",
            f"freq_window_used: {self.freq_window_used!r}",
            f"space_window: {self.space_window!r}",
        ]
        rows = [("tail_decay", self.tail_decay)]
        for kind, checks in (("fourier_ratio", self.fourier_ratio), ("remainder_envelope", self.remainder_envelope)):
            rows += [(f"{kind}.q{q + 1}.alpha{alpha}", checks[q, alpha]) for q, alpha in sorted(checks)]
        for tag, c in rows:
            ratio = tag.startswith("fourier_ratio")
            # a ratio to the quadrature's accuracy, not repr's 17 digits
            lines += [
                f"{tag}.sup: {format(c.sup_value, '.8g') if ratio else repr(c.sup_value)}",
                f"{tag}.sup_at: {c.sup_location!r}",
                f"{tag}.bounded: {'yes' if c.bounded else 'no'}",
            ]
            if ratio:
                lines.append(f"{tag}.trend: {'growing over window' if c.growing_at_edge else 'settled'}")
        return "\n".join(lines) + "\n"


def _radial_points(dim, radii, n_dirs=8):
    """Points along radial rays (1-d: the +- axis; 2-d: n_dirs directions)."""
    if dim == 1:
        pts = np.concatenate([radii, -radii])[:, None]
        rads = np.concatenate([radii, radii])
        return pts, rads
    angles = np.linspace(0.0, math.pi, n_dirs, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, 2)
    rads = np.repeat(radii, n_dirs)
    return pts, rads


def _supremum(values, where, ceiling) -> HypothesisCheckResult:
    """The largest of ``values``, the entry of ``where`` at its index, and whether it is at most ``ceiling``."""
    i = int(np.argmax(values))
    return HypothesisCheckResult(float(values[i]), float(where[i]), bool(values[i] <= ceiling))


def hypothesis_report(
    family: TaylorWeightFamily,
    freq_window: float,
    space_window: float,
    ceiling: float = 1e3,
    n_samples: int = 1024,
):
    """Scan the kernel hypotheses over finite windows and report suprema.

    These checks are diagnostics, not gates: the report flags each supremum
    against ``ceiling`` and marks ratios whose maximum sits at the window edge
    (a growth trend that a larger window would not cure).

    Raises
    ------
    DivisionDegenerate
        If the base-density transform underflows inside the frequency window.
    """
    if freq_window <= 0 or space_window <= 0:
        raise ValueError("scan windows must be positive")
    spec = family.spec
    dim = spec.dim

    # decay of the base density: sup over 1 <= |x| <= R of density * (1 + |x|^(d+2))
    radii = np.linspace(1.0, space_window, n_samples)
    pts, rads = _radial_points(dim, radii)
    tail = _supremum(spec.density(pts) * (1.0 + rads ** (dim + 2)), rads, ceiling)

    # Fourier domination of the weight functions for 1 <= |a| <= order.
    # Ratios are scanned only where the denominator sits above the quadrature
    # accuracy floor; reporting beyond that would be rounding noise, so the
    # window is clamped and the clamp recorded.
    lam_radii = np.linspace(freq_window / n_samples, freq_window, n_samples)
    lam_pts, lam_rads = _radial_points(dim, lam_radii, n_dirs=4)
    base_hat = np.abs(spec.fourier(lam_pts))
    degenerate = base_hat < 1e-290
    if np.any(degenerate):
        where = lam_rads[degenerate][0]
        raise DivisionDegenerate(
            f"base transform underflows at |lambda| = {where:.6g} inside the window"
        )
    reliable = base_hat >= 1e-10
    if not np.any(reliable):
        raise DivisionDegenerate(
            f"base transform below the quadrature floor over the whole window "
            f"(starting at |lambda| = {lam_rads[0]:.6g})"
        )
    lam_pts, lam_rads, base_hat = lam_pts[reliable], lam_rads[reliable], base_hat[reliable]
    window_used = float(np.max(lam_rads))
    ratio_checks = {}
    for total in range(1, family.order + 1):
        for alpha in multi_indices(dim, total):
            for q in range(dim):
                ratio = np.abs(family.weight_fourier(alpha, q, lam_pts)) / base_hat
                check = _supremum(ratio, lam_rads, ceiling)
                # a maximum at the window's edge and well above the median ratio: still growing there
                check.growing_at_edge = (
                    check.sup_location >= 0.95 * window_used and check.sup_value > 2.0 * float(np.median(ratio))
                )
                ratio_checks[(q, alpha)] = check

    # remainder envelope at order order+1
    radii = np.linspace(0.0, space_window, n_samples)
    pts, rads = _radial_points(dim, radii)
    env_checks = {}
    for alpha in multi_indices(dim, family.order + 1):
        for q in range(dim):
            vals = np.abs(family.weight(alpha, q, pts))
            env_checks[(q, alpha)] = _supremum(vals * np.sqrt(1.0 + rads ** (dim + 1)), rads, ceiling)

    return HypothesisReport(
        family=spec.family,
        dim=dim,
        width=spec.width,
        order=family.order,
        ceiling=ceiling,
        freq_window=freq_window,
        freq_window_used=window_used,
        space_window=space_window,
        tail_decay=tail,
        fourier_ratio=ratio_checks,
        remainder_envelope=env_checks,
    )


# ---------------------------------------------------------------------------
# Mollification error diagnostic
# ---------------------------------------------------------------------------


def mollification_error_ratio(kernel: ScaledKernel, f, grad_sup, probes):
    """Sup of |f - f * density| over probe points (n, dim), divided by the scale bound.

    The divisor is ``N**(-beta/dim) * grad_sup``; a ratio that stays bounded
    uniformly in N is the numerical evidence that the mollification error
    scales with the smoothing length.  ``f`` maps (m, dim) points to an
    array of m values.
    """
    if grad_sup <= 0:
        raise ValueError("grad_sup must be positive")
    spec = kernel.spec
    probes = as_points(probes, spec.dim)
    radius = kernel.density_support_radius()
    conv = _convolve(probes, f, kernel.density, radius, spec._quad_resolution(), spec.dim)
    err = np.abs(f(probes) - conv)
    return float(np.max(err) / (kernel.smoothing_length * grad_sup))
