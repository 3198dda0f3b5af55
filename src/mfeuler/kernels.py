"""Mollifier kernels and their scaled families.

The interaction potential of the particle system is built from a smooth,
symmetric probability density (the *base mollifier*) convolved with itself.
A scaled family compresses that potential around each particle:

    scaled(x) = N**beta * base(N**(beta/dim) * x),   beta in (0, 1),

which keeps unit mass while shrinking the interaction range as the particle
count N grows.  Two families are shipped: ``gaussian`` (closed forms for
values, gradients, self-convolution and Fourier transforms) and ``bump``
(compactly supported; exercises the quadrature fallbacks).

All evaluation helpers accept a single point of shape ``(dim,)`` (returning a
float) or a batch ``(n, dim)`` (returning ``(n,)``); in one dimension plain
scalars and flat arrays are also fine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DivisionDegenerate, QuadratureNotConverged

FAMILIES = ("gaussian", "bump")

# Default one-dimensional quadrature resolution for the fallback paths; the
# two-dimensional fallbacks use the reduced value to stay affordable.
QUAD_POINTS = 2**12
QUAD_POINTS_2D = 2**9

# Kernel values below TRUNCATION_EPS (relative to the peak) are treated as
# zero when choosing quadrature/truncation domains.
TRUNCATION_EPS = 1e-14


def _as_points(x, dim):
    """Coerce ``x`` to an (n, dim) array; report whether input was a single point."""
    arr = np.asarray(x, dtype=float)
    if dim == 1:
        if arr.ndim == 0:
            return arr.reshape(1, 1), True
        if arr.ndim == 1:
            # ambiguous in 1-d: treat (1,) as a single point, (n,) as a batch
            return arr.reshape(-1, 1), arr.shape == (1,)
        return arr, False
    if arr.ndim == 1:
        if arr.shape != (dim,):
            raise ValueError(f"expected a point of dimension {dim}, got shape {arr.shape}")
        return arr.reshape(1, dim), True
    if arr.shape[-1] != dim:
        raise ValueError(f"expected points with last axis {dim}, got shape {arr.shape}")
    return arr.reshape(-1, dim), False


def _squeeze(values, single):
    return float(values[0]) if single else values


def _trapezoid_nodes(radius, n):
    """Uniform nodes on [-radius, radius] plus the trapezoid weight array."""
    nodes = np.linspace(-radius, radius, n + 1)
    weights = np.full(n + 1, nodes[1] - nodes[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return nodes, weights


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
        if self.dim == 1:
            nodes, wts = _trapezoid_nodes(w, self.quad_points)
            s = np.clip((nodes / w) ** 2, 0.0, 1.0)
            prof = np.where(s < 1.0, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
            return 1.0 / float(prof @ wts)
        # radial reduction: integral over the disc = 2*pi * int_0^w g(r^2/w^2) r dr
        nodes = np.linspace(0.0, w, self.quad_points + 1)
        s = np.clip((nodes / w) ** 2, 0.0, 1.0)
        prof = np.where(s < 1.0, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
        integral = 2.0 * math.pi * np.trapezoid(prof * nodes, nodes)
        return 1.0 / float(integral)

    def truncation_radius(self):
        """Radius beyond which the base density is below TRUNCATION_EPS * peak."""
        if self.family == "bump":
            return self.width
        # gaussian: exp(-r^2 / 2 w^2) < eps  =>  r > w sqrt(2 ln 1/eps)
        return self.width * math.sqrt(2.0 * math.log(1.0 / TRUNCATION_EPS))

    def potential_truncation_radius(self):
        if self.family == "bump":
            return 2.0 * self.width
        return math.sqrt(2.0) * self.width * math.sqrt(2.0 * math.log(1.0 / TRUNCATION_EPS))

    # -- base density and derivatives ------------------------------------

    def density(self, x):
        """Evaluate the base mollifier (a probability density) at ``x``."""
        pts, single = _as_points(x, self.dim)
        r2 = np.einsum("ij,ij->i", pts, pts)
        w = self.width
        if self.family == "gaussian":
            vals = (2.0 * math.pi * w * w) ** (-self.dim / 2.0) * np.exp(-0.5 * r2 / (w * w))
        else:
            s = r2 / (w * w)
            inside = s < 1.0
            vals = np.zeros_like(r2)
            vals[inside] = np.exp(-1.0 / (1.0 - s[inside]))
            vals *= self._bump_norm / w**self.dim
        return _squeeze(vals, single)

    def gradient(self, x):
        """Closed-form gradient of the base mollifier, shape (..., dim)."""
        pts, single = _as_points(x, self.dim)
        w = self.width
        if self.family == "gaussian":
            dens = np.asarray(self.density(pts))
            grad = -pts / (w * w) * dens[:, None]
        else:
            s = np.einsum("ij,ij->i", pts, pts) / (w * w)
            inside = s < 1.0
            grad = np.zeros_like(pts)
            if np.any(inside):
                g = np.exp(-1.0 / (1.0 - s[inside]))
                coef = self._bump_norm / w**self.dim * g / (1.0 - s[inside]) ** 2
                grad[inside] = -2.0 * pts[inside] / (w * w) * coef[:, None]
        return grad[0] if single else grad

    def hessian(self, x):
        """Closed-form Hessian of the base mollifier, shape (..., dim, dim)."""
        pts, single = _as_points(x, self.dim)
        w2 = self.width**2
        eye = np.eye(self.dim)
        if self.family == "gaussian":
            dens = np.atleast_1d(np.asarray(self.density(pts)))
            outer = np.einsum("ni,nj->nij", pts, pts)
            hess = (outer / w2**2 - eye[None, :, :] / w2) * dens[:, None, None]
        else:
            s = np.einsum("ij,ij->i", pts, pts) / w2
            hess = np.zeros((pts.shape[0], self.dim, self.dim))
            inside = s < 1.0
            if np.any(inside):
                si = s[inside]
                base = self._bump_norm / self.width**self.dim * np.exp(-1.0 / (1.0 - si))
                outer = np.einsum("ni,nj->nij", pts[inside], pts[inside])
                one = (1.0 - si)[:, None, None]
                hess[inside] = base[:, None, None] * (
                    4.0 * outer / w2**2 / one**4
                    - 2.0 * eye[None, :, :] / w2 / one**2
                    - 8.0 * outer / w2**2 / one**3
                )
        return hess[0] if single else hess

    # -- self-convolution (the interaction potential at scale 1) ----------

    def self_convolution(self, x):
        """(density * density)(x): closed form for gaussian, quadrature for bump."""
        pts, single = _as_points(x, self.dim)
        if self.family == "gaussian":
            w = self.width
            r2 = np.einsum("ij,ij->i", pts, pts)
            var = 2.0 * w * w
            vals = (2.0 * math.pi * var) ** (-self.dim / 2.0) * np.exp(-0.5 * r2 / var)
            return _squeeze(vals, single)
        vals = self._convolve_quadrature(pts, self.density)
        return _squeeze(vals, single)

    def self_convolution_gradient(self, x):
        """Gradient of the self-convolution; (density * gradient) for the bump."""
        pts, single = _as_points(x, self.dim)
        if self.family == "gaussian":
            vals = np.atleast_1d(np.asarray(self.self_convolution(pts)))
            grad = -pts / (2.0 * self.width**2) * vals[:, None]
            return grad[0] if single else grad
        cols = [
            self._convolve_quadrature(pts, lambda y, q=q: np.asarray(self.gradient(y))[:, q])
            for q in range(self.dim)
        ]
        grad = np.stack(cols, axis=-1)
        return grad[0] if single else grad

    def _quad_resolution(self):
        # two-dimensional fallbacks cap the per-axis resolution to stay affordable
        return self.quad_points if self.dim == 1 else min(self.quad_points, QUAD_POINTS_2D)

    def _convolve_quadrature(self, pts, other):
        """Trapezoid evaluation of (density * other)(pts) with a refinement check."""
        n = self._quad_resolution()
        full = self._convolve_at(pts, other, n)
        half = self._convolve_at(pts, other, n // 2)
        residual = np.max(np.abs(full - half))
        if residual > 1e-8:
            raise QuadratureNotConverged(
                f"self-convolution quadrature residual {residual:.3e} > 1e-8 at {n} points"
            )
        return full

    def _convolve_at(self, pts, other, n):
        w = self.truncation_radius()
        if self.dim == 1:
            nodes, wts = _trapezoid_nodes(w, n)
            dens = np.asarray(self.density(nodes))
            out = np.empty(pts.shape[0])
            for start in range(0, pts.shape[0], 256):
                block = pts[start : start + 256, 0]
                shift = block[:, None] - nodes[None, :]
                out[start : start + 256] = (np.asarray(other(shift.ravel())).reshape(shift.shape) * dens[None, :]) @ wts
            return out
        nodes, wts = _trapezoid_nodes(w, n)
        yy, zz = np.meshgrid(nodes, nodes, indexing="ij")
        quad_pts = np.stack([yy.ravel(), zz.ravel()], axis=-1)
        dens = np.asarray(self.density(quad_pts))
        wts2 = np.outer(wts, wts).ravel()
        out = np.empty(pts.shape[0])
        for i, p in enumerate(pts):
            out[i] = np.sum(np.asarray(other(p[None, :] - quad_pts)) * dens * wts2)
        return out

    # -- Fourier transform -------------------------------------------------

    def fourier(self, lam):
        """Transform int density(x) exp(-i lam.x) dx; equals 1 at lam = 0.

        Real-valued for these symmetric families.  Gaussian uses the closed
        form; the bump falls back to a trapezoid cosine transform over its
        support.
        """
        pts, single = _as_points(lam, self.dim)
        if self.family == "gaussian":
            r2 = np.einsum("ij,ij->i", pts, pts)
            vals = np.exp(-0.5 * self.width**2 * r2)
            return _squeeze(vals, single)
        vals = self._fourier_quadrature(pts, self.density)
        return _squeeze(vals.real, single)

    def _fourier_quadrature(self, lams, func):
        n = self._quad_resolution()
        w = self.truncation_radius()
        if self.dim == 1:
            nodes, wts = _trapezoid_nodes(w, n)
            fvals = np.asarray(func(nodes)) * wts
            phase = np.exp(-1j * lams[:, 0, None] * nodes[None, :])
            return phase @ fvals
        nodes, wts = _trapezoid_nodes(w, n)
        yy, zz = np.meshgrid(nodes, nodes, indexing="ij")
        quad_pts = np.stack([yy.ravel(), zz.ravel()], axis=-1)
        fvals = np.asarray(func(quad_pts)) * np.outer(wts, wts).ravel()
        out = np.empty(lams.shape[0], dtype=complex)
        for i, lam in enumerate(lams):
            out[i] = np.sum(fvals * np.exp(-1j * quad_pts @ lam))
        return out

    def mass_outside(self, radius):
        """Upper bound for base-density mass outside the centered box of half-width ``radius``."""
        if self.family == "bump":
            return 0.0 if radius >= self.width else self._mass_outside_quadrature(radius)
        # per-axis gaussian tail, union bound over axes
        tail = math.erfc(radius / (self.width * math.sqrt(2.0)))
        return min(1.0, self.dim * tail)

    def _mass_outside_quadrature(self, radius):
        nodes, wts = _trapezoid_nodes(self.truncation_radius(), self.quad_points)
        if self.dim == 1:
            dens = np.asarray(self.density(nodes))
            return float(np.sum(dens * wts * (np.abs(nodes) > radius)))
        yy, zz = np.meshgrid(nodes, nodes, indexing="ij")
        pts = np.stack([yy.ravel(), zz.ravel()], axis=-1)
        dens = np.asarray(self.density(pts)) * np.outer(wts, wts).ravel()
        outside = np.max(np.abs(pts), axis=1) > radius
        return float(np.sum(dens[outside]))


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
        pts, single = _as_points(x, self.spec.dim)
        vals = self.amplitude * np.asarray(self.spec.density(pts * self.compression))
        return _squeeze(np.atleast_1d(vals), single)

    def potential(self, x):
        pts, single = _as_points(x, self.spec.dim)
        vals = self.amplitude * np.asarray(self.spec.self_convolution(pts * self.compression))
        return _squeeze(np.atleast_1d(vals), single)

    def potential_gradient(self, x):
        pts, single = _as_points(x, self.spec.dim)
        grad = (
            self.amplitude
            * self.compression
            * np.asarray(self.spec.self_convolution_gradient(pts * self.compression))
        )
        return grad if not single else grad.reshape(self.spec.dim)

    def fourier_density(self, lam):
        pts, single = _as_points(lam, self.spec.dim)
        vals = np.asarray(self.spec.fourier(pts / self.compression))
        return _squeeze(np.atleast_1d(vals), single)

    def fourier_potential(self, lam):
        vals = np.asarray(self.fourier_density(lam))
        return vals * vals

    def effective_width(self):
        """Resolvable width of the potential: FWHM for gaussian, support diameter for bump."""
        scale = self.smoothing_length
        if self.spec.family == "gaussian":
            std = math.sqrt(2.0) * self.spec.width * scale
            return 2.0 * math.sqrt(2.0 * math.log(2.0)) * std
        return 4.0 * self.spec.width * scale

    def support_radius(self):
        """Radius outside which the potential is negligible (< TRUNCATION_EPS * peak)."""
        return self.spec.potential_truncation_radius() * self.smoothing_length

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

    def orders(self):
        """Multi-index total orders covered: 0..order, remainder at order+1."""
        return list(range(self.order + 2))

    def weight(self, alpha, q, x):
        alpha = tuple(alpha)
        if len(alpha) != self.spec.dim:
            raise ValueError("multi-index length must equal dim")
        total = sum(alpha)
        if not 0 <= total <= self.order + 1:
            raise ValueError(f"multi-index order {total} outside 0..{self.order + 1}")
        pts, single = _as_points(x, self.spec.dim)
        sign = (-1.0) ** (1 + total)
        mono = np.ones(pts.shape[0])
        fact = 1.0
        for axis, power in enumerate(alpha):
            if power:
                mono = mono * pts[:, axis] ** power
                fact *= math.factorial(power)
        grad_q = np.atleast_2d(np.asarray(self.spec.gradient(pts)))[:, q]
        vals = sign * mono / fact * grad_q
        return _squeeze(vals, single)

    def weight_fourier(self, alpha, q, lam):
        """Numeric Fourier transform of the weight at frequencies ``lam``."""
        pts, single = _as_points(lam, self.spec.dim)
        vals = self.spec._fourier_quadrature(pts, lambda y: np.asarray(self.weight(alpha, q, y)))
        return (vals[0] if single else vals)


@dataclass
class HypothesisCheckResult:
    name: str
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
        c = self.tail_decay
        lines += [
            f"tail_decay.sup: {c.sup_value!r}",
            f"tail_decay.sup_at: {c.sup_location!r}",
            f"tail_decay.bounded: {'yes' if c.bounded else 'no'}",
        ]
        for key in sorted(self.fourier_ratio):
            c = self.fourier_ratio[key]
            q, alpha = key
            tag = f"fourier_ratio.q{q + 1}.alpha{alpha}"
            lines += [
                f"{tag}.sup: {c.sup_value!r}",
                f"{tag}.sup_at: {c.sup_location!r}",
                f"{tag}.bounded: {'yes' if c.bounded else 'no'}",
                f"{tag}.trend: {'growing over window' if c.growing_at_edge else 'settled'}",
            ]
        for key in sorted(self.remainder_envelope):
            c = self.remainder_envelope[key]
            q, alpha = key
            tag = f"remainder_envelope.q{q + 1}.alpha{alpha}"
            lines += [
                f"{tag}.sup: {c.sup_value!r}",
                f"{tag}.sup_at: {c.sup_location!r}",
                f"{tag}.bounded: {'yes' if c.bounded else 'no'}",
            ]
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
    dens = np.atleast_1d(np.asarray(spec.density(pts)))
    decay_vals = dens * (1.0 + rads ** (dim + 2))
    i = int(np.argmax(decay_vals))
    tail = HypothesisCheckResult(
        "tail_decay", float(decay_vals[i]), float(rads[i]), bool(decay_vals[i] <= ceiling)
    )

    # Fourier domination of the weight functions for 1 <= |a| <= order.
    # Ratios are scanned only where the denominator sits above the quadrature
    # accuracy floor; reporting beyond that would be rounding noise, so the
    # window is clamped and the clamp recorded.
    lam_radii = np.linspace(freq_window / n_samples, freq_window, n_samples)
    lam_pts, lam_rads = _radial_points(dim, lam_radii, n_dirs=4)
    base_hat = np.abs(np.atleast_1d(np.asarray(spec.fourier(lam_pts))))
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
                uhat = np.abs(np.atleast_1d(np.asarray(family.weight_fourier(alpha, q, lam_pts))))
                ratio = uhat / base_hat
                i = int(np.argmax(ratio))
                edge = lam_rads[i] >= 0.95 * window_used
                ratio_checks[(q, alpha)] = HypothesisCheckResult(
                    "fourier_ratio",
                    float(ratio[i]),
                    float(lam_rads[i]),
                    bool(ratio[i] <= ceiling),
                    growing_at_edge=bool(edge and ratio[i] > 2.0 * np.median(ratio)),
                )

    # remainder envelope at order order+1
    radii = np.linspace(0.0, space_window, n_samples)
    pts, rads = _radial_points(dim, radii)
    env_checks = {}
    for alpha in multi_indices(dim, family.order + 1):
        for q in range(dim):
            vals = np.abs(np.atleast_1d(np.asarray(family.weight(alpha, q, pts))))
            env = vals * np.sqrt(1.0 + rads ** (dim + 1))
            i = int(np.argmax(env))
            env_checks[(q, alpha)] = HypothesisCheckResult(
                "remainder_envelope", float(env[i]), float(rads[i]), bool(env[i] <= ceiling)
            )

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
    """Sup of |f - f * density| over probe points, divided by the scale bound.

    The divisor is ``N**(-beta/dim) * grad_sup``; a ratio that stays bounded
    uniformly in N is the numerical evidence that the mollification error
    scales with the smoothing length.  ``f`` must accept batched points
    shaped like the probes.
    """
    if grad_sup <= 0:
        raise ValueError("grad_sup must be positive")
    spec = kernel.spec
    probes_arr, _ = _as_points(probes, spec.dim)
    radius = kernel.density_support_radius()
    n = spec._quad_resolution()
    if spec.dim == 1:
        nodes, wts = _trapezoid_nodes(radius, n)
        dens = np.asarray(kernel.density(nodes)) * wts
        shift = probes_arr[:, 0:1] - nodes[None, :]
        conv = np.asarray(f(shift.ravel())).reshape(shift.shape) @ dens
        err = np.abs(np.asarray(f(probes_arr[:, 0])) - conv)
    else:
        nodes, wts = _trapezoid_nodes(radius, n)
        yy, zz = np.meshgrid(nodes, nodes, indexing="ij")
        quad_pts = np.stack([yy.ravel(), zz.ravel()], axis=-1)
        dens = np.asarray(kernel.density(quad_pts)) * np.outer(wts, wts).ravel()
        conv = np.array([np.sum(np.asarray(f(p[None, :] - quad_pts)) * dens) for p in probes_arr])
        err = np.abs(np.asarray(f(probes_arr)) - conv)
    return float(np.max(err) / (kernel.smoothing_length * grad_sup))
