"""Shared numerical kernels: adaptive 1-d quadrature (QUADPACK, whose error
is an estimate: only the derivation of the sinc-squared spectrum uses it),
symmetric-matrix minimum-eigenpair extraction, an LP front end, and
Gauss-Legendre panels for every certified spectral integral.

The cosine transform ``c(d) = int_R cos(w d) q(w) dw`` of an even density
``q`` is composite Gauss-Legendre quadrature on [0, A] plus a tail rule for
[A, inf).  Each rule's certified remainder, at every lag d >= dmin of a
lag bucket:

* ``BoxTail``: q vanishes beyond A, remainder 0.
* ``GaussianTail`` (q = N(0, s^2)): the tail mass erfc(A / (s sqrt 2)),
  with A set so that it is 1e-5 of the target.  A lag where 2m
  integrations by parts bound |c(d)| by min_m sqrt((2m)!) / (s d)^(2m)
  below 1e-5 of the target takes the value 0 with that bound, without
  quadrature.
* ``CauchyTail`` (q = (s/pi)/(s^2 + w^2)): 2K integrations by parts with
  the exact derivatives of q leave 2 (2K)! s / (pi A^(2K+1) d^(2K)); A is
  the smallest cutoff (and at least 40 s) at which some K <= 8 brings this
  to 1e-3 of the target at the bucket's least lag, and each lag takes the
  K that minimises it.
* ``TriangleWaveTail`` (q = (1 - cos w)/(pi w^2)): the tail is exact
  through the sine integral, up to round-off.

One 16-point Gauss-Legendre rule covers [0, A], with a certified a-priori
remainder (Trefethen, "Is Gauss quadrature better than Clenshaw-Curtis?",
SIAM Review 50 (2008), Thm 4.5; ATAP Thm 19.3): on a panel of half-width h
whose Bernstein ellipse E_rho holds no singularity of f(z) = cos(z d) q(z),
and where |f| <= M, the m-point rule errs by at most
h (64/15) M rho^(-2(m-1)) / (rho^2 - 1).  |cos(z d)| <= cosh(d Y), with Y
the ellipse's half-height, and each rule's ``ellipse_bound`` bounds |q| on
the rectangle enclosing the ellipse.  rho is the best of a short fixed list
per panel, at the lag bucket's largest lag.  Panels span 4, 2 or 1
oscillation periods: the coarsest layout whose remainder is at most
``REMAINDER_TARGET`` is taken, and failing all, the finest with its
remainder.  Round-off adds max(F, A) per lag d.  A = 2 u d sum_j |f_j|
(3 |x_j| + 4 h_j) (u = 2^-53, f the weighted density at the float nodes x,
h their panel's half-width) is derived: rounding a + b, b - a, the node
mid + half t and the argument x d, with numpy's Legendre roots t within
0.32 u of the true ones, moves each cosine by at most u d (3 |x| + 4 h), to
first order (:func:`_node_rounding`).  F = 1e-15 max(1, 2 sum|f|) is an
empirical allowance for the rest (weights, density, cosines and sums),
scaled by the transform's mass and not yet derived.  The two combine by
max, not by sum, so where A nears F the bound is no proof: the rest alone
was measured up to 0.9 F (ROADMAP item 14).

:func:`cosine_series` sums the cosine series of torus Fourier coefficients.

All routines are pure: tolerances travel through explicit configuration
values, never hidden module state, so everything here is reentrant and safe
to call concurrently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, sparse
from scipy.optimize import linprog

# Per-lag accuracy the spectral transforms aim their tail cutoffs at.
SPECTRAL_TARGET = 1e-11
# Largest constraint residual an LP solution may leave.
LP_FEAS_TOL = 1e-9
# HiGHS stops at 1e-7 residuals by default, which LP_FEAS_TOL would refuse.
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10}


class QuadratureWarning(UserWarning):
    """Subdivision budget exhausted; the best available estimate was returned."""


class LPError(RuntimeError):
    pass


class LPInfeasibleError(LPError):
    pass


class LPUnboundedError(LPError):
    pass


class InternalConsistencyError(RuntimeError):
    """A computed quantity violated an internal invariant by more than round-off."""


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


def integrate_1d(f, a, b, cfg: QuadratureConfig | None = None):
    """Adaptive quadrature of ``f`` over the finite interval ``[a, b]``.

    Returns ``(value, error_estimate)``.  If the subdivision budget runs out
    a :class:`QuadratureWarning` is emitted and the best estimate is
    returned with its (larger) error estimate.
    """
    cfg = cfg or QuadratureConfig()
    a = float(a)
    b = float(b)
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got [{a}, {b}]")
    out = integrate.quad(
        f, a, b,
        epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
        limit=cfg.max_subdivisions, full_output=1,
    )
    value, err = out[0], out[1]
    if len(out) > 3:
        warnings.warn(out[3], QuadratureWarning)
    return value, err


def min_eig_sym(G):
    """Minimum eigenpair of a symmetric matrix.

    Returns ``(eigenvalue, unit eigenvector)``.  Rejects matrices whose
    asymmetry exceeds 1e-12 relative to their magnitude.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError("square matrix required")
    scale = max(1.0, float(np.abs(G).max()))
    if float(np.abs(G - G.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within 1e-12")
    w, V = np.linalg.eigh(0.5 * (G + G.T))
    vec = V[:, 0]
    return float(w[0]), vec / np.linalg.norm(vec)


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, *, bounds=None):
    """Minimize ``c @ x`` subject to ``A_ub x <= b_ub`` and ``A_eq x = b_eq``.

    Variables are free unless ``bounds`` is given.  ``A_ub`` may be dense or
    a scipy sparse matrix.  HiGHS runs at primal and dual feasibility
    tolerances of 1e-10, and the returned solution is verified against the
    constraints to ``LP_FEAS_TOL``; infeasible and unbounded programs raise
    dedicated errors.
    """
    c = np.asarray(c, dtype=float)
    if bounds is None:
        bounds = [(None, None)] * c.size
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs", options=_HIGHS_OPTIONS)
    if res.status == 2:
        raise LPInfeasibleError(res.message)
    if res.status == 3:
        raise LPUnboundedError(res.message)
    if not res.success:
        raise LPError(res.message)
    x = res.x
    if A_ub is not None:
        lhs = A_ub @ x if sparse.issparse(A_ub) else np.asarray(A_ub) @ x
        viol = np.max(lhs - np.asarray(b_ub), initial=0.0)
        if viol > LP_FEAS_TOL:
            raise InternalConsistencyError(f"LP inequality residual {viol:g}")
    if A_eq is not None:
        viol = float(np.max(np.abs(np.asarray(A_eq) @ x - np.asarray(b_eq)), initial=0.0))
        if viol > LP_FEAS_TOL:
            raise InternalConsistencyError(f"LP equality residual {viol:g}")
    return float(res.fun), x


# ---------------------------------------------------------------------------
# Vectorized cosine transforms of even spectral densities.
#
# Energies of discrete measures against translation-invariant kernels reduce
# to integrals  c(d) = \int_R cos(w d) q(w) dw  per coordinate axis, where q
# is the kernel's (even, nonnegative) spectral density on that axis.  The
# engine below evaluates c on a whole vector of lags at once with composite
# Gauss-Legendre panels plus a family-specific treatment of the tail
# [A, inf).  Heavy tails get an integration-by-parts correction whose
# remainder is certified; compact supports need no tail at all.
# ---------------------------------------------------------------------------

_GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
_NODE_CHUNK = 16384
_BLOCK = 64 * _NODE_CHUNK  # lag-node products per cosine block (8 MB)
MAX_PANELS = 1 << 18  # per lag bucket, 16 nodes each: 33 MB per node array

# Bernstein-ellipse parameters tried on every panel (a column, so that one
# array holds every (rho, panel) pair), and Trefethen's factor
# (64/15) rho^(-2(m-1)) / (rho^2 - 1) for the m-point rule.
_RHOS = np.geomspace(1.1, 32.0, 24)[:, None]
_RHO_FACTOR = (64.0 / 15.0) * _RHOS ** (-2.0 * (_GL_ORDER - 1)) / (_RHOS ** 2 - 1.0)
# Largest quadrature remainder a panel layout may leave: a hundredth of the
# per-lag round-off floor, so coarser panels never loosen a bound.
REMAINDER_TARGET = 1e-17
# Most rectangles ``gl_remainder`` bounds the density on, per layout.
_MAX_GROUPS = 512
# Oscillation periods per panel, coarsest layout first.
_PERIODS = (4, 2, 1)


def _gl_grid(edges):
    a = edges[:-1]
    b = edges[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    return (mid + half * _GL_NODES[None, :]).ravel(), (half * _GL_WEIGHTS[None, :]).ravel()


def _node_rounding(edges, nodes):
    """Per node of ``_gl_grid(edges)``, a bound on |x~ - x|, x~ the float
    node and x the exact rule's node on the float panel [a, b]: u |mid| for
    a + b, u h each for b - a, half t and numpy's root t (within 0.32 u of
    the Legendre root), and u |x~| for the sum, where |mid| <= |x~| + h."""
    h = np.repeat(0.5 * np.diff(edges), _GL_ORDER)
    return 2.0 ** -53 * (2.0 * np.abs(nodes) + 4.0 * h)


def cosine_sums(deltas, nodes, weights):
    """``sum_j weights[j] cos(deltas[i] nodes[j])`` for every lag.

    Blocked over lags and nodes, so no block holds more than ``_BLOCK``
    products however many lags and nodes come in.
    """
    out = np.zeros(len(deltas))
    cols = min(max(nodes.size, 1), _NODE_CHUNK)
    rows = _BLOCK // cols
    for lo in range(0, nodes.size, cols):
        x, f = nodes[lo:lo + cols], weights[lo:lo + cols]
        for r in range(0, len(deltas), rows):
            out[r:r + rows] += np.cos(np.outer(deltas[r:r + rows], x)) @ f
    return out


def gl_remainder(tail, edges, d):
    """Certified bound on the error of the 16-point rule on ``edges`` for
    ``2 int cos(w d) q(w) dw`` at every lag in [0, d].

    Per panel of half-width h, the least over ``_RHOS`` of
    2 h (64/15) cosh(d Y) M rho^-30 / (rho^2 - 1), with Y = h (rho - 1/rho) / 2
    and M = ``tail.ellipse_bound`` on the rectangle enclosing the ellipse;
    summed over panels.  cosh(d Y) grows with d, so the bound at d holds at
    every smaller lag.  Beyond ``_MAX_GROUPS`` panels, runs of consecutive
    panels share one rectangle, which encloses all their ellipses, and the
    largest half-width among them: memory and time stay bounded, and the
    bound only grows.
    """
    n = len(edges) - 1
    start = np.arange(0, n, -(-n // _MAX_GROUPS))
    lo, hi = edges[start], edges[np.append(start[1:], n)]
    h = 0.5 * np.maximum.reduceat(np.diff(edges), start)
    y = h * (0.5 * (_RHOS - 1.0 / _RHOS))
    spill = h * (0.5 * (_RHOS + 1.0 / _RHOS) - 1.0)  # semi-major axis beyond h
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        per = ((hi - lo) * _RHO_FACTOR * np.cosh(d * y)
               * tail.ellipse_bound(lo - spill, hi + spill, y))
    # an overflow met by an underflow reads NaN; count it as no bound
    return float(np.where(np.isnan(per), np.inf, per).min(axis=0).sum())


def _segment_edges(cut, freq, tail, periods=1):
    """Panel edges on [0, cut], each about ``periods`` oscillation periods
    wide: linear panels over the density bulk (at least
    ``tail.min_panels // periods``), then octave-doubling segments beyond
    it.  More than ``MAX_PANELS`` raise ValueError before any node is
    allocated."""
    bounds = [0.0, min(tail.bulk, cut)]
    while bounds[-1] < cut:
        bounds.append(min(2.0 * bounds[-1], cut))
    counts = np.maximum(1.0, np.ceil(np.diff(bounds) * freq / (2.0 * np.pi * periods)))
    counts[0] = max(counts[0], tail.min_panels // periods)
    if counts.sum() > MAX_PANELS:
        raise ValueError(f"the spectral quadrature at lag {freq - tail.intrinsic_freq:.6g} "
                         f"needs {counts.sum():.3g} panels, above the limit of {MAX_PANELS}")
    parts = [np.linspace(a, b, int(p) + 1)[1:] for a, b, p in zip(bounds, bounds[1:], counts)]
    return np.concatenate([[0.0]] + parts)


def _panel_layout(cut, dmax, tail):
    """The coarsest panel layout of ``_PERIODS`` whose remainder at lag
    ``dmax`` is at most ``REMAINDER_TARGET``, else the finest; returns its
    edges and remainder.  Only panels are evaluated here, never lags."""
    freq = dmax + tail.intrinsic_freq
    for periods in _PERIODS:
        edges = _segment_edges(cut, freq, tail, periods)
        remainder = gl_remainder(tail, edges, dmax)
        if remainder <= REMAINDER_TARGET:
            break
    return edges, remainder


def _rectangle(x_lo, x_hi):
    """Least and largest |x| over each real interval [x_lo, x_hi]: the
    bounds on |Re z| over a rectangle [x_lo, x_hi] x [-Y, Y]."""
    far = np.maximum(np.abs(x_lo), np.abs(x_hi))
    near = np.where((x_lo <= 0.0) & (x_hi >= 0.0), 0.0, np.minimum(np.abs(x_lo), np.abs(x_hi)))
    return near, far


class AxisTailRule:
    """Family-specific truncation of the tail integral beyond a cutoff.

    ``cutoff(dmin)`` picks the truncation point so the certified remainder
    at lag >= dmin stays below ``SPECTRAL_TARGET``; ``correction(cut, d)``
    returns the two-sided tail correction added to the core integral and its
    certified remainder bound.  ``bulk`` is where the density's mass sits and
    ``min_panels`` the fewest linear panels of one period laid over it.
    ``ellipse_bound(x_lo, x_hi, Y)`` bounds |density(z)|, continued
    analytically from each panel, on the rectangles [x_lo, x_hi] x [-Y, Y]
    (arrays): infinite where a singularity may lie inside.
    """

    intrinsic_freq = 0.0
    bulk = np.inf
    min_panels = 24

    def cutoff(self, dmin):
        raise NotImplementedError

    def correction(self, cut, deltas):
        raise NotImplementedError

    def ellipse_bound(self, x_lo, x_hi, y):
        raise NotImplementedError

    def decay_bound(self, deltas):
        """A certified bound on |c(d)| per lag, or None when the rule has
        none.  Lags whose bound is below a hundred-thousandth of the target
        take the value 0 without quadrature."""
        return None


class BoxTail(AxisTailRule):
    """Compactly supported density, affine on [0, edge] from ``q0`` at 0 to
    ``q_edge`` at the edge: integrate to the edge, no tail."""

    def __init__(self, half_width, q0, q_edge):
        self.half_width = float(half_width)
        self.bulk = self.half_width
        self.q0, self.q_edge = float(q0), float(q_edge)

    def ellipse_bound(self, x_lo, x_hi, y):
        # |q0 + (q_edge - q0) z / edge| <= |q0| + |q_edge - q0| |z| / edge
        _, far = _rectangle(x_lo, x_hi)
        return abs(self.q0) + abs(self.q_edge - self.q0) * np.hypot(far, y) / self.half_width

    def cutoff(self, dmin):
        return self.half_width

    def correction(self, cut, deltas):
        z = np.zeros(len(deltas))
        return z, z


class GaussianTail(AxisTailRule):
    """Density N(0, s^2) per axis; tail mass erfc(cut / (s sqrt 2))."""

    # the density is entire and its bulk spans ten deviations: twelve
    # one-period panels of 16 nodes resolve it, and at small lags the
    # remainder lets the 2- and 4-period layouts take six or three
    min_panels = 12

    def __init__(self, s):
        self.s = float(s)
        self.bulk = 10.0 * self.s

    def cutoff(self, dmin):
        from scipy.special import erfcinv
        # push the truncation well below target; extra panels are cheap here
        t = 1e-5 * SPECTRAL_TARGET
        return self.s * np.sqrt(2.0) * float(erfcinv(t))

    def ellipse_bound(self, x_lo, x_hi, y):
        # |exp(-z^2 / 2 s^2)| = exp((Im z^2 - Re z^2) / 2 s^2)
        near, _ = _rectangle(x_lo, x_hi)
        peak = 1.0 / (self.s * math.sqrt(2.0 * math.pi))
        return peak * np.exp((y * y - near * near) / (2.0 * self.s ** 2))

    def decay_bound(self, deltas):
        # 2m integrations by parts over the whole line: |c(d)| <=
        # ||q^(2m)||_1 / d^(2m), and ||q^(k)||_1 = E|He_k(X)| / s^k <=
        # sqrt(k!) / s^k by orthogonality of the Hermite polynomials.  Every
        # m gives a bound; the best lies near (s d)^2 / 2.
        from scipy.special import gammaln
        u = self.s * np.asarray(deltas, dtype=float)
        k = 2.0 * np.clip(np.floor(u * u / 2.0), 1.0, 60.0)
        with np.errstate(divide="ignore"):
            log_u = np.log(u)
        # kept above the least normal float, so that it never rounds to 0
        return np.maximum(np.exp(np.minimum(0.5 * gammaln(k + 1.0) - k * log_u,
                                            0.5 * gammaln(k + 3.0) - (k + 2.0) * log_u)),
                          np.finfo(float).tiny)

    def correction(self, cut, deltas):
        from scipy.special import erfc
        tail = float(erfc(cut / (self.s * np.sqrt(2.0))))
        corr = np.where(np.asarray(deltas) == 0.0, tail, 0.0)
        bound = np.where(np.asarray(deltas) == 0.0, 1e-16 + 1e-15 * tail, tail)
        return corr, bound


class CauchyTail(AxisTailRule):
    """Density lam(w) = (s/pi)/(s^2 + w^2); tail by repeated integration by
    parts.

    lam^(m)(w) = (1/pi) Im[(-1)^m m! / (w - i s)^(m+1)], so |lam^(m)(w)| <=
    (m+1)! s / (pi w^(m+2)).  After M = 2K steps the two-sided remainder at
    lag d is at most 2 (2K)! s / (pi A^(2K+1) d^(2K)); the cutoff takes the
    K <= ``max_k`` that makes A smallest at the bucket's least lag, and the
    correction the K that makes the remainder smallest at each lag.
    """

    max_k = 8
    min_panels = 48

    def __init__(self, s):
        self.s = float(s)
        self.bulk = 40.0 * self.s

    def ellipse_bound(self, x_lo, x_hi, y):
        # |s^2 + z^2| = |z - i s| |z + i s|, and either factor is at least
        # sqrt(x_min^2 + max(0, s - Y)^2): both poles +-is stay outside
        near, _ = _rectangle(x_lo, x_hi)
        return (self.s / np.pi) / (near * near + np.maximum(0.0, self.s - y) ** 2)

    def _log_remainder(self, cut, d, k):
        # log of 2 (2K)! s / (pi A^(2K+1) d^(2K))
        return (math.log(2.0 * self.s / math.pi) + math.lgamma(2 * k + 1.0)
                - (2 * k + 1) * np.log(cut) - 2 * k * np.log(d))

    def cutoff(self, dmin):
        if dmin <= 0.0:
            return 60.0 * self.s
        # log A at which the K-step remainder at dmin is a thousandth of the
        # target, per K; A grows only like its (2K+1)-th root
        logs = [(math.log(2e3 * self.s / (math.pi * SPECTRAL_TARGET)) + math.lgamma(2 * k + 1.0)
                 - 2 * k * math.log(dmin)) / (2 * k + 1)
                for k in range(1, self.max_k + 1)]
        return max(40.0 * self.s, math.exp(min(logs)))

    def correction(self, cut, deltas):
        d = np.asarray(deltas, dtype=float)
        corr = np.empty_like(d)
        bound = np.empty_like(d)
        zero = d == 0.0
        # every lag's bound carries 4e-15 for the round-off of a core sum
        # of magnitude up to one
        corr[zero] = 1.0 - (2.0 / np.pi) * np.arctan(cut / self.s)
        bound[zero] = 4e-15
        dz = d[~zero]
        # int_A^inf e^{iwd} f = -e^{iAd} sum_{m<M} (-1)^m f^(m)(A) / (i d)^(m+1)
        # + (-1)^M (i d)^-M int_A^inf e^{iwd} f^(M); the cosine tail is twice
        # the real part.  With A - i s = r e^{-i phi},
        # lam^(m)(A) / d^(m+1) = (-1)^m m! sin((m+1) phi) / (pi (r d)^(m+1)),
        # which neither overflows nor underflows at tiny lags; its sign
        # (-1)^m cancels the one in the sum.
        m = np.arange(2 * self.max_k)
        r, phi = math.hypot(cut, self.s), math.atan2(self.s, cut)
        mfact = np.exp([math.lgamma(v + 1.0) for v in m])
        scaled = mfact / math.pi * np.sin((m + 1) * phi) * (r * dz[:, None]) ** -(m + 1.0)
        sa, ca = np.sin(cut * dz), np.cos(cut * dz)
        # Re[e^{iAd} i^-(m+1)] cycles through sin, -cos, -sin, cos of A d
        phase = np.stack([sa, -ca, -sa, ca], axis=1)[:, m % 4]
        terms = -2.0 * phase * scaled
        logs = np.stack([self._log_remainder(cut, dz, k) for k in range(1, self.max_k + 1)])
        best = np.argmin(logs, axis=0)  # K - 1 per lag
        rows, last = np.arange(dz.size), 2 * best + 1
        corr[~zero] = np.cumsum(terms, axis=1)[rows, last]
        rounding = 1e-15 * np.cumsum(np.abs(terms), axis=1)[rows, last]
        bound[~zero] = np.exp(logs[best, rows]) + rounding + 4e-15
        return corr, bound


class TriangleWaveTail(AxisTailRule):
    """Density (1/pi)(1 - cos w)/w^2; the tail is exact via the sine
    integral, so the cutoff is the end of the bulk."""

    intrinsic_freq = 1.0
    bulk = 80.0

    def ellipse_bound(self, x_lo, x_hi, y):
        # entire: its power series gives (cosh R - 1) / R^2 = 2 sinh(R/2)^2 / R^2
        # for |z| <= R; away from 0, |1 - cos z| <= 1 + cosh Y
        near, far = _rectangle(x_lo, x_hi)
        r = np.hypot(far, y)
        return np.minimum(2.0 * (np.sinh(0.5 * r) / r) ** 2,
                          (1.0 + np.cosh(y)) / (near * near)) / np.pi

    def cutoff(self, dmin):
        return self.bulk

    def correction(self, cut, deltas):
        # Si(eta cut) nears pi/2, so its round-off grows with eta: below
        # 1.8 u (d + 1) against 40-digit values for d <= 2.1e4, lag 0 and
        # lags next to 1 included; bound 8 u (d + 1)
        d = np.asarray(deltas, dtype=float)
        c = cos_over_sq_tail
        corr = (2.0 / np.pi) * (c(d, cut) - 0.5 * c(d + 1.0, cut) - 0.5 * c(d - 1.0, cut))
        bound = 2.0 ** -50 * (d + 1.0)
        return corr, bound


def cos_over_sq_tail(eta, cut):
    """``int_cut^inf cos(eta w) / w^2 dw`` for cut > 0, exact through the
    sine integral; at eta = 0 the formula gives 1 / cut exactly."""
    from scipy.special import sici
    eta = np.abs(eta)
    si, _ = sici(eta * cut)
    return np.cos(eta * cut) / cut - eta * (np.pi / 2.0 - si)


def cosine_transform_even(density, deltas, tail: AxisTailRule):
    """``c(d) = int_R cos(w d) density(w) dw`` for a vector of lags ``d >= 0``.

    ``density`` must be even (only its restriction to w >= 0 is evaluated)
    and nonnegative.  Returns ``(values, error_bounds)`` where the bounds
    add the certified quadrature remainder of :func:`gl_remainder`, the
    certified tail remainder and round-off; lags where the tail rule's
    ``decay_bound`` is negligible get the value 0 and that bound.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1:
        raise ValueError("deltas must be one dimensional")
    if np.any(deltas < 0):
        raise ValueError("lags must be nonnegative")
    vals = np.zeros_like(deltas)
    errs = np.zeros_like(deltas)
    todo = np.ones(deltas.shape, dtype=bool)
    decay = tail.decay_bound(deltas)
    if decay is not None:
        todo = ~(decay <= 1e-5 * SPECTRAL_TARGET)
        errs[~todo] = decay[~todo]

    pos = deltas[todo & (deltas > 0)]
    buckets = [(deltas == 0.0, 0.0, 0.0)]
    if pos.size:
        lo = pos.min()
        while True:
            hi = lo * 32.0
            mask = todo & (deltas >= lo) & (deltas < hi)
            if lo * 32.0 >= pos.max():
                mask = todo & (deltas >= lo)
            if mask.any():
                buckets.append((mask, lo, float(deltas[mask].max())))
            if lo * 32.0 >= pos.max():
                break
            lo = hi

    for mask, dmin, dmax in buckets:
        if not mask.any():
            continue
        ds = deltas[mask]
        cut = tail.cutoff(dmin)
        edges, remainder = _panel_layout(cut, dmax, tail)
        nodes, wts = _gl_grid(edges)
        f = wts * density(nodes)
        corr, bound = tail.correction(cut, ds)
        vals[mask] = 2.0 * cosine_sums(ds, nodes, f) + corr
        # the node's rounding and that of x d (u |x d|) move each cosine
        floor = 1e-15 * max(1.0, 2.0 * float(np.abs(f).sum()))
        slack = 2.0 ** -53 * np.abs(nodes) + _node_rounding(edges, nodes)
        argument = 2.0 * float(np.abs(f) @ slack) * ds
        errs[mask] = remainder + bound + np.maximum(floor, argument)
    return vals, errs


MAX_SERIES_TERMS = 1 << 20  # per cosine series: 8 MB per array of terms


@dataclass(frozen=True)
class SeriesTail:
    """Truncation of a cosine series after ``terms`` terms: ``bound``
    certifies |2 sum_{n > terms} c_n cos(n d)|, or else ``correction(d)``
    returns that tail at lags d in [0, pi] and a bound on its remainder."""

    terms: int
    bound: float = 0.0
    correction: object = None


def cosine_series(coeff, lags, tail: SeriesTail):
    """``c(d) = c_0 + 2 sum_{n >= 1} c_n cos(n d)`` for nonnegative lags.

    ``coeff`` maps an integer array of frequencies to their coefficients.
    Lags fold once into [0, pi], where the even, 2 pi-periodic series is
    evaluated.  The first ``tail.terms`` terms go through the blocked
    :func:`cosine_sums`.  Returns ``(values, error_bounds)``: the tail's
    bound plus round-off.

    Round-off, with u = 2^-53 and S = |c_0| + 2 sum_{n <= terms} |c_n|: any
    order of summing ``terms`` products errs by at most (terms - 1) u times
    their absolute sum; each cosine (within one ulp, 2u) and each product
    add 3u |2 c_n|; adding c_0 and the tail correction add u S each; in all
    (terms + 4) u S.  Rounding n d moves the argument of the n-th cosine by
    at most u n d <= u n pi, so that term by at most 2 |c_n| u n pi: the
    bound adds u pi sum_n 2 n |c_n| for it.  Folding d > pi (exact fmod and
    Sterbenz steps) moves it by (floor(d / 2 pi) + 1) 2^-51 at most, as the
    float 2 pi is within 2^-51 of the period: that times sum_n 2 n |c_n|.
    """
    if tail.terms > MAX_SERIES_TERMS:
        raise ValueError(f"the cosine series needs {tail.terms} terms, "
                         f"above the limit of {MAX_SERIES_TERMS}")
    d = np.mod(lags, 2.0 * np.pi)
    d = np.minimum(d, 2.0 * np.pi - d)
    n = np.arange(tail.terms + 1)
    c = coeff(n)
    w = 2.0 * c[1:]
    vals = c[0] + cosine_sums(d, n[1:].astype(float), w)
    moment = float(n[1:] @ np.abs(w))
    rounding = 2.0 ** -53 * ((tail.terms + 4) * (abs(c[0]) + np.abs(w).sum()) + np.pi * moment)
    folds = np.where(lags > np.pi, np.floor(lags / (2.0 * np.pi)) + 1.0, 0.0)
    errs = tail.bound + rounding + 2.0 ** -51 * moment * folds
    if tail.correction is not None:
        corr, rem = tail.correction(d)
        vals += corr
        errs += rem
    return vals, errs
