"""Shared numerical kernels.

Adaptive 1-d quadrature, symmetric-matrix minimum-eigenpair extraction, a
dense LP front end, and a vectorized cosine transform engine used for
spectral energy integrals.

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

The quadrature error estimate is the difference against the same rule on
every other panel edge.

All routines are pure: tolerances travel through explicit configuration
values, never hidden module state, so everything here is reentrant and safe
to call concurrently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.optimize import linprog

# Default quadrature tolerances; callers thread their own through
# QuadratureConfig.
DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-8


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
    abs_tol: float = DEFAULT_ABS_TOL
    rel_tol: float = DEFAULT_REL_TOL
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureConfig()


def integrate_1d(f, a, b, cfg: QuadratureConfig | None = None):
    """Adaptive quadrature of ``f`` over the finite interval ``[a, b]``.

    Returns ``(value, error_estimate)``.  If the subdivision budget runs out
    a :class:`QuadratureWarning` is emitted and the best estimate is
    returned with its (larger) error estimate.
    """
    cfg = cfg or DEFAULT_QUADRATURE
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


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, *,
             bounds=None, feas_tol=1e-9):
    """Minimize ``c @ x`` subject to ``A_ub x <= b_ub`` and ``A_eq x = b_eq``.

    Variables are free unless ``bounds`` is given.  The returned solution is
    verified against the constraints to ``feas_tol``; infeasible and
    unbounded programs raise dedicated errors.
    """
    c = np.asarray(c, dtype=float)
    if bounds is None:
        bounds = [(None, None)] * c.size
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status == 2:
        raise LPInfeasibleError(res.message)
    if res.status == 3:
        raise LPUnboundedError(res.message)
    if not res.success:
        raise LPError(res.message)
    x = res.x
    if A_ub is not None:
        viol = np.max(np.asarray(A_ub) @ x - np.asarray(b_ub), initial=0.0)
        if viol > feas_tol:
            raise InternalConsistencyError(f"LP inequality residual {viol:g}")
    if A_eq is not None:
        viol = float(np.max(np.abs(np.asarray(A_eq) @ x - np.asarray(b_eq)), initial=0.0))
        if viol > feas_tol:
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

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_NODE_CHUNK = 16384
_BLOCK = 64 * _NODE_CHUNK  # lag-node products per cosine block (8 MB)


def _gl_grid(edges):
    a = edges[:-1]
    b = edges[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    return (mid + half * _GL_NODES[None, :]).ravel(), (half * _GL_WEIGHTS[None, :]).ravel()


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


def _cos_dot(density, edges, deltas):
    """2 * integral over [edges[0], edges[-1]] of cos(w d) density(w), per d."""
    nodes, wts = _gl_grid(edges)
    return 2.0 * cosine_sums(deltas, nodes, wts * density(nodes))


def _segment_edges(cut, freq, tail, max_panels=6000):
    """Panel edges on [0, cut]: linear panels over the density bulk, one
    oscillation period wide, then octave-doubling panels of
    ``tail.octave_periods`` periods each."""
    bulk = min(tail.bulk, cut)
    p_lin = int(min(max_panels, max(tail.min_panels, np.ceil(bulk * freq / (2.0 * np.pi)))))
    parts = [np.linspace(0.0, bulk, p_lin + 1)]
    x = bulk
    while x < cut:
        x2 = min(2.0 * x, cut)
        p = int(min(max_panels, max(1, np.ceil(
            (x2 - x) * freq / (2.0 * np.pi * tail.octave_periods)))))
        parts.append(np.linspace(x, x2, p + 1)[1:])
        x = x2
    return np.concatenate(parts)


def _halved(edges):
    if len(edges) <= 2:
        return edges
    e = edges[::2]
    if e[-1] != edges[-1]:
        e = np.append(e, edges[-1])
    return e


class AxisTailRule:
    """Family-specific truncation of the tail integral beyond a cutoff.

    ``cutoff(dmin, target)`` picks the truncation point so the certified
    remainder at lag >= dmin stays below ``target``; ``correction(cut, d)``
    returns the two-sided tail correction added to the core integral and its
    certified remainder bound.  ``bulk`` is where the density's mass sits,
    ``min_panels`` the fewest linear panels laid over it, and
    ``octave_periods`` the oscillation periods per panel beyond it.
    """

    intrinsic_freq = 0.0
    bulk = np.inf
    min_panels = 24
    octave_periods = 5.0

    def cutoff(self, dmin, target):
        raise NotImplementedError

    def correction(self, cut, deltas):
        raise NotImplementedError

    def decay_bound(self, deltas):
        """A certified bound on |c(d)| per lag, or None when the rule has
        none.  Lags whose bound is below a hundred-thousandth of the target
        take the value 0 without quadrature."""
        return None


class BoxTail(AxisTailRule):
    """Compactly supported density: integrate to the edge, no tail."""

    def __init__(self, half_width, bulk=None):
        self.half_width = float(half_width)
        self.bulk = float(bulk if bulk is not None else half_width)

    def cutoff(self, dmin, target):
        return self.half_width

    def correction(self, cut, deltas):
        z = np.zeros(len(deltas))
        return z, z


class GaussianTail(AxisTailRule):
    """Density N(0, s^2) per axis; tail mass erfc(cut / (s sqrt 2))."""

    # the density is entire and its bulk spans ten deviations: twelve
    # panels of 16 nodes resolve it, and so do the six of the halved rule
    min_panels = 12

    def __init__(self, s):
        self.s = float(s)
        self.bulk = 10.0 * self.s

    def cutoff(self, dmin, target):
        from scipy.special import erfcinv
        # push the truncation well below target; extra panels are cheap here
        t = max(1e-5 * target, 1e-290)
        return self.s * np.sqrt(2.0) * float(erfcinv(t))

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
        return np.exp(np.minimum(0.5 * gammaln(k + 1.0) - k * log_u,
                                 0.5 * gammaln(k + 3.0) - (k + 2.0) * log_u))

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
    correction the K that makes the remainder smallest at each lag.  Panels
    beyond the bulk span one period, as the cutoff lies far out in the
    oscillatory region.
    """

    max_k = 8
    min_panels = 48
    octave_periods = 1.0

    def __init__(self, s):
        self.s = float(s)
        self.bulk = 40.0 * self.s

    def _log_remainder(self, cut, d, k):
        # log of 2 (2K)! s / (pi A^(2K+1) d^(2K))
        return (math.log(2.0 * self.s / math.pi) + math.lgamma(2 * k + 1.0)
                - (2 * k + 1) * np.log(cut) - 2 * k * np.log(d))

    def cutoff(self, dmin, target):
        if dmin <= 0.0:
            return 60.0 * self.s
        # log A at which the K-step remainder at dmin is a thousandth of the
        # target, per K; A grows only like its (2K+1)-th root
        logs = [(math.log(2e3 * self.s / (math.pi * target)) + math.lgamma(2 * k + 1.0)
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
    """Density (1/pi)(1 - cos w)/w^2; the tail is exact via the sine integral."""

    intrinsic_freq = 1.0

    def __init__(self):
        self.bulk = 80.0

    def cutoff(self, dmin, target):
        return 120.0

    @staticmethod
    def _cos_over_sq(eta, cut):
        # int_cut^inf cos(eta w) / w^2 dw, exact through Si
        from scipy.special import sici
        eta = np.abs(np.asarray(eta, dtype=float))
        out = np.empty_like(eta)
        zero = eta == 0.0
        out[zero] = 1.0 / cut
        ez = eta[~zero]
        si, _ = sici(ez * cut)
        out[~zero] = np.cos(ez * cut) / cut - ez * (np.pi / 2.0 - si)
        return out

    def correction(self, cut, deltas):
        d = np.asarray(deltas, dtype=float)
        c = self._cos_over_sq
        corr = (2.0 / np.pi) * (c(d, cut) - 0.5 * c(d + 1.0, cut) - 0.5 * c(np.abs(d - 1.0), cut))
        bound = np.full_like(d, 4e-14)
        return corr, bound


def cosine_transform_even(density, deltas, tail: AxisTailRule, *, target=1e-11):
    """``c(d) = int_R cos(w d) density(w) dw`` for a vector of lags ``d >= 0``.

    ``density`` must be even (only its restriction to w >= 0 is evaluated)
    and nonnegative.  Returns ``(values, error_bounds)`` where the bounds
    combine a quadrature error estimate with the certified tail remainder;
    lags where the tail rule's ``decay_bound`` is negligible get the value 0
    and that bound.
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
        todo = ~(decay <= 1e-5 * target)
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
        cut = tail.cutoff(dmin, target)
        freq = dmax + tail.intrinsic_freq
        edges = _segment_edges(cut, freq, tail)
        core = _cos_dot(density, edges, ds)
        coarse = _cos_dot(density, _halved(edges), ds)
        corr, bound = tail.correction(cut, ds)
        vals[mask] = core + corr
        errs[mask] = np.abs(core - coarse) + bound + 1e-15
    return vals, errs
