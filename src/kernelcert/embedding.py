"""RKHS embeddings of measures: inner products, energy quadratic forms and
the maximum mean discrepancy.

The energy of a measure mu under a kernel k is the squared RKHS norm of its
mean embedding,

    B(mu) = sum_i sum_j w_i w_j k(x_i, x_j)          (spatial form)
          = integral of |mu-hat|^2 against the kernel's spectral measure
                                                     (spectral form),

and the two routes are computed independently so they can cross-check each
other.  :func:`energy_spectral` takes its route from one table keyed by
(kernel class, measure type) and checks the measure's space once.  For a
discrete measure it expands |mu-hat|^2 into atom pairs; by the product
structure of every translation-invariant family in the zoo the integral
then factors into per-axis transforms with certified error bounds.  The
band-limited density integrates |mu-hat|^2 lam on Gauss-Legendre panels
with the certified remainder of ``numerics.gl_remainder``.

Everything operates on immutable values and returns fresh objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import kernels as K
from .measures import (
    DiscreteSignedMeasure,
    ModulatedSincSq,
    TorusCosine,
    SpaceMismatchError,
    density_ft,
    sinc_sq_spectrum,
)
from .numerics import InternalConsistencyError, _gl_grid, _segment_edges, gl_remainder

_EPS = np.finfo(float).eps

_SKIP_CAP = 1e-14  # largest energy a skipped mixture component can carry


class UnsupportedCombinationError(ValueError):
    pass


@dataclass(frozen=True)
class EnergyResult:
    """Energy value with its computation route and a certified error bound.

    ``value >= -error_bound`` always holds; a violation raises instead of
    returning.
    """

    value: float
    method: str
    error_bound: float


def _require_discrete(mu, what="measure"):
    if not isinstance(mu, DiscreteSignedMeasure):
        raise UnsupportedCombinationError(
            f"{what} must be a discrete measure, got {type(mu).__name__}"
        )


def _require_same_space(k, mu):
    if mu.space != k.space:
        raise SpaceMismatchError(
            f"measure on {mu.space.kind} d={mu.space.dim}, "
            f"kernel on {k.space.kind} d={k.space.dim}"
        )


def _rounding_factor(n):
    """Relative round-off allowance of a weighted double sum over n atoms,
    times sum |w_i w_j k_ij|."""
    return min(8 * n, 4500) * _EPS


def _require_finite(mu, *values):
    """Refuse a kernel sum that left the float range: an infinite kernel
    value or weights too large for their products."""
    if not all(map(math.isfinite, values)):
        with np.errstate(over="ignore"):
            mass = mu.total_variation
        raise UnsupportedCombinationError(
            f"the kernel sum over a measure of total variation "
            f"{mass:g} overflows the float range")


def inner(k, mu, nu):
    """RKHS inner product of two embedded discrete measures."""
    _require_discrete(mu)
    _require_discrete(nu)
    _require_same_space(k, mu)
    _require_same_space(k, nu)
    if mu.is_zero or nu.is_zero:
        return 0.0
    with np.errstate(all="ignore"):
        value = float(mu.weights @ K.cross_gram(k, mu.points, nu.points) @ nu.weights)
    _require_finite(mu, value)
    return value


def energy_spatial(k, mu) -> EnergyResult:
    """Exact double sum sum_ij w_i w_j k(x_i, x_j) with a round-off bound."""
    _require_discrete(mu)
    _require_same_space(k, mu)
    if mu.is_zero:
        return EnergyResult(0.0, "spatial_exact", 0.0)
    with np.errstate(all="ignore"):
        G = K.cross_gram(k, mu.points, mu.points)
        value = float(mu.weights @ G @ mu.weights)
        absmass = float(np.abs(mu.weights) @ np.abs(G) @ np.abs(mu.weights))
    bound = _rounding_factor(mu.n_atoms) * absmass
    _require_finite(mu, value, bound)
    if value < -bound:
        raise InternalConsistencyError(
            f"spatial energy {value:g} below round-off floor {-bound:g}"
        )
    return EnergyResult(value, "spatial_exact", bound)


def embed_eval(k, mu, x):
    """Evaluate the embedded function (Phi mu)(x) = sum_j w_j k(x, x_j)."""
    _require_discrete(mu)
    _require_same_space(k, mu)
    if mu.is_zero:
        return 0.0
    with np.errstate(all="ignore"):
        value = float(K.cross_gram(k, [np.atleast_1d(x)], mu.points)[0] @ mu.weights)
    _require_finite(mu, value)
    return value


# ---------------------------------------------------------------------------
# spectral energies
# ---------------------------------------------------------------------------

def _pair_lags(mu, rates=1):
    """Distinct per-axis lags |x_i - x_j| of the atom pairs, and the index of
    each pair's lag on each axis.  The pair sums build arrays of
    rates * n * n * d entries, so the size guard counts them first."""
    n, d = mu.points.shape
    K.require_pair_array(rates * n * n * d)
    return np.unique(K.pair_lags(mu.points, mu.points).ravel(), return_inverse=True)


def _pair_sum(mu, inv, vals_u, errs_u):
    """Energies sum_ij w_i w_j prod_axes c(lag) with propagated error.

    ``vals_u`` and ``errs_u`` hold the axis transform and its error bound at
    each distinct lag, in the last dimension; leading dimensions (one per
    Gaussian rate, say) carry through to the returned values and bounds.
    """
    n, d = mu.points.shape
    w = mu.weights
    shape = vals_u.shape[:-1] + (n, n, d)
    V = vals_u[..., inv].reshape(shape)
    E = errs_u[..., inv].reshape(shape)
    prod_v = np.prod(V, axis=-1)
    prod_err = np.prod(np.abs(V) + E, axis=-1) - np.prod(np.abs(V), axis=-1)
    ww = np.outer(w, w)
    value = np.sum(ww * prod_v, axis=(-2, -1))
    bound = np.sum(np.abs(ww) * prod_err, axis=(-2, -1))
    bound += _rounding_factor(n) * np.sum(np.abs(ww) * np.abs(prod_v), axis=(-2, -1))
    return value, bound


def _pairwise_energy(k, mu, method):
    """Energy via the kernel's per-axis spectral transforms of the pairwise
    lags: products over axes and the weighted pair sum assemble the full
    integral with propagated error."""
    if mu.is_zero:
        return EnergyResult(0.0, method, 0.0)
    uniq, inv = _pair_lags(mu)
    value, bound = _pair_sum(mu, inv, *K.axis_spectral_transform(k, uniq))
    return EnergyResult(float(value), method, float(bound))


def _band_ellipse(tail, mu: ModulatedSincSq):
    """``tail`` with its ``ellipse_bound`` times a bound on |mu-hat(z)|^2, for
    ``gl_remainder`` on panels where mu-hat is linear: |mu-hat| <= 2 |alpha|
    peak on the panel, its slope is at most 2 |alpha| peak / w, and z in the
    rectangle [x_lo, x_hi] x [-Y, Y] about the panel lies within
    x_hi - x_lo + Y of each panel point, so there
    |mu-hat(z)| <= 2 |alpha| peak (1 + (x_hi - x_lo + Y) / w)."""
    w, peak = sinc_sq_spectrum()
    sup = 2.0 * abs(mu.alpha) * peak
    return SimpleNamespace(ellipse_bound=lambda x_lo, x_hi, y: (
        (sup * (1.0 + (x_hi - x_lo + y) / w)) ** 2 * tail.ellipse_bound(x_lo, x_hi, y)))


def _band_density_energy(k, mu: ModulatedSincSq):
    """d=1 integral 2 int_0^hi |mu-hat|^2 lam, hi = min(w0 + w, box edge), on
    the family's lag-0 cosine-transform panels joined with mu-hat's kinks
    below hi (band edges and centre, |w0 - w|): each panel holds one linear
    piece of mu-hat, and a polynomial integrand (a cubic for sinc and
    sinc_sq) is exact.  Bound: the certified remainder at lag 0 over the
    panels of [lo, hi] (mu-hat vanishes below lo; :func:`_band_ellipse`);
    64 u times the sum, for round-off; the change of the sum when each node
    moves by 4 u hi, which covers node rounding and grows with hi / w; and
    1e-15 times sup |mu-hat|^2 = (2 alpha peak)^2, for the rounding of
    mu-hat near its zeros."""
    spec = K.spectral(k)
    lo, hi = mu.band_edges()
    if spec.support.kind == "box":
        hi = min(hi, spec.support.half_width)
    if hi <= lo:
        # spectral supports are disjoint: the integrand vanishes identically
        return EnergyResult(0.0, "spectral_quadrature", 1e-15)
    w, peak = sinc_sq_spectrum()
    kinks = np.array([lo, mu.omega0, abs(mu.omega0 - w)])
    tail = K.family_spec(k).tail(**dict(k.params))
    edges = np.union1d(_segment_edges(hi, 0.0, tail), kinks[kinks < hi])
    x, wts = _gl_grid(edges)

    def terms(shift=0.0):
        return 2.0 * wts * density_ft(mu, x + shift) ** 2 * spec.lambda_axis(x + shift)

    fine = terms()
    value = float(fine.sum())
    moved = np.abs(terms(2.0 * _EPS * hi) - fine).sum()
    remainder = gl_remainder(_band_ellipse(tail, mu), edges[edges >= lo], 0.0)
    return EnergyResult(value, "spectral_quadrature", float(
        remainder + 32 * _EPS * value + moved + 1e-15 * (2.0 * mu.alpha * peak) ** 2))


def _constant_energy(k, mass, scale):
    c = k.param("c")
    return EnergyResult(c * mass * mass, "spectral_quadrature",
                        64 * _EPS * c * scale * scale + 1e-300)


def _torus_cosine_energy(k, mu: TorusCosine):
    coeff = K.spectral(k).coeff
    value = 2.0 * (2.0 * math.pi) ** 2 * mu.alpha ** 2 * coeff(mu.n0)
    return EnergyResult(value, "spectral_series", 64 * _EPS * max(value, mu.alpha ** 2) + 1e-300)


def _mixture_energy(k, mu):
    """Sum of Gaussian components' energies.  A component of mass m can
    contribute at most m TV(mu)^2 (its axis transforms are at most one), so
    one whose cap m TV(mu)^2 is below ``_SKIP_CAP`` is skipped and its cap
    added to the bound.  A mixing density is discretized at 48 and 24 nodes;
    twice their difference bounds the discretization error."""
    if mu.is_zero:
        return EnergyResult(0.0, "spectral_quadrature", 0.0)
    try:
        tv2 = mu.total_variation ** 2
    except OverflowError:
        raise UnsupportedCombinationError(
            f"the total variation {mu.total_variation:g} overflows when squared") from None
    fine, exact = K.mixing_components(k, n_nodes=48)
    coarse = () if exact else K.mixing_components(k, n_nodes=24)[0]
    rates, masses = np.array(list(fine) + list(coarse), dtype=float).T
    caps = masses * tv2
    keep = caps > _SKIP_CAP
    uniq, inv = _pair_lags(mu, int(keep.sum()))
    energies = np.zeros(rates.size)
    bounds = np.full(rates.size, tv2)
    energies[keep], bounds[keep] = _pair_sum(
        mu, inv, *K.gaussian_rate_axis_transform(rates[keep], uniq))
    n_fine = len(fine)
    value = float(masses[:n_fine] @ energies[:n_fine])
    bound = float(masses[:n_fine] @ bounds[:n_fine])
    if not exact:
        v_half = float(masses[n_fine:] @ energies[n_fine:])
        skipped = float(caps[~keep].sum())
        bound += 2.0 * (abs(value - v_half) + skipped) + 1e-13 * tv2
    return EnergyResult(value, "spectral_quadrature", bound)


# the spectral route of each (kernel class, measure type) pair the library supports
_SPECTRAL_ROUTES = {
    ("a1", DiscreteSignedMeasure): lambda k, mu: _pairwise_energy(k, mu, "spectral_quadrature"),
    ("a1", ModulatedSincSq): _band_density_energy,
    ("a2", DiscreteSignedMeasure): lambda k, mu: _pairwise_energy(k, mu, "spectral_series"),
    ("a2", TorusCosine): _torus_cosine_energy,
    ("a3", DiscreteSignedMeasure): _mixture_energy,
    ("constant", DiscreteSignedMeasure):
        lambda k, mu: _constant_energy(k, mu.total_mass, mu.total_variation),
    ("constant", TorusCosine): lambda k, mu: _constant_energy(k, 0.0, abs(mu.alpha)),
    ("constant", ModulatedSincSq):
        lambda k, mu: _constant_energy(k, density_ft(mu, 0.0), abs(mu.alpha) * math.pi),
}


def energy_spectral(k, mu) -> EnergyResult:
    """Energy through the kernel's spectral representation.

    Translation-invariant kernels on R^d integrate |mu-hat|^2 against the
    spectral density; torus kernels sum the coefficient series;
    radial kernels expand into Gaussian rate components and sum their
    spectral energies.  Agrees with :func:`energy_spatial` within the
    combined error bounds whenever both apply.
    """
    route = _SPECTRAL_ROUTES.get((K.kernel_class(k), type(mu)))
    if route is None:
        raise UnsupportedCombinationError(
            f"no spectral energy for family {k.family} and a {type(mu).__name__}")
    _require_same_space(k, mu)
    return route(k, mu)


# ---------------------------------------------------------------------------
# MMD and its dual form
# ---------------------------------------------------------------------------

def mmd(k, P, Q):
    """Maximum mean discrepancy sqrt(B(P - Q)) between probability measures.

    Energies within the certified round-off bound of zero collapse to an
    exact 0, so structurally indistinguishable pairs report a true null;
    negative energies beyond -1e-10 raise an internal-consistency error.
    """
    for m, name in ((P, "P"), (Q, "Q")):
        _require_discrete(m, name)
        if not m.is_probability:
            raise ValueError(f"{name} is not a probability measure")
    res = energy_spatial(k, P - Q)
    if res.value < -1e-10:
        raise InternalConsistencyError(f"mmd^2 = {res.value:g} is negative beyond round-off")
    if res.value <= res.error_bound:
        return 0.0
    return math.sqrt(res.value)


def mmd_witness_gap(k, P, Q, f_measure):
    """Normalized mean gap |int f dP - int f dQ| / ||f|| for f = Phi(f_measure).

    Never exceeds mmd(P, Q) beyond round-off; equality holds when the
    candidate equals P - Q.
    """
    _require_discrete(f_measure, "f_measure")
    norm_sq = energy_spatial(k, f_measure)
    if norm_sq.value <= norm_sq.error_bound:
        raise ValueError("candidate witness has zero RKHS norm")
    gap = abs(inner(k, P - Q, f_measure))
    return gap / math.sqrt(norm_sq.value)


# ---------------------------------------------------------------------------
# feature-space energies for dot-product kernels
# ---------------------------------------------------------------------------

def energy_features(k, mu, degree) -> EnergyResult:
    """Truncated feature-space energy sum_alpha |sum_j w_j phi_alpha(x_j)|^2.

    The error bound is the Taylor tail at the largest pairwise product of
    atom norms, scaled by the squared total variation.
    """
    _require_discrete(mu)
    _require_same_space(k, mu)
    coeffs = K.taylor_coefficients(k)
    if mu.is_zero:
        return EnergyResult(0.0, "feature_truncation", 0.0)
    norms = np.linalg.norm(mu.points, axis=1)
    if np.any(norms >= math.sqrt(coeffs.radius)):
        raise ValueError("atom outside the kernel's domain ball")
    total = 0.0
    for alpha, weight in K.taylor_terms(k, degree):
        mono = np.ones(mu.n_atoms)
        for axis, a_j in enumerate(alpha):
            if a_j:
                mono *= mu.points[:, axis] ** a_j
        s = float(mu.weights @ mono)
        total += weight * s * s
    q = float(np.max(norms)) ** 2
    tail = coeffs.tail(q, degree) if q > 0.0 else 0.0
    bound = mu.total_variation ** 2 * tail + 1e3 * _EPS * max(total, 1.0)
    return EnergyResult(total, "feature_truncation", bound)
