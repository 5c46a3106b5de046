"""The kernel zoo: a closed enumeration of positive definite kernel families
with exact spectral metadata.

Four structural classes plus the constant kernel:

* ``a1``: translation invariant on R^d, described by a spectral density;
* ``a2``: translation invariant on the torus, described by Fourier
  coefficients;
* ``a3``: radial mixtures of Gaussians, described by a mixing measure on
  rates;
* ``a4``: dot-product kernels with positive power series, described by
  their coefficients;
* ``constant``.

Each family is one :class:`FamilySpec` record in ``_FAMILIES``: its class,
space, parameter validators, closed-form profile and spectral object.  Every
other module reads the record (through :func:`family_spec`) or its class and
never tests a family name.  Adding a family means adding one record, one
convenience constructor below the table and one document in ``zoo/``.

Keeping the enumeration closed is deliberate: certification rules consult
authoritative support descriptors, which arbitrary callables cannot supply.
Multivariate translation-invariant families are per-axis products, so their
spectral objects factor exactly.

Descriptors are immutable and evaluation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, roots_genlaguerre

from . import numerics
from .measures import (Space, SpaceMismatchError, TWO_PI, _number, _require_fields,
                       _space_from_json, _space_to_json, euclidean, sinc_sq_spectrum)

SQRT_2PI = math.sqrt(2.0 * math.pi)
# Largest pairwise array (atom pairs x axes, or x rates) one call may build:
# 2^26 float64 entries are 512 MiB.
PAIR_ARRAY_LIMIT = 2 ** 26


class KernelConfigError(ValueError):
    pass


class UnsupportedKernelOperation(ValueError):
    pass


@dataclass(frozen=True)
class KernelDescriptor:
    family: str
    space: Space
    params: tuple  # sorted (name, value) pairs

    def param(self, name):
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"KernelDescriptor({self.family}({inner}) on {self.space.kind} d={self.space.dim})"


@dataclass(frozen=True)
class SpectralSupport:
    """Support descriptor of a spectral object.

    ``kind`` is ``full_space`` or ``box`` (Euclidean densities, box given by
    its half width per axis), or ``all_integers`` / ``finite_set`` (torus
    coefficients, finite sets given per axis).
    """

    kind: str
    half_width: float | None = None
    frequencies: tuple | None = None


@dataclass(frozen=True)
class SpectralMeasure:
    """Spectral representation of a translation-invariant or radial kernel.

    For Euclidean families ``density`` is the profile's transform (product
    over axes); the underlying spectral measure has density
    ``(2 pi)^{-d/2} * density`` with respect to Lebesgue measure, exposed per
    axis as ``lambda_axis``.  For torus families ``coeff`` gives the Fourier
    coefficient of an integer frequency vector, and of one integer the
    per-axis coefficient.  For radial families the
    mixing measure over Gaussian rates is given by atoms or a density on
    [0, inf).
    """

    kind: str
    support: SpectralSupport | None = None
    density: object = None
    lambda_axis: object = None
    coeff: object = None
    mixing_atoms: tuple | None = None
    mixing_density: object = None
    supp_is_only_zero: bool | None = None


@dataclass(frozen=True)
class TaylorCoefficients:
    """Power-series data of a dot-product kernel: coefficient function,
    convergence radius of the underlying scalar series, and ``tail(q, N)``
    bounding sum_{n > N} a_n q^n for 0 < q inside the radius."""

    a: object
    radius: float
    tail: object


@dataclass(frozen=True)
class FamilySpec:
    """Everything the library knows about one kernel family.

    ``params`` maps each parameter name to its validator ``check(name,
    value)``.  Evaluators take their argument first and the kernel
    parameters as keywords: ``profile`` (per-axis profile of a lag, classes
    a1/a2), ``radial`` (profile of the squared distance, a3/constant) and
    ``dot`` (profile of the inner product, a4).  The remaining functions
    build from the parameters alone: ``lam`` the per-axis spectral density
    (a1), ``coeff`` the per-axis Fourier coefficients of an integer array of
    frequencies (a2), ``tail`` the truncation rule of either, a
    ``numerics.AxisTailRule`` (a1) or ``numerics.SeriesTail`` (a2),
    ``support`` the :class:`SpectralSupport` (a1/a2; ``None`` means full
    support), ``mixing`` the rate-mixing :class:`SpectralMeasure`
    (a3/constant), ``quadrature(n_nodes)`` the Gaussian components of a
    mixing density, and ``taylor`` the :class:`TaylorCoefficients` (a4).
    ``integrable`` says whether an a1 profile is integrable.  ``joint``
    checks the validated parameters together, raising
    :class:`KernelConfigError`.

    The spectral functions never call ``profile``, so the spectral route
    stays independent of the closed form.
    """

    klass: str
    space_kind: str
    params: dict
    profile: object = None
    radial: object = None
    dot: object = None
    lam: object = None
    tail: object = None
    coeff: object = None
    support: object = None
    integrable: bool = False
    mixing: object = None
    quadrature: object = None
    taylor: object = None
    joint: object = None


# ---------------------------------------------------------------------------
# parameter validators
# ---------------------------------------------------------------------------

def _positive(name, v):
    return _number(name, v, lambda x: x > 0, "be positive", KernelConfigError)


def _nonnegative(name, v):
    return _number(name, v, lambda x: x >= 0, "be >= 0", KernelConfigError)


def _open_unit(name, v):
    return _number(name, v, lambda x: 0.0 < x < 1.0, "lie in (0, 1)", KernelConfigError)


def _half_open_unit(name, v):
    return _number(name, v, lambda x: 0.0 < x <= 1.0, "lie in (0, 1]", KernelConfigError)


def _natural(name, v):
    return int(_number(name, v, lambda x: x == int(x) and x >= 1, "be a positive integer",
                       KernelConfigError))


# Largest band degree l of dirichlet/fejer: their spectral supports list
# 2l + 1 frequencies and their witnesses hold about 2l atoms.
MAX_BAND_DEGREE = 256


def _band_degree(name, v):
    l = _natural(name, v)
    if l > MAX_BAND_DEGREE:
        raise KernelConfigError(f"{name} must be at most {MAX_BAND_DEGREE}, got {l}")
    return l


def _rate_atoms(name, v):
    try:
        atoms = tuple((_nonnegative("rate", t), _positive("mass", m)) for t, m in v)
    except (TypeError, ValueError) as exc:
        raise KernelConfigError(f"{name}: {exc}") from None
    if not atoms:
        raise KernelConfigError(f"{name} needs at least one atom")
    return atoms


# ---------------------------------------------------------------------------
# family records
# ---------------------------------------------------------------------------

def _box(half_width):
    return SpectralSupport("box", half_width=half_width)


def _finite_band(l):
    return SpectralSupport("finite_set", frequencies=tuple(range(-l, l + 1)))


def _rate_mixing(atoms):
    return SpectralMeasure(kind="radial_mixing", mixing_atoms=tuple(atoms),
                           supp_is_only_zero=all(t == 0.0 for t, _ in atoms))


def _sinc_sq_lam():
    hw, peak = sinc_sq_spectrum()
    return lambda w: (peak / TWO_PI) * np.maximum(0.0, 1.0 - np.abs(w) / hw)


def _sinc_sq_tail():
    hw, peak = sinc_sq_spectrum()
    return numerics.BoxTail(hw, peak / TWO_PI, 0.0)


def _expcos_coeff(alpha):
    def coeff(n):
        m = np.abs(n)
        return np.where(m == 0, 1.0, 0.5 * np.exp(m * math.log(alpha) - gammaln(m + 1.0)))
    return coeff


def _quadpoly_coeff(n):
    n = np.asarray(n, dtype=float)
    return np.where(n == 0, math.pi ** 2 / 3.0, 2.0 / np.maximum(n * n, 1.0))


def _sine_ratio(d, m):
    """sin(m d / 2) / sin(d / 2): m = 2l + 1 gives the dirichlet profile, and
    its square over m = l + 1 the fejer one.  Lags fold exactly into [0, pi]
    first (near 2 pi, sin(d / 2) would lose u pi / |2 pi - d| relatively);
    where sin(d / 2) is zero or subnormal the ratio is m.  On 20000 random
    lags (l = 1, 2, 3, 7, 256) they erred by at most 2.7 and 5.9 u k(0), which
    the spatial bound's 16 n u k(0)^d sum w^2 >= 16 u k(0)^d (sum |w|)^2 covers
    for n < 563 atoms."""
    d = np.mod(d, TWO_PI)
    h = 0.5 * np.minimum(d, TWO_PI - d)
    s = np.sin(h)
    limit = s < np.finfo(float).tiny
    return np.where(limit, float(m), np.sin(m * h) / np.where(limit, 1.0, s))


def _poisson_tail(sigma):
    # 2 sum_{n>N} sigma^n = 2 sigma^(N+1) / (1 - sigma)
    N = max(8, math.ceil(math.log(1e-18) / math.log(sigma)))
    return numerics.SeriesTail(N, 2.0 * sigma ** (N + 1) / (1.0 - sigma))


def _expcos_tail(alpha):
    # sum_{n>40} alpha^n / n! <= alpha^41 / 41! / (1 - alpha / 42)
    return numerics.SeriesTail(40, alpha ** 41 / math.factorial(41) / (1.0 - alpha / 42))


QUADPOLY_TERMS = 256  # N: cosine terms summed directly
QUADPOLY_EM_ORDER = 18  # K: Euler-Maclaurin correction terms on the tail


def _cos_over_sq_derivative(m, d, x):
    """m-th derivative at x of f(x) = cos(d x) / x^2 per lag d: half the
    series term (2/n^2) cos(n d), continued to real n."""
    # (cos(d x))^(j) = d^j cos(d x + j pi/2); (x^-2)^(i) = (-1)^i (i+1)! x^-(i+2)
    c, s = np.cos(d * x), np.sin(d * x)
    trig = (c, -s, -c, s)
    out = np.zeros_like(d)
    d_pow = np.ones_like(d)
    for j in range(m + 1):
        i = m - j
        out += (math.comb(m, j) * (-1.0) ** i * math.factorial(i + 1) * x ** -(i + 2.0)) \
            * d_pow * trig[j % 4]
        d_pow = d_pow * d
    return out


def _quadpoly_tail(d):
    """Tail 4 sum_{n>N} cos(n d)/n^2 of the quadpoly series at lags d in
    [0, pi], and its remainder.

    With f(x) = cos(d x)/x^2 and A = N + 1/2, the midpoint Euler-Maclaurin
    formula gives sum_{n>N} f(n) = int_A^inf f - sum_{k<=K} B_2k(1/2)/(2k)!
    f^(2k-1)(A) + R: the integral is exact through the sine integral, and
    |R| <= |B_2K|/(2K)! int_A^inf |f^(2K)| <= |B_2K| sum_j d^j / (j!
    A^(2K-j+1)).  Because d <= pi, the terms fall like 4^-k; at lag 0, |R|
    is below 1e-75.  The bound adds 1e-14 for round-off: the sine integral
    near pi/2 is within a few ulp, which d <= pi and the factor 4 scale to
    below 1e-14.
    """
    from scipy.special import bernoulli

    N, K = QUADPOLY_TERMS, QUADPOLY_EM_ORDER
    A = N + 0.5
    tail = numerics.cos_over_sq_tail(d, A)
    B = bernoulli(2 * K)
    for k in range(1, K + 1):
        # B_2k(1/2) = -(1 - 2^(1-2k)) B_2k
        b_half = -(1.0 - 2.0 ** (1 - 2 * k)) * B[2 * k]
        tail -= b_half / math.factorial(2 * k) * _cos_over_sq_derivative(2 * k - 1, d, A)
    remainder = abs(B[2 * K]) * sum(d ** j / (math.factorial(j) * A ** (2 * K - j + 1))
                                    for j in range(2 * K + 1))
    return 4.0 * tail, 4.0 * remainder + 1e-14


def _atoms_radial(r2, atoms):
    out = np.zeros_like(r2)
    for t, m in atoms:
        out += m * np.exp(-t * r2)
    return out


def _imq_mixing(beta, c):
    def mixing_density(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0,
                        np.exp((beta - 1.0) * np.log(np.maximum(t, 1e-300))
                               - c * c * t - gammaln(beta)),
                        0.0)

    return SpectralMeasure(kind="radial_mixing", mixing_density=mixing_density,
                           supp_is_only_zero=False)


def _imq_joint(beta, c):
    """The profile (c^2 + r^2)^(-beta) needs c^2 and k(0) = c^(-2 beta) to be
    normal floats: a c^2 that underflows makes k(0) infinite or wrong in its
    leading digits.  k(0) is checked in log space, where no power can
    overflow."""
    finfo = np.finfo(float)
    if not finfo.tiny <= c * c <= finfo.max:
        raise KernelConfigError(f"inverse_multiquadric(c={c:g}): c^2 leaves the normal "
                                f"float range")
    log_k0 = -2.0 * beta * math.log(c)
    if not math.log(finfo.tiny) <= log_k0 <= math.log(finfo.max):
        raise KernelConfigError(f"inverse_multiquadric(beta={beta:g}, c={c:g}): k(0) = "
                                f"c^(-2 beta) = exp({log_k0:.6g}) leaves the normal float range")


def _imq_quadrature(n_nodes, beta, c):
    """Generalized Gauss-Laguerre discretization of the Gamma-type mixing.
    Raises where a rate or mass is not finite: the rule's weights overflow
    from beta near 170, and c^(2 beta) can under- or overflow."""
    u, w = roots_genlaguerre(n_nodes, beta - 1.0)
    with np.errstate(all="ignore"):
        rates = u / (c * c)
        masses = w * (math.exp(-gammaln(beta)) / np.float64(c) ** (2.0 * beta))
    if not (np.isfinite(rates).all() and np.isfinite(masses).all()):
        raise UnsupportedKernelOperation(
            f"the mixing quadrature of inverse_multiquadric(beta={beta:g}, c={c:g}) "
            "leaves the float range")
    return tuple(zip(rates.tolist(), masses.tolist()))


def _exp_tail(q, degree):
    head = q ** (degree + 1) / math.factorial(degree + 1)
    ratio = q / (degree + 2)
    if ratio >= 1.0:
        # crude geometric regime: grow the bound until the ratio drops
        return head * math.exp(q)
    return head / (1.0 - ratio)


def _binomial_taylor(beta):
    def a(n):
        return math.exp(gammaln(n + beta) - gammaln(beta) - gammaln(n + 1.0))

    def tail(q, degree):
        ratio = q * max(1.0, (degree + 1 + beta) / (degree + 2))
        if ratio >= 1.0:
            raise ValueError("atoms too close to the domain boundary for a tail bound")
        return a(degree + 1) * q ** (degree + 1) / (1.0 - ratio)

    return TaylorCoefficients(a=a, radius=1.0, tail=tail)


_FAMILIES = {
    "gaussian_ti": FamilySpec(
        "a1", "euclidean", {"sigma": _positive},
        profile=lambda d, sigma: np.exp(-d * d / (2.0 * sigma * sigma)),
        lam=lambda sigma: lambda w: (sigma / SQRT_2PI) * np.exp(-sigma * sigma * w * w / 2.0),
        tail=lambda sigma: numerics.GaussianTail(1.0 / sigma),
        integrable=True),
    "laplacian_ti": FamilySpec(
        "a1", "euclidean", {"sigma": _positive},
        profile=lambda d, sigma: np.exp(-sigma * np.abs(d)),
        lam=lambda sigma: lambda w: (sigma / np.pi) / (sigma * sigma + w * w),
        tail=lambda sigma: numerics.CauchyTail(sigma),
        integrable=True),
    "b1_spline": FamilySpec(
        "a1", "euclidean", {},
        profile=lambda d: np.maximum(0.0, 1.0 - np.abs(d)),
        lam=lambda: lambda w: (0.5 / np.pi) * np.sinc(w / TWO_PI) ** 2,
        tail=lambda: numerics.TriangleWaveTail(),
        integrable=True),
    "sinc": FamilySpec(
        "a1", "euclidean", {"sigma": _positive},
        profile=lambda d, sigma: sigma * np.sinc(sigma * d / np.pi),
        lam=lambda sigma: lambda w: np.where(np.abs(w) <= sigma, 0.5, 0.0),
        tail=lambda sigma: numerics.BoxTail(sigma, 0.5, 0.5),
        support=lambda sigma: _box(sigma)),
    "sinc_sq": FamilySpec(
        "a1", "euclidean", {},
        profile=lambda d: np.sinc(d / np.pi) ** 2,
        lam=_sinc_sq_lam,
        tail=_sinc_sq_tail,
        support=lambda: _box(sinc_sq_spectrum()[0]),
        integrable=True),
    "poisson_torus": FamilySpec(
        "a2", "torus", {"sigma": _open_unit},
        profile=lambda d, sigma: ((1.0 - sigma) * (1.0 + sigma)
                                  / ((1.0 - sigma) ** 2 + 4.0 * sigma * np.sin(0.5 * d) ** 2)),
        coeff=lambda sigma: lambda n: sigma ** np.abs(n),
        tail=_poisson_tail),
    "expcos_torus": FamilySpec(
        "a2", "torus", {"alpha": _half_open_unit},
        profile=lambda d, alpha: np.exp(alpha * np.cos(d)) * np.cos(alpha * np.sin(d)),
        coeff=_expcos_coeff,
        tail=_expcos_tail),
    "quadpoly_torus": FamilySpec(
        "a2", "torus", {},
        profile=lambda d: (np.pi - np.mod(d, TWO_PI)) ** 2,
        coeff=lambda: _quadpoly_coeff,
        tail=lambda: numerics.SeriesTail(QUADPOLY_TERMS, correction=_quadpoly_tail)),
    "dirichlet": FamilySpec(
        "a2", "torus", {"l": _band_degree},
        profile=lambda d, l: _sine_ratio(d, 2 * l + 1),
        coeff=lambda l: lambda n: (np.abs(n) <= l).astype(float),
        tail=lambda l: numerics.SeriesTail(l),
        support=_finite_band),
    "fejer": FamilySpec(
        "a2", "torus", {"l": _band_degree},
        profile=lambda d, l: _sine_ratio(d, l + 1) ** 2 / (l + 1),
        coeff=lambda l: lambda n: np.maximum(0.0, 1.0 - np.abs(n) / (l + 1.0)),
        tail=lambda l: numerics.SeriesTail(l),
        support=_finite_band),
    "radial_gaussian": FamilySpec(
        "a3", "euclidean", {"sigma": _positive},
        radial=lambda r2, sigma: np.exp(-sigma * r2),
        mixing=lambda sigma: _rate_mixing(((sigma, 1.0),))),
    "inverse_multiquadric": FamilySpec(
        "a3", "euclidean", {"beta": _positive, "c": _positive},
        radial=lambda r2, beta, c: (c * c + r2) ** (-beta),
        mixing=_imq_mixing,
        quadrature=_imq_quadrature,
        joint=_imq_joint),
    "radial_atoms": FamilySpec(
        "a3", "euclidean", {"atoms": _rate_atoms},
        radial=_atoms_radial,
        mixing=_rate_mixing),
    "taylor_exp": FamilySpec(
        "a4", "euclidean", {},
        dot=lambda t: np.exp(t),
        taylor=lambda: TaylorCoefficients(a=lambda n: 1.0 / math.factorial(n),
                                          radius=math.inf, tail=_exp_tail)),
    "taylor_binomial": FamilySpec(
        "a4", "euclidean", {"beta": _positive},
        dot=lambda t, beta: (1.0 - t) ** (-beta),
        taylor=_binomial_taylor),
    "constant": FamilySpec(
        "constant", "any", {"c": _nonnegative},
        radial=lambda r2, c: np.full_like(r2, c),
        mixing=lambda c: _rate_mixing(((0.0, c),))),
}


def make_kernel(family, space, **params):
    spec = _FAMILIES.get(family) if isinstance(family, str) else None
    if spec is None:
        raise KernelConfigError(f"unknown kernel family {family!r}")
    if spec.space_kind != "any" and space.kind != spec.space_kind:
        raise KernelConfigError(f"{family} requires a {spec.space_kind} space, got {space.kind}")
    if set(params) != set(spec.params):
        raise KernelConfigError(
            f"{family} takes parameters {sorted(spec.params)}, got {sorted(params)}"
        )
    checked = tuple(sorted((name, spec.params[name](name, value))
                           for name, value in params.items()))
    if spec.joint is not None:
        spec.joint(**dict(checked))
    return KernelDescriptor(family, space, checked)


def family_spec(k: KernelDescriptor) -> FamilySpec:
    return _FAMILIES[k.family]


def kernel_class(k: KernelDescriptor):
    return family_spec(k).klass


# convenience constructors

def gaussian_ti(sigma=1.0, dim=1):
    return make_kernel("gaussian_ti", euclidean(dim), sigma=sigma)


def laplacian_ti(sigma=1.0, dim=1):
    return make_kernel("laplacian_ti", euclidean(dim), sigma=sigma)


def b1_spline(dim=1):
    return make_kernel("b1_spline", euclidean(dim))


def sinc(sigma=1.0, dim=1):
    return make_kernel("sinc", euclidean(dim), sigma=sigma)


def sinc_sq(dim=1):
    return make_kernel("sinc_sq", euclidean(dim))


def poisson_torus(sigma=0.5, dim=1):
    return make_kernel("poisson_torus", Space("torus", dim), sigma=sigma)


def expcos_torus(alpha=1.0, dim=1):
    return make_kernel("expcos_torus", Space("torus", dim), alpha=alpha)


def quadpoly_torus(dim=1):
    return make_kernel("quadpoly_torus", Space("torus", dim))


def dirichlet(l=1, dim=1):
    return make_kernel("dirichlet", Space("torus", dim), l=l)


def fejer(l=1, dim=1):
    return make_kernel("fejer", Space("torus", dim), l=l)


def radial_gaussian(sigma=1.0, dim=1):
    return make_kernel("radial_gaussian", euclidean(dim), sigma=sigma)


def inverse_multiquadric(beta=1.0, c=1.0, dim=1):
    return make_kernel("inverse_multiquadric", euclidean(dim), beta=beta, c=c)


def radial_atoms(atoms, dim=1):
    return make_kernel("radial_atoms", euclidean(dim), atoms=atoms)


def taylor_exp(dim=1):
    return make_kernel("taylor_exp", euclidean(dim))


def taylor_binomial(beta=1.0, dim=1):
    return make_kernel("taylor_binomial", euclidean(dim), beta=beta)


def constant(c=1.0, space=None):
    return make_kernel("constant", space if space is not None else euclidean(1), c=c)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _axis_profile(k, d):
    """Per-axis profile psi_1 of a product family, on an array of lags."""
    return family_spec(k).profile(d, **dict(k.params))


def _check_points(k, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != k.space.dim:
        raise SpaceMismatchError(
            f"points of dimension {X.shape[1]} for kernel on dimension {k.space.dim}"
        )
    if family_spec(k).taylor is not None:
        r = taylor_coefficients(k).radius
        norms = np.linalg.norm(X, axis=1)
        if np.any(norms >= math.sqrt(r)):
            raise ValueError("point outside the kernel's domain ball")
    return X


def require_pair_array(entries):
    """Refuse a pairwise array beyond ``PAIR_ARRAY_LIMIT`` entries before it exists."""
    if entries > PAIR_ARRAY_LIMIT:
        raise ValueError(f"a pairwise array of {entries} entries exceeds the limit of "
                         f"{PAIR_ARRAY_LIMIT}; use fewer atoms")


def pair_lags(X, Y, torus=False, axis=slice(None)):
    """Lags |x - y| of every pair of rows on ``axis``, shape (n, m, d) on all
    axes or (n, m) on one; on the torus the points reduce mod 2 pi first and
    the lags fold to the circular distance in [0, pi]."""
    require_pair_array(X.shape[0] * Y.shape[0] * X.shape[1])
    X, Y = X[:, axis], Y[:, axis]
    if torus:
        X, Y = np.mod(X, TWO_PI), np.mod(Y, TWO_PI)
    D = np.abs(X[:, None] - Y[None, :])
    return np.minimum(D, TWO_PI - D) if torus else D


def cross_gram(k: KernelDescriptor, X, Y):
    """Matrix of kernel values between two point lists."""
    X = _check_points(k, X)
    Y = _check_points(k, Y)
    spec = family_spec(k)
    require_pair_array(X.shape[0] * Y.shape[0] * (1 if spec.dot is not None else X.shape[1]))
    if spec.dot is not None:
        return spec.dot(X @ Y.T, **dict(k.params))
    # profiles are even, so lags enter through |x - y|, exactly symmetric in
    # (x, y); one (n, m) lag matrix per axis, never the (n, m, d) stack
    lags = (pair_lags(X, Y, k.space.is_torus, a) for a in range(k.space.dim))
    if spec.profile is not None:
        out = np.ones((X.shape[0], Y.shape[0]))
        for D in lags:
            out *= _axis_profile(k, D)
        return out
    return spec.radial(sum(D * D for D in lags), **dict(k.params))


def eval_kernel(k: KernelDescriptor, x, y):
    return float(cross_gram(k, [np.atleast_1d(x)], [np.atleast_1d(y)])[0, 0])


def gram(k: KernelDescriptor, points):
    """Gram matrix on a point list.  Symmetric by construction; positive
    semidefinite up to round-off (min eigenvalue >= -1e-10 * trace)."""
    G = cross_gram(k, points, points)
    return 0.5 * (G + G.T)


def sup_kxx(k: KernelDescriptor):
    """sup_x k(x, x), the profile at zero lag, or None for dot-product
    families (unbounded on their open domain ball; bound them on the actual
    point set instead)."""
    spec = family_spec(k)
    if spec.profile is not None:
        return float(_axis_profile(k, np.zeros(1))[0]) ** k.space.dim
    if spec.radial is not None:
        return float(spec.radial(np.zeros(1), **dict(k.params))[0])
    return None


# ---------------------------------------------------------------------------
# spectral descriptors
# ---------------------------------------------------------------------------

def spectral(k: KernelDescriptor) -> SpectralMeasure:
    """Closed-form spectral object of an A1/A2/A3 (or constant) kernel.

    Raises for dot-product families, which carry no translation-invariant
    spectrum.
    """
    spec = family_spec(k)
    p = dict(k.params)
    if spec.lam is not None:
        lam = spec.lam(**p)

        def density(omega):
            omega = np.atleast_1d(np.asarray(omega, dtype=float))
            return float(np.prod(SQRT_2PI * lam(omega)))

        support = spec.support(**p) if spec.support else SpectralSupport("full_space")
        return SpectralMeasure(kind="euclidean_density", support=support,
                               density=density, lambda_axis=lam)
    if spec.coeff is not None:
        axis = spec.coeff(**p)

        def coeff(n):
            # a frequency vector, or one frequency for the per-axis coefficient
            return float(np.prod(axis(np.asarray(n, dtype=int))))

        support = spec.support(**p) if spec.support else SpectralSupport("all_integers")
        return SpectralMeasure(kind="torus_coefficients", support=support, coeff=coeff)
    if spec.mixing is not None:
        return spec.mixing(**p)
    raise UnsupportedKernelOperation(
        f"{k.family} has no translation-invariant spectrum"
    )


def mixing_components(k: KernelDescriptor, n_nodes=24):
    """Gaussian-rate components (t_i, m_i) of a radial kernel.

    Exact for atomic mixings; a mixing density is discretized by the
    family's quadrature rule of ``n_nodes`` points (exactness flag returned
    alongside).
    """
    spec = family_spec(k)
    if spec.mixing is None:
        raise UnsupportedKernelOperation(f"{k.family} is not a radial mixture")
    if spec.quadrature is None:
        return spectral(k).mixing_atoms, True
    return spec.quadrature(n_nodes, **dict(k.params)), False


# per-axis transforms with certified error, consumed by the energy code

def axis_spectral_transform(k, deltas):
    """c(d) = per-axis inverse transform of the spectral object at lags d.

    For A1 kernels this is the cosine transform of the axis spectral
    density; for A2 kernels the cosine series of the axis coefficients.
    Returns ``(values, error_bounds)``.
    """
    deltas = np.asarray(deltas, dtype=float)
    spec = family_spec(k)
    p = dict(k.params)
    if spec.lam is not None:
        return numerics.cosine_transform_even(spec.lam(**p), deltas, spec.tail(**p))
    if spec.coeff is not None:
        return numerics.cosine_series(spec.coeff(**p), deltas, spec.tail(**p))
    raise UnsupportedKernelOperation(f"no axis transform for {k.family}")


def gaussian_rate_axis_transform(rates, deltas):
    """Axis cosine transforms of Gaussian components exp(-t |x-y|^2).

    The transform of rate t at lag d is the standard normal density's at
    d sqrt(2t), so one quadrature over all scaled lags serves every rate.
    Returns ``(values, error_bounds)`` of shape ``(len(rates), len(deltas))``.
    """
    rates = np.asarray(rates, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    vals = np.ones((rates.size, deltas.size))
    errs = np.zeros((rates.size, deltas.size))
    pos = rates > 0.0
    if pos.any():
        scaled = np.outer(np.sqrt(2.0 * rates[pos]), deltas)
        v, e = numerics.cosine_transform_even(
            lambda w: np.exp(-0.5 * w * w) / SQRT_2PI, scaled.ravel(),
            numerics.GaussianTail(1.0))
        vals[pos], errs[pos] = v.reshape(scaled.shape), e.reshape(scaled.shape)
    return vals, errs


# ---------------------------------------------------------------------------
# dot-product (Taylor) kernels
# ---------------------------------------------------------------------------

def taylor_coefficients(k: KernelDescriptor) -> TaylorCoefficients:
    taylor = family_spec(k).taylor
    if taylor is None:
        raise UnsupportedKernelOperation(f"{k.family} is not a dot-product family")
    return taylor(**dict(k.params))


def _multi_indices(total, dim):
    if dim == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _multi_indices(total - head, dim - 1):
            yield (head,) + rest


def taylor_terms(k: KernelDescriptor, degree):
    """Pairs (alpha, a_n * n! / alpha!) over multi-indices alpha of total
    degree n <= ``degree``: the weights of the monomials x^alpha in the
    kernel's series truncated at ``degree``."""
    coeffs = taylor_coefficients(k)
    for n in range(degree + 1):
        a_n = coeffs.a(n)
        fact_n = math.factorial(n)
        for alpha in _multi_indices(n, k.space.dim):
            c_alpha = fact_n
            for a_j in alpha:
                c_alpha //= math.factorial(a_j)
            yield alpha, a_n * c_alpha


def taylor_features(k: KernelDescriptor, x, degree):
    """Explicit feature map of a dot-product kernel truncated at ``degree``.

    Returns a list of (multi-index, value) pairs with value
    sqrt(a_n * c_alpha) * x^alpha; inner products of two such feature lists
    reproduce the truncated kernel series exactly.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    x = _check_points(k, [np.atleast_1d(x)])[0]
    feats = []
    for alpha, weight in taylor_terms(k, degree):
        mono = 1.0
        for xj, aj in zip(x, alpha):
            mono *= xj ** aj
        feats.append((alpha, math.sqrt(weight) * mono))
    return feats


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def kernel_to_json(k: KernelDescriptor):
    # tuple-valued parameters (rate atoms) become nested lists
    params = {name: [list(a) for a in value] if isinstance(value, tuple) else value
              for name, value in k.params}
    return {"family": k.family, "space": _space_to_json(k.space), "params": params}


def kernel_from_json(doc):
    _require_fields(doc, {"family", "space", "params"}, "kernel", {"family", "space"},
                    KernelConfigError)
    space = _space_from_json(doc["space"], KernelConfigError)
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise KernelConfigError("kernel params must be an object")
    return make_kernel(doc["family"], space, **params)
