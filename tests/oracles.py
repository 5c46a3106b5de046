"""Independent brute-force oracles.

Everything here is deliberately primitive: plain loops, cmath/math calls,
library quadrature and power iteration.  None of it imports the package
under test, so these values can be frozen as fixtures and the package
checked against them.
"""

import cmath
import math

import mpmath as mp
import numpy as np
from scipy import integrate


def complex_sum_ft(atoms, omega):
    """Fourier transform of a discrete measure by direct complex summation."""
    total = 0.0 + 0.0j
    for point, weight in atoms:
        phase = sum(w * x for w, x in zip(omega, point))
        total += weight * cmath.exp(-1j * phase)
    return total


def torus_coeff(atoms, n):
    d = len(n)
    return complex_sum_ft(atoms, n) / (2.0 * math.pi) ** d


def double_sum_energy(atoms, kernel):
    """Energy by a literal double loop over atom pairs."""
    total = 0.0
    for x, wx in atoms:
        for y, wy in atoms:
            total += wx * wy * kernel(x, y)
    return total


def double_sum_inner(atoms_a, atoms_b, kernel):
    total = 0.0
    for x, wx in atoms_a:
        for y, wy in atoms_b:
            total += wx * wy * kernel(x, y)
    return total


def weighted_eval(atoms, kernel, x):
    return sum(w * kernel(x, y) for y, w in atoms)


# closed-form kernel profiles, typed from their definitions

def gauss_kernel(sigma):
    return lambda x, y: math.exp(-sum((a - b) ** 2 for a, b in zip(x, y)) / (2 * sigma ** 2))


def poisson_profile(sigma, t):
    return (1 - sigma ** 2) / (sigma ** 2 - 2 * sigma * math.cos(t) + 1)


def poisson_kernel(sigma):
    return lambda x, y: math.prod(
        poisson_profile(sigma, (a - b) % (2 * math.pi)) for a, b in zip(x, y))


def dirichlet_profile(l, t):
    return 1.0 + 2.0 * sum(math.cos(n * t) for n in range(1, l + 1))


def dirichlet_kernel(l):
    return lambda x, y: math.prod(
        dirichlet_profile(l, (a - b) % (2 * math.pi)) for a, b in zip(x, y))


def fejer_profile(l, t):
    return 1.0 + 2.0 * sum((1 - n / (l + 1)) * math.cos(n * t) for n in range(1, l + 1))


def fejer_kernel(l):
    return lambda x, y: math.prod(
        fejer_profile(l, (a - b) % (2 * math.pi)) for a, b in zip(x, y))


def band_coefficient(family, l, n):
    """Fourier coefficient c_n of the dirichlet or fejer kernel of degree l,
    as an exact mpf."""
    n = abs(n)
    if n > l:
        return mp.mpf(0)
    return mp.mpf(1) if family == "dirichlet" else mp.mpf(l + 1 - n) / (l + 1)


def band_profile_mp(family, l, t, dps=40):
    """The band profile c_0 + 2 sum_{n=1..l} c_n cos(n t) at the float lag t,
    to ``dps`` digits, summed term by term from the definition."""
    with mp.workdps(dps + 10):
        # cos((n + 1) t) = 2 cos t cos(n t) - cos((n - 1) t); ten guard
        # digits cover its growth over l <= 256 steps
        c1 = mp.cos(mp.mpf(t))
        prev, cur, total = mp.mpf(1), c1, band_coefficient(family, l, 0)
        for n in range(1, l + 1):
            total += 2 * band_coefficient(family, l, n) * cur
            prev, cur = cur, 2 * c1 * cur - prev
        return +total


def band_series_energy(family, l, atoms, dps=50):
    """sum_{|n| <= l} c_n |sum_j w_j exp(-i n x_j)|^2: the energy of
    one-dimensional atoms (x, w) under the dirichlet or fejer kernel, at the
    float atoms exactly, to ``dps`` digits."""
    with mp.workdps(dps):
        total = mp.mpf(0)
        for n in range(-l, l + 1):
            s = mp.fsum(mp.mpf(w) * mp.expj(-n * mp.mpf(x)) for x, w in atoms)
            total += band_coefficient(family, l, n) * abs(s) ** 2
        return total


def poisson_energy_series(sigma):
    """Geometric series value of the two-antipodal-atoms energy."""
    return 8.0 * sigma / (1.0 - sigma ** 2)


# sinc-squared spectrum by oscillatory quadrature (no sine-integral identity,
# so this stays independent of the package's derivation)

def _cos_over_x2_tail(eta):
    """int_1^inf cos(eta x)/x^2 dx via QUADPACK's Fourier integrator."""
    if eta == 0.0:
        val, _ = integrate.quad(lambda x: 1.0 / x ** 2, 1.0, np.inf,
                                epsabs=1e-13, epsrel=1e-13)
        return val
    val, _ = integrate.quad(lambda x: 1.0 / x ** 2, 1.0, np.inf,
                            weight="cos", wvar=eta, epsabs=1e-13,
                            limlst=200, limit=200)
    return val


def sincsq_transform(eta):
    """int_R sin^2 x / x^2 cos(eta x) dx, split into a smooth core and
    oscillatory tails handled by QUADPACK."""
    core, _ = integrate.quad(
        lambda x: (np.sinc(x / np.pi) ** 2) * math.cos(eta * x), 0.0, 1.0,
        epsabs=1e-14, epsrel=1e-13)
    val = (core + 0.5 * _cos_over_x2_tail(eta)
           - 0.25 * (_cos_over_x2_tail(2.0 + eta) + _cos_over_x2_tail(abs(2.0 - eta))))
    return 2.0 * val


def sincsq_half_width(tol=1e-10):
    lo, hi = 0.5, 8.0
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if abs(sincsq_transform(mid)) > tol:
            lo = mid
        else:
            hi = mid
    x1, x2 = lo - 0.2, lo - 0.1
    f1, f2 = sincsq_transform(x1), sincsq_transform(x2)
    return x1 - f1 * (x2 - x1) / (f2 - f1)


def modsincsq_ft(alpha, omega0, omega):
    """Transform of 2 alpha cos(omega0 x) sin^2 x / x^2 at omega, by
    quadrature only."""
    return alpha * (sincsq_transform(abs(omega - omega0))
                    + sincsq_transform(abs(omega + omega0)))


def band_energy(lam, alpha, omega0, w, peak, edge=None):
    """2 int_0^edge |mu-hat|^2 lam, to 30 digits: the energy of the density
    2 alpha cos(omega0 x) sin^2 x / x^2 under a kernel with spectral density
    ``lam`` (an mpf function) supported on [-edge, edge], or the whole line
    when ``edge`` is None.  mu-hat = alpha (T(x - omega0) + T(x + omega0)),
    T the triangle of height ``peak`` on [-w, w]; (w, peak) are taken as
    exact.  Quadrature runs piecewise between the kinks of mu-hat, each
    piece cut in four, so every subinterval holds one smooth piece."""
    with mp.workdps(30):
        alpha, omega0, w, peak = (mp.mpf(v) for v in (alpha, omega0, w, peak))
        top = omega0 + w if edge is None else min(omega0 + w, mp.mpf(edge))

        def tri(t):
            return peak * max(0, 1 - abs(t) / w)

        def integrand(x):
            f = alpha * (tri(x - omega0) + tri(x + omega0))
            return f * f * lam(x)

        kinks = sorted(x for x in {mp.mpf(0), omega0 - w, omega0, abs(omega0 - w), top}
                       if 0 <= x <= top)
        pts = [a + (b - a) * i / 4 for a, b in zip(kinks, kinks[1:]) for i in range(4)] + [top]
        return 2 * mp.quad(integrand, pts)


def cosine_transform_exact(rule, s, d, dps=30):
    """int_R cos(w d) q(w) dw to ``dps`` digits, at the float lag ``d``
    taken exactly, for the four tail-rule densities at scale ``s``:
    N(0, s^2), (s/pi)/(s^2 + w^2), (1 - cos w)/(pi w^2) (no scale) and 1/2
    on [-s, s]."""
    with mp.workdps(dps):
        s, d = mp.mpf(s), mp.mpf(d)
        if rule == "gaussian":
            return mp.exp(-(s * d) ** 2 / 2)
        if rule == "cauchy":
            return mp.exp(-s * d)
        if rule == "triangle":
            return max(mp.mpf(0), 1 - d)
        return s if d == 0 else mp.sin(s * d) / d


def _gauss_legendre_16(dps):
    """The 16-point Gauss-Legendre rule on [-1, 1] to ``dps`` digits: the
    roots of P_16 by Newton's method from numpy's nodes, and weights
    2 / ((1 - x^2) P_16'(x)^2)."""
    with mp.workdps(dps):
        nodes = [mp.findroot(lambda t: mp.legendre(16, t), mp.mpf(x))
                 for x in np.polynomial.legendre.leggauss(16)[0]]
        return nodes, [2 / ((1 - x * x) * mp.diff(lambda t: mp.legendre(16, t), x) ** 2)
                       for x in nodes]


def gl_panel_error(density, edges, d, dps=30):
    """|2 (16-point Gauss-Legendre on each panel of ``edges``) - 2 int cos(w d)
    density(w)| over [edges[0], edges[-1]], for an mpf ``density``: the
    rule's exact nodes and weights and the integral to ``dps`` digits, so
    the quadrature error alone remains, up to about 10^-dps."""
    with mp.workdps(dps):
        nodes, weights = _gauss_legendre_16(dps)
        d = mp.mpf(d)
        rule = 0
        for a, b in zip(edges, edges[1:]):
            mid, half = (mp.mpf(a) + mp.mpf(b)) / 2, (mp.mpf(b) - mp.mpf(a)) / 2
            rule += half * mp.fsum(w * mp.cos((mid + half * x) * d) * density(mid + half * x)
                                   for x, w in zip(nodes, weights))
        pts = mp.linspace(mp.mpf(edges[0]), mp.mpf(edges[-1]), 17)
        return abs(2 * rule - 2 * mp.quad(lambda w: mp.cos(w * d) * density(w), pts))


def imq_energy(atoms, beta, c, dps=40):
    """sum_ij w_i w_j (c^2 + |x_i - x_j|^2)^(-beta) to ``dps`` digits, the
    float inputs taken exactly."""
    with mp.workdps(dps):
        beta, c2 = mp.mpf(beta), mp.mpf(c) ** 2
        return mp.fsum(mp.mpf(wi) * mp.mpf(wj)
                       * (c2 + mp.fsum((mp.mpf(a) - mp.mpf(b)) ** 2 for a, b in zip(xi, xj)))
                       ** -beta for xi, wi in atoms for xj, wj in atoms)


def _laguerre_gauss(n, alpha, start):
    """The n-point Gauss rule of u^alpha e^(-u) at the working precision:
    the roots of L_n^(alpha) by Newton's method from the float nodes
    ``start`` (L_n' = -L_(n-1)^(alpha+1)), and weights
    Gamma(n + alpha + 1) / (n! x L_n'(x)^2)."""
    nodes, weights = [], []
    for x in map(mp.mpf, start):
        for _ in range(6):
            x += mp.laguerre(n, alpha, x) / mp.laguerre(n - 1, alpha + 1, x)
        nodes.append(x)
        weights.append(mp.gamma(n + alpha + 1)
                       / (mp.factorial(n) * x * mp.laguerre(n - 1, alpha + 1, x) ** 2))
    return nodes, weights


def imq_rate_rules(beta, c, n, dps=60):
    """The inverse multiquadric's lower and upper rate rules to ``dps``
    digits, as (rates, masses) pairs: the n-point Gauss rule of
    t^(beta-1) e^(-c^2 t) / Gamma(beta) times c^(-2 beta) in the rate t, and
    the (n+1)-point Gauss-Radau rule with a node at 0.  The Radau weight at 0
    is Gamma(beta) less the other weights, which cancels (by about
    log10 C(n + beta, n) digits): hence the default of 60 digits."""
    from scipy.special import roots_genlaguerre

    with mp.workdps(dps):
        b, c2 = mp.mpf(beta), mp.mpf(c) ** 2
        scale = c2 ** -b / mp.gamma(b)
        u, lam = _laguerre_gauss(n, b - 1, roots_genlaguerre(n, beta - 1.0)[0])
        v, lam_v = _laguerre_gauss(n, b, roots_genlaguerre(n, beta)[0])
        inner = [w / x for x, w in zip(v, lam_v)]
        lower = ([x / c2 for x in u], [w * scale for w in lam])
        upper = ([mp.mpf(0)] + [x / c2 for x in v],
                 [(mp.gamma(b) - mp.fsum(inner)) * scale] + [w * scale for w in inner])
        return lower, upper


def rule_deviation(rates, masses, exact):
    """sum_r |m_r - M_r| + M_r |t_r - T_r| / (e T_r) over sum_r M_r: how far
    the float rule (``rates``, ``masses``) moves any pair value
    sum_r m_r e^(-t_r s), s >= 0, from the exact rule's, per unit mass."""
    T, M = exact
    dev = mp.fsum(abs(mp.mpf(m) - Mr) + (Mr * abs(mp.mpf(t) - Tr) / (mp.e * Tr) if Tr else 0)
                  for t, m, Tr, Mr in zip(rates, masses, T, M))
    return dev / mp.fsum(M)


def modsincsq_l1_core(alpha, omega0, X=60):
    """2 int_0^X |2 alpha cos(omega0 x) sin^2 x / x^2| dx to 20 digits,
    piecewise between the zeros of cos(omega0 x) and of sin x."""
    with mp.workdps(20):
        alpha, omega0, X = mp.mpf(alpha), mp.mpf(omega0), mp.mpf(X)
        cuts = {mp.mpf(0), X}
        cuts |= {(n + mp.mpf(0.5)) * mp.pi / omega0 for n in range(int(X * omega0 / mp.pi) + 1)}
        cuts |= {n * mp.pi for n in range(1, int(X / mp.pi) + 1)}
        pts = sorted(c for c in cuts if c <= X)
        return 2 * mp.quad(lambda x: abs(2 * alpha * mp.cos(omega0 * x)) * mp.sinc(x) ** 2, pts)


def power_iteration_min_eig(G, iters=400, seed=3):
    """Minimum eigenvalue by inverse power iteration (independent of eigh).

    A tiny ridge keeps the solve defined when G is numerically singular; the
    returned value is the Rayleigh quotient of the converged direction.
    """
    G = np.asarray(G, dtype=float)
    n = G.shape[0]
    ridge = 1e-14 * float(np.trace(G)) / n
    B = G + ridge * np.eye(n)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n)
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = np.linalg.solve(B, v)
        nw = np.linalg.norm(w)
        if not np.isfinite(nw) or nw == 0:
            break
        v = w / nw
    return float(v @ G @ v)


def bl_two_diracs(t):
    """Bounded-Lipschitz distance of two unit point masses at distance t:
    the optimum of the one-dimensional program by hand."""
    return 2.0 * t / (t + 2.0)


def gaussian_mmd_two_diracs(t):
    return math.sqrt(2.0 - 2.0 * math.exp(-t * t / 2.0))


def taylor_exp_truncated(t, degree):
    return sum(t ** n / math.factorial(n) for n in range(degree + 1))


def taylor_binom_truncated(t, beta, degree):
    a, total = 1.0, 0.0
    for n in range(degree + 1):
        total += a * t ** n
        a *= (n + beta) / (n + 1)
    return total


def taylor_exp_feature_energy(atoms, degree):
    """Feature-space energy of a 1-d signed measure under the exponential
    dot-product kernel, truncated at ``degree``."""
    total = 0.0
    for n in range(degree + 1):
        s = sum(w * x[0] ** n for x, w in atoms)
        total += s * s / math.factorial(n)
    return total


def erf_gauss_integral(a):
    """int_{-a}^{a} exp(-x^2/2) dx via the error function."""
    return math.sqrt(2.0 * math.pi) * math.erf(a / math.sqrt(2.0))


def greedy_merge(atoms, dim, torus=False, tol=1e-12):
    """The pairwise merge loop: each atom, in input order, joins the first
    kept atom within ``tol`` in max-norm, else starts a new one; zero sums
    are dropped and the rest sorted lexicographically.  Quadratic, and on
    chains of close coordinates its result depends on the input order; on
    inputs without such chains it is the canonical form."""
    pts, wts = [], []
    for point, weight in atoms:
        p = np.atleast_1d(np.asarray(point, dtype=float))
        assert p.shape == (dim,)
        if torus:
            p = np.mod(p, 2.0 * math.pi)
        for i, q in enumerate(pts):
            if np.max(np.abs(p - q)) < tol:
                wts[i] += float(weight)
                break
        else:
            pts.append(p)
            wts.append(float(weight))
    keep = [i for i, w in enumerate(wts) if w != 0.0]
    if not keep:
        return np.zeros((0, dim)), np.zeros(0)
    points = np.array([pts[i] for i in keep])
    weights = np.array([wts[i] for i in keep])
    order = np.lexsort(points.T[::-1])
    return points[order], weights[order]
