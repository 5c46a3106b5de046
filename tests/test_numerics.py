import math

import mpmath as mp
import numpy as np
import pytest

from kernelcert.numerics import (
    BoxTail,
    CauchyTail,
    GaussianTail,
    LPInfeasibleError,
    LPUnboundedError,
    QuadratureConfig,
    QuadratureWarning,
    TriangleWaveTail,
    _gl_grid,
    _node_rounding,
    _panel_layout,
    _rectangle,
    cosine_transform_even,
    gl_remainder,
    integrate_1d,
    min_eig_sym,
    solve_lp,
)

import oracles


class TestIntegrate1d:
    def test_constant(self):
        val, err = integrate_1d(lambda x: 1.0, 0.0, 1.0)
        assert abs(val - 1.0) <= 1e-14

    def test_sin(self, frozen):
        val, err = integrate_1d(math.sin, 0.0, math.pi)
        assert abs(val - frozen["quad_sin_0_pi"]) <= 1e-10

    def test_gaussian_vs_erf(self, frozen):
        val, err = integrate_1d(lambda x: math.exp(-x * x / 2.0), -5.0, 5.0)
        assert abs(val - frozen["quad_gauss_pm5"]) <= 1e-10

    @pytest.mark.parametrize("deg", [0, 3, 5, 8])
    def test_polynomial_exactness(self, deg):
        val, _ = integrate_1d(lambda x: x ** deg, 0.0, 1.0)
        assert abs(val - 1.0 / (deg + 1)) <= 1e-13

    def test_budget_exhausted_warns(self):
        cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=2)
        with pytest.warns(QuadratureWarning):
            integrate_1d(lambda x: math.sin(50.0 * x) ** 2 / (1e-3 + abs(x - 0.3)), 0.0, 1.0, cfg)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda x: x, 1.0, 0.0)


class TestMinEig:
    def test_identity(self):
        lam, v = min_eig_sym(np.eye(3))
        assert abs(lam - 1.0) <= 1e-14

    def test_all_ones(self):
        lam, v = min_eig_sym(np.ones((3, 3)))
        assert abs(lam) <= 1e-12
        assert abs(v.sum()) <= 1e-10  # zero-sum null vector

    def test_unit_norm_and_rayleigh(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(6, 6))
        G = A @ A.T
        lam, v = min_eig_sym(G)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert abs(v @ G @ v - lam) <= 1e-10 * max(1.0, abs(lam))

    def test_against_power_iteration(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(5, 5))
        G = A @ A.T + 0.1 * np.eye(5)
        lam, _ = min_eig_sym(G)
        assert abs(lam - oracles.power_iteration_min_eig(G)) <= 1e-8

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            min_eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSolveLP:
    def test_simple_max(self):
        # maximize x subject to x <= 1
        fun, x = solve_lp(np.array([-1.0]), A_ub=[[1.0]], b_ub=[1.0])
        assert abs(-fun - 1.0) <= 1e-9

    def test_degenerate_zero(self):
        fun, x = solve_lp(np.array([0.0, 0.0]), A_ub=[[1.0, 1.0]], b_ub=[1.0])
        assert abs(fun) <= 1e-12

    def test_infeasible(self):
        with pytest.raises(LPInfeasibleError):
            solve_lp(np.array([1.0]), A_ub=[[1.0], [-1.0]], b_ub=[0.0, -1.0])

    def test_unbounded(self):
        with pytest.raises(LPUnboundedError):
            solve_lp(np.array([-1.0]))


class TestCosineTransform:
    """The engine must reproduce the known transforms of each density family
    within its own certified error bounds."""

    deltas = np.array([0.0, 1e-4, 1e-3, 0.05, 0.4, 1.0, 2.7, 6.0, 30.0])

    def check(self, density, tail, truth):
        vals, errs = cosine_transform_even(density, self.deltas, tail)
        expected = truth(self.deltas)
        assert np.all(np.abs(vals - expected) <= errs + 1e-13)
        assert np.max(np.abs(vals - expected)) <= 1e-9

    def test_gaussian(self):
        s = 1.0
        self.check(lambda w: np.exp(-w * w / (2 * s * s)) / (s * math.sqrt(2 * math.pi)),
                   GaussianTail(s),
                   lambda d: np.exp(-s * s * d * d / 2.0))

    def test_cauchy(self):
        s = 1.3
        self.check(lambda w: (s / np.pi) / (s * s + w * w),
                   CauchyTail(s),
                   lambda d: np.exp(-s * np.abs(d)))

    def test_triangle_wave(self):
        # spectrum of the unit hat profile
        self.check(lambda w: (0.5 / np.pi) * np.sinc(w / (2 * np.pi)) ** 2,
                   TriangleWaveTail(),
                   lambda d: np.maximum(0.0, 1.0 - np.abs(d)))

    def test_box(self):
        s = 2.0
        self.check(lambda w: np.where(np.abs(w) <= s, 0.5, 0.0),
                   BoxTail(s, 0.5, 0.5),
                   lambda d: np.where(d == 0, s, np.sin(s * np.where(d == 0, 1.0, d))
                                      / np.where(d == 0, 1.0, d)))


def _rules(s):
    """(float density, mpf density, tail rule) of each rule at scale s; the
    triangle wave has no scale."""
    root = math.sqrt(2 * math.pi)
    return {
        "gaussian": (lambda w: np.exp(-w * w / (2 * s * s)) / (s * root),
                     lambda w: mp.exp(-w * w / (2 * s * s)) / (s * mp.sqrt(2 * mp.pi)),
                     GaussianTail(s)),
        "cauchy": (lambda w: (s / np.pi) / (s * s + w * w),
                   lambda w: s / (mp.pi * (s * s + w * w)),
                   CauchyTail(s)),
        "triangle": (lambda w: (0.5 / np.pi) * np.sinc(w / (2 * np.pi)) ** 2,
                     lambda w: (1 - mp.cos(w)) / (mp.pi * w * w) if w else 1 / (2 * mp.pi),
                     TriangleWaveTail()),
        "box": (lambda w: np.where(np.abs(w) <= s, 0.5, 0.0),
                lambda w: mp.mpf(0.5),
                BoxTail(s, 0.5, 0.5)),
    }


class TestCosineTransformOracle:
    """Every bound holds against 30-digit values: random scales in
    [0.1, 10] and lags from 1e-8 to 1e3."""

    @pytest.mark.parametrize("rule", ["gaussian", "cauchy", "triangle", "box"])
    def test_bound_holds_at_random_scales_and_lags(self, rule):
        rng = np.random.default_rng(["gaussian", "cauchy", "triangle", "box"].index(rule))
        for _ in range(4):
            s = float(10 ** rng.uniform(-1, 1))
            lags = np.concatenate([[0.0], 10 ** rng.uniform(-8, 3, 40)])
            density, _, tail = _rules(s)[rule]
            vals, errs = cosine_transform_even(density, lags, tail)
            for v, e, d in zip(vals, errs, lags):
                assert abs(mp.mpf(v) - oracles.cosine_transform_exact(rule, s, d)) <= e, (s, d)

    @pytest.mark.parametrize("s", [9.0, 20.0])
    def test_round_off_floor_scales_with_the_mass(self, s):
        # c(0) = s: a floor of 1e-15 alone was breached at 24 of these lags
        # for s = 9, and at 155 for s = 20
        lags = np.linspace(0.0, 3.0, 3001)
        vals, errs = cosine_transform_even(_rules(s)["box"][0], lags, BoxTail(s, 0.5, 0.5))
        for v, e, d in zip(vals, errs, lags):
            assert abs(mp.mpf(v) - oracles.cosine_transform_exact("box", s, d)) <= e, d


    def test_remainder_enters_the_bound(self):
        # sixteen panels over the Cauchy bulk leave a quadrature error near
        # 1e-13, a hundred times the round-off floor: only the remainder,
        # 2.4e-7 here, covers it
        class CoarseCauchy(CauchyTail):
            min_panels = 16

        tail = CoarseCauchy(1.0)
        lags = np.array([0.05, 0.1])  # one lag bucket
        vals, errs = cosine_transform_even(_rules(1.0)["cauchy"][0], lags, tail)
        _, remainder = _panel_layout(tail.cutoff(lags[0]), lags[-1], tail)
        assert remainder > 1e-10
        for v, e, d in zip(vals, errs, lags):
            exact = oracles.cosine_transform_exact("cauchy", 1.0, d)
            assert 1e-14 < abs(mp.mpf(v) - exact) <= e and e >= remainder, d


class TestRoundOff:
    @pytest.mark.parametrize("edges", [
        [0.0, 0.7, 1.4, 2.1], [1e3 / 3, 2e3 / 3, 1e3], [0.1 * math.pi, 1e5 * math.e],
        np.linspace(80.0, 160.0, 7), np.geomspace(1e-9, 1e6, 6)])
    def test_node_rounding_bounds_the_float_nodes(self, edges):
        # x~ against the node (a + b)/2 + (b - a)/2 t of the exact rule on
        # each float panel [a, b], t the 40-digit Legendre root
        edges = np.asarray(edges, dtype=float)
        nodes, _ = _gl_grid(edges)
        slack = _node_rounding(edges, nodes)
        with mp.workdps(40):
            roots, _ = oracles._gauss_legendre_16(40)
            exact = [(mp.mpf(a) + mp.mpf(b)) / 2 + (mp.mpf(b) - mp.mpf(a)) / 2 * t
                     for a, b in zip(edges, edges[1:]) for t in roots]
            for x, x_exact, bound in zip(nodes, exact, slack):
                assert abs(mp.mpf(x) - x_exact) <= bound

    def test_argument_rounding_enters_the_bound(self):
        # at lag 1e3 on [0, 9] the arguments x d reach 9e3: the derived term
        # 2 d sum |f| (u |x| + node rounding) is 1e-12, far above the floor
        tail, d = BoxTail(9.0, 0.5, 0.5), 1e3
        density = _rules(9.0)["box"][0]
        _, errs = cosine_transform_even(density, np.array([d]), tail)
        edges, _ = _panel_layout(tail.cutoff(d), d, tail)
        nodes, wts = _gl_grid(edges)
        slack = 2.0 ** -53 * np.abs(nodes) + _node_rounding(edges, nodes)
        argument = 2.0 * d * float(np.abs(wts * density(nodes)) @ slack)
        assert argument > 1e-13 and errs[0] >= argument

    def test_triangle_tail_round_off(self):
        # 8 u (d + 1) with no constant floor: lag 0, lags next to 1, where
        # one sine integral's argument nears 0, and lags up to 2e4
        rng = np.random.default_rng(5)
        lags = np.concatenate([[0.0, 1e-9, 0.5, 1.0, 2.0], 1.0 + rng.uniform(-1e-6, 1e-6, 8),
                               10 ** rng.uniform(-8, 4.3, 60)])
        tail = TriangleWaveTail()
        cut = tail.cutoff(0.0)
        corr, bound = tail.correction(cut, lags)
        with mp.workdps(40):
            A = mp.mpf(cut)

            def c(eta):
                eta = abs(eta)
                return 1 / A if eta == 0 else mp.cos(eta * A) / A - eta * (mp.pi / 2 - mp.si(eta * A))

            for v, e, d in zip(corr, bound, lags):
                d = mp.mpf(d)
                exact = (2 / mp.pi) * (c(d) - c(d + 1) / 2 - c(d - 1) / 2)
                assert abs(mp.mpf(v) - exact) <= e, d


class TestGaussLegendreRemainder:
    """The Bernstein-ellipse remainder of the 16-point rule."""

    def test_one_panel_matches_the_theorem(self):
        # constant density 1/2, so M = 1/2 on every ellipse and cosh(0) = 1:
        # 2 h (64/15) M rho^-30 / (rho^2 - 1) is least at the largest rho, 32
        rem = gl_remainder(BoxTail(2.0, 0.5, 0.5), np.array([0.0, 2.0]), 0.0)
        assert rem == pytest.approx((64.0 / 15.0) * 2.0 ** -150 / 1023.0, rel=1e-12)

    @pytest.mark.parametrize("rule,edges", [
        ("gaussian", [0.0, 8.0]), ("gaussian", [0.0, 4.0, 8.0]),
        ("cauchy", [0.0, 4.0]), ("cauchy", [0.0, 2.0, 4.0]),
        ("triangle", [0.0, 20.0]), ("triangle", [0.0, 10.0, 20.0]), ("triangle", [10.0, 30.0]),
        ("box", [0.0, 9.0]), ("box", [0.0, 4.5, 9.0]),
        ("sloped_box", [0.0, 9.0]), ("sloped_box", [0.0, 4.5, 9.0])])
    @pytest.mark.parametrize("d", [0.0, 1.0, 3.0])
    def test_remainder_bounds_the_true_error(self, rule, edges, d):
        if rule == "sloped_box":
            # affine, 0 at 0 and 0.3 at the edge 9: all of |q| on the
            # ellipse comes from the slope
            density, tail = (lambda w: mp.mpf(0.3) * w / 9), BoxTail(9.0, 0.0, 0.3)
        else:
            _, density, tail = _rules(9.0 if rule == "box" else 1.0)[rule]
        edges = np.array(edges)
        # 1e-25 for the oracle's own 30-digit arithmetic
        assert oracles.gl_panel_error(density, edges, d) <= gl_remainder(tail, edges, d) + 1e-25

    def test_cauchy_ellipse_keeps_clear_of_the_poles(self):
        # one panel [0, 4] errs by about 3e-11; an ellipse that swallowed
        # the pole at i would bound it below 1e-20
        _, density, tail = _rules(1.0)["cauchy"]
        edges = np.array([0.0, 4.0])
        assert 1e-11 < oracles.gl_panel_error(density, edges, 0.0) <= gl_remainder(tail, edges, 0.0)

    def test_rectangle_extent(self):
        near, far = _rectangle(np.array([-1.0, 2.0, -5.0]), np.array([3.0, 4.0, -2.0]))
        assert near.tolist() == [0.0, 2.0, 2.0] and far.tolist() == [3.0, 4.0, 5.0]
