import math

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
    cosine_transform_even,
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
                   BoxTail(s),
                   lambda d: np.where(d == 0, s, np.sin(s * np.where(d == 0, 1.0, d))
                                      / np.where(d == 0, 1.0, d)))
