import json
import math
import time
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import kernelcert as kc
from kernelcert import embedding
from kernelcert.embedding import UnsupportedCombinationError, _band_ellipse
from kernelcert.measures import SpaceMismatchError
from kernelcert.numerics import BoxTail, gl_remainder

from conftest import random_discrete, random_probability
from oracles import band_energy, gl_panel_error

PI = math.pi
E1 = kc.euclidean(1)
T1 = kc.torus(1)
W, PEAK = kc.sinc_sq_spectrum()


def diracs(space, *pairs):
    return kc.construct(space, list(pairs))


class TestInner:
    def test_reproducing_property(self):
        k = kc.gaussian_ti(1.0)
        assert kc.inner(k, kc.dirac(E1, 0.4), kc.dirac(E1, 1.1)) == \
            kc.eval_kernel(k, 0.4, 1.1)

    def test_zero_measure(self):
        k = kc.gaussian_ti(1.0)
        zero = kc.construct(E1, [])
        assert kc.inner(k, zero, kc.dirac(E1, 0.0)) == 0.0

    def test_frozen_gaussian(self, frozen):
        k = kc.gaussian_ti(1.0)
        mu = diracs(E1, (0.0, 1.0), (1.0, -1.0))
        nu = kc.dirac(E1, 0.0)
        assert abs(kc.inner(k, mu, nu) - frozen["inner_gauss_d01_d0"]) <= 1e-12

    def test_symmetric(self):
        k = kc.laplacian_ti(0.7)
        rng = np.random.default_rng(1)
        mu = random_discrete(E1, 5, rng)
        nu = random_discrete(E1, 4, rng)
        assert kc.inner(k, mu, nu) == pytest.approx(kc.inner(k, nu, mu), rel=1e-14)

    def test_rejects_density(self):
        with pytest.raises(UnsupportedCombinationError):
            kc.inner(kc.gaussian_ti(1.0), kc.ModulatedSincSq(1.0, 4.0),
                     kc.dirac(E1, 0.0))


class TestEnergySpatial:
    def test_constant_zero_mass(self):
        mu = diracs(E1, (0.0, 1.0), (1.0, -1.0))
        assert kc.energy_spatial(kc.constant(1.0), mu).value == 0.0

    def test_poisson_closed_form(self, frozen):
        mu = diracs(T1, (0.0, 1.0), (PI, -1.0))
        res = kc.energy_spatial(kc.poisson_torus(0.5), mu)
        assert abs(res.value - frozen["poisson_energy_two_antipodal"]["spatial"]) <= 1e-12
        assert abs(res.value - 16.0 / 3.0) <= 1e-12

    def test_poisson_profile_near_one(self):
        # 1 - 2 sigma cos d + sigma^2 cancels as sigma -> 1; the exact value
        # is the 40-digit profile sum
        mu = diracs(T1, (0.0, 1.0), (1.0, -0.5))
        res = kc.energy_spatial(kc.poisson_torus(0.99995), mu)
        assert abs(res.value - 49998.74989123566) <= res.error_bound

    def test_gaussian_expansion(self, frozen):
        mu = diracs(E1, (0.0, 1.0), (1.0, -1.0))
        res = kc.energy_spatial(kc.gaussian_ti(1.0), mu)
        assert abs(res.value - frozen["energy_gauss_d01"]) <= 1e-14
        assert res.method == "spatial_exact"
        assert res.error_bound <= 1e-12 * mu.total_variation ** 2 * 1.0

    def test_nonnegativity_random(self):
        rng = np.random.default_rng(9)
        for k in (kc.gaussian_ti(1.0, 2), kc.laplacian_ti(1.0, 2),
                  kc.poisson_torus(0.5), kc.radial_gaussian(2.0)):
            for _ in range(15):
                mu = random_discrete(k.space, int(rng.integers(1, 10)), rng)
                res = kc.energy_spatial(k, mu)
                sup = kc.sup_kxx(k)
                assert res.value >= -1e-10 * mu.total_variation ** 2 * sup


# (kernel maker, dimension); every family also runs at d = 4 and 8
PARSEVAL_CASES = [
    (lambda d: kc.gaussian_ti(1.0, d), 2),
    (lambda d: kc.laplacian_ti(1.0, d), 2),
    (lambda d: kc.b1_spline(d), 3),
    (lambda d: kc.sinc(1.0, d), 2),
    (lambda d: kc.sinc_sq(d), 2),
    (lambda d: kc.poisson_torus(0.5, d), 3),
    (lambda d: kc.quadpoly_torus(d), 2),
    (lambda d: kc.fejer(2, d), 2),
    (lambda d: kc.radial_gaussian(0.8, d), 3),
    (lambda d: kc.inverse_multiquadric(1.0, 2.0, d), 2),
    (lambda d: kc.radial_atoms([(0.4, 1.0), (1.5, 0.5)], d), 2),
]


class TestEnergySpectral:
    def test_poisson_matches_spatial_and_series(self, frozen):
        mu = diracs(T1, (0.0, 1.0), (PI, -1.0))
        res = kc.energy_spectral(kc.poisson_torus(0.5), mu)
        assert res.method == "spectral_series"
        assert abs(res.value - frozen["poisson_energy_two_antipodal"]["series"]) <= 1e-10
        assert abs(res.value - 16.0 / 3.0) <= 1e-10

    def test_dirichlet_grid_witness_zero(self, frozen):
        k = kc.dirichlet(2)
        w = kc.torus_zero_energy_witness(k, 8, n0=3)
        res = kc.energy_spectral(k, w.measure)
        assert abs(res.value) <= 1e-12
        assert abs(res.value - frozen["dirichlet2_grid_witness_energy"]) <= 1e-12

    def test_sinc_vs_disjoint_band(self):
        k = kc.sinc(1.0)
        hw, _ = kc.sinc_sq_spectrum()
        mu = kc.ModulatedSincSq(1.0, omega0=1.0 + hw + 1.0)
        res = kc.energy_spectral(k, mu)
        assert res.value == 0.0

    def test_gaussian_with_band_density(self):
        # overlapping supports: positive energy, still finite quadrature
        res = kc.energy_spectral(kc.gaussian_ti(1.0), kc.ModulatedSincSq(1.0, 3.0))
        assert res.value > 0

    def test_torus_cosine_exact(self):
        k = kc.poisson_torus(0.5)
        mu = kc.TorusCosine(2.0, 3)
        res = kc.energy_spectral(k, mu)
        expect = 2.0 * (2 * PI) ** 2 * 4.0 * 0.5 ** 3
        assert abs(res.value - expect) <= 1e-10

    def test_constant_kernel(self):
        mu = diracs(E1, (0.0, 0.7), (2.0, 0.5))
        res = kc.energy_spectral(kc.constant(2.0), mu)
        assert abs(res.value - 2.0 * 1.2 ** 2) <= 1e-14

    @pytest.mark.parametrize("mu,expect", [
        (diracs(T1, (0.0, 0.7), (2.0, 0.5)), 2.0 * 1.2 ** 2),
        (kc.TorusCosine(0.5, 2), 0.0),
        # mu-hat(0) = 2 alpha peak (1 - w0 / w), two triangles at +-w0
        (kc.ModulatedSincSq(-1.5, 1.25), 2.0 * (2 * -1.5 * PEAK * (1 - 1.25 / W)) ** 2),
    ], ids=["discrete", "torus_cosine", "modulated_sincsq"])
    def test_constant_kernel_on_each_measure_type(self, mu, expect):
        # c mu(X)^2 = c mu-hat(0)^2, on the measure's own space
        res = kc.energy_spectral(kc.constant(2.0, mu.space), mu)
        assert abs(res.value - expect) <= res.error_bound

    @pytest.mark.parametrize("k,mu", [
        (kc.constant(2.0, T1), kc.ModulatedSincSq(1.0, 1.0)),
        (kc.constant(2.0, kc.euclidean(3)), kc.TorusCosine(0.5, 2)),
        (kc.gaussian_ti(1.0, 2), kc.ModulatedSincSq(1.0, 1.0)),
        (kc.poisson_torus(0.5, 2), kc.TorusCosine(0.5, 2)),
    ], ids=["constant-torus-band", "constant-R3-torus_cosine", "a1-R2-band", "a2-T2-torus_cosine"])
    def test_density_on_another_space_refused(self, k, mu):
        with pytest.raises(SpaceMismatchError):
            kc.energy_spectral(k, mu)

    @pytest.mark.parametrize("k,mu", [
        (kc.radial_gaussian(1.0), kc.ModulatedSincSq(1.0, 1.0)),
        (kc.poisson_torus(0.5), kc.ModulatedSincSq(1.0, 1.0)),
        (kc.gaussian_ti(1.0), kc.TorusCosine(0.5, 2)),
    ], ids=["a3-band", "a2-band", "a1-torus_cosine"])
    def test_unsupported_pair_names_family_and_measure(self, k, mu):
        with pytest.raises(UnsupportedCombinationError, match=f"{k.family}.*{type(mu).__name__}"):
            kc.energy_spectral(k, mu)

    @pytest.mark.parametrize("make,dim", PARSEVAL_CASES + [
        pytest.param(make, d, id=f"{make(1).family}-{d}")
        for make, _ in PARSEVAL_CASES for d in (4, 8)
    ], ids=lambda v: getattr(v, "__name__", str(v)))
    def test_parseval_sample(self, make, dim):
        k = make(dim)
        rng = np.random.default_rng(dim * 101 + len(k.family))
        for _ in range(4):
            mu = random_discrete(k.space, int(rng.integers(2, 9)), rng)
            sp = kc.energy_spatial(k, mu)
            se = kc.energy_spectral(k, mu)
            assert abs(sp.value - se.value) <= sp.error_bound + se.error_bound

    def test_taylor_unsupported(self):
        with pytest.raises(UnsupportedCombinationError):
            kc.energy_spectral(kc.taylor_exp(), kc.dirac(E1, 0.0))

    @pytest.mark.parametrize("gap", [300.0, 3e3, 2e4])
    def test_far_atoms_stay_within_the_bound(self, gap):
        # near the panel limit the sine-integral tail of b1_spline loses
        # digits in proportion to the lag; the bound must follow
        mu = diracs(E1, ([0.0], 1.0), ([gap], -0.5), ([gap / 3 + 0.1], 0.25))
        k = kc.b1_spline()
        sp, se = kc.energy_spatial(k, mu), kc.energy_spectral(k, mu)
        assert abs(sp.value - se.value) <= sp.error_bound + se.error_bound

    @pytest.mark.parametrize("k,gap", [(kc.b1_spline(), 1e6), (kc.b1_spline(), 1e7),
                                       (kc.laplacian_ti(1.0), 1e7), (kc.sinc(1.0), 1e9)],
                             ids=["b1_spline-1e6", "b1_spline-1e7", "laplacian_ti-1e7", "sinc-1e9"])
    def test_panel_limit_refuses_before_allocating(self, k, gap):
        # one-period panels up to these lags would need 10^7 or more
        # panels, gigabytes of nodes
        mu = diracs(E1, ([0.0], 1.0), ([gap], -0.5))
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="panels"):
            kc.energy_spectral(k, mu)
        assert time.perf_counter() - t0 < 1.0


def _gauss_lam(sigma):
    s = mp.mpf(sigma)
    return lambda x: s / mp.sqrt(2 * mp.pi) * mp.exp(-s * s * x * x / 2)


def _cauchy_lam(sigma):
    s = mp.mpf(sigma)
    return lambda x: (s / mp.pi) / (s * s + x * x)


# kernel, spectral density per axis typed from its definition, box edge
BAND_KERNELS = {
    "sinc-1": (kc.sinc(1.0), lambda x: mp.mpf(0.5), 1.0),
    "sinc-2": (kc.sinc(2.0), lambda x: mp.mpf(0.5), 2.0),
    "sinc_sq": (kc.sinc_sq(), lambda x: PEAK / (2 * mp.pi) * (1 - abs(x) / mp.mpf(W)), W),
    "gaussian_ti-1": (kc.gaussian_ti(1.0), _gauss_lam(1.0), None),
    "gaussian_ti-0.3": (kc.gaussian_ti(0.3), _gauss_lam(0.3), None),
    "gaussian_ti-10": (kc.gaussian_ti(10.0), _gauss_lam(10.0), None),
    "laplacian_ti-1": (kc.laplacian_ti(1.0), _cauchy_lam(1.0), None),
    "laplacian_ti-0.05": (kc.laplacian_ti(0.05), _cauchy_lam(0.05), None),
    "b1_spline": (kc.b1_spline(), lambda x: mp.sinc(x / 2) ** 2 / (2 * mp.pi), None),
    # a box wider than the band: every energy is large, so the rounding of
    # the nodes near w0 is what the bound must cover
    "sinc-1e7": (kc.sinc(1e7), lambda x: mp.mpf(0.5), 1e7),
}


# the band energies' bounds before the certified remainder replaced the
# two-rule estimate, on TestBandEnergy's grid
BAND_CEILINGS = json.loads((Path(__file__).parent / "band_bound_ceilings.json").read_text())


class TestBandEnergy:
    """Energies of ModulatedSincSq against 30-digit values: every bound
    holds with no slack, near the band, beyond the density's bulk and at
    w0 up to 1e6, and nothing warns."""

    @pytest.mark.parametrize("omega0", [0.5, 1.0, 3.0, 4.0, 1e2, 1e4, 1e6])
    @pytest.mark.parametrize("name", [n for n in BAND_KERNELS if n != "sinc-1e7"])
    def test_within_the_bound(self, name, omega0):
        self._check(name, omega0, 1.0)

    @pytest.mark.parametrize("omega0", [3.0, 1e4, 987654.321])
    def test_node_rounding_within_the_bound(self, omega0):
        self._check("sinc-1e7", omega0, -2.5)

    @staticmethod
    def _check(name, omega0, alpha):
        k, lam, edge = BAND_KERNELS[name]
        exact = band_energy(lam, alpha, omega0, W, PEAK, edge)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = kc.energy_spectral(k, kc.ModulatedSincSq(alpha, omega0))
        assert type(res.value) is float and type(res.error_bound) is float
        assert abs(res.value - float(exact)) <= res.error_bound

    @pytest.mark.parametrize("row", BAND_CEILINGS, ids=[
        f"{r['kernel']}-{r['alpha']}-{r['omega0']}" for r in BAND_CEILINGS])
    def test_bound_at_most_the_recorded_ceiling(self, row):
        # the bounds of the two-rule error estimate the certified remainder
        # replaced: on the same panels the remainder may not loosen them
        k = BAND_KERNELS[row["kernel"]][0]
        res = kc.energy_spectral(k, kc.ModulatedSincSq(row["alpha"], row["omega0"]))
        assert res.error_bound <= row["bound"] * (1.0 + 1e-4)

    @pytest.mark.parametrize("name,omega0,edges", [
        ("gaussian_ti-10", 0.5, [0.0, 0.5]),
        ("gaussian_ti-10", 0.5, [0.5, W - 0.5]),
        ("gaussian_ti-10", 0.5, [0.5, 1.0, W - 0.5]),
        ("laplacian_ti-0.05", 0.5, [0.0, 0.5]),
        ("laplacian_ti-0.05", 0.5, [0.0, 0.25, 0.5]),
        ("laplacian_ti-0.05", 0.5, [0.5, W - 0.5]),
        ("laplacian_ti-0.05", 3.0, [3.0 - W, 3.0]),
    ])
    def test_remainder_bounds_the_error_on_coarse_panels(self, name, omega0, edges):
        # panels inside one linear piece of mu-hat (between its kinks
        # w0 - w, |w0 - w| and w0), far wider than the energy lays; the
        # band's value is twice the rule for mu-hat^2 lam, as is the oracle's
        k, lam, _ = BAND_KERNELS[name]
        mu = kc.ModulatedSincSq(-2.0, omega0)
        alpha, w0, w, peak = (mp.mpf(v) for v in (-2.0, omega0, W, PEAK))

        def tri(t):
            return peak * max(0, 1 - abs(t) / w)

        err = gl_panel_error(lambda x: (alpha * (tri(x - w0) + tri(x + w0))) ** 2 * lam(x),
                             np.array(edges), 0.0)
        tail = kc.kernels.family_spec(k).tail(**dict(k.params))
        rem = gl_remainder(_band_ellipse(tail, mu), np.array(edges), 0.0)
        assert 1e-20 < err <= rem

    @pytest.mark.parametrize("omega0,a,b", [
        (3.0, 3.0 - W, 3.0), (3.0, 3.0, 3.0 + W),
        (0.5, 0.0, 0.5), (0.5, 0.5, W - 0.5), (0.5, W - 0.5, 0.5 + W)])
    @pytest.mark.parametrize("rho", [1.1, 4.0, 32.0])
    def test_band_ellipse_holds_mu_hat_on_the_rectangle(self, omega0, a, b, rho):
        # mu-hat continued linearly from the piece [a, b] over the rectangle
        # gl_remainder lays about the panel's ellipse; the unit box density
        # leaves the mu-hat factor alone
        mu = kc.ModulatedSincSq(-2.0, omega0)
        fa, fb = kc.density_ft(mu, a), kc.density_ft(mu, b)
        h = 0.5 * (b - a)
        y, spill = h * 0.5 * (rho - 1 / rho), h * (0.5 * (rho + 1 / rho) - 1)
        bound = _band_ellipse(BoxTail(10.0, 1.0, 1.0), mu).ellipse_bound(a - spill, b + spill, y)
        for re in np.linspace(a - spill, b + spill, 9):
            for im in np.linspace(-y, y, 9):
                z = complex(re, im)
                assert abs(fa + (fb - fa) * (z - a) / (b - a)) ** 2 <= bound

    def test_remainder_enters_the_bound(self, monkeypatch):
        # one panel per linear piece of mu-hat (0, w0, |w0 - w|, hi) leaves
        # the Cauchy density, its poles at +-0.05i, a quadrature error far
        # above the round-off terms: only the remainder covers it
        monkeypatch.setattr(embedding, "_segment_edges",
                            lambda cut, freq, tail: np.array([0.0, cut]))
        k, lam, edge = BAND_KERNELS["laplacian_ti-0.05"]
        res = kc.energy_spectral(k, kc.ModulatedSincSq(1.0, 0.5))
        exact = band_energy(lam, 1.0, 0.5, W, PEAK, edge)
        assert 1e-6 < abs(res.value - float(exact)) <= res.error_bound

    def test_work_does_not_grow_with_the_frequency(self):
        k = kc.laplacian_ti(1.0)
        t0 = time.perf_counter()
        res = kc.energy_spectral(k, kc.ModulatedSincSq(1.0, 1e15))
        assert time.perf_counter() - t0 < 0.5
        assert 0.0 < res.value <= res.error_bound


class TestEmbedEval:
    def test_single_dirac(self):
        k = kc.gaussian_ti(1.0)
        assert kc.embed_eval(k, kc.dirac(E1, 0.7), 0.2) == kc.eval_kernel(k, 0.2, 0.7)

    def test_zero_measure(self):
        assert kc.embed_eval(kc.gaussian_ti(1.0), kc.construct(E1, []), 0.0) == 0.0

    def test_frozen_average(self, frozen):
        mu = diracs(E1, (0.0, 0.5), (2.0, 0.5))
        val = kc.embed_eval(kc.gaussian_ti(1.0), mu, 1.0)
        assert abs(val - frozen["embed_eval_gauss_mid"]) <= 1e-14

    def test_interchange_identity(self):
        # integrating the embedded function against mu equals the inner product
        k = kc.laplacian_ti(1.3)
        rng = np.random.default_rng(4)
        mu = random_discrete(E1, 6, rng)
        nu = random_discrete(E1, 5, rng)
        lhs = sum(w * kc.embed_eval(k, nu, x) for x, w in zip(mu.points, mu.weights))
        rhs = kc.inner(k, mu, nu)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("k,mu", [
        (kc.radial_atoms([(0.0, 1e308), (0.0, 1e308)]), kc.dirac(E1, 0.0)),
        (kc.gaussian_ti(1.0), diracs(E1, (0.0, 1e308), (0.1, 1e308))),
    ], ids=["infinite-kernel", "huge-weights"])
    def test_overflow_refused_without_warning(self, k, mu):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnsupportedCombinationError):
                kc.embed_eval(k, mu, 0.0)


HUGE_ATOMS = [([0.0], 1e200), ([0.5], -1e200), ([1.7], 0.5e200)]


@pytest.mark.parametrize("k,mu", [
    (kc.gaussian_ti(1.0), kc.construct(E1, HUGE_ATOMS)),
    (kc.dirichlet(3), kc.construct(kc.torus(1), HUGE_ATOMS)),
    (kc.radial_gaussian(1.0), kc.construct(E1, HUGE_ATOMS)),
    (kc.constant(2.0), kc.construct(E1, HUGE_ATOMS)),
    (kc.dirichlet(3), kc.TorusCosine(1e200, 2, kc.torus(1))),
    (kc.gaussian_ti(1.0), kc.ModulatedSincSq(1e200, 1.0, E1)),
], ids=["a1", "a2", "a3", "constant", "a2-torus_cosine", "a1-band"])
def test_spectral_overflow_refused_without_warning(k, mu):
    # the density routes once raised OverflowError out of alpha ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedCombinationError, match="float range"):
            kc.energy_spectral(k, mu)


class TestMMD:
    def test_identical_measures(self):
        P = random_probability(E1, 4, np.random.default_rng(0))
        assert kc.mmd(kc.gaussian_ti(1.0), P, P) == 0.0

    def test_two_diracs_formula(self):
        k = kc.gaussian_ti(1.0)
        val = kc.mmd(k, kc.dirac(E1, 0.0), kc.dirac(E1, 1.0))
        assert abs(val - math.sqrt(2 - 2 * math.exp(-0.5))) <= 1e-14

    def test_constant_never_separates(self):
        rng = np.random.default_rng(1)
        k = kc.constant(1.0)
        for _ in range(10):
            P = random_probability(E1, int(rng.integers(1, 6)), rng)
            Q = random_probability(E1, int(rng.integers(1, 6)), rng)
            assert kc.mmd(k, P, Q) == 0.0

    def test_rejects_non_probability(self):
        P = diracs(E1, (0.0, 0.5))
        Q = kc.dirac(E1, 1.0)
        with pytest.raises(ValueError):
            kc.mmd(kc.gaussian_ti(1.0), P, Q)

    def test_pseudometric_axioms(self):
        k = kc.gaussian_ti(1.0)
        rng = np.random.default_rng(21)
        for _ in range(25):
            P = random_probability(E1, int(rng.integers(1, 7)), rng)
            Q = random_probability(E1, int(rng.integers(1, 7)), rng)
            R = random_probability(E1, int(rng.integers(1, 7)), rng)
            assert kc.mmd(k, P, Q) == kc.mmd(k, Q, P)
            assert kc.mmd(k, P, R) <= kc.mmd(k, P, Q) + kc.mmd(k, Q, R) + 1e-10

    @pytest.mark.parametrize("k", [kc.gaussian_ti(1.0), kc.laplacian_ti(1.0),
                                   kc.b1_spline()], ids=lambda k: k.family)
    def test_separating_kernels_give_positive_mmd(self, k):
        # injective embeddings: distinct probability measures never collide
        rng = np.random.default_rng(57)
        found = 0
        while found < 100:
            P = random_probability(E1, int(rng.integers(1, 7)), rng)
            Q = random_probability(E1, int(rng.integers(1, 7)), rng)
            if np.array_equal(P.points, Q.points) and np.array_equal(P.weights, Q.weights):
                continue
            assert kc.mmd(k, P, Q) > 0.0
            found += 1


class TestWitnessGap:
    def test_self_dual(self):
        k = kc.gaussian_ti(1.0)
        P, Q = kc.dirac(E1, 0.0), kc.dirac(E1, 1.0)
        gap = kc.mmd_witness_gap(k, P, Q, P - Q)
        assert abs(gap - kc.mmd(k, P, Q)) <= 1e-12

    def test_equal_measures_zero(self):
        k = kc.gaussian_ti(1.0)
        P = kc.dirac(E1, 0.0)
        assert kc.mmd_witness_gap(k, P, P, kc.dirac(E1, 2.0)) == 0.0

    def test_frozen_candidate(self, frozen):
        k = kc.gaussian_ti(1.0)
        P, Q = kc.dirac(E1, 0.0), kc.dirac(E1, 1.0)
        gap = kc.mmd_witness_gap(k, P, Q, kc.dirac(E1, 0.0))
        assert abs(gap - frozen["inner_gauss_d01_d0"]) <= 1e-12
        assert gap <= kc.mmd(k, P, Q) + 1e-9

    def test_dual_bound_random(self):
        k = kc.gaussian_ti(1.0)
        rng = np.random.default_rng(31)
        P = random_probability(E1, 4, rng)
        Q = random_probability(E1, 5, rng)
        bound = kc.mmd(k, P, Q) + 1e-9
        for _ in range(30):
            f = random_discrete(E1, int(rng.integers(1, 6)), rng)
            assert kc.mmd_witness_gap(k, P, Q, f) <= bound

    def test_zero_norm_candidate(self):
        k = kc.constant(1.0)
        P, Q = kc.dirac(E1, 0.0), kc.dirac(E1, 1.0)
        with pytest.raises(ValueError):
            kc.mmd_witness_gap(k, P, Q, P - Q)


class TestEnergyFeatures:
    def test_zero_measure(self):
        res = kc.energy_features(kc.taylor_exp(), kc.construct(E1, []), 5)
        assert res.value == 0.0

    def test_single_atom_norm(self):
        x = 0.6
        res = kc.energy_features(kc.taylor_exp(), kc.dirac(E1, x), 9)
        expect = sum(x ** (2 * n) / math.factorial(n) for n in range(10))
        assert abs(res.value - expect) <= 1e-14

    def test_frozen_two_atoms(self, frozen):
        mu = diracs(E1, (0.5, 1.0), (-0.5, -1.0))
        res = kc.energy_features(kc.taylor_exp(), mu, 12)
        assert abs(res.value - frozen["taylor_exp_feature_energy_deg12"]) <= 1e-13
        spatial = kc.energy_spatial(kc.taylor_exp(), mu)
        assert abs(res.value - spatial.value) <= 1e-8
        assert abs(res.value - spatial.value) <= res.error_bound + spatial.error_bound

    def test_atom_outside_radius(self):
        with pytest.raises(ValueError):
            kc.energy_features(kc.taylor_binomial(1.0), kc.dirac(E1, 1.5), 3)

    def test_agreement_multivariate(self):
        k = kc.taylor_exp(dim=2)
        rng = np.random.default_rng(8)
        pts = rng.uniform(-0.6, 0.6, (4, 2))
        mu = kc.construct(k.space, list(zip(pts, rng.normal(0, 1, 4))))
        res = kc.energy_features(k, mu, 14)
        spatial = kc.energy_spatial(k, mu)
        assert abs(res.value - spatial.value) <= res.error_bound + spatial.error_bound


class TestSpaceChecks:
    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            kc.energy_spatial(kc.gaussian_ti(1.0), kc.construct(T1, [(0.0, 1.0)]))
