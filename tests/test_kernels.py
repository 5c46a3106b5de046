import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kernelcert as kc
import oracles
from kernelcert.kernels import (
    KernelConfigError,
    UnsupportedKernelOperation,
    axis_spectral_transform,
    _axis_profile,
    _IMQ_NODES,
    _MIXING_ROUNDOFF,
    family_spec,
    mixing_components,
    pair_lags,
)
from kernelcert.measures import SpaceMismatchError

PI = math.pi

ALL_FAMILIES = [
    kc.gaussian_ti(1.0), kc.laplacian_ti(1.0), kc.b1_spline(), kc.sinc(1.0),
    kc.sinc_sq(), kc.poisson_torus(0.5), kc.expcos_torus(1.0),
    kc.quadpoly_torus(), kc.dirichlet(2), kc.fejer(2), kc.radial_gaussian(1.0),
    kc.inverse_multiquadric(1.0, 2.0), kc.radial_atoms([(0.5, 1.0), (2.0, 0.5)]),
    kc.taylor_exp(), kc.taylor_binomial(1.0), kc.constant(1.0),
]


def _random_points(k, n, rng):
    if k.space.is_torus:
        return rng.uniform(0, 2 * PI, (n, k.space.dim))
    if kc.kernel_class(k) == "a4":
        pts = rng.normal(0, 1, (n, k.space.dim))
        r = kc.taylor_coefficients(k).radius
        lim = 0.8 * math.sqrt(min(r, 1.0))
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
        return pts * lim / np.maximum(norms, lim)
    return rng.normal(0, 1.5, (n, k.space.dim))


class TestEval:
    def test_gaussian_diagonal(self):
        k = kc.gaussian_ti(1.0)
        assert kc.eval_kernel(k, 0.3, 0.3) == 1.0

    def test_poisson_at_pi(self, frozen):
        k = kc.poisson_torus(0.5)
        assert abs(kc.eval_kernel(k, PI, 0.0) - frozen["poisson_eval_pi"]) <= 1e-12
        assert abs(kc.eval_kernel(k, PI, 0.0) - 1.0 / 3.0) <= 1e-12

    def test_imq_diagonal(self):
        k = kc.inverse_multiquadric(1.0, 2.0)
        assert kc.eval_kernel(k, 0.7, 0.7) == 0.25

    @pytest.mark.parametrize("k", ALL_FAMILIES, ids=lambda k: k.family)
    def test_symmetry(self, k):
        rng = np.random.default_rng(hash(k.family) % 2 ** 31)
        pts = _random_points(k, 200, rng)
        for i in range(100):
            x, y = pts[2 * i], pts[2 * i + 1]
            assert kc.eval_kernel(k, x, y) == pytest.approx(kc.eval_kernel(k, y, x),
                                                            rel=0, abs=0)

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            kc.eval_kernel(kc.gaussian_ti(1.0, dim=2), 0.0, 1.0)

    def test_taylor_domain(self):
        with pytest.raises(ValueError):
            kc.eval_kernel(kc.taylor_binomial(1.0), 1.2, 0.0)


class TestGram:
    def test_constant_all_ones(self):
        G = kc.gram(kc.constant(1.0), [[0.0], [1.0], [2.0]])
        assert np.array_equal(G, np.ones((3, 3)))
        lam, _ = kc.min_eig_sym(G)
        assert abs(lam) <= 1e-12

    def test_gaussian_three_points(self, frozen):
        G = kc.gram(kc.gaussian_ti(1.0), [[0.0], [1.0], [2.0]])
        lam, _ = kc.min_eig_sym(G)
        assert lam > 0
        assert abs(lam - frozen["gaussian_gram_012_min_eig"]) <= 1e-8

    def test_dirichlet_equispaced(self, frozen):
        pts = [[0.0], [2 * PI / 3], [4 * PI / 3]]
        G = kc.gram(kc.dirichlet(1), pts)
        lam, _ = kc.min_eig_sym(G)
        assert lam >= -1e-10 * np.trace(G)
        assert abs(lam - frozen["dirichlet1_gram_equi3_min_eig"]) <= 1e-8

    @pytest.mark.parametrize("k", ALL_FAMILIES, ids=lambda k: k.family)
    def test_psd_on_random_points(self, k):
        rng = np.random.default_rng(hash(k.family) % 1009)
        G = kc.gram(k, _random_points(k, 20, rng))
        lam, _ = kc.min_eig_sym(G)
        assert lam >= -1e-10 * np.trace(G)

    @pytest.mark.parametrize("k", [
        kc.gaussian_ti(1.0, 3), kc.laplacian_ti(1.0, 2), kc.poisson_torus(0.5, 3),
        kc.dirichlet(2, 2), kc.radial_gaussian(1.0, 3), kc.inverse_multiquadric(1.0, 2.0, 3),
    ], ids=lambda k: f"{k.family}-d{k.space.dim}")
    def test_cross_gram_matches_the_stacked_lags(self, k):
        # cross_gram works one axis at a time; the (n, m, d) stack of lags
        # gives the same matrix, bit for bit
        rng = np.random.default_rng(5)
        X, Y = _random_points(k, 30, rng), _random_points(k, 20, rng)
        if k.space.is_torus:
            X = X - 2 * PI  # lags beyond 2pi exercise the fold
        D = pair_lags(X, Y, k.space.is_torus)
        spec = family_spec(k)
        if spec.profile is not None:
            want = np.prod([_axis_profile(k, D[:, :, a]) for a in range(D.shape[2])], axis=0)
        else:
            want = spec.radial(np.sum(D * D, axis=2), **dict(k.params))
        assert np.array_equal(kc.cross_gram(k, X, Y), want)

    def test_refusal_allocates_no_pairwise_array(self):
        # 4800^2 pairs times 3 axes exceed the limit; the (n, m) output alone
        # would take 176 MiB
        X = np.full((4800, 3), 0.01)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the limit"):
                kc.cross_gram(kc.gaussian_ti(1.0, 3), X, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


BAND_LAGS = np.concatenate([[0.0, 1e-300, 1e-160, 1e-12, 1e-8, PI - 1e-12, PI],
                            np.random.default_rng(31).uniform(0.0, PI, 300)])


@pytest.mark.parametrize("family,limit", [("dirichlet", 4.0), ("fejer", 8.0)])
@pytest.mark.parametrize("l", [1, 3, 40, 256])
class TestBandProfiles:
    def test_closed_form_against_the_series(self, family, limit, l):
        # errors in units of u k(0): at most 2.7 (dirichlet) and 5.9 (fejer)
        # were measured on 20000 random lags
        k = kc.make_kernel(family, kc.torus(1), l=l)
        vals = _axis_profile(k, BAND_LAGS)
        truth = np.array([float(oracles.band_profile_mp(family, l, t)) for t in BAND_LAGS])
        assert vals[0] == kc.sup_kxx(k)
        assert np.max(np.abs(vals - truth)) <= limit * 2.0 ** -53 * kc.sup_kxx(k)

    def test_lags_beyond_pi_fold_exactly(self, family, limit, l):
        # the fold is exact in floats, so the profile at a lag and at its
        # folded lag agree bit for bit; the float 2 pi's period error is the
        # spectral route's to bound
        k = kc.make_kernel(family, kc.torus(1), l=l)
        lags = np.concatenate([[PI + 1e-12, 2 * PI - 1e-7, 2 * PI, 3 * PI, 4 * PI],
                               np.random.default_rng(37).uniform(PI, 4 * PI, 100)])
        folded = np.mod(lags, 2 * PI)
        folded = np.minimum(folded, 2 * PI - folded)
        assert np.all(folded <= PI)
        assert np.array_equal(_axis_profile(k, lags), _axis_profile(k, folded))


class TestSpectral:
    def test_gaussian_density_at_zero(self):
        spec = kc.spectral(kc.gaussian_ti(1.0))
        assert abs(spec.density([0.0]) - 1.0) <= 1e-14
        assert spec.support.kind == "full_space"

    def test_sinc_support_box(self):
        spec = kc.spectral(kc.sinc(2.0))
        assert spec.support.kind == "box" and spec.support.half_width == 2.0

    def test_sinc_sq_support_is_derived(self):
        spec = kc.spectral(kc.sinc_sq())
        hw, _ = kc.sinc_sq_spectrum()
        assert spec.support.half_width == hw

    def test_fejer_coefficients(self):
        spec = kc.spectral(kc.fejer(2))
        assert abs(spec.coeff([1]) - 2.0 / 3.0) <= 1e-15
        assert spec.coeff([3]) == 0.0
        assert spec.support.frequencies == tuple(range(-2, 3))

    def test_poisson_coefficients_positive(self):
        spec = kc.spectral(kc.poisson_torus(0.5))
        assert spec.support.kind == "all_integers"
        assert all(spec.coeff([n]) > 0 for n in range(-30, 31))

    def test_nonnegative_density_sampled(self):
        for k in (kc.gaussian_ti(0.7), kc.laplacian_ti(2.0), kc.b1_spline(),
                  kc.sinc(1.5), kc.sinc_sq()):
            spec = kc.spectral(k)
            w = np.linspace(-20, 20, 401)
            vals = spec.lambda_axis(w)
            assert np.all(vals >= 0)
            if spec.support.kind == "box":
                outside = np.abs(w) > spec.support.half_width + 1e-9
                assert np.all(vals[outside] == 0.0)

    def test_radial_mixings(self):
        spec = kc.spectral(kc.radial_gaussian(2.5))
        assert spec.mixing_atoms == ((2.5, 1.0),) and spec.supp_is_only_zero is False
        spec = kc.spectral(kc.constant(0.7))
        assert spec.mixing_atoms == ((0.0, 0.7),) and spec.supp_is_only_zero is True
        spec = kc.spectral(kc.inverse_multiquadric(1.5, 2.0))
        t = np.array([0.5, 1.0, 3.0])
        assert np.all(spec.mixing_density(t) > 0)

    @pytest.mark.parametrize("beta,c", [(1e-8, 1.0), (1e-3, 0.3), (0.1, 1.0), (0.7, 2.0),
                                        (1.0, 0.03), (2.5, 3.0), (20.0, 1.0), (100.0, 1.5)])
    def test_imq_rate_rules_against_exact_rules(self, beta, c):
        # each float rule's own round-off, of the 256 u in _MIXING_ROUNDOFF
        rates, lower, upper = mixing_components(kc.inverse_multiquadric(beta, c))
        n = _IMQ_NODES
        exact_lower, exact_upper = oracles.imq_rate_rules(beta, c, n)
        assert oracles.rule_deviation(rates[:n], lower[:n], exact_lower) <= 160 * 2.0 ** -53
        assert oracles.rule_deviation(rates[n:], upper[n:], exact_upper) <= 160 * 2.0 ** -53
        assert not lower[n:].any() and not upper[:n].any()

    def test_imq_rate_rules_bracket_the_profile(self):
        rates, lower, upper = mixing_components(kc.inverse_multiquadric(1.0, 0.5))
        slack = _MIXING_ROUNDOFF * 2 * 4.0  # k(0) = 4
        for r in [0.0, 0.1, 1.0, 3.0, 30.0]:
            exact = 1.0 / (0.25 + r * r)
            assert lower @ np.exp(-rates * r * r) <= exact + slack
            assert upper @ np.exp(-rates * r * r) >= exact - slack
            assert upper @ np.exp(-rates * r * r) - lower @ np.exp(-rates * r * r) > 0

    def test_atomic_mixing_is_its_own_lower_and_upper_rule(self):
        rates, lower, upper = mixing_components(kc.radial_atoms([(0.5, 1.0), (2.0, 0.5)]))
        assert rates.tolist() == [0.5, 2.0]
        assert lower.tolist() == upper.tolist() == [1.0, 0.5]

    def test_taylor_has_no_spectrum(self):
        with pytest.raises(UnsupportedKernelOperation):
            kc.spectral(kc.taylor_exp())

    @pytest.mark.parametrize("k", [kc.gaussian_ti(1.3), kc.laplacian_ti(0.8),
                                   kc.b1_spline(), kc.sinc(2.0), kc.sinc_sq()],
                             ids=lambda k: k.family)
    def test_inverse_transform_matches_profile(self, k):
        # numerical inverse transform of the spectral density vs closed form
        rng = np.random.default_rng(17)
        lags = np.abs(rng.normal(0, 2, 10))
        vals, errs = axis_spectral_transform(k, lags)
        truth = _axis_profile(k, lags)
        assert np.max(np.abs(vals - truth)) <= 1e-5
        assert np.all(np.abs(vals - truth) <= errs + 1e-12)

    @pytest.mark.parametrize("k", [kc.poisson_torus(0.5), kc.expcos_torus(1.0),
                                   kc.quadpoly_torus(), kc.dirichlet(3), kc.fejer(4)],
                             ids=lambda k: k.family)
    def test_coefficient_series_matches_profile(self, k):
        rng = np.random.default_rng(23)
        lags = np.concatenate([rng.uniform(0.0, 2 * PI, 10), [0.0, 1e-9, PI, 2 * PI - 1e-7]])
        vals, errs = axis_spectral_transform(k, lags)
        truth = _axis_profile(k, lags)
        assert np.max(np.abs(vals - truth)) <= 1e-8
        assert np.all(np.abs(vals - truth) <= errs + 1e-12)

    @pytest.mark.parametrize("k,terms", [
        (kc.poisson_torus(0.5), 64), (kc.expcos_torus(1.0), 30), (kc.dirichlet(3), 3),
        (kc.fejer(4), 4), (kc.dirichlet(40), 40),
    ], ids=lambda v: getattr(v, "family", str(v)))
    def test_coefficient_series_matches_the_term_loop(self, k, terms):
        # the coefficients summed one term at a time up to a count whose
        # tail is below 1e-17: 2 (0.5^65) / 0.5 and 1 / 31! here, none for
        # the band-limited families
        rng = np.random.default_rng(29)
        lags = np.concatenate([[0.0, 1e-9, PI, 2 * PI - 1e-7, 7.5], rng.uniform(0.0, 4 * PI, 20)])
        c = kc.spectral(k).coeff
        loop = np.array([c(0) + sum(2.0 * c(n) * math.cos(n * d) for n in range(1, terms + 1))
                         for d in lags])
        vals, errs = axis_spectral_transform(k, lags)
        assert np.all(np.abs(vals - loop) <= errs)

    def test_series_holds_no_lags_by_terms_array(self):
        # 5e5 lags times poisson's 60 terms would be 240 MB per array
        lags = np.linspace(0.0, 2 * PI, 500_000)
        k = kc.poisson_torus(0.5)
        tracemalloc.start()
        try:
            axis_spectral_transform(k, lags)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_series_term_limit_refuses_before_allocating(self):
        # sigma = 1 - 1e-9 would need about 4e10 terms
        k = kc.poisson_torus(1.0 - 1e-9)
        with pytest.raises(ValueError, match="terms"):
            axis_spectral_transform(k, np.array([0.0, 1.0]))
        assert axis_spectral_transform(kc.poisson_torus(0.99995), np.array([1.0]))[0].size == 1

    def test_radial_atoms_is_exact_mixture(self):
        atoms = [(0.3, 1.2), (2.0, 0.5), (0.0, 0.25)]
        k = kc.radial_atoms(atoms, dim=2)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x, y = rng.normal(0, 1, 2), rng.normal(0, 1, 2)
            expect = sum(m * math.exp(-t * float(np.sum((x - y) ** 2)))
                         for t, m in atoms)
            assert kc.eval_kernel(k, x, y) == pytest.approx(expect, rel=1e-15)


class TestTaylor:
    def test_origin_single_feature(self):
        feats = kc.taylor_features(kc.taylor_exp(), 0.0, 4)
        nonzero = [(a, v) for a, v in feats if v != 0.0]
        assert nonzero == [((0,), 1.0)]

    def test_exp_inner_product(self, frozen):
        # x y = 0.5, truncated at degree 10
        fa = kc.taylor_features(kc.taylor_exp(), 1.0, 10)
        fb = kc.taylor_features(kc.taylor_exp(), 0.5, 10)
        ip = sum(va * vb for (_, va), (_, vb) in zip(fa, fb))
        assert abs(ip - frozen["taylor_exp_ip_half_deg10"]) <= 1e-12
        assert abs(ip - math.exp(0.5)) <= 1e-8

    def test_binomial_inner_product(self, frozen):
        fa = kc.taylor_features(kc.taylor_binomial(1.0), 0.625, 30)
        fb = kc.taylor_features(kc.taylor_binomial(1.0), 0.8, 30)
        ip = sum(va * vb for (_, va), (_, vb) in zip(fa, fb))
        assert abs(ip - frozen["taylor_binom_ip_half_deg30"]) <= 1e-12
        assert abs(ip - 2.0) <= 1e-6

    def test_multivariate_identity(self):
        # feature inner products reproduce the truncated scalar series in d=2
        k = kc.taylor_exp(dim=2)
        x, y = np.array([0.3, -0.2]), np.array([0.1, 0.4])
        fa = kc.taylor_features(k, x, 8)
        fb = kc.taylor_features(k, y, 8)
        ip = sum(va * vb for (_, va), (_, vb) in zip(fa, fb))
        t = float(x @ y)
        series = sum(t ** n / math.factorial(n) for n in range(9))
        assert abs(ip - series) <= 1e-14

    def test_domain_check(self):
        with pytest.raises(ValueError):
            kc.taylor_features(kc.taylor_binomial(2.0), 1.0, 3)


class TestJsonAndRegistry:
    def test_round_trip_all(self):
        for k in ALL_FAMILIES:
            back = kc.kernel_from_json(json.loads(json.dumps(kc.kernel_to_json(k))))
            assert back == k

    def test_schema_file_covers_families(self):
        schema_path = Path(kc.kernels.__file__).parent / "schemas" / "kernel_params.json"
        schema = json.loads(schema_path.read_text())
        assert set(schema["families"]) == {k.family for k in ALL_FAMILIES}
        # the schema repeats each family's space and parameter names
        for k in ALL_FAMILIES:
            entry, spec = schema["families"][k.family], family_spec(k)
            space = {"any": "euclidean or torus"}.get(spec.space_kind, spec.space_kind)
            assert entry["space"] == space, k.family
            assert set(entry["params"]) == set(spec.params), k.family

    def test_bad_parameters(self):
        with pytest.raises(KernelConfigError):
            kc.make_kernel("gaussian_ti", kc.euclidean(1), sigma=-1.0)
        with pytest.raises(KernelConfigError):
            kc.make_kernel("poisson_torus", kc.torus(1), sigma=1.5)
        with pytest.raises(KernelConfigError):
            kc.make_kernel("gaussian_ti", kc.euclidean(1))

    @pytest.mark.parametrize("beta,c", [(1e300, 1e-300), (400.0, 0.1), (2.0, 1e300),
                                        (0.1, 1e-170), (0.1, 1e-160), (1e-3, 1e160)])
    def test_inverse_multiquadric_peak_outside_the_float_range(self, beta, c):
        # k(0) = c^(-2 beta) overflows to inf or underflows to 0, or c^2
        # leaves the normal range though k(0) would not: 0 ** -0.1 = inf at
        # c = 1e-170, a subnormal c^2 at 1e-160, inf ** -1e-3 = 0 at 1e160
        with pytest.raises(KernelConfigError, match="float range"):
            kc.inverse_multiquadric(beta, c)

    def test_space_compatibility(self):
        with pytest.raises(KernelConfigError):
            kc.make_kernel("dirichlet", kc.euclidean(1), l=2)
        with pytest.raises(KernelConfigError):
            kc.make_kernel("gaussian_ti", kc.torus(1), sigma=1.0)

    def test_unknown_family_and_field(self):
        with pytest.raises(KernelConfigError):
            kc.make_kernel("matern", kc.euclidean(1))
        with pytest.raises(KernelConfigError):
            kc.kernel_from_json({"family": "gaussian_ti",
                                 "space": {"kind": "euclidean", "dim": 1},
                                 "params": {"sigma": 1.0}, "note": "hi"})

    def test_sup_kxx(self):
        assert kc.sup_kxx(kc.gaussian_ti(1.0)) == 1.0
        assert kc.sup_kxx(kc.dirichlet(2)) == 5.0
        assert kc.sup_kxx(kc.poisson_torus(0.5, dim=2)) == 9.0
        assert kc.sup_kxx(kc.inverse_multiquadric(1.0, 2.0)) == 0.25
        assert kc.sup_kxx(kc.taylor_exp()) is None

    @pytest.mark.parametrize("k", [k for k in ALL_FAMILIES
                                   if kc.kernel_class(k) != "a4"],
                             ids=lambda k: k.family)
    def test_boundedness_spot_check(self, k):
        rng = np.random.default_rng(len(k.family))
        sup = kc.sup_kxx(k)
        for x in _random_points(k, 25, rng):
            assert kc.eval_kernel(k, x, x) <= sup + 1e-12
