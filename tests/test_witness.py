import math
import time
import warnings

import numpy as np
import pytest

import kernelcert as kc
import oracles
from kernelcert.witness import Witness, WitnessError, construct_witness

PI = math.pi
T1 = kc.torus(1)
E1 = kc.euclidean(1)


class TestTorusGridWitness:
    def test_dirichlet_grid(self, frozen):
        k = kc.dirichlet(2)
        w = kc.torus_zero_energy_witness(k, 8, n0=3)
        assert w.measure.n_atoms == 8
        assert w.norm > 0
        assert abs(w.measure.total_mass) <= 1e-12
        assert abs(w.energy.value) <= 1e-12
        assert w.energy.value <= w.energy.error_bound
        assert abs(w.energy.value - frozen["dirichlet2_grid_witness_energy"]) <= 1e-12

    def test_dirichlet_grid_coefficient_support(self, frozen):
        k = kc.dirichlet(2)
        w = kc.torus_zero_energy_witness(k, 8, n0=3)
        for n, (re, im) in zip(range(-5, 6), frozen["dirichlet2_grid_witness_coeffs"]):
            z = kc.torus_coefficient(w.measure, n)
            assert abs(z - complex(re, im)) <= 1e-10
            # spectrum sits on +-3 mod 8 and misses the active band {-2..2}
            if abs(n) in (3, 5):
                assert abs(z) > 0.5
            else:
                assert abs(z) <= 1e-12

    def test_fejer_grid(self, frozen):
        w = kc.torus_zero_energy_witness(kc.fejer(1), 6, n0=2)
        assert abs(w.energy.value) <= 1e-12
        assert abs(w.energy.value - frozen["fejer1_grid_witness_energy"]) <= 1e-12

    def test_cross_route_verification(self):
        # spatial and spectral routes both certify zero
        k = kc.dirichlet(2)
        w = kc.torus_zero_energy_witness(k, 8)
        spectral = kc.energy_spectral(k, w.measure)
        assert abs(spectral.value) <= 1e-12

    def test_full_support_kernel_rejected(self):
        with pytest.raises(WitnessError):
            kc.torus_zero_energy_witness(kc.poisson_torus(0.5), 8)

    def test_aliasing_grid_rejected(self):
        with pytest.raises(WitnessError):
            kc.torus_zero_energy_witness(kc.dirichlet(2), 5, n0=3)

    def test_nonzero_coefficient_rejected(self):
        with pytest.raises(WitnessError):
            kc.torus_zero_energy_witness(kc.dirichlet(2), 8, n0=2)


class TestBandLimitedWitness:
    def test_sinc(self):
        w = kc.bandlimited_zero_energy_witness(kc.sinc(1.0))
        hw, _ = kc.sinc_sq_spectrum()
        assert abs(w.measure.omega0 - (1.0 + hw + 1.0)) <= 1e-12
        assert abs(w.energy.value) <= 1e-8
        assert w.norm > 0

    def test_sinc_sq(self):
        w = kc.bandlimited_zero_energy_witness(kc.sinc_sq())
        hw, _ = kc.sinc_sq_spectrum()
        assert abs(w.measure.omega0 - (2 * hw + 1.0)) <= 1e-12
        assert abs(w.energy.value) <= 1e-8

    def test_full_spectrum_rejected(self):
        with pytest.raises(WitnessError):
            kc.bandlimited_zero_energy_witness(kc.gaussian_ti(1.0))

    @pytest.mark.parametrize("k", [kc.sinc(1.0), kc.sinc_sq()], ids=["sinc", "sinc_sq"])
    def test_builds_without_a_warning(self, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = kc.bandlimited_zero_energy_witness(k)
        assert (w.energy.value, w.energy.error_bound) == (0.0, 1e-15)
        assert w.measure.omega0 == kc.certify(k, "c0_universal").witness_ref["omega0"]
        assert 3.97 < w.norm < 3.98


class TestGramNullWitness:
    def test_constant_pair(self):
        w = kc.gram_null_witness(kc.constant(1.0), [[0.0], [1.0]])
        assert w.norm > 0
        assert abs(w.energy.value) <= 1e-12

    def test_dirichlet_equispaced(self):
        k = kc.dirichlet(1)
        pts = (2 * PI * np.arange(4) / 4)[:, None]
        w = kc.gram_null_witness(k, pts)
        trace = float(np.trace(kc.gram(k, pts)))
        assert abs(w.energy.value) <= 1e-9 * trace
        assert w.norm > 0

    def test_gaussian_rejected(self):
        with pytest.raises(WitnessError):
            kc.gram_null_witness(kc.gaussian_ti(1.0), [[0.0], [1.0], [2.5]])


class TestIndistinguishablePair:
    def test_constant_two_diracs(self):
        mu = kc.construct(E1, [(0.0, 1.0), (1.0, -1.0)])
        P, Q, val = kc.indistinguishable_pair(kc.constant(1.0), mu)
        assert val == 0.0
        assert P.points[0, 0] == 0.0 and Q.points[0, 0] == 1.0

    def test_dirichlet_grid_pair(self):
        k = kc.dirichlet(2)
        w = kc.torus_zero_energy_witness(k, 8, n0=3)
        P, Q, val = kc.indistinguishable_pair(k, w.measure)
        assert val <= 1e-10
        assert P.is_probability and Q.is_probability
        # distinct atom supports
        assert not np.array_equal(P.points, Q.points)

    def test_positive_energy_rejected(self):
        mu = kc.construct(E1, [(0.0, 1.0), (1.0, -1.0)])
        with pytest.raises(WitnessError):
            kc.indistinguishable_pair(kc.gaussian_ti(1.0), mu)

    def test_nonzero_mass_rejected(self):
        mu = kc.construct(E1, [(0.0, 1.0)])
        with pytest.raises(WitnessError):
            kc.indistinguishable_pair(kc.constant(1.0), mu)


class TestEnvelope:
    def test_witness_json(self):
        k = kc.dirichlet(2)
        w = kc.torus_zero_energy_witness(k, 8)
        doc = kc.witness_to_json(w)
        assert doc["refutes"] == "c_universal"
        assert doc["energy"] <= doc["bound"]
        back = kc.measure_from_json(doc["measure"])
        assert np.array_equal(back.points, w.measure.points)

    def test_construct_from_certificate_refs(self, zoo_kernels):
        for family in ("sinc", "sinc_sq", "dirichlet", "fejer", "constant"):
            k = zoo_kernels[family]
            for cert in kc.certify_all(k):
                if cert.witness_ref is None:
                    continue
                w = construct_witness(k, cert.witness_ref)
                assert w.norm > 0
                assert w.energy.value <= max(w.energy.error_bound, 1e-8)


@pytest.mark.parametrize("family", ["dirichlet", "fejer"])
@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("dim", [2, 3])
def test_gram_null_witnesses_in_higher_dimension(family, l, dim):
    # equispaced points along the first axis; the product kernel keeps the
    # one-dimensional null vector
    k = kc.make_kernel(family, kc.torus(dim), l=l)
    for prop in ("strictly_pd", "cond_strictly_pd"):
        cert = kc.certify(k, prop)
        assert cert.verdict == "fails" and cert.witness_ref["kind"] == "gram_null"
        w = construct_witness(k, cert.witness_ref)
        assert w.norm > 0
        assert abs(w.energy.value) <= w.energy.error_bound


class TestWitnessNeverOutlivesItsBound:
    def test_every_construction_path_within_its_bound(self):
        d2, f2 = kc.dirichlet(2), kc.fejer(2)
        built = [
            kc.torus_zero_energy_witness(d2, 8),
            kc.bandlimited_zero_energy_witness(kc.sinc(1.0)),
            construct_witness(d2, kc.certify(d2, "strictly_pd").witness_ref),
            construct_witness(f2, kc.certify(f2, "characteristic").witness_ref),
            construct_witness(kc.constant(1.0), kc.certify(kc.constant(1.0),
                                                           "strictly_pd").witness_ref),
        ]
        for w in built:
            assert abs(w.energy.value) <= w.energy.error_bound

    def test_hand_written_count_that_aliases_is_refused(self):
        # 5 = 2l + 1 points: cos(3 x) aliases to frequency -2, inside the band
        ref = {"kind": "gram_null", "points": "equispaced", "count": 5}
        with pytest.raises(WitnessError, match="exceeds its bound"):
            construct_witness(kc.dirichlet(2), ref)
        # 2l + 2 points keep +-(l + 1) outside the band
        w = construct_witness(kc.dirichlet(2), dict(ref, count=6))
        assert abs(w.energy.value) <= w.energy.error_bound

    def test_direct_construction_is_refused(self):
        mu = kc.construct(E1, [(0.0, 1.0), (1.0, -1.0)])
        with pytest.raises(WitnessError, match="exceeds its bound"):
            Witness(mu, "strictly_pd", kc.energy_spatial(kc.gaussian_ti(1.0), mu), 2.0)


def _spaced(n, step):
    return (step * np.arange(n))[:, None]


# strictly positive definite kernels on ill-conditioned point sets, where the
# Gram probe's least eigenvalue falls below its 1e-10 trace threshold
ILL_CONDITIONED = [
    (kc.radial_gaussian(1.0), _spaced(8, 0.1)),
    (kc.inverse_multiquadric(1.0, 1.0), _spaced(12, 0.1)),
    (kc.gaussian_ti(1.0), _spaced(8, 0.1)),
    (kc.sinc(1.0), _spaced(8, 0.1)),
    (kc.poisson_torus(0.5), _spaced(6, 0.01)),
]


@pytest.mark.parametrize("k,pts", ILL_CONDITIONED, ids=lambda v: getattr(v, "family", ""))
def test_gram_null_witness_refuses_certified_strictly_pd_kernels(k, pts):
    assert kc.certify(k, "strictly_pd").verdict == "holds"
    with pytest.raises(WitnessError):
        kc.gram_null_witness(k, pts)


@pytest.mark.parametrize("k,pts", ILL_CONDITIONED[:2], ids=lambda v: getattr(v, "family", ""))
def test_least_eigenvector_outlives_its_bound(k, pts):
    # the least eigenvector's energy is the positive least eigenvalue, far
    # above the round-off bound: 1.8e-12 against 6.7e-14, 3.7e-10 against 1.4e-13
    v = np.linalg.eigh(kc.gram(k, pts))[1][:, 0]
    mu = kc.construct(k.space, list(zip(pts, v)))
    with pytest.raises(WitnessError, match="exceeds its bound"):
        Witness(mu, "strictly_pd", kc.energy_spatial(k, mu), mu.total_variation)


def _zoo_in_dimension(k, dim):
    doc = kc.kernel_to_json(k)
    doc["space"]["dim"] = dim
    return kc.kernel_from_json(doc)


def test_certify_witnesses_need_no_eigensolver(monkeypatch, zoo_kernels):
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver ran on the certify path")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    rejected = []
    for family, k1 in zoo_kernels.items():
        for dim in (1, 2, 3):
            k = _zoo_in_dimension(k1, dim)
            for cert in kc.certify_all(k):
                if cert.verdict != "fails":
                    continue
                try:
                    w = construct_witness(k, cert.witness_ref)
                except WitnessError:
                    rejected.append((family, dim, cert.property))
                    continue
                assert w.norm > 0
                assert abs(w.energy.value) <= w.energy.error_bound
    # grid and band-limited witnesses are one dimensional: dirichlet and
    # fejer in four properties, sinc and sinc_sq in two, at d = 2 and 3
    assert len(rejected) == 24
    assert all(dim >= 2 for _, dim, _ in rejected)


@pytest.mark.parametrize("family", ["dirichlet", "fejer"])
def test_band_degree_256_certifies_with_every_witness_quickly(family):
    k = kc.make_kernel(family, T1, l=256)
    start = time.perf_counter()
    built = [construct_witness(k, c.witness_ref) for c in kc.certify_all(k) if c.witness_ref]
    assert time.perf_counter() - start < 2.0
    assert len(built) == 6
    for w in built:
        assert abs(w.energy.value) <= w.energy.error_bound


@pytest.mark.parametrize("family", ["dirichlet", "fejer"])
@pytest.mark.parametrize("l", [1, 3, 40])
def test_null_witness_true_energy_within_its_bound(family, l):
    # the stored measure's energy from its Fourier series at 50 digits
    k = kc.make_kernel(family, T1, l=l)
    w = construct_witness(k, kc.certify(k, "strictly_pd").witness_ref)
    assert w.measure.n_atoms == 2 * l + 3
    atoms = list(zip(w.measure.points[:, 0], w.measure.weights))
    truth = oracles.band_series_energy(family, l, atoms)
    assert abs(truth - w.energy.value) <= w.energy.error_bound
