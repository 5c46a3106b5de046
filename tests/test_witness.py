import math
import warnings

import numpy as np
import pytest

import kernelcert as kc
from kernelcert.witness import WitnessError, construct_witness

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
