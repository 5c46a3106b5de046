import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kernelcert as kc
from kernelcert.measures import ATOM_MERGE_TOL, InvalidMeasureError, SpaceMismatchError
from oracles import greedy_merge, modsincsq_l1_core


PI = math.pi
E1 = kc.euclidean(1)
T1 = kc.torus(1)


class TestConstruct:
    def test_single_atom(self):
        mu = kc.construct(E1, [(0.0, 1.0)])
        assert mu.n_atoms == 1 and mu.total_variation == 1.0

    def test_cancellation_gives_zero_measure(self):
        mu = kc.construct(E1, [(0.0, 1.0), (0.0, -1.0)])
        assert mu.is_zero

    def test_torus_canonicalization(self):
        mu = kc.construct(T1, [(2 * PI + 1.0, 0.5)])
        assert mu.n_atoms == 1
        assert abs(mu.points[0, 0] - 1.0) <= 1e-12
        assert mu.weights[0] == 0.5

    def test_merge_tolerance(self):
        mu = kc.construct(E1, [(0.0, 1.0), (1e-13, 2.0)])
        assert mu.n_atoms == 1 and mu.weights[0] == 3.0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidMeasureError):
            kc.construct(kc.euclidean(2), [([0.0], 1.0)])

    def test_nonfinite_weight(self):
        with pytest.raises(InvalidMeasureError):
            kc.construct(E1, [(0.0, float("nan"))])

    def test_torus_wraps_just_below_two_pi_to_zero(self):
        # 0 and -1e-13 are the same point of the circle: the pair cancels
        assert kc.construct(T1, [(0.0, 1.0), (-1e-13, -1.0)]).is_zero
        # np.mod rounds -1e-20 up to 2 pi; the atom belongs at 0
        mu = kc.construct(T1, [(-1e-20, 1.0)])
        assert mu.points[0, 0] == 0.0 and mu.weights[0] == 1.0

    @pytest.mark.parametrize("order", [[0, 1, 2], [0, 2, 1]])
    def test_chain_merges_in_any_order(self, order):
        atoms = [(0.0, 1.0), (0.9e-12, 2.0), (1.8e-12, 4.0)]
        mu = kc.construct(E1, [atoms[i] for i in order])
        assert mu.n_atoms == 1
        assert mu.points[0, 0] == 0.0 and mu.weights[0] == 7.0

    def test_groups_are_not_neighbours_in_point_order(self):
        # (0.5e-12, 7) sorts between the two points of the other group
        mu = kc.construct(kc.euclidean(2), [([0.0, 0.0], 1.0), ([0.5e-12, 7.0], 2.0),
                                            ([0.7e-12, 0.0], 4.0)])
        assert mu.points.tolist() == [[0.0, 0.0], [0.5e-12, 7.0]]
        assert mu.weights.tolist() == [5.0, 2.0]

    @pytest.mark.parametrize("weight", [None, [1.0], "one"])
    def test_non_numeric_weight(self, weight):
        with pytest.raises(InvalidMeasureError):
            kc.construct(E1, [(0.0, weight)])

    def test_probability_flag(self):
        mu = kc.construct(E1, [(0.0, 0.25), (1.0, 0.75)])
        assert mu.is_probability
        assert not kc.construct(E1, [(0.0, 0.5), (1.0, -0.5), (2.0, 1.0)]).is_probability


@st.composite
def atom_lists(draw):
    n = draw(st.integers(1, 6))
    atoms = []
    for _ in range(n):
        x = draw(st.floats(-5, 5, allow_nan=False))
        w = draw(st.floats(-3, 3, allow_nan=False).filter(lambda v: abs(v) > 1e-6))
        atoms.append((x, w))
    return atoms


SPACES = [kc.euclidean(d) for d in (1, 2, 3)] + [kc.torus(d) for d in (1, 2, 3)]


@st.composite
def clustered_atoms(draw, space, step):
    """Atoms around a few grid points, each coordinate offset by a multiple
    of ``step``, with exact duplicates and cancelling pairs.  With
    ``step = 0.45e-12`` every run of close coordinates spans less than
    ``ATOM_MERGE_TOL`` (chain-free); with larger steps chains form."""
    d = space.dim
    grid = st.integers(0, 20) if space.is_torus else st.integers(-20, 20)
    centers = draw(st.lists(st.tuples(*[grid] * d), min_size=1, max_size=4))
    weight = st.floats(-3, 3, allow_nan=False).filter(lambda v: abs(v) > 1e-3)
    atoms = []
    for _ in range(draw(st.integers(1, 12))):
        c = draw(st.sampled_from(centers))
        offsets = draw(st.tuples(*[st.integers(0, 2)] * d))
        p = np.array([0.3 * ci + step * oi for ci, oi in zip(c, offsets)])
        w = draw(weight)
        atoms.append((p, w))
        if draw(st.booleans()):
            atoms.append((p.copy(), draw(st.sampled_from([w, -w]))))
    return atoms


def _assert_same_up_to_rounding(a, b, tol):
    """Same atoms and weights, except that a weight within ``tol`` of zero
    may have cancelled to exact zero on one side only."""
    big_a, big_b = np.abs(a.weights) > tol, np.abs(b.weights) > tol
    assert np.array_equal(a.points[big_a], b.points[big_b])
    assert np.all(np.abs(a.weights[big_a] - b.weights[big_b]) <= tol)


class TestCanonicalForm:
    @pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.kind}{s.dim}")
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_permutation(self, space, data):
        atoms = data.draw(clustered_atoms(space, data.draw(st.sampled_from([0.45e-12, 0.6e-12]))))
        perm = data.draw(st.permutations(range(len(atoms))))
        mu = kc.construct(space, atoms)
        nu = kc.construct(space, [atoms[i] for i in perm])
        tv = sum(abs(w) for _, w in atoms)
        _assert_same_up_to_rounding(mu, nu, len(atoms) * np.finfo(float).eps * tv)

    @pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.kind}{s.dim}")
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_idempotent_and_separated(self, space, data):
        atoms = data.draw(clustered_atoms(space, data.draw(st.sampled_from([0.45e-12, 0.6e-12]))))
        mu = kc.construct(space, atoms)
        again = kc.construct(space, zip(mu.points, mu.weights))
        assert np.array_equal(again.points, mu.points)
        assert np.array_equal(again.weights, mu.weights)
        assert np.all(mu.weights != 0.0)
        if space.is_torus:
            assert np.all((mu.points >= 0.0) & (mu.points < 2 * PI))
        for i in range(mu.n_atoms):
            for j in range(i + 1, mu.n_atoms):
                assert np.max(np.abs(mu.points[i] - mu.points[j])) >= ATOM_MERGE_TOL

    @pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.kind}{s.dim}")
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_greedy_loop_without_chains(self, space, data):
        atoms = data.draw(clustered_atoms(space, 0.45e-12))
        mu = kc.construct(space, atoms)
        # a merged atom sits at its group's least point, with the weights
        # added in point order: the greedy loop does the same on sorted input
        by_point = sorted(range(len(atoms)), key=lambda i: tuple(atoms[i][0]))
        points, weights = greedy_merge([atoms[i] for i in by_point], space.dim, space.is_torus)
        assert np.array_equal(mu.points, points)
        assert np.array_equal(mu.weights, weights)
        # on exact duplicates alone the greedy loop gives the same bits in input order
        exact = [(np.round(p, 6), w) for p, w in atoms]
        points, weights = greedy_merge(exact, space.dim, space.is_torus)
        nu = kc.construct(space, exact)
        assert np.array_equal(nu.points, points)
        assert np.array_equal(nu.weights, weights)


class TestJordan:
    def test_sign_split(self):
        mu = kc.construct(E1, [(0.0, 1.0), (1.0, -1.0)])
        plus, minus = kc.jordan_decompose(mu)
        assert plus.n_atoms == 1 and plus.weights[0] == 1.0
        assert minus.n_atoms == 1 and minus.weights[0] == 1.0

    def test_all_positive(self):
        mu = kc.construct(E1, [(0.0, 1.0), (1.0, 2.0)])
        plus, minus = kc.jordan_decompose(mu)
        assert minus.is_zero and plus.n_atoms == 2

    def test_three_atoms(self):
        mu = kc.construct(E1, [(0.0, 2.0), (1.0, -3.0), (2.0, 1.0)])
        plus, minus = kc.jordan_decompose(mu)
        assert plus.total_mass == 3.0 and minus.total_mass == 3.0
        assert sorted(minus.weights.tolist()) == [3.0]

    @given(atom_lists())
    @settings(max_examples=60, deadline=None)
    def test_reconstruction(self, atoms):
        mu = kc.construct(E1, atoms)
        plus, minus = kc.jordan_decompose(mu)
        diff = plus - minus
        assert diff.n_atoms == mu.n_atoms
        assert np.array_equal(diff.points, mu.points)
        assert np.array_equal(diff.weights, mu.weights)
        # disjoint supports: distinct atoms are at least the merge tolerance apart
        for p in plus.points:
            for q in minus.points:
                assert np.max(np.abs(p - q)) >= 1e-12


class TestNormalizeToPQ:
    def test_two_diracs(self):
        mu = kc.construct(E1, [(0.0, 1.0), (1.0, -1.0)])
        P, Q = kc.normalize_to_pq(mu)
        assert P.is_probability and Q.is_probability
        assert P.points[0, 0] == 0.0 and Q.points[0, 0] == 1.0

    def test_uniform_pair(self):
        mu = kc.construct(E1, [(0.0, 0.5), (1.0, 0.5), (2.0, -1.0)])
        P, Q = kc.normalize_to_pq(mu)
        assert np.allclose(P.weights, [0.5, 0.5])
        assert Q.n_atoms == 1 and Q.weights[0] == 1.0

    def test_alpha_scaling(self):
        mu = kc.construct(E1, [(0.0, 2.0), (1.0, -2.0)])
        P, Q = kc.normalize_to_pq(mu)
        assert P.weights[0] == 1.0 and Q.weights[0] == 1.0
        # alpha (P - Q) recovers mu exactly on atoms
        recon = (P - Q).scaled(2.0)
        assert np.array_equal(recon.points, mu.points)
        assert np.allclose(recon.weights, mu.weights, rtol=0, atol=1e-15)

    def test_rejects_nonzero_mass(self):
        with pytest.raises(InvalidMeasureError):
            kc.normalize_to_pq(kc.construct(E1, [(0.0, 1.0)]))

    def test_rejects_zero_measure(self):
        with pytest.raises(InvalidMeasureError):
            kc.normalize_to_pq(kc.construct(E1, []))


class TestFourierTransform:
    def test_dirac_at_origin(self):
        mu = kc.construct(E1, [(0.0, 1.0)])
        for w in (0.0, 1.0, -3.7):
            assert kc.fourier_transform(mu, w) == 1.0 + 0.0j

    def test_shifted_dirac(self):
        mu = kc.construct(E1, [(1.7, 1.0)])
        w = 0.9
        assert abs(kc.fourier_transform(mu, w) - np.exp(-1j * w * 1.7)) <= 1e-15

    def test_frozen_difference(self, frozen):
        mu = kc.construct(E1, [(0.0, 1.0), (1.0, -1.0)])
        z = kc.fourier_transform(mu, PI)
        re, im = frozen["ft_delta_diff_at_pi"]
        assert abs(z - complex(re, im)) <= 1e-10

    def test_modulus_bounded_by_total_variation(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            mu = kc.construct(kc.euclidean(2),
                              list(zip(rng.normal(0, 2, (n, 2)), rng.normal(0, 1, n))))
            if mu.is_zero:
                continue
            w = rng.normal(0, 3, 2)
            assert abs(kc.fourier_transform(mu, w)) <= mu.total_variation + 1e-12

    def test_rejects_torus(self):
        with pytest.raises(SpaceMismatchError):
            kc.fourier_transform(kc.construct(T1, [(0.0, 1.0)]), 1.0)


class TestTorusCoefficient:
    def test_dirac(self):
        mu = kc.construct(T1, [(0.0, 1.0)])
        for n in (-2, 0, 5):
            assert abs(kc.torus_coefficient(mu, n) - 1.0 / (2 * PI)) <= 1e-15

    def test_cosine_density_exact(self):
        mu = kc.TorusCosine(1.0, 3)
        assert kc.torus_coefficient(mu, 3) == 1.0
        assert kc.torus_coefficient(mu, -3) == 1.0
        assert kc.torus_coefficient(mu, 2) == 0.0

    def test_frozen_difference(self, frozen):
        mu = kc.construct(T1, [(0.0, 1.0), (PI, -1.0)])
        z = kc.torus_coefficient(mu, 1)
        re, im = frozen["torus_coeff_delta_diff_n1"]
        assert abs(z - complex(re, im)) <= 1e-10

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        mu = kc.construct(T1, list(zip(rng.uniform(0, 2 * PI, (6, 1)),
                                       rng.normal(0, 1, 6))))
        for n in range(-4, 5):
            a = kc.torus_coefficient(mu, n)
            b = kc.torus_coefficient(mu, -n)
            assert abs(a - np.conj(b)) <= 1e-14


class TestDensityFamilies:
    def test_derived_spectrum_constants(self, frozen):
        hw, peak = kc.sinc_sq_spectrum()
        assert abs(hw - frozen["sincsq_half_width"]) <= 1e-10 * hw
        assert abs(peak - frozen["sincsq_peak"]) <= 1e-10 * peak

    def test_band_peak_and_gap(self):
        hw, peak = kc.sinc_sq_spectrum()
        mu = kc.ModulatedSincSq(0.5, omega0=hw + 2.0)
        assert abs(kc.density_ft(mu, mu.omega0) - 0.5 * peak) <= 1e-12
        assert kc.density_ft(mu, 0.0) == 0.0  # outside both bands

    def test_quadrature_oracle_match(self, frozen):
        fx = frozen["modsincsq_ft"]
        mu = kc.ModulatedSincSq(fx["alpha"], fx["omega0"])
        for w, v in zip(fx["omegas"], fx["values"]):
            impl = kc.density_ft(mu, w)
            assert abs(impl - v) <= 1e-6
            assert abs(impl - v) <= 1e-10 * max(1.0, abs(v))

    def test_torus_cosine_quadrature(self):
        # coefficients of the cosine density by direct quadrature
        mu = kc.TorusCosine(0.7, 2)
        for n in (0, 1, 2, 3):
            val, _ = kc.integrate_1d(
                lambda x, n=n: float(mu.density(x)) * math.cos(n * x), 0.0, 2 * PI)
            expect = 2 * PI * 0.7 if n == 2 else 0.0
            assert abs(val - expect) <= 1e-9

    def test_parameter_validation(self):
        with pytest.raises(InvalidMeasureError):
            kc.TorusCosine(0.0, 1)
        with pytest.raises(InvalidMeasureError):
            kc.TorusCosine(1.0, 0)
        with pytest.raises(InvalidMeasureError):
            kc.ModulatedSincSq(1.0, -2.0)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidMeasureError):
                kc.TorusCosine(bad, 1)
            with pytest.raises(InvalidMeasureError):
                kc.ModulatedSincSq(bad, 4.0)
            with pytest.raises(InvalidMeasureError):
                kc.ModulatedSincSq(1.0, bad)

    @pytest.mark.parametrize("omega0", [0.05, 3.5, 4.0, 5.0])
    def test_l1_norm_is_the_core_of_a_bracket(self, omega0):
        # beyond 60 the norm adds a tail in (0, 4 |alpha| / 60], so the
        # norm lies in [value, value + 4 |alpha| / 60] when value is the core
        alpha = -1.5
        core = float(modsincsq_l1_core(alpha, omega0, 60))
        assert abs(kc.ModulatedSincSq(alpha, omega0).l1_norm() - core) <= 1e-14 * core

    def test_l1_norm_at_a_high_frequency(self):
        # the window shrinks to keep within the panel limit; its lower end
        # stays positive and below the window's bound 4 |alpha| X
        t0 = time.perf_counter()
        value = kc.ModulatedSincSq(1.0, 1e9).l1_norm()
        assert time.perf_counter() - t0 < 1.0
        window = kc.numerics.MAX_PANELS * math.pi / (1e9 + 1.0)
        assert 0.0 < value <= 4.0 * window

    @pytest.mark.parametrize("omega0,value", [(4.0, 3.978678538434856),
                                              (1e5 + 3, 3.8509477577583584),
                                              (1e9, 0.002097151838658413)])
    def test_l1_norm_values_of_the_unchunked_sum(self, omega0, value):
        # values of the sum over all 2^18 panels at once, before chunking
        got = kc.ModulatedSincSq(1.0, omega0).l1_norm()
        assert abs(got - value) <= 1e-14 * value

    def test_l1_norm_memory_at_a_high_frequency(self):
        kc.sinc_sq_spectrum()  # derived once and cached, outside the trace
        tracemalloc.start()
        try:
            kc.ModulatedSincSq(1.0, 1e9).l1_norm()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestJson:
    def test_round_trip_discrete(self):
        mu = kc.construct(kc.torus(2), [([0.0, 1.0], 0.5), ([2.0, 3.0], -0.25)])
        doc = kc.measure_to_json(mu)
        back = kc.measure_from_json(json.loads(json.dumps(doc)))
        assert np.array_equal(back.points, mu.points)
        assert np.array_equal(back.weights, mu.weights)

    def test_round_trip_densities(self):
        for mu in (kc.TorusCosine(0.5, 4), kc.ModulatedSincSq(1.5, 6.0)):
            back = kc.measure_from_json(kc.measure_to_json(mu))
            assert back == mu

    def test_unknown_field_rejected(self):
        doc = {"space": {"kind": "euclidean", "dim": 1},
               "atoms": [{"x": [0.0], "w": 1.0}], "extra": 1}
        with pytest.raises(InvalidMeasureError):
            kc.measure_from_json(doc)

    def test_atom_field_typo_rejected(self):
        doc = {"space": {"kind": "euclidean", "dim": 1},
               "atoms": [{"x": [0.0], "weight": 1.0}]}
        with pytest.raises(InvalidMeasureError):
            kc.measure_from_json(doc)

    def test_needs_exactly_one_payload(self):
        doc = {"space": {"kind": "euclidean", "dim": 1}}
        with pytest.raises(InvalidMeasureError):
            kc.measure_from_json(doc)
