
import time

import numpy as np
import pytest

import kernelcert as kc
from kernelcert.measures import SpaceMismatchError
from kernelcert.numerics import solve_lp
from kernelcert.weaktopo import _constraint_rows, _sample_empirical

from conftest import random_probability

E1 = kc.euclidean(1)


def lipschitz_rows_loop(dist):
    """The bounded-Lipschitz constraint rows built one at a time: the
    reference for the array build."""
    n = len(dist)
    nv = n + 2  # f_1..f_n, s, L
    rows = []
    for i in range(n):
        r = np.zeros(nv); r[i] = 1.0; r[n] = -1.0   # f_i <= s
        rows.append(r)
        r = np.zeros(nv); r[i] = -1.0; r[n] = -1.0  # -f_i <= s
        rows.append(r)
    for i in range(n):
        for j in range(i + 1, n):
            r = np.zeros(nv); r[i] = 1.0; r[j] = -1.0; r[n + 1] = -dist[i, j]
            rows.append(r)          # f_i - f_j <= L d_ij
            rows.append(-r.copy())
            rows[-1][n + 1] = -dist[i, j]  # f_j - f_i <= L d_ij
    return np.array(rows)


def dense_bounded_lipschitz(P, Q):
    """The bounded-Lipschitz LP over every atom pair, as one dense program:
    the reference for the pair generation."""
    diff = P - Q
    delta = diff.weights if diff.weights[0] > 0 else -diff.weights
    n = len(delta)
    A_ub = lipschitz_rows_loop(np.linalg.norm(diff.points[:, None] - diff.points[None], axis=2))
    A_eq = np.zeros((1, n + 2))
    A_eq[0, n:] = 1.0
    c = np.zeros(n + 2)
    c[:n] = -delta
    fun, _ = solve_lp(c, A_ub=A_ub, b_ub=np.zeros(len(A_ub)), A_eq=A_eq, b_eq=np.ones(1),
                      bounds=[(None, None)] * n + [(0.0, None)] * 2)
    return -fun


def probe_program(seed, d, atoms=150, size=25):
    """A target of ``atoms`` random atoms and an empirical sample of it, drawn
    in this order from one generator."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(0, 1, (atoms, d))
    w = rng.random(atoms)
    target = kc.construct(kc.euclidean(d), list(zip(pts, w / w.sum())))
    return _sample_empirical(target, size, rng), target


class TestBoundedLipschitz:
    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (7, 2), (40, 3)])
    def test_constraint_rows_match_the_loop(self, n, d):
        pts = np.random.default_rng(n).normal(0, 1, (n, d))
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        i, j = np.triu_indices(n, 1)
        rows = _constraint_rows(n, i, j, dist[i, j])
        assert np.array_equal(rows.toarray(), lipschitz_rows_loop(dist))

    @pytest.mark.parametrize("seed,d,atoms,size", [(1021, 2, 150, 25), (1096, 2, 150, 25),
                                                   (2002, 2, 60, 5)])
    def test_programs_near_the_residual_check(self, seed, d, atoms, size):
        # HiGHS's default 1e-7 tolerances left residuals of 2.4e-8, 9.3e-9
        # and 1.2e-9 here, which the 1e-9 check refused
        P, T = probe_program(seed, d, atoms, size)
        assert abs(kc.bounded_lipschitz(P, T) - dense_bounded_lipschitz(P, T)) <= 1e-9

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("seed", range(1000, 1010))
    def test_generated_pairs_match_all_pairs(self, seed, d):
        P, T = probe_program(seed, d)
        val = kc.bounded_lipschitz(P, T)
        assert val == kc.bounded_lipschitz(T, P)
        assert abs(val - dense_bounded_lipschitz(P, T)) <= 1e-9

    def test_line_program_is_linear_in_size(self):
        rng = np.random.default_rng(480)
        P, Q = (kc.construct(E1, [(x, 1 / 240) for x in rng.normal(0, 1, 240)]) for _ in "PQ")
        t0 = time.perf_counter()
        kc.bounded_lipschitz(P, Q)
        assert time.perf_counter() - t0 < 1.0

    def test_equal_measures(self):
        P = kc.dirac(E1, 0.3)
        assert kc.bounded_lipschitz(P, P) == 0.0

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 10.0])
    def test_two_diracs_closed_form(self, t, frozen):
        P, Q = kc.dirac(E1, 0.0), kc.dirac(E1, t)
        val = kc.bounded_lipschitz(P, Q)
        assert abs(val - frozen["bl_two_diracs"][str(t)]) <= 1e-8
        assert abs(val - 2 * t / (t + 2)) <= 1e-8

    def test_monotone_in_separation(self):
        vals = [kc.bounded_lipschitz(kc.dirac(E1, 0.0), kc.dirac(E1, t))
                for t in (0.5, 1.0, 2.0, 10.0, 100.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v <= 2.0 + 1e-9 for v in vals)  # total-variation ceiling

    def test_metric_properties(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            P = random_probability(E1, int(rng.integers(1, 5)), rng)
            Q = random_probability(E1, int(rng.integers(1, 5)), rng)
            R = random_probability(E1, int(rng.integers(1, 5)), rng)
            pq = kc.bounded_lipschitz(P, Q)
            assert pq == kc.bounded_lipschitz(Q, P)
            assert pq <= kc.bounded_lipschitz(P, R) + kc.bounded_lipschitz(R, Q) + 1e-8
        assert kc.bounded_lipschitz(P, P) == 0.0

    def test_zero_iff_equal(self):
        P = kc.construct(E1, [(0.0, 0.5), (1.0, 0.5)])
        Q = kc.construct(E1, [(0.0, 0.5), (1.0, 0.5)])
        assert kc.bounded_lipschitz(P, Q) == 0.0
        R = kc.construct(E1, [(0.0, 0.4), (1.0, 0.6)])
        assert kc.bounded_lipschitz(P, R) > 1e-3

    def test_rejects_torus(self):
        P = kc.construct(kc.torus(1), [(0.0, 1.0)])
        with pytest.raises(SpaceMismatchError):
            kc.bounded_lipschitz(P, P)

    def test_size_limit(self):
        rng = np.random.default_rng(0)
        P = random_probability(E1, 300, rng)
        Q = random_probability(E1, 300, rng)
        with pytest.raises(ValueError):
            kc.bounded_lipschitz(P, Q)


class TestSpecs:
    def test_sizes_must_increase(self):
        target = kc.dirac(E1, 0.0)
        with pytest.raises(ValueError):
            kc.empirical_from_target(target, [8, 8, 16])

    def test_scales_must_decrease(self):
        with pytest.raises(ValueError):
            kc.shrink_to_dirac([0.0], [0.1, 0.2])

    def test_generated_measures_are_probabilities(self):
        spec = kc.shrink_to_dirac([0.0], [0.5, 0.25])
        from kernelcert.weaktopo import generate_sequence
        for _, mu in generate_sequence(spec):
            assert mu.is_probability

    @pytest.mark.parametrize("kind", ["shrink", "moving"])
    def test_shrink_and_moving_need_a_one_atom_target(self, kind):
        # the sequence is built around one atom: with 1/2 delta_0 + 1/2 delta_3
        # it would converge to delta_0, not to the target
        target = kc.construct(E1, [(0.0, 0.5), (3.0, 0.5)])
        with pytest.raises(ValueError, match=kind):
            kc.ConvergenceSpec(kind, target, (1.0, 0.5, 0.1))

    def test_sample_sizes_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            kc.empirical_from_target(kc.dirac(E1, 0.0), [0, 5])


def sample_by_construct(target, size, rng):
    """The empirical sample built through ``construct`` from one
    (point, weight) pair per draw: the reference for the counting build."""
    cum = np.cumsum(target.weights)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, rng.random(size), side="right")
    return kc.construct(target.space, zip(target.points[idx], np.full(size, 1.0 / size)))


class TestEmpiricalSample:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("size", [1, 7, 100, 4099])
    def test_counts_match_the_construct_path(self, seed, d, size):
        rng = np.random.default_rng(seed)
        space = kc.torus(d) if seed % 2 else kc.euclidean(d)
        target = random_probability(space, int(rng.integers(1, 200)), rng)
        got = _sample_empirical(target, size, np.random.default_rng(seed + 10))
        want = sample_by_construct(target, size, np.random.default_rng(seed + 10))
        assert got.space == want.space
        assert np.array_equal(got.points, want.points)
        assert np.array_equal(got.weights, want.weights)
        assert got.is_probability

    def test_memory_grows_with_the_draws_not_the_pairs(self):
        # a million draws from 150 atoms: about 16 bytes per draw, not a
        # (point, weight) pair of Python objects per draw
        import tracemalloc

        rng = np.random.default_rng(0)
        target = random_probability(kc.euclidean(2), 150, rng)
        tracemalloc.start()
        try:
            sample = _sample_empirical(target, 10 ** 6, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.n_atoms <= 150 and sample.is_probability
        assert peak < 32 * 2 ** 20


class TestRunConvergence:
    def test_shrink_gaussian(self):
        k = kc.gaussian_ti(1.0)
        spec = kc.shrink_to_dirac([0.0], [2.0 ** -n for n in range(1, 7)])
        rep = kc.run_convergence(k, spec)
        g = [r[1] for r in rep.rows]
        b = [r[2] for r in rep.rows]
        assert all(x > y for x, y in zip(g, g[1:]))
        assert all(x > y for x, y in zip(b, b[1:]))
        assert kc.comonotonicity_check(rep) == "holds"

    def test_moving_atom_closed_forms(self, frozen):
        k = kc.gaussian_ti(1.0)
        offsets = [3.0, 2.0, 1.0, 0.5, 0.1, 0.01]
        rep = kc.run_convergence(k, kc.moving_atom([0.0], offsets))
        for (t, g, b) in rep.rows:
            assert abs(g - frozen["gauss_mmd_two_diracs"][str(t)]) <= 1e-12
            assert abs(b - 2 * t / (t + 2)) <= 1e-8

    def test_constant_negative_control(self):
        k = kc.constant(1.0)
        spec = kc.shrink_to_dirac([0.0], [0.5, 0.25, 0.125, 0.0625])
        rep = kc.run_convergence(k, spec, negative_control=True)
        assert all(r[1] == 0.0 for r in rep.rows)
        assert any(r[2] > 0 for r in rep.rows)
        assert kc.comonotonicity_check(rep) == "fails"

    def test_non_characteristic_needs_flag(self):
        spec = kc.shrink_to_dirac([0.0], [0.5, 0.25])
        with pytest.raises(ValueError):
            kc.run_convergence(kc.constant(1.0), spec)

    def test_space_mismatch(self):
        spec = kc.shrink_to_dirac([0.0, 0.0], [0.5, 0.25], dim=2)
        with pytest.raises(SpaceMismatchError):
            kc.run_convergence(kc.gaussian_ti(1.0, dim=1), spec)

    def test_empirical_deterministic(self):
        target = kc.construct(E1, [(-1.0, 0.25), (0.0, 0.5), (2.0, 0.25)])
        spec = kc.empirical_from_target(target, [4, 16, 64], seed=5)
        k = kc.gaussian_ti(1.0)
        r1 = kc.run_convergence(k, spec)
        r2 = kc.run_convergence(k, spec)
        assert r1.rows == r2.rows

    def test_scale_invariance_of_verdict(self):
        # scaling the kernel by c scales gamma rows by sqrt(c) and keeps
        # the comonotonicity verdict
        spec = kc.shrink_to_dirac([0.0], [2.0 ** -n for n in range(1, 6)])
        k1 = kc.radial_atoms([(1.0, 1.0)])
        k2 = kc.radial_atoms([(1.0, 2.25)])
        r1 = kc.run_convergence(k1, spec)
        r2 = kc.run_convergence(k2, spec)
        for (_, g1, b1), (_, g2, b2) in zip(r1.rows, r2.rows):
            assert abs(g2 - 1.5 * g1) <= 1e-12 * max(1.0, g2)
            assert b1 == b2
        assert kc.comonotonicity_check(r1) == kc.comonotonicity_check(r2)


class TestComonotonicity:
    def test_too_few_rows(self):
        k = kc.gaussian_ti(1.0)
        spec = kc.shrink_to_dirac([0.0], [0.5, 0.25])
        rep = kc.run_convergence(k, spec)
        with pytest.raises(ValueError):
            kc.comonotonicity_check(rep)

    def test_increasing_tail_fails(self):
        from kernelcert.weaktopo import ExperimentReport
        spec = kc.shrink_to_dirac([0.0], [0.5, 0.25, 0.125])
        rep = ExperimentReport(kernel=None, spec=spec,
                               rows=((1.0, 0.1, 0.1), (2.0, 0.2, 0.2), (3.0, 0.3, 0.3)))
        assert kc.comonotonicity_check(rep) == "fails"

    def test_csv_format(self):
        k = kc.gaussian_ti(1.0)
        spec = kc.moving_atom([0.0], [1.0, 0.5, 0.25])
        rep = kc.run_convergence(k, spec)
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == "param,gamma_k,bounded_lipschitz"
        assert len(lines) == 4
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 1.0
