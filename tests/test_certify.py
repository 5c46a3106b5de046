import importlib
import math

import numpy as np
import pytest

import kernelcert as kc
from kernelcert import Certificate
from kernelcert.certify import FAILS, HOLDS, UNKNOWN, UnsupportedPropertyError

PI = math.pi

certify_mod = importlib.import_module("kernelcert.certify")

# expected verdict matrix for the canonical zoo
EXPECTED = {
    "gaussian_ti": dict(c0_universal=HOLDS, cc_universal=HOLDS,
                        characteristic=HOLDS, strictly_pd=HOLDS,
                        cond_strictly_pd=HOLDS),
    "laplacian_ti": dict(c0_universal=HOLDS, cc_universal=HOLDS,
                         characteristic=HOLDS, strictly_pd=HOLDS,
                         cond_strictly_pd=HOLDS),
    "b1_spline": dict(c0_universal=HOLDS, cc_universal=HOLDS,
                      characteristic=HOLDS, strictly_pd=HOLDS,
                      cond_strictly_pd=HOLDS),
    "sinc": dict(c0_universal=FAILS, cc_universal=HOLDS,
                 characteristic=FAILS, strictly_pd=HOLDS,
                 cond_strictly_pd=HOLDS),
    "sinc_sq": dict(c0_universal=FAILS, cc_universal=HOLDS,
                    characteristic=FAILS, strictly_pd=HOLDS,
                    cond_strictly_pd=HOLDS),
    "poisson_torus": dict(c_universal=HOLDS, c0_universal=HOLDS,
                          cc_universal=HOLDS, characteristic=HOLDS,
                          strictly_pd=HOLDS, cond_strictly_pd=HOLDS),
    "expcos_torus": dict(c_universal=HOLDS, characteristic=HOLDS,
                         strictly_pd=HOLDS),
    "quadpoly_torus": dict(c_universal=HOLDS, characteristic=HOLDS,
                           strictly_pd=HOLDS),
    "dirichlet": dict(c_universal=FAILS, c0_universal=FAILS,
                      cc_universal=FAILS, characteristic=FAILS,
                      strictly_pd=FAILS, cond_strictly_pd=FAILS),
    "fejer": dict(c_universal=FAILS, characteristic=FAILS,
                  strictly_pd=FAILS, cond_strictly_pd=FAILS),
    "radial_gaussian": dict(c0_universal=HOLDS, cc_universal=HOLDS,
                            characteristic=HOLDS, strictly_pd=HOLDS,
                            cond_strictly_pd=HOLDS),
    "inverse_multiquadric": dict(c0_universal=HOLDS, cc_universal=HOLDS,
                                 characteristic=HOLDS, strictly_pd=HOLDS),
    "radial_atoms": dict(c0_universal=HOLDS, strictly_pd=HOLDS),
    "constant": dict(c0_universal=FAILS, cc_universal=FAILS,
                     characteristic=FAILS, strictly_pd=FAILS,
                     cond_strictly_pd=FAILS),
    "taylor_exp": dict(cc_universal=HOLDS, strictly_pd=HOLDS,
                       cond_strictly_pd=HOLDS, c0_universal=UNKNOWN,
                       characteristic=UNKNOWN),
    "taylor_binomial": dict(cc_universal=HOLDS, strictly_pd=HOLDS),
}


class TestRuleTable:
    @pytest.mark.parametrize("family", sorted(EXPECTED))
    def test_zoo_verdicts(self, family, zoo_kernels):
        k = zoo_kernels[family]
        for prop, want in EXPECTED[family].items():
            cert = kc.certify(k, prop)
            assert cert.verdict == want, (family, prop, cert.verdict)

    def test_rule_ids_for_band_limited(self, zoo_kernels):
        # the integrable profile goes through the strict-pd route, the
        # non-integrable one through the support-interior route
        assert kc.certify(zoo_kernels["sinc"], "cc_universal").rule_id == \
            "a1_spectral_interior"
        assert kc.certify(zoo_kernels["sinc_sq"], "cc_universal").rule_id == \
            "a1_integrable_strictly_pd"

    def test_failing_certificates_carry_witnesses(self, zoo_kernels):
        for family in ("sinc", "sinc_sq", "dirichlet", "fejer", "constant"):
            k = zoo_kernels[family]
            for cert in kc.certify_all(k):
                if cert.verdict == FAILS:
                    assert cert.witness_ref is not None, (family, cert.property)

    def test_torus_coefficient_at_zero_reported(self, zoo_kernels):
        cert = kc.certify(zoo_kernels["dirichlet"], "characteristic")
        assert cert.details["coefficient_at_zero"] == 1.0
        cert = kc.certify(zoo_kernels["quadpoly_torus"], "c_universal")
        assert abs(cert.details["coefficient_at_zero"] - PI ** 2 / 3) <= 1e-15

    def test_c_universal_needs_compact_space(self, zoo_kernels):
        with pytest.raises(UnsupportedPropertyError):
            kc.certify(zoo_kernels["gaussian_ti"], "c_universal")
        with pytest.raises(UnsupportedPropertyError):
            kc.certify(zoo_kernels["taylor_exp"], "c_universal")

    def test_unknown_property_rejected(self, zoo_kernels):
        with pytest.raises(UnsupportedPropertyError):
            kc.certify(zoo_kernels["gaussian_ti"], "cb_universal")

    def test_deterministic(self, zoo_kernels):
        for k in zoo_kernels.values():
            a = [(c.property, c.verdict, c.rule_id) for c in kc.certify_all(k)]
            b = [(c.property, c.verdict, c.rule_id) for c in kc.certify_all(k)]
            assert a == b


class TestStrictPDProbe:
    def test_constant_fails_on_two_points(self):
        probe = kc.check_strict_pd_numeric(kc.constant(1.0), [[0.0], [1.0]])
        assert probe.fails_on_set and abs(probe.min_eigenvalue) <= 1e-12

    def test_gaussian_random_points_positive(self, frozen):
        rng = np.random.default_rng(42)
        pts = rng.normal(0.0, 1.0, (20, 2))
        probe = kc.check_strict_pd_numeric(kc.gaussian_ti(1.0, 2), pts)
        assert not probe.fails_on_set and probe.min_eigenvalue > 0
        assert abs(probe.min_eigenvalue - frozen["gaussian_gram_20pts_r2_min_eig"]) <= 1e-8

    def test_dirichlet_rank_deficiency(self):
        # degree-1 trig polynomial spans 3 frequencies: 4 points give rank <= 3
        pts = (2 * PI * np.arange(4) / 4)[:, None]
        probe = kc.check_strict_pd_numeric(kc.dirichlet(1), pts)
        assert probe.fails_on_set

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            kc.check_strict_pd_numeric(kc.gaussian_ti(1.0), [[0.0], [0.0]])

    def test_refutation_within_trials(self, zoo_kernels):
        # certificates that say fails are confirmed by a random probe quickly
        rng = np.random.default_rng(7)
        for family in ("dirichlet", "fejer", "constant"):
            k = zoo_kernels[family]
            found = False
            for _ in range(50):
                n = 8
                if k.space.is_torus:
                    pts = rng.uniform(0, 2 * PI, (n, 1))
                else:
                    pts = rng.normal(0, 1, (n, 1))
                if kc.check_strict_pd_numeric(k, pts).fails_on_set:
                    found = True
                    break
            assert found, family

    def test_no_false_refutation(self, zoo_kernels):
        # separated points keep the genuinely positive spectrum visible
        rng = np.random.default_rng(3)
        for family in ("gaussian_ti", "laplacian_ti", "poisson_torus"):
            k = zoo_kernels[family]
            for _ in range(50):
                n = int(rng.integers(2, 9))
                if k.space.is_torus:
                    pts = (2 * PI * (np.arange(n) + rng.uniform(0.1, 0.9, n)) / n)[:, None]
                else:
                    pts = (0.8 * np.arange(n) + rng.uniform(0.1, 0.7, n))[:, None]
                assert not kc.check_strict_pd_numeric(k, pts).fails_on_set


class TestCondStrictPDProbe:
    def test_constant_two_points(self):
        probe = kc.check_cond_strict_pd_numeric(kc.constant(2.0), [[0.0], [1.0]])
        assert probe.fails_on_set and abs(probe.min_eigenvalue) <= 1e-12

    def test_gaussian_three_points(self):
        probe = kc.check_cond_strict_pd_numeric(kc.gaussian_ti(1.0), [[0.0], [1.0], [2.0]])
        assert not probe.fails_on_set and probe.min_eigenvalue > 0

    def test_two_point_expansion_identity(self):
        k = kc.laplacian_ti(0.9)
        x, y = 0.3, 1.4
        probe = kc.check_cond_strict_pd_numeric(k, [[x], [y]])
        form = 0.5 * (kc.eval_kernel(k, x, x) + kc.eval_kernel(k, y, y)
                      - 2 * kc.eval_kernel(k, x, y))
        # the only unit zero-sum direction is (1,-1)/sqrt(2)
        assert abs(probe.min_eigenvalue - form) <= 1e-12


class TestAudit:
    def test_direct_violation(self, zoo_kernels):
        k = zoo_kernels["gaussian_ti"]
        certs = [
            Certificate(k, "c0_universal", HOLDS, "a1_support_full", ""),
            Certificate(k, "characteristic", FAILS, "a1_characteristic_support", ""),
        ]
        assert len(kc.audit_implications(certs)) == 1

    def test_unknown_is_inert(self, zoo_kernels):
        k = zoo_kernels["gaussian_ti"]
        certs = [
            Certificate(k, "cc_universal", UNKNOWN, "a4_open", ""),
            Certificate(k, "strictly_pd", HOLDS, "a1_spectral_interior_spd", ""),
        ]
        assert kc.audit_implications(certs) == []

    def test_mixed_kernels_rejected(self, zoo_kernels):
        certs = [
            Certificate(zoo_kernels["gaussian_ti"], "c0_universal", HOLDS, "a1_support_full", ""),
            Certificate(zoo_kernels["sinc"], "c0_universal", FAILS, "a1_support_gap", ""),
        ]
        with pytest.raises(ValueError):
            kc.audit_implications(certs)

    def test_full_zoo_clean(self, zoo_kernels):
        assert len(zoo_kernels) >= 12
        for k in zoo_kernels.values():
            assert kc.audit_implications(kc.certify_all(k)) == []

    def test_graph_covers_required_edges(self):
        edges = {(a, b) for a, b, _ in kc.default_implication_graph().edges}
        required = [
            ("c0_universal", "cc_universal"),
            ("cc_universal", "strictly_pd"),
            ("c0_universal", "characteristic"),
            ("characteristic", "cond_strictly_pd"),
            ("c_universal", "c0_universal"),
            ("c0_universal", "c_universal"),
            ("characteristic", "c0_universal"),  # A1 with vanishing profile
            ("strictly_pd", "c0_universal"),     # radial equivalence
        ]
        for edge in required:
            assert edge in edges


class TestRuleTableExhaustive:
    """Every row of the rule table, read at both values of its class's fact
    on every space kind the class admits, obeys the implication graph."""

    # kernels lending each class the names its rows refer to: each fails its
    # class's fact where a zoo kernel does (a3 borrows the constant kernel's)
    DONORS = {"a1": kc.sinc(1.0), "a2": kc.dirichlet(1), "a3": kc.constant(1.0),
              "constant": kc.constant(1.0), "a4": kc.taylor_exp()}

    @staticmethod
    def _placements(zoo_kernels):
        seen = {}
        for k in zoo_kernels.values():
            seen.setdefault(kc.kernel_class(k), k)
        for klass, k in sorted(seen.items()):
            kinds = ("euclidean", "torus") if klass == "constant" else (k.space.kind,)
            for kind in kinds:
                space = kc.torus(1) if kind == "torus" else kc.euclidean(1)
                yield klass, kc.make_kernel(k.family, space, **dict(k.params))

    def test_every_row_obeys_the_graph(self, zoo_kernels, monkeypatch):
        graph = kc.default_implication_graph()
        read, checks = set(), 0
        for klass, k in self._placements(zoo_kernels):
            _, names, details = certify_mod._facts(self.DONORS[klass])
            for fact in (True, False):
                monkeypatch.setattr(certify_mod, "_facts", lambda _k, f=fact: (f, names, details))
                certs = kc.certify_all(k)
                monkeypatch.undo()
                assert kc.audit_implications(certs) == [], (klass, k.space.kind, fact)
                for cert in certs:
                    read.add((id(certify_mod._TABLE[klass][cert.property]), fact))
                    if cert.verdict == FAILS:
                        assert cert.witness_ref is not None, (klass, cert.property, fact)
                checks += len(graph.applicable(k))
        # rows by identity: a3 and the constant kernel share theirs
        rows = {id(row) for table in certify_mod._TABLE.values() for row in table.values()}
        assert len(rows) == 22
        assert read == {(row, fact) for row in rows for fact in (True, False)}
        # six placements: a1, a2, a3, a4, and the constant kernel on both spaces
        assert checks == 2 * (7 + 14 + 18 + 6 + 18 + 25)
