"""Certification of kernel separation properties from spectral metadata.

Each kernel class has one deciding fact, read from its exact spectral
descriptors: full support of the spectral density (a1), positive Fourier
coefficients (a2), mixing mass away from rate zero (a3, constant) or
positive Taylor coefficients (a4).  The rule table has one row per class
and property, and the fact picks the row's outcome: a new property or
metadata source adds rows, not branches.  ``tests/test_certify.py`` checks
every row at both values of its fact against the implication graph.

Properties:

* ``c_universal``      dense in C(X) on a compact space
* ``cc_universal``     dense under compact convergence
* ``c0_universal``     dense in the functions vanishing at infinity
* ``characteristic``   injective embedding of probability measures
* ``strictly_pd``      Gram form vanishes only at zero coefficients
* ``cond_strictly_pd`` same restricted to zero-sum coefficients

Verdicts are ``holds``, ``fails`` or ``unknown``; ``unknown`` marks the
cases the theory leaves open and never participates in a violation.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import kernels as K
from .kernels import KernelDescriptor, kernel_class, kernel_to_json
from .measures import sinc_sq_spectrum

PROPERTIES = (
    "c_universal",
    "cc_universal",
    "c0_universal",
    "characteristic",
    "strictly_pd",
    "cond_strictly_pd",
)

HOLDS, FAILS, UNKNOWN = "holds", "fails", "unknown"

# numerical refutation threshold, relative to the Gram trace
RANK_TOL = 1e-10


class UnsupportedPropertyError(ValueError):
    pass


@dataclass(frozen=True)
class Certificate:
    kernel: KernelDescriptor
    property: str
    verdict: str
    rule_id: str
    citation: str
    witness_ref: dict | None = None
    details: dict = field(default_factory=dict)


_CITATIONS = {
    "a1_support_full": "the spectral density is positive on a set meeting every open set, so every nonzero finite signed measure has strictly positive energy",
    "a1_support_gap": "the spectral density vanishes on an open frequency set; a band-limited density supported there embeds to zero",
    "a1_characteristic_support": "for a profile vanishing at infinity, probability measures are separated exactly when the spectral support is the whole frequency space",
    "c0_implies_cc": "uniform approximation of functions vanishing at infinity implies approximation on every compact set",
    "a1_integrable_strictly_pd": "an integrable strictly positive definite profile has a continuous spectral density with interior support points, which separates compactly supported measures",
    "a1_spectral_interior": "compactly supported measures have analytic transforms, which cannot vanish on the open interior of the spectral support",
    "a1_spectral_interior_spd": "a spectral support with interior points makes every Gram form on distinct points strictly positive",
    "a2_coefficients_positive": "every Fourier coefficient is strictly positive, so no nonzero measure is blind to the whole spectrum",
    "a2_coefficient_zero": "some Fourier coefficient vanishes; the matching cosine density has zero energy while being a nonzero measure",
    "a2_characteristic_coefficients": "positivity of all nonzero-frequency coefficients separates probability measures; the zero coefficient only controls constants",
    "a2_finite_spectrum_rank": "a trigonometric polynomial of finite degree gives singular Gram matrices on more points than active frequencies",
    "a3_mixing_support": "mixing mass away from rate zero makes the spectral density everywhere positive",
    "a3_only_zero_mass": "all mixing mass sits at rate zero, so the kernel is a constant function and separates nothing",
    "a3_equivalence": "for Gaussian mixtures, denseness, strict positive definiteness and injectivity on probability measures all reduce to the mixing support",
    "a4_coefficients_positive": "all power-series coefficients are positive, so monomial moments of every order separate compactly supported measures",
    "a4_open": "the theory gives no decision rule for this family and property",
    "universal_implies_spd": "denseness applied to point masses forces strict positive definiteness",
    "spd_implies_cspd": "the constrained form is a restriction of an everywhere-positive form",
    "compact_equivalence": "on a compact space continuous, vanishing and compactly converging approximation coincide",
}


# ``holds`` is the rule when the class's fact holds (None: the fact does not matter)
_Row = namedtuple("_Row", "holds verdict rule witness details", defaults=(None, False))

_A1 = {  # fact: the spectral support is the whole frequency space
    # a1 profiles vanish at infinity (Riemann-Lebesgue); a1 supports have interior points
    "c0_universal": _Row("a1_support_full", FAILS, "a1_support_gap", "band"),
    # the band-limited witness's normalized halves are indistinguishable
    "characteristic": _Row("a1_characteristic_support", FAILS,
                           "a1_characteristic_support", "band"),
    "cc_universal": _Row("c0_implies_cc", HOLDS, "interior"),
    "strictly_pd": _Row(None, HOLDS, "a1_spectral_interior_spd"),
    "cond_strictly_pd": _Row(None, HOLDS, "spd_implies_cspd"),
}
_A2 = {  # fact: every Fourier coefficient is positive
    "c_universal": _Row("a2_coefficients_positive", FAILS, "a2_coefficient_zero", "grid", True),
    "c0_universal": _Row("compact_equivalence", FAILS, "compact_equivalence", "grid", True),
    "cc_universal": _Row("compact_equivalence", FAILS, "compact_equivalence", "grid", True),
    "characteristic": _Row("a2_characteristic_coefficients", FAILS,
                           "a2_characteristic_coefficients", "pair", True),
    "strictly_pd": _Row("universal_implies_spd", FAILS, "a2_finite_spectrum_rank", "null"),
    "cond_strictly_pd": _Row("spd_implies_cspd", FAILS, "a2_finite_spectrum_rank", "null"),
}
_A3 = {  # fact: mixing mass away from rate zero (c_universal: the constant kernel on a torus)
    "c_universal": _Row("a3_mixing_support", FAILS, "a3_only_zero_mass", "null"),
    "c0_universal": _Row("a3_mixing_support", FAILS, "a3_only_zero_mass", "null"),
    "cc_universal": _Row("a3_equivalence", FAILS, "a3_only_zero_mass", "null"),
    "characteristic": _Row("a3_equivalence", FAILS, "a3_only_zero_mass", "pair"),
    "strictly_pd": _Row("a3_equivalence", FAILS, "a3_only_zero_mass", "null"),
    "cond_strictly_pd": _Row("spd_implies_cspd", FAILS, "a3_only_zero_mass", "null"),
}
_A4 = {  # fact: every power-series coefficient is positive
    "c0_universal": _Row(None, UNKNOWN, "a4_open"),
    "cc_universal": _Row("a4_coefficients_positive", UNKNOWN, "a4_open"),
    "characteristic": _Row(None, UNKNOWN, "a4_open"),
    "strictly_pd": _Row("universal_implies_spd", UNKNOWN, "a4_open"),
    "cond_strictly_pd": _Row("spd_implies_cspd", UNKNOWN, "a4_open"),
}
_TABLE = {"a1": _A1, "a2": _A2, "a3": _A3, "constant": _A3, "a4": _A4}


def _facts(k):
    """The class's deciding fact, the names its rows refer to, and details."""
    klass = kernel_class(k)
    if klass == "a4":
        coeffs = K.taylor_coefficients(k)
        return all(coeffs.a(n) > 0 for n in range(64)), {}, {}
    spec = K.spectral(k)
    if klass == "a1":
        if spec.support.kind == "full_space":
            return True, {}, {}
        # a margin of one beyond edge plus half-width keeps the supports disjoint
        band = {"kind": "bandlimited_zero_energy",
                "omega0": spec.support.half_width + sinc_sq_spectrum()[0] + 1.0}
        interior = ("a1_integrable_strictly_pd" if K.family_spec(k).integrable
                    else "a1_spectral_interior")
        return False, {"band": band, "interior": interior}, {}
    if klass == "a2":
        details = {"coefficient_at_zero": spec.coeff(0)}
        if spec.support.kind == "all_integers":
            return True, {}, details
        l = max(spec.support.frequencies)
        grid = {"kind": "torus_zero_energy_grid", "n0": l + 1, "grid_size": 2 * (l + 1)}
        null = {"kind": "gram_null", "points": "equispaced", "count": 2 * l + 3}
        pair = {"kind": "indistinguishable_pair", "from": grid}
        return False, {"grid": grid, "null": null, "pair": pair}, details
    null = {"kind": "gram_null", "points": [[0.0] * k.space.dim, [1.0] * k.space.dim]}
    pair = {"kind": "indistinguishable_pair", "from": null}
    return not spec.supp_is_only_zero, {"null": null, "pair": pair}, {}


def certify(k: KernelDescriptor, prop: str) -> Certificate:
    """Decide a property of a zoo kernel from its row of the rule table.
    Each ``fails`` names a closed-form witness; no Gram probe is consulted."""
    if prop not in PROPERTIES:
        raise UnsupportedPropertyError(f"unknown property {prop!r}")
    if prop == "c_universal" and not k.space.is_torus:
        raise UnsupportedPropertyError("c_universal needs a compact space")
    fact, names, details = _facts(k)
    holds, verdict, rule, witness, with_details = _TABLE[kernel_class(k)][prop]
    if fact and holds:
        verdict, rule, witness = HOLDS, holds, None
    rule = names.get(rule, rule)
    return Certificate(k, prop, verdict, rule, _CITATIONS[rule], witness_ref=names.get(witness),
                       details=details if with_details else {})


# ---------------------------------------------------------------------------
# numeric probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramProbe:
    min_eigenvalue: float
    threshold: float
    fails_on_set: bool
    null_vector: np.ndarray | None


def _distinct_points(points, space):
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if len(P) >= 2:
        dist = np.linalg.norm(K.pair_lags(P, P, space.is_torus), axis=2)
        np.fill_diagonal(dist, np.inf)
        if dist.min() <= 1e-9:
            raise ValueError("points must be pairwise distinct (min distance > 1e-9)")
    return P


def _least_eigenpair(G, Q):
    """The least eigenpair of Q^T G Q against the threshold RANK_TOL trace(G)."""
    w, V = np.linalg.eigh(Q.T @ G @ Q)
    thr = RANK_TOL * max(np.trace(G), 1e-300)
    fails = bool(w[0] < thr)
    return GramProbe(float(w[0]), float(thr), fails, Q @ V[:, 0] if fails else None)


def check_strict_pd_numeric(k, points) -> GramProbe:
    """Minimum Gram eigenvalue on a distinct point set.  ``fails_on_set``
    means it is below RANK_TOL trace(G): a numerical null vector, or the
    ill-conditioned Gram matrix of a strictly PD kernel, which
    ``witness.gram_null_witness`` refuses.  It never proves strict PD."""
    P = _distinct_points(points, k.space)
    return _least_eigenpair(K.gram(k, P), np.eye(len(P)))


def check_cond_strict_pd_numeric(k, points) -> GramProbe:
    """Minimum of the Gram form over unit vectors orthogonal to all-ones."""
    P = _distinct_points(points, k.space)
    n = P.shape[0]
    if n < 2:
        raise ValueError("need at least two points")
    # orthonormal basis of the zero-sum subspace
    Q, _ = np.linalg.qr(np.eye(n) - np.full((n, n), 1.0 / n))
    return _least_eigenpair(K.gram(k, P), Q[:, : n - 1])


# ---------------------------------------------------------------------------
# implication graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImplicationGraph:
    """Directed implications (source holds => target holds) with a scope
    restricting the kernel classes on which an edge applies."""

    edges: tuple

    def applicable(self, k):
        klass = kernel_class(k)
        in_scope = {"all": True, "compact": k.space.is_torus,
                    "a1": klass == "a1", "a2": klass == "a2",
                    "a3": klass in ("a3", "constant")}
        return [(src, dst) for src, dst, scope in self.edges if in_scope.get(scope)]


def default_implication_graph() -> ImplicationGraph:
    edges = [
        ("c0_universal", "cc_universal", "all"),
        ("c0_universal", "characteristic", "all"),
        ("c0_universal", "strictly_pd", "all"),
        ("cc_universal", "strictly_pd", "all"),
        ("c_universal", "strictly_pd", "compact"),
        ("c_universal", "characteristic", "compact"),
        ("characteristic", "cond_strictly_pd", "all"),
        ("strictly_pd", "cond_strictly_pd", "all"),
        # compact equivalence of the three denseness notions
        ("c_universal", "c0_universal", "compact"),
        ("c0_universal", "c_universal", "compact"),
        ("c_universal", "cc_universal", "compact"),
        ("cc_universal", "c_universal", "compact"),
        ("cc_universal", "c0_universal", "compact"),
        # translation-invariant profiles, which vanish at infinity
        ("characteristic", "c0_universal", "a1"),
        # torus: separation of probabilities forces strict positivity
        ("characteristic", "strictly_pd", "a2"),
    ]
    # radial equivalence clique
    clique = ("c0_universal", "cc_universal", "strictly_pd", "characteristic")
    for a in clique:
        for b in clique:
            if a != b:
                edges.append((a, b, "a3"))
    return ImplicationGraph(tuple(edges))


def audit_implications(certs):
    """Check a kernel's certificate set against the implication graph.

    Returns the list of violated edges; ``unknown`` verdicts never violate.
    Certificates must all describe the same kernel.
    """
    if not certs:
        return []
    kernel = certs[0].kernel
    if any(c.kernel != kernel for c in certs):
        raise ValueError("certificates describe different kernels")
    verdicts = {c.property: c.verdict for c in certs}
    violations = []
    for src, dst in default_implication_graph().applicable(kernel):
        if verdicts.get(src) == HOLDS and verdicts.get(dst) == FAILS:
            violations.append({"from": src, "to": dst, "kernel": kernel.family})
    return violations


def applicable_properties(k):
    """Properties certifiable on this kernel's space."""
    return [p for p in PROPERTIES if p != "c_universal" or k.space.is_torus]


def certify_all(k):
    return [certify(k, p) for p in applicable_properties(k)]


def certificate_to_json(cert: Certificate):
    doc = {
        "kernel": kernel_to_json(cert.kernel),
        "property": cert.property,
        "verdict": cert.verdict,
        "rule": cert.rule_id,
        "citation": cert.citation,
    }
    if cert.witness_ref is not None:
        doc["witness"] = cert.witness_ref
    if cert.details:
        doc["details"] = cert.details
    return doc
