"""Empirical study of which kernels metrize weak convergence.

For sequences of probability measures converging weakly to a target, the
embedding distance under a characteristic kernel should fall to zero
together with the bounded-Lipschitz (Dudley) distance, which is known to
metrize weak convergence.  The experiments here generate such sequences,
record both metrics, and test tail comonotonicity plus joint convergence;
this is the falsifiable operationalization of "the embedding metric induces
the weak topology" for finitely many sequences (topology equality itself is
not testable from finite data, and only trends are asserted, never rates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .certify import HOLDS, certify as certify_property
from .embedding import mmd
from .measures import DiscreteSignedMeasure, SpaceMismatchError, construct, dirac, euclidean
from .numerics import LP_FEAS_TOL, InternalConsistencyError, solve_lp

BL_SIZE_LIMIT = 500
# Nearest neighbours per atom that seed the program's pairs in d >= 2.
NEAREST = 6


@dataclass(frozen=True)
class ConvergenceSpec:
    """A recipe for a sequence of probability measures tending to a target.

    kinds:
      * ``empirical``: i.i.d. samples of growing size from the target
        (inverse-CDF sampling, fixed seed);
      * ``shrink``: symmetric two-atom measures at a Dirac target's atom +- scale;
      * ``moving``: a single atom at a Dirac target's atom + offset.
    """

    kind: str
    target: DiscreteSignedMeasure
    params: tuple
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("empirical", "shrink", "moving"):
            raise ValueError(f"unknown spec kind {self.kind!r}")
        if not self.target.is_probability:
            raise ValueError("target must be a probability measure")
        vals = list(self.params)
        if not vals:
            raise ValueError("empty parameter list")
        if self.kind == "empirical":
            if vals[0] < 1 or any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError("sample sizes must be positive and strictly increasing")
        else:
            if self.target.n_atoms != 1:
                raise ValueError(f"{self.kind} sequences need a one-atom target")
            if any(v <= 0 for v in vals):
                raise ValueError("scales must be positive")
            if any(b >= a for a, b in zip(vals, vals[1:])):
                raise ValueError("scales must decrease strictly toward zero")


def empirical_from_target(target, sizes, seed=0):
    return ConvergenceSpec("empirical", target, tuple(int(n) for n in sizes), seed)


def shrink_to_dirac(center, scales, dim=1):
    target = dirac(euclidean(dim), center)
    return ConvergenceSpec("shrink", target, tuple(float(s) for s in scales))


def moving_atom(center, offsets, dim=1):
    target = dirac(euclidean(dim), center)
    return ConvergenceSpec("moving", target, tuple(float(t) for t in offsets))


@dataclass(frozen=True)
class ExperimentReport:
    kernel: object
    spec: ConvergenceSpec
    rows: tuple = field(default_factory=tuple)  # (param, gamma_k, bounded_lipschitz)

    def to_csv(self):
        lines = ["param,gamma_k,bounded_lipschitz"]
        for p, g, b in self.rows:
            lines.append(f"{p:.17g},{g:.17g},{b:.17g}")
        return "\n".join(lines) + "\n"


def _constraint_rows(n, i, j, gap):
    """Sparse inequality rows of the bounded-Lipschitz program over
    (f_1..f_n, s, L): f_k <= s and -f_k <= s for each k, then
    f_i - f_j <= L gap and f_j - f_i <= L gap for each pair (i, j, gap)
    in the order given."""
    k = np.arange(n)
    top = np.full(n, n)
    ones = np.ones(len(i))
    lip = np.full(len(i), n + 1)
    indices = np.concatenate([np.column_stack([k, top, k, top]).ravel(),
                              np.column_stack([i, j, lip, i, j, lip]).ravel()])
    data = np.concatenate([np.tile([1.0, -1.0, -1.0, -1.0], n),
                           np.column_stack([ones, -ones, -gap, -ones, ones, -gap]).ravel()])
    indptr = np.concatenate([np.arange(0, 4 * n, 2), np.arange(4 * n, 4 * n + 6 * len(i) + 1, 3)])
    return sparse.csr_matrix((data, indices, indptr), shape=(2 * n + 2 * len(i), n + 2))


def bounded_lipschitz(P, Q):
    """Dudley's bounded-Lipschitz distance between discrete probability
    measures, as an exact linear program.

    Maximizes sum_i f_i (p_i - q_i) over function values f with
    |f_i| <= s, |f_i - f_j| <= L |x_i - x_j| and s + L = 1.

    The program holds the Lipschitz rows only of the pairs that can bind,
    as a sparse matrix.  It starts from the sorted neighbours on the line
    (the other pairs follow by the triangle inequality) and from each
    atom's ``NEAREST`` nearest neighbours in d >= 2.  After each solve,
    every pair i < j is checked to ``LP_FEAS_TOL``; the violated pairs join
    the program and it is solved again.  A relaxation whose optimum is
    feasible for every pair has the optimum of the full program, so the
    value is that of the all-pairs LP, checked on every pair.
    """
    for m, name in ((P, "P"), (Q, "Q")):
        if not isinstance(m, DiscreteSignedMeasure) or not m.is_probability:
            raise ValueError(f"{name} must be a discrete probability measure")
        if m.space.is_torus:
            raise SpaceMismatchError("bounded_lipschitz runs on Euclidean space")
    if P.space != Q.space:
        raise SpaceMismatchError("measures live on different spaces")
    if P.n_atoms + Q.n_atoms > BL_SIZE_LIMIT:
        raise ValueError(f"combined support exceeds {BL_SIZE_LIMIT} atoms")
    diff = P - Q
    if diff.is_zero:
        return 0.0
    pts = diff.points
    delta = diff.weights
    if delta[0] < 0:
        # canonical sign: the program is invariant under f -> -f, and fixing
        # the orientation makes the metric exactly symmetric in (P, Q)
        delta = -delta
    n, dim = pts.shape
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    start = np.zeros((n, n), dtype=bool)
    if dim == 1:
        order = np.argsort(pts[:, 0])
        start[order[:-1], order[1:]] = True
    else:
        near = np.argpartition(dist, min(NEAREST, n - 1), axis=1)[:, :NEAREST + 1]
        start[np.arange(n)[:, None], near] = True
    iu, ju = np.triu_indices(n, 1)
    gap = dist[iu, ju]
    chosen = (start | start.T)[iu, ju]
    A_eq = np.zeros((1, n + 2))  # over f_1..f_n, s, L
    A_eq[0, n:] = 1.0
    c = np.zeros(n + 2)
    c[:n] = -delta
    bounds = [(None, None)] * n + [(0.0, None), (0.0, None)]
    while True:
        A_ub = _constraint_rows(n, iu[chosen], ju[chosen], gap[chosen])
        # matrices go by keyword: perfbench's tracer takes len() of positional ones
        fun, x = solve_lp(c, A_ub=A_ub, b_ub=np.zeros(A_ub.shape[0]),
                          A_eq=A_eq, b_eq=np.ones(1), bounds=bounds)
        excess = np.abs(x[iu] - x[ju]) - x[n + 1] * gap
        violated = excess > LP_FEAS_TOL
        if not violated.any():
            return max(0.0, -fun)
        stale = violated & chosen  # solve_lp's own check should have refused these
        if stale.any():
            raise InternalConsistencyError(f"LP inequality residual {excess[stale].max():g}")
        chosen |= violated


def _sample_empirical(target, size, rng):
    """``size`` inverse-CDF draws of weight 1 / size, summed per atom: the target's
    atoms are canonical, so the sample keeps them in their order and no merge runs."""
    cum = np.cumsum(target.weights)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, rng.random(size), side="right")
    weights = np.bincount(idx, weights=np.full(size, 1.0 / size), minlength=target.n_atoms)
    keep = weights != 0.0
    return DiscreteSignedMeasure(target.space, target.points[keep], weights[keep])


def generate_sequence(spec: ConvergenceSpec):
    """Materialize the (param, measure) rows of a convergence spec."""
    out = []
    if spec.kind == "empirical":
        for i, size in enumerate(spec.params):
            rng = np.random.default_rng(spec.seed + i)
            out.append((float(size), _sample_empirical(spec.target, size, rng)))
        return out
    center = spec.target.points[0]
    for value in spec.params:
        step = np.zeros_like(center)
        step[0] = value
        if spec.kind == "shrink":
            mu = construct(spec.target.space, [(center - step, 0.5), (center + step, 0.5)])
        else:
            mu = dirac(spec.target.space, center + step)
        out.append((float(value), mu))
    return out


def run_convergence(k, spec: ConvergenceSpec, *, negative_control=False) -> ExperimentReport:
    """Record gamma_k and bounded-Lipschitz columns along the sequence.

    The kernel must certify as characteristic unless explicitly flagged as a
    negative control.  Deterministic for a fixed seed.
    """
    if k.space != spec.target.space:
        raise SpaceMismatchError("kernel and spec live on different spaces")
    if not negative_control:
        cert = certify_property(k, "characteristic")
        if cert.verdict != HOLDS:
            raise ValueError(
                f"{k.family} is not certified characteristic; pass negative_control=True"
            )
    rows = []
    for param, mu in generate_sequence(spec):
        rows.append((param, mmd(k, mu, spec.target),
                     bounded_lipschitz(mu, spec.target)))
    return ExperimentReport(kernel=k, spec=spec, rows=tuple(rows))


def _kendall_tau(a, b):
    i, j = np.triu_indices(len(a), 1)
    return float(np.mean(np.sign(a[i] - a[j]) * np.sign(b[i] - b[j])))


def comonotonicity_check(report: ExperimentReport):
    """``holds`` when both metric columns co-decrease: Kendall concordance
    positive over the trailing half and both final values below both initial
    values."""
    rows = report.rows
    if len(rows) < 3:
        raise ValueError("need at least three rows")
    g = np.array([r[1] for r in rows])
    b = np.array([r[2] for r in rows])
    tail = int(math.ceil(len(rows) / 2))
    tau = _kendall_tau(g[-tail:], b[-tail:])
    ok = tau > 0 and g[-1] < g[0] and b[-1] < b[0]
    return "holds" if ok else "fails"
