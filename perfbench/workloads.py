"""The four workloads: seeded inputs, requests and the checks on their outputs.

A workload hands out its requests in passes.  ``requests(p)`` builds pass
``p`` from the seed alone, so the same seed and pass give the same inputs,
and a traced run can replay exactly the passes an untraced run timed.
``pass_seconds`` is the busy time of one pass, measured once with the
program as the benchmark found it on a 2-vCPU x86-64 host.  It is a
constant, so the number of passes in a run, and with it the set of
requests, does not depend on how fast the program under test is.

Each request has a ``run`` (the timed call into kernelcert) and a ``check``
(untimed) that returns ``(status, bounds)``: ``status`` is ``"ok"``,
``"error"`` (kernelcert reported a failure) or ``"wrong"`` (an output
disagrees with the independent reference), and ``bounds`` lists the
certified error bounds the request produced.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

OK, ERROR, WRONG = "ok", "error", "wrong"


@dataclass
class Request:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


def _rng(seed, *stream):
    return np.random.default_rng([seed, *stream])


def _cli(kc, argv):
    """In-process CLI call; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = kc.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _random_atoms(space, n, rng, *, scale=1.5, probability=False):
    if space.is_torus:
        pts = rng.uniform(0.0, 2.0 * np.pi, (n, space.dim))
    else:
        pts = rng.normal(0.0, scale, (n, space.dim))
    if probability:
        w = rng.uniform(0.1, 1.0, n)
        w = w / w.sum()
    else:
        w = rng.normal(0.0, 1.0, n)
        w[w == 0.0] = 1.0
    return pts, w


# ---------------------------------------------------------------------------
# parseval: energy --method both on small signed measures
# ---------------------------------------------------------------------------

SPECTRAL_FAMILIES = {
    "gaussian_ti": lambda kc, d: kc.gaussian_ti(1.0, d),
    "laplacian_ti": lambda kc, d: kc.laplacian_ti(1.0, d),
    "b1_spline": lambda kc, d: kc.b1_spline(d),
    "sinc": lambda kc, d: kc.sinc(1.0, d),
    "sinc_sq": lambda kc, d: kc.sinc_sq(d),
    "poisson_torus": lambda kc, d: kc.poisson_torus(0.5, d),
    "expcos_torus": lambda kc, d: kc.expcos_torus(1.0, d),
    "quadpoly_torus": lambda kc, d: kc.quadpoly_torus(d),
    "dirichlet": lambda kc, d: kc.dirichlet(2, d),
    "fejer": lambda kc, d: kc.fejer(2, d),
    "radial_gaussian": lambda kc, d: kc.radial_gaussian(1.0, d),
    "inverse_multiquadric": lambda kc, d: kc.inverse_multiquadric(1.0, 2.0, d),
    "radial_atoms": lambda kc, d: kc.radial_atoms([(0.5, 1.0), (2.0, 0.5)], d),
}

# Atom counts span 2..20 as in the acceptance suite's Parseval criterion, on
# a fixed grid: the cost grows with the square of the count, so drawing the
# counts would make the seed, not the program, set most of the run time.
# The largest size comes twice, and the warm-up runs it once more: peak
# memory is the largest cosine-transform block of any one request, which
# varies from draw to draw, and its maximum over three draws is steady.
PARSEVAL_SIZES = (2, 6, 11, 16, 20, 20)


class Parseval:
    pass_seconds = 12.4

    def __init__(self, kc, seed, workdir):
        self.kc, self.seed = kc, seed
        self.kernels = [(name, make(kc, d)) for name, make in SPECTRAL_FAMILIES.items()
                        for d in (1, 2, 3)]

    def _request(self, name, k, pts, w):
        kc = self.kc

        def run():
            mu = kc.construct(k.space, list(zip(pts, w)))
            return kc.energy_spatial(k, mu), kc.energy_spectral(k, mu)

        def check(out):
            sp, se = out
            bounds = [sp.error_bound, se.error_bound]
            agree = abs(sp.value - se.value) <= sp.error_bound + se.error_bound
            return (OK if agree else WRONG), bounds

        return Request(f"{name} d={k.space.dim} n={len(w)}", run, check)

    def warmup_requests(self):
        rng = _rng(self.seed, 0xA)
        return [self._request(name, k, *_random_atoms(k.space, max(PARSEVAL_SIZES), rng))
                for name, k in self.kernels]

    def requests(self, p):
        rng = _rng(self.seed, 1, p)
        reqs = [self._request(name, k, *_random_atoms(k.space, n, rng))
                for name, k in self.kernels for n in PARSEVAL_SIZES]
        rng.shuffle(reqs)
        return reqs


# ---------------------------------------------------------------------------
# mmd_large: two-sample mmd between 300-atom probability measures
# ---------------------------------------------------------------------------

def _sqdist(X, Y):
    return np.sum((X[:, None, :] - Y[None, :, :]) ** 2, axis=2)


# Closed-form kernels for the reference, one per Gram branch of
# ``kernels.cross_gram``, with the parameters the workload uses.
MMD_FAMILIES = {
    "gaussian_ti": (lambda kc, d: kc.gaussian_ti(1.0, d),
                    lambda X, Y: np.exp(-_sqdist(X, Y) / 2.0)),
    "inverse_multiquadric": (lambda kc, d: kc.inverse_multiquadric(1.0, 2.0, d),
                             lambda X, Y: 1.0 / (4.0 + _sqdist(X, Y))),
    "poisson_torus": (lambda kc, d: kc.poisson_torus(0.5, d),
                      lambda X, Y: np.prod(0.75 / (1.25 - np.cos(X[:, None, :] - Y[None, :, :])),
                                           axis=2)),
    "taylor_exp": (lambda kc, d: kc.taylor_exp(d),
                   lambda X, Y: np.exp(X @ Y.T)),
}
MMD_ATOMS = 300


def block_mmd_sq(gram, XP, wP, XQ, wQ):
    """wP'K_PP wP + wQ'K_QQ wQ - 2 wP'K_PQ wQ, and the sum of the magnitudes
    of the three terms (the scale for round-off)."""
    pp = wP @ gram(XP, XP) @ wP
    qq = wQ @ gram(XQ, XQ) @ wQ
    pq = wP @ gram(XP, XQ) @ wQ
    return pp + qq - 2.0 * pq, abs(pp) + abs(qq) + 2.0 * abs(pq)


class MmdLarge:
    pass_seconds = 17.5

    def __init__(self, kc, seed, workdir):
        self.kc, self.seed = kc, seed

    def _request(self, name, d, n, rng):
        kc = self.kc
        make, gram = MMD_FAMILIES[name]
        k = make(kc, d)
        scale = 0.5 if name == "taylor_exp" else 1.0
        XP, wP = _random_atoms(k.space, n, rng, scale=scale, probability=True)
        XQ, wQ = _random_atoms(k.space, n, rng, scale=scale, probability=True)

        def run():
            P = kc.construct(k.space, list(zip(XP, wP)))
            Q = kc.construct(k.space, list(zip(XQ, wQ)))
            return kc.mmd(k, P, Q), P, Q

        def check(out):
            value, P, Q = out
            ref, scale_ = block_mmd_sq(gram, XP, wP, XQ, wQ)
            agree = value > 0.0 and abs(value * value - ref) <= 1e-9 * scale_
            # the round-off bounds energy_spatial certifies at this kernel and
            # size; the bound behind mmd itself needs P - Q, whose merge pass
            # costs the check most of a request's time
            return (OK if agree else WRONG), [kc.energy_spatial(k, m).error_bound
                                              for m in (P, Q)]

        return Request(f"{name} d={d} n={n}", run, check)

    def warmup_requests(self):
        rng = _rng(self.seed, 0xA)
        return [self._request(name, d, 20, rng) for name in MMD_FAMILIES for d in (1, 3)]

    def requests(self, p):
        # every pass holds each (family, d) pair once, so any number of
        # passes has the same mix
        rng = _rng(self.seed, 2, p)
        reqs = [self._request(name, d, MMD_ATOMS, rng) for name in MMD_FAMILIES for d in (1, 3)]
        rng.shuffle(reqs)
        return reqs


# ---------------------------------------------------------------------------
# certify_cli: certify every zoo family at d = 1..3, plus audit
# ---------------------------------------------------------------------------

PROPERTIES = ("c_universal", "cc_universal", "c0_universal", "characteristic",
              "strictly_pd", "cond_strictly_pd")

# Expected verdicts in PROPERTIES order: H holds, F fails, U unknown,
# - not applicable (c_universal needs a compact space).  They do not depend
# on the dimension or on the parameter ranges drawn below.
VERDICTS = {
    "gaussian_ti": "-HHHHH", "laplacian_ti": "-HHHHH", "b1_spline": "-HHHHH",
    "sinc": "-HFFHH", "sinc_sq": "-HFFHH",
    "poisson_torus": "HHHHHH", "expcos_torus": "HHHHHH", "quadpoly_torus": "HHHHHH",
    "dirichlet": "FFFFFF", "fejer": "FFFFFF",
    "radial_gaussian": "-HHHHH", "inverse_multiquadric": "-HHHHH",
    "radial_atoms": "-HHHHH",
    "taylor_exp": "-HUUHH", "taylor_binomial": "-HUUHH",
    "constant": "-FFFFF",
}
_VERDICT_NAMES = {"H": "holds", "F": "fails", "U": "unknown"}


def _draw_params(family, rng):
    u = rng.uniform
    return {
        "gaussian_ti": lambda: {"sigma": u(0.5, 2.0)},
        "laplacian_ti": lambda: {"sigma": u(0.5, 2.0)},
        "sinc": lambda: {"sigma": u(0.5, 2.0)},
        "poisson_torus": lambda: {"sigma": u(0.2, 0.8)},
        "expcos_torus": lambda: {"alpha": u(0.3, 1.0)},
        "dirichlet": lambda: {"l": int(rng.integers(1, 4))},
        "fejer": lambda: {"l": int(rng.integers(1, 4))},
        "radial_gaussian": lambda: {"sigma": u(0.5, 2.0)},
        "inverse_multiquadric": lambda: {"beta": u(0.5, 2.0), "c": u(1.0, 3.0)},
        "radial_atoms": lambda: {"atoms": [(u(0.2, 1.0), u(0.5, 1.5)),
                                           (u(1.5, 3.0), u(0.2, 1.0))]},
        "taylor_binomial": lambda: {"beta": u(0.5, 2.0)},
        "constant": lambda: {"c": u(0.5, 2.0)},
    }.get(family, dict)()


def expected_verdict(family, prop):
    return _VERDICT_NAMES.get(VERDICTS[family][PROPERTIES.index(prop)])


class CertifyCli:
    pass_seconds = 1.5

    def __init__(self, kc, seed, workdir):
        self.kc, self.seed = kc, seed
        self.workdir = Path(workdir)
        self.out_dir = self.workdir / "out"
        self.out_dir.mkdir()

    def _kernel_docs(self, kernel_dir, rng):
        """One kernel document per family and d.  Each pass draws its own
        parameters: they set what a witness costs (the sinc width sets the
        cost of its L1 norm), so a run averages over several draws."""
        kernel_dir.mkdir(exist_ok=True)  # a traced run replays the pass
        docs = []
        for family in VERDICTS:
            kind = "torus" if VERDICTS[family][0] != "-" else "euclidean"
            for d in (1, 2, 3):
                k = self.kc.make_kernel(family, self.kc.measures.Space(kind, d),
                                        **_draw_params(family, rng))
                path = kernel_dir / f"{family}_d{d}.json"
                path.write_text(json.dumps(self.kc.kernel_to_json(k), indent=2) + "\n")
                docs.append((family, d, path))
        return docs

    def _certify(self, family, d, path, prop, out):
        def run():
            return _cli(self.kc, ["certify", "--kernel", str(path),
                                  "--property", prop.replace("_", "-"), "--out", str(out)])

        def check(result):
            code, stdout, _ = result
            try:
                if code != 0:
                    return ERROR, []
                cert = json.loads(stdout) if stdout.strip() else json.loads(out.read_text())
                if cert["verdict"] != expected_verdict(family, prop):
                    return WRONG, []
                if cert["verdict"] != "fails":
                    return OK, []
                # every fails verdict comes with a witness file
                witness = json.loads(Path(cert["witness"]["path"]).read_text())
                ok = abs(witness["energy"]) <= witness["bound"]
                return (OK if ok else WRONG), [witness["bound"]]
            except (OSError, KeyError, ValueError):
                return WRONG, []
            finally:
                out.unlink(missing_ok=True)

        return Request(f"certify {family} d={d} {prop}", run, check)

    def _audit(self, kernel_dir, n_docs):
        def run():
            return _cli(self.kc, ["audit", "--kernel-dir", str(kernel_dir)])

        def check(result):
            code, stdout, _ = result
            if code != 0:
                return ERROR, []
            try:
                report = json.loads(stdout)
                verdicts = [(k["kernel"]["family"], k["verdicts"]) for k in report["kernels"]]
            except (KeyError, ValueError):
                return WRONG, []
            ok = (report["total_violations"] == 0 and len(verdicts) == n_docs
                  and all(v == expected_verdict(f, p) for f, vs in verdicts
                          for p, v in vs.items()))
            return (OK if ok else WRONG), []

        return Request("audit", run, check)

    def _pass(self, tag, rng):
        kernel_dir = self.workdir / f"kernels-{tag}"
        docs = self._kernel_docs(kernel_dir, rng)
        reqs = []
        for family, d, path in docs:
            for prop in PROPERTIES:
                if expected_verdict(family, prop) is not None:
                    out = self.out_dir / f"{tag}-{len(reqs)}.json"
                    reqs.append(self._certify(family, d, path, prop, out))
        rng.shuffle(reqs)
        return reqs + [self._audit(kernel_dir, len(docs))]

    def warmup_requests(self):
        return self._pass("warm", _rng(self.seed, 0xA))

    def requests(self, p):
        return self._pass(p, _rng(self.seed, 4, p))


# ---------------------------------------------------------------------------
# weak_converge: experiment-converge --kind empirical
# ---------------------------------------------------------------------------

# One sample size per experiment: each costs about the same (the LP has one
# variable per target atom whatever the sample size; size 400 adds about a
# third in construct), so a run holds several times more latency samples
# than with all sizes in one experiment.
WEAK_TARGET_ATOMS = 150
WEAK_SIZES = (25, 100, 400)
WEAK_DIMS = (1, 2)


def sample_counts(weights, size, rng):
    """Atom counts of an inverse-CDF sample from the target, drawn the way
    ``weaktopo.generate_sequence`` draws an empirical sequence."""
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, rng.random(size), side="right")
    return np.bincount(idx, minlength=len(weights))


def reference_bl(points, delta):
    """Bounded-Lipschitz distance sum_i f_i delta_i, maximised over
    |f_i| <= s, |f_i - f_j| <= L |x_i - x_j|, s + L = 1, as a sparse LP.

    On the line only neighbours in sorted order are constrained; the other
    pairs follow by the triangle inequality.
    """
    n, dim = points.shape
    if dim == 1:
        order = np.argsort(points[:, 0])
        i, j = order[:-1], order[1:]
    else:
        i, j = np.triu_indices(n, 1)
    dist = np.linalg.norm(points[i] - points[j], axis=1)
    m = len(i)
    rows = np.arange(2 * m + 2 * n)
    # f_i - f_j - L d_ij <= 0 and f_j - f_i - L d_ij <= 0, then +-f_i - s <= 0
    lip = sparse.csr_matrix(
        (np.concatenate([np.ones(2 * m), -np.ones(2 * m), -np.tile(dist, 2)]),
         (np.tile(rows[:2 * m], 3),
          np.concatenate([i, j, j, i, np.full(2 * m, n + 1)]))),
        shape=(2 * m, n + 2))
    k = np.arange(n)
    box = sparse.csr_matrix(
        (np.concatenate([np.ones(n), -np.ones(n), -np.ones(2 * n)]),
         (np.concatenate([k, n + k, k, n + k]), np.concatenate([k, k, np.full(2 * n, n)]))),
        shape=(2 * n, n + 2))
    A = sparse.vstack([lip, box]).tocsr()
    c = np.zeros(n + 2)
    c[:n] = -delta
    A_eq = np.zeros((1, n + 2))
    A_eq[0, n:] = 1.0
    res = linprog(c, A_ub=A, b_ub=np.zeros(A.shape[0]), A_eq=A_eq, b_eq=[1.0],
                  bounds=[(None, None)] * n + [(0.0, None)] * 2, method="highs")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -res.fun


def _close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(abs(b), 1e-300)


# Both kernelcert and the reference solve the BL LP with HiGHS, whose
# default primal and dual feasibility tolerances are 1e-7.  A constraint
# met only to 1e-7 moves the objective sum_i f_i delta_i by up to 1e-7 times
# sum_i |delta_i| <= 2, and each solver may stop that far from the optimum,
# so two correct solutions can differ by a few 1e-7.  The check allows 1e-6.
BL_ABS_TOL = 1e-6


class WeakConverge:
    pass_seconds = 5.0

    def __init__(self, kc, seed, workdir):
        self.kc, self.seed = kc, seed
        self.dir = Path(workdir)
        self.kernel_paths = {}
        for d in (1, 2):
            path = self.dir / f"gaussian_d{d}.json"
            path.write_text(json.dumps(kc.kernel_to_json(kc.gaussian_ti(1.0, d))))
            self.kernel_paths[d] = path

    def _request(self, tag, d, n_atoms, sizes, rng):
        kc = self.kc
        pts, w = _random_atoms(kc.euclidean(d), n_atoms, rng, scale=1.0, probability=True)
        order = np.lexsort(pts.T[::-1])  # kernelcert's canonical atom order
        pts, w = pts[order], w[order]
        target = self.dir / f"target-{tag}.json"
        target.write_text(json.dumps({
            "space": {"kind": "euclidean", "dim": d},
            "atoms": [{"x": [float(v) for v in x], "w": float(wi)} for x, wi in zip(pts, w)]}))
        csv = self.dir / f"converge-{tag}.csv"
        exp_seed = int(rng.integers(0, 2 ** 31))
        argv = ["experiment-converge", "--kernel", str(self.kernel_paths[d]),
                "--kind", "empirical", "--measure", str(target),
                "--samples", ",".join(map(str, sizes)), "--seed", str(exp_seed),
                "--out", str(csv)]

        def run():
            csv.unlink(missing_ok=True)
            return _cli(kc, argv)[0]

        def check(code):
            if code != 0:
                return ERROR, []
            try:
                lines = csv.read_text().splitlines()
                rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
            except (OSError, ValueError):
                return WRONG, []
            if lines[0] != "param,gamma_k,bounded_lipschitz" or len(rows) != len(sizes):
                return WRONG, []
            k = kc.gaussian_ti(1.0, d)
            T = kc.construct(k.space, list(zip(pts, w)))
            bounds = []
            for i, (size, (param, gamma, bl)) in enumerate(zip(sizes, rows)):
                if not all(map(math.isfinite, (param, gamma, bl))) or not 0.0 <= bl <= 2.0:
                    return WRONG, bounds
                counts = sample_counts(w, size, np.random.default_rng(exp_seed + i))
                wP = counts / size
                keep = counts > 0
                gamma_sq, _ = block_mmd_sq(MMD_FAMILIES["gaussian_ti"][1],
                                           pts[keep], wP[keep], pts, w)
                if not (param == size and _close(gamma, math.sqrt(max(gamma_sq, 0.0)))
                        and abs(bl - reference_bl(pts, wP - w)) <= BL_ABS_TOL):
                    return WRONG, bounds
                # the round-off bounds energy_spatial certifies for the sample
                # and the target (as on mmd_large, without the merge of P - T)
                P = kc.construct(k.space, list(zip(pts[keep], wP[keep])))
                bounds += [kc.energy_spatial(k, m).error_bound for m in (P, T)]
            return OK, bounds

        return Request(f"converge d={d} sizes={sizes}", run, check)

    def warmup_requests(self):
        rng = _rng(self.seed, 0xA)
        return [self._request(f"warm{d}", d, 20, (5, 10, 20), rng) for d in (1, 2)]

    def requests(self, p):
        # one experiment per (d, sample size), each on its own target; every
        # pass holds each pair once, so any number of passes has the same mix
        rng = _rng(self.seed, 5, p)
        reqs = [self._request(f"{p}-{d}-{size}", d, WEAK_TARGET_ATOMS, (size,), rng)
                for d in WEAK_DIMS for size in WEAK_SIZES]
        rng.shuffle(reqs)
        return reqs


WORKLOADS = {
    "parseval": Parseval,
    "mmd_large": MmdLarge,
    "certify_cli": CertifyCli,
    "weak_converge": WeakConverge,
}
