"""Finite signed measures: discrete atom lists plus two closed-form density
families, with their Fourier data.

Discrete measures live on Euclidean space R^d or the torus [0, 2pi)^d and are
immutable after construction, so values can be shared freely across threads.
The two density families are the witnesses that discrete atoms cannot
replace: a pure cosine density on the circle and a modulated sinc-squared
density on the line whose transform occupies two compact bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .numerics import MAX_PANELS, QuadratureConfig, _gl_grid, cos_over_sq_tail, integrate_1d

_L1_CHUNK = 4096  # panels of ModulatedSincSq.l1_norm per pass: 64K nodes

TWO_PI = 2.0 * math.pi

# Points closer than this in max-norm are the same atom.
ATOM_MERGE_TOL = 1e-12
PROBABILITY_TOL = 1e-12


class SpaceMismatchError(ValueError):
    pass


class InvalidMeasureError(ValueError):
    pass


def _number(name, v, ok, what, error=InvalidMeasureError):
    """``v`` as a finite float passing ``ok``, else ``error``: ``name`` must ``what``."""
    try:
        v = float(v)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{name} must be a number, got {v!r}") from None
    if not (math.isfinite(v) and ok(v)):
        raise error(f"{name} must {what}, got {v}")
    return v


# Largest dimension: (2 pi)^dim stays finite, and lists of dim numbers small.
_MAX_DIM = 256


@dataclass(frozen=True)
class Space:
    """Ambient space: ``kind`` is ``"euclidean"`` or ``"torus"``, ``1 <= dim <= 256``."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in ("euclidean", "torus"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if type(self.dim) is not int or not 1 <= self.dim <= _MAX_DIM:
            raise ValueError(f"dim must be an integer from 1 to {_MAX_DIM}")

    @property
    def is_torus(self):
        return self.kind == "torus"


def euclidean(dim=1):
    return Space("euclidean", dim)


def torus(dim=1):
    return Space("torus", dim)


@dataclass(frozen=True, eq=False)
class DiscreteSignedMeasure:
    """Weighted atoms as read-only arrays in canonical form: points distinct
    (at least ``ATOM_MERGE_TOL`` apart in max-norm) and in lexicographic
    order, weights nonzero.

    The zero measure has no atoms.  Use :func:`construct` rather than the
    raw constructor so canonicalization and merging run.
    """

    space: Space
    points: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n_atoms(self):
        return self.points.shape[0]

    @property
    def is_zero(self):
        return self.n_atoms == 0

    @property
    def total_variation(self):
        return float(np.sum(np.abs(self.weights)))

    @property
    def total_mass(self):
        return float(np.sum(self.weights))

    @property
    def is_probability(self):
        return (
            self.n_atoms > 0
            and bool(np.all(self.weights > 0))
            and abs(self.total_mass - 1.0) <= PROBABILITY_TOL
        )

    def scaled(self, c):
        return construct(self.space, zip(self.points, c * self.weights))

    def __add__(self, other):
        if other.space != self.space:
            raise SpaceMismatchError("cannot add measures on different spaces")
        return construct(self.space, zip(np.concatenate([self.points, other.points]),
                                         np.concatenate([self.weights, other.weights])))

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def __repr__(self):
        return f"DiscreteSignedMeasure({self.space.kind} d={self.space.dim}, {self.n_atoms} atoms)"


def construct(space: Space, raw_atoms) -> DiscreteSignedMeasure:
    """Build a measure from (point, weight) pairs, in O(n log n).

    Torus coordinates are reduced mod 2pi, and one within ``ATOM_MERGE_TOL``
    below 2pi becomes 0.  On each axis, a run is a maximal chain of the
    input's coordinates with consecutive gaps below ``ATOM_MERGE_TOL``.
    Atoms that share a run on every axis merge into one, at their
    lexicographically least point, with their weights summed in point
    order.  The rule is transitive and independent of the input order, and
    it leaves atoms at least ``ATOM_MERGE_TOL`` apart in max-norm.  Zero
    sums are dropped, so cancellation yields the zero measure.
    """
    pairs = list(raw_atoms)
    if not pairs:
        return DiscreteSignedMeasure(space, np.zeros((0, space.dim)), np.zeros(0))
    try:
        points = np.array([p for p, _ in pairs], dtype=float)
        weights = np.array([w for _, w in pairs], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidMeasureError(f"atoms must be (point, weight) pairs of numbers: {exc}") from None
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[1] != space.dim:
        raise InvalidMeasureError(f"point of length {points[0].size} in space of dimension {space.dim}")
    if weights.ndim != 1 or not np.all(np.isfinite(weights)):
        raise InvalidMeasureError("weights must be finite numbers")
    if not np.all(np.isfinite(points)):
        raise InvalidMeasureError("points must be finite")
    if space.is_torus:
        points = np.mod(points, TWO_PI)
        points[points > TWO_PI - ATOM_MERGE_TOL] = 0.0
    if len(pairs) > 1:
        points, weights = _merge(points, weights)
    keep = weights != 0.0
    return DiscreteSignedMeasure(space, points[keep], weights[keep])


def _merge(points, weights):
    """Sort the atoms, then sum each group that shares a run on every axis."""
    order = np.lexsort(points.T[::-1])
    points, weights = points[order], weights[order]
    if np.all(np.diff(points[:, 0]) >= ATOM_MERGE_TOL):
        return points, weights  # every run on the first axis holds one atom
    # a coordinate's run is the number of run starts at or below it
    labels = np.array([np.searchsorted(s[1:][np.diff(s) >= ATOM_MERGE_TOL], x, "right")
                       for s, x in zip(np.sort(points, axis=0).T, points.T)])
    # a stable sort: each group keeps its points in lexicographic order
    grouped = np.lexsort(labels[::-1])
    first = np.r_[True, np.any(np.diff(labels[:, grouped]) != 0, axis=0)]
    merged = points[grouped][first]
    # bincount adds in array order, so each sum runs in its group's point order
    sums = np.bincount(np.cumsum(first) - 1, weights=weights[grouped])
    order = np.lexsort(merged.T[::-1])
    return merged[order], sums[order]


def dirac(space: Space, point, weight=1.0):
    return construct(space, [(point, weight)])


def jordan_decompose(mu: DiscreteSignedMeasure):
    """Split into positive and negative parts: ``mu = plus - minus``.

    Any subset of a canonical measure's atoms is canonical, so the parts are
    cut out by sign and need no merge."""
    plus, minus = mu.weights > 0, mu.weights < 0
    return (DiscreteSignedMeasure(mu.space, mu.points[plus], mu.weights[plus]),
            DiscreteSignedMeasure(mu.space, mu.points[minus], -mu.weights[minus]))


def normalize_to_pq(mu: DiscreteSignedMeasure):
    """Normalize a nonzero, zero-mass measure into probability measures P, Q
    with ``P - Q = mu / alpha`` where alpha is the positive-part mass."""
    if mu.is_zero:
        raise InvalidMeasureError("zero measure cannot be normalized")
    if abs(mu.total_mass) > PROBABILITY_TOL:
        raise InvalidMeasureError(
            f"total mass {mu.total_mass:g} is not zero within {PROBABILITY_TOL:g}"
        )
    plus, minus = jordan_decompose(mu)
    alpha = plus.total_mass
    if alpha <= 0:
        raise InvalidMeasureError("measure has no positive part")
    return plus.scaled(1.0 / alpha), minus.scaled(1.0 / alpha)


def fourier_transform(mu: DiscreteSignedMeasure, omega):
    """Transform of a Euclidean discrete measure: sum_j w_j exp(-i w.x_j)."""
    if mu.space.is_torus:
        raise SpaceMismatchError("fourier_transform is for Euclidean measures")
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if omega.size != mu.space.dim:
        raise InvalidMeasureError("frequency dimension mismatch")
    if mu.is_zero:
        return 0.0 + 0.0j
    return complex(np.sum(mu.weights * np.exp(-1j * (mu.points @ omega))))


def torus_coefficient(mu, n):
    """Fourier coefficient on the torus.

    For a discrete measure this is ``(2pi)^-d sum_j w_j exp(-i n.x_j)``;
    for a :class:`TorusCosine` density the exact value ``alpha [|n| = n0]``.
    """
    n = np.atleast_1d(np.asarray(n))
    if isinstance(mu, TorusCosine):
        if n.size != 1:
            raise InvalidMeasureError("TorusCosine lives on the circle")
        return complex(mu.alpha if abs(int(n[0])) == mu.n0 else 0.0)
    if not isinstance(mu, DiscreteSignedMeasure) or not mu.space.is_torus:
        raise SpaceMismatchError("torus_coefficient needs a torus measure")
    if n.size != mu.space.dim:
        raise InvalidMeasureError("frequency dimension mismatch")
    if mu.is_zero:
        return 0.0 + 0.0j
    phase = mu.points @ n.astype(float)
    return complex(np.sum(mu.weights * np.exp(-1j * phase)) / TWO_PI ** mu.space.dim)


# ---------------------------------------------------------------------------
# Density families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusCosine:
    """Density ``x -> 2 alpha cos(n0 x)`` on [0, 2pi); coefficients are
    exactly ``alpha`` at ``+-n0`` and zero elsewhere."""

    alpha: float
    n0: int
    space: Space = field(default_factory=lambda: torus(1))

    def __post_init__(self):
        object.__setattr__(self, "alpha", _number("alpha", self.alpha, bool, "be nonzero"))
        if isinstance(self.n0, bool) or not isinstance(self.n0, int) or self.n0 < 1:
            raise InvalidMeasureError("n0 must be a positive integer")
        if self.space != torus(1):
            raise SpaceMismatchError("TorusCosine lives on the 1-d torus")

    def density(self, x):
        return 2.0 * self.alpha * np.cos(self.n0 * np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ModulatedSincSq:
    """Density ``x -> 2 alpha cos(w0 x) sin^2(x)/x^2`` on the line.

    Its transform is supported on the two bands ``+-[w0 - w, w0 + w]`` where
    ``w`` is the derived half-width of the sinc-squared spectrum; see
    :func:`sinc_sq_spectrum`.
    """

    alpha: float
    omega0: float
    space: Space = field(default_factory=lambda: euclidean(1))

    def __post_init__(self):
        object.__setattr__(self, "alpha", _number("alpha", self.alpha, bool, "be nonzero"))
        object.__setattr__(self, "omega0", _number("omega0", self.omega0, lambda w: w > 0,
                                                   "be positive"))
        if self.space != euclidean(1):
            raise SpaceMismatchError("ModulatedSincSq lives on the line")

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return 2.0 * self.alpha * np.cos(self.omega0 * x) * np.sinc(x / np.pi) ** 2

    def band_edges(self):
        w, _ = sinc_sq_spectrum()
        return max(0.0, self.omega0 - w), self.omega0 + w

    def l1_norm(self):
        """Lower end of the L1 norm: twice the 16-point Gauss-Legendre sum of
        |density| on [0, X], panel edges at the zeros of cos(w0 x) (the only
        kinks of |density|) and of sin x; X = 60, or less where 60 would take
        over ``MAX_PANELS`` panels.  |density| <= 2 |alpha| / x^2 on both
        sides, so the norm lies in [value, value + 4 |alpha| / X].  Nodes
        are laid ``_L1_CHUNK`` panels at a time."""
        X = min(60.0, MAX_PANELS * math.pi / (self.omega0 + 1.0))
        cos_zeros = np.arange(0.5, X * self.omega0 / math.pi) * (math.pi / self.omega0)
        sin_zeros = np.arange(1.0, X / math.pi) * math.pi
        edges = np.union1d(np.r_[0.0, cos_zeros, sin_zeros], X)
        total = 0.0
        for start in range(0, edges.size - 1, _L1_CHUNK):
            nodes, wts = _gl_grid(edges[start:start + _L1_CHUNK + 1])
            total += float(wts @ np.abs(self.density(nodes)))
        return 2.0 * total


def _sinc_sq_plain_transform(omega):
    """int_R sin^2(x)/x^2 cos(omega x) dx, by quadrature plus exact
    sine-integral tails.  Pure oracle: assumes nothing about the support."""

    core, _ = integrate_1d(
        lambda x: float(np.sinc(x / np.pi) ** 2 * np.cos(omega * x)), 0.0, 1.0,
        QuadratureConfig(abs_tol=1e-14, rel_tol=1e-13, max_subdivisions=200),
    )
    # sin^2(x) = (1 - cos 2x) / 2: three tails int_1^inf cos(eta x) / x^2 dx
    val = core + 0.5 * cos_over_sq_tail(omega, 1.0) - 0.25 * (
        cos_over_sq_tail(2.0 + omega, 1.0) + cos_over_sq_tail(2.0 - omega, 1.0))
    return float(2.0 * val)


@lru_cache(maxsize=1)
def sinc_sq_spectrum():
    """Derived spectral data of ``sin^2(x)/x^2``: ``(half_width, peak)``.

    The half-width of the transform's support and the peak value at zero
    frequency are located numerically (bisection on the plain transform,
    then a secant refinement on the linear edge).  Nothing downstream
    hardcodes these numbers.
    """
    peak = _sinc_sq_plain_transform(0.0)
    lo, hi = 0.5, 8.0
    if _sinc_sq_plain_transform(lo) <= 1e-10 or abs(_sinc_sq_plain_transform(hi)) > 1e-10:
        raise RuntimeError("unexpected sinc-squared spectrum shape")
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if abs(_sinc_sq_plain_transform(mid)) > 1e-10:
            lo = mid
        else:
            hi = mid
    # the spectrum falls linearly into its edge: extrapolate to the zero
    x1, x2 = lo - 0.2, lo - 0.1
    f1, f2 = _sinc_sq_plain_transform(x1), _sinc_sq_plain_transform(x2)
    half_width = x1 - f1 * (x2 - x1) / (f2 - f1)
    return float(half_width), float(peak)


def sinc_sq_plain_transform_shape(omega):
    """Closed-form transform of sin^2/x^2 built from the derived constants:
    a triangle of height ``peak`` on ``[-w, w]``."""
    w, peak = sinc_sq_spectrum()
    omega = np.asarray(omega, dtype=float)
    return peak * np.maximum(0.0, 1.0 - np.abs(omega) / w)


def density_ft(mu: ModulatedSincSq, omega):
    """Transform of the modulated density: two shifted sinc-squared bands."""
    if not isinstance(mu, ModulatedSincSq):
        raise InvalidMeasureError("density_ft expects a ModulatedSincSq measure")
    omega = np.asarray(omega, dtype=float)
    val = mu.alpha * (
        sinc_sq_plain_transform_shape(omega - mu.omega0)
        + sinc_sq_plain_transform_shape(omega + mu.omega0)
    )
    return val if val.ndim else float(val)


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def _space_to_json(space: Space):
    return {"kind": space.kind, "dim": space.dim}


def _space_from_json(doc, error=InvalidMeasureError):
    _require_fields(doc, {"kind", "dim"}, "space", error=error)
    return Space(str(doc["kind"]), doc["dim"])


def _require_fields(doc, allowed, what, required=None, error=InvalidMeasureError):
    """The field check of every document reader: an object, no field outside
    ``allowed``, none of ``required`` (default: all of ``allowed``) missing."""
    if not isinstance(doc, dict):
        raise error(f"{what} document must be an object")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise error(f"unknown fields in {what} document: {sorted(unknown)}")
    for key in (required if required is not None else allowed):
        if key not in doc:
            raise error(f"{what} document is missing {key!r}")


def measure_to_json(mu):
    if isinstance(mu, DiscreteSignedMeasure):
        return {
            "space": _space_to_json(mu.space),
            "atoms": [{"x": x, "w": w}
                      for x, w in zip(mu.points.tolist(), mu.weights.tolist())],
        }
    if isinstance(mu, TorusCosine):
        return {
            "space": _space_to_json(mu.space),
            "density": {"family": "torus_cosine", "alpha": mu.alpha, "n0": mu.n0},
        }
    if isinstance(mu, ModulatedSincSq):
        return {
            "space": _space_to_json(mu.space),
            "density": {"family": "modulated_sincsq", "alpha": mu.alpha, "omega0": mu.omega0},
        }
    raise InvalidMeasureError(f"cannot serialize {type(mu).__name__}")


def measure_from_json(doc):
    _require_fields(doc, {"space", "atoms", "density"}, "measure", required={"space"})
    space = _space_from_json(doc["space"])
    if ("atoms" in doc) == ("density" in doc):
        raise InvalidMeasureError("measure document needs exactly one of atoms/density")
    if "atoms" in doc:
        if not isinstance(doc["atoms"], list):
            raise InvalidMeasureError("atoms must be a list")
        for entry in doc["atoms"]:
            _require_fields(entry, {"x", "w"}, "atom")
        return construct(space, [(entry["x"], entry["w"]) for entry in doc["atoms"]])
    dens = doc["density"]
    if not isinstance(dens, dict):
        raise InvalidMeasureError("density document must be an object")
    family = dens.get("family")
    if family == "torus_cosine":
        _require_fields(dens, {"family", "alpha", "n0"}, "density")
        return TorusCosine(dens["alpha"], dens["n0"], space)
    if family == "modulated_sincsq":
        _require_fields(dens, {"family", "alpha", "omega0"}, "density")
        return ModulatedSincSq(dens["alpha"], dens["omega0"], space)
    raise InvalidMeasureError(f"unknown density family {family!r}")
