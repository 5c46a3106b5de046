"""Constructive refutations: nonzero measures with certified zero energy.

Each construction mirrors the failure mode it certifies.  A torus kernel
with a dead Fourier coefficient is refuted by a cosine grid measure whose
discrete spectrum aliases entirely outside the kernel's active frequencies,
so its energy vanishes exactly.  A band-limited kernel on the line is
refuted by a modulated sinc-squared density whose transform lives beyond
the kernel's spectral box; discrete atoms cannot do this job because their
transforms are almost periodic and never vanish on an interval, which is
the computational face of the gap between compact-convergence and uniform
universality.  Degenerate Gram matrices yield closed-form null vectors, and
any zero-mass zero-energy witness normalizes into two distinct probability
measures that the kernel cannot tell apart.  A :class:`Witness` whose
energy exceeds its error bound is refused as it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels as K
from .certify import certify, check_strict_pd_numeric
from .embedding import EnergyResult, energy_spatial, energy_spectral, mmd
from .measures import (
    DiscreteSignedMeasure,
    ModulatedSincSq,
    construct,
    measure_to_json,
    normalize_to_pq,
)

TWO_PI = 2.0 * math.pi


class WitnessError(ValueError):
    pass


@dataclass(frozen=True)
class Witness:
    measure: object
    property_refuted: str
    energy: EnergyResult
    norm: float

    def __post_init__(self):
        e = self.energy
        if abs(e.value) > e.error_bound:
            raise WitnessError(f"witness energy {e.value:g} exceeds its bound {e.error_bound:g}")


def _band_degree(k):
    """Largest active frequency l of a band-limited torus kernel."""
    if K.kernel_class(k) != "a2":
        raise WitnessError("grid witnesses require a torus kernel")
    spec = K.spectral(k)
    if spec.support.kind != "finite_set":
        raise WitnessError(f"{k.family} has no zero coefficient to exploit")
    return max(spec.support.frequencies)


def torus_zero_energy_witness(k, grid_size, n0=None) -> Witness:
    """Equispaced cosine grid measure with exactly zero energy.

    Atoms sit at x_j = 2 pi j / m with weights (2 pi / m) 2 cos(n0 x_j).
    Its coefficients live on frequencies congruent to +-n0 mod m, so for
    m >= n0 + l + 1 they miss the kernel's active band {-l, ..., l} entirely.
    """
    l = _band_degree(k)
    if k.space.dim != 1:
        raise WitnessError("grid witnesses are one dimensional")
    if n0 is None:
        n0 = l + 1
    if K.spectral(k).coeff(n0) != 0.0:
        raise WitnessError(f"coefficient at {n0} is nonzero")
    m = int(grid_size)
    if m < n0 + l + 1:
        raise WitnessError(
            f"grid size {m} aliases into the active band; need m >= {n0 + l + 1}"
        )
    K.require_pair_array(m * m)  # the energy's lag matrix, refused before any point exists
    x = TWO_PI * np.arange(m) / m
    w = (TWO_PI / m) * 2.0 * np.cos(n0 * x)
    mu = construct(k.space, list(zip(x[:, None], w)))
    energy = energy_spatial(k, mu)
    return Witness(mu, "c_universal", energy, mu.total_variation)


def bandlimited_zero_energy_witness(k) -> Witness:
    """Modulated sinc-squared density spectrally disjoint from a box kernel,
    at the modulation frequency its ``c0_universal`` certificate names."""
    if K.kernel_class(k) != "a1":
        raise WitnessError("band-limited witnesses require a translation-invariant kernel")
    if k.space.dim != 1:
        raise WitnessError("band-limited witnesses are one dimensional")
    spec = K.spectral(k)
    if spec.support.kind != "box":
        raise WitnessError(f"{k.family} has a full spectral support")
    mu = ModulatedSincSq(1.0, certify(k, "c0_universal").witness_ref["omega0"])
    energy = energy_spectral(k, mu)
    return Witness(mu, "c0_universal", energy, mu.l1_norm())


def gram_null_witness(k, points) -> Witness:
    """Atomic measure from a numerical Gram null vector on given points; a kernel
    certified ``strictly_pd`` is refused, as its probe reads only ill-conditioning."""
    if certify(k, "strictly_pd").verdict == "holds":
        raise WitnessError(f"{k.family} is certified strictly positive definite")
    probe = check_strict_pd_numeric(k, points)
    if not probe.fails_on_set:
        raise WitnessError("Gram matrix has no numerical null vector")
    P = np.atleast_2d(np.asarray(points, dtype=float))
    mu = construct(k.space, list(zip(P, probe.null_vector)))
    energy = energy_spatial(k, mu)
    return Witness(mu, "strictly_pd", energy, mu.total_variation)


def indistinguishable_pair(k, mu: DiscreteSignedMeasure):
    """Normalize a zero-mass, zero-energy witness into probability measures
    P != Q with mmd(P, Q) = 0: a constructive refutation of the
    characteristic property."""
    if not isinstance(mu, DiscreteSignedMeasure):
        raise WitnessError("need a discrete witness measure")
    if abs(mu.total_mass) > 1e-12:
        raise WitnessError(f"witness has nonzero total mass {mu.total_mass:g}")
    energy = energy_spatial(k, mu)
    if energy.value > 1e-9:
        raise WitnessError(f"witness has positive energy {energy.value:g}")
    P, Q = normalize_to_pq(mu)
    value = mmd(k, P, Q)
    if value > 1e-10:
        raise WitnessError(f"normalized pair has mmd {value:g}")
    return P, Q, value


def witness_to_json(w: Witness):
    return {
        "measure": measure_to_json(w.measure),
        "refutes": w.property_refuted,
        "energy": w.energy.value,
        "bound": w.energy.error_bound,
    }


def construct_witness(k, ref, grid_size=None) -> Witness:
    """Build the witness described by a certificate's witness reference,
    in closed form: no eigensolver runs.  The Gram probes and
    :func:`gram_null_witness` are diagnostics for caller-supplied points."""
    kind = ref.get("kind")
    if kind == "torus_zero_energy_grid":
        m = grid_size or ref.get("grid_size")
        return torus_zero_energy_witness(k, m, n0=ref.get("n0"))
    if kind == "bandlimited_zero_energy":
        return bandlimited_zero_energy_witness(k)
    if kind == "gram_null":
        # unit null vectors: m points 2 pi j / m on axis 0 weighted cos((l + 1) x)
        # alias to +-(l + 1) mod m, outside the band for m >= 2l + 2 (other axes
        # scale the Gram by k_1(0)^(d-1)); (-1, +1) on two points, for a constant kernel
        pts, w = ref.get("points"), np.array([-1.0, 1.0])
        if pts == "equispaced":
            pts = np.zeros((ref.get("count", 5), k.space.dim))
            pts[:, 0] = TWO_PI * np.arange(len(pts)) / len(pts)
            w = np.cos((_band_degree(k) + 1) * pts[:, 0])
        mu = construct(k.space, list(zip(np.atleast_2d(pts), w / np.linalg.norm(w))))
        return Witness(mu, "strictly_pd", energy_spatial(k, mu), mu.total_variation)
    if kind == "indistinguishable_pair":
        inner = construct_witness(k, ref["from"], grid_size=grid_size)
        P, Q, value = indistinguishable_pair(k, inner.measure)
        diff = P - Q
        return Witness(diff, "characteristic",
                       energy_spatial(k, diff), diff.total_variation)
    raise WitnessError(f"unknown witness reference {ref!r}")
