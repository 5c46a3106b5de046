"""Certified spectral bounds: a guard on their size and a randomized check
of the fast spectral routes against the spatial double sum."""

import statistics

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kernelcert as kc

from conftest import random_discrete

SPECTRAL_FAMILIES = {
    "gaussian_ti": lambda d: kc.gaussian_ti(1.0, d),
    "laplacian_ti": lambda d: kc.laplacian_ti(1.0, d),
    "b1_spline": lambda d: kc.b1_spline(d),
    "sinc": lambda d: kc.sinc(1.0, d),
    "sinc_sq": lambda d: kc.sinc_sq(d),
    "poisson_torus": lambda d: kc.poisson_torus(0.5, d),
    "expcos_torus": lambda d: kc.expcos_torus(1.0, d),
    "quadpoly_torus": lambda d: kc.quadpoly_torus(d),
    "dirichlet": lambda d: kc.dirichlet(2, d),
    "fejer": lambda d: kc.fejer(2, d),
    "radial_gaussian": lambda d: kc.radial_gaussian(1.0, d),
    "inverse_multiquadric": lambda d: kc.inverse_multiquadric(1.0, 2.0, d),
    "radial_atoms": lambda d: kc.radial_atoms([(0.5, 1.0), (2.0, 0.5)], d),
}

# Median spectral error_bound per family over the sample of
# ``_guard_bounds``, recorded with the spectral routes as they stood before
# the multi-step Cauchy tail, the higher-order Euler-Maclaurin quadpoly tail
# and the batched Gaussian-rate transform; b1_spline's since its panels
# span one period each, up to a cutoff at the end of its bulk.
MEDIAN_BOUND_CEILING = {
    "gaussian_ti": 4.850647591506151e-12,
    "laplacian_ti": 0.00020838811330902937,
    "b1_spline": 5.007612844738715e-12,
    "sinc": 4.402955471974718e-12,
    "sinc_sq": 2.588286864971569e-12,
    "poisson_torus": 4.6099834659634994e-11,
    "expcos_torus": 2.3429660356773048e-11,
    "quadpoly_torus": 1.6336876007103825e-05,
    "dirichlet": 9.785157099121494e-11,
    "fejer": 2.6963532846210423e-11,
    "radial_gaussian": 3.5482563300908124e-12,
    "inverse_multiquadric": 7.525523120800639e-05,
    "radial_atoms": 5.4629131558793554e-12,
}


def _guard_bounds(index, make):
    """Spectral bounds on two seeded 20-atom measures in each of d = 1, 2, 3."""
    rng = np.random.default_rng([7, index])
    bounds = []
    for d in (1, 2, 3):
        k = make(d)
        for _ in range(2):
            bounds.append(kc.energy_spectral(k, random_discrete(k.space, 20, rng)).error_bound)
    return bounds


@pytest.mark.parametrize("index,name", list(enumerate(SPECTRAL_FAMILIES)))
def test_median_spectral_bound_does_not_grow(index, name):
    median = statistics.median(_guard_bounds(index, SPECTRAL_FAMILIES[name]))
    # one part in 1e9 absorbs last-bit differences between BLAS builds
    assert median <= MEDIAN_BOUND_CEILING[name] * (1.0 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["laplacian_ti", "quadpoly_torus", "inverse_multiquadric"]),
       n=st.integers(2, 20), d=st.sampled_from([1, 2, 3]),
       spread=st.sampled_from([1e-6, 1e-2, 1.0, 1.5]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fast_spectral_routes_agree_with_spatial(name, n, d, spread, seed):
    k = SPECTRAL_FAMILIES[name](d)
    rng = np.random.default_rng(seed)
    # Lags from ~1e-7 to ~10.  The scale stops at the acceptance suite's
    # 1.5: with atoms about 20 apart the inverse multiquadric's 48/24-node
    # Laguerre discretization estimate falls short of its true error.
    pts = rng.normal(0.0, spread, (n, d))
    if k.space.is_torus:
        pts = np.mod(pts, 2 * np.pi)
    w = rng.normal(0.0, 1.0, n)
    mu = kc.construct(k.space, list(zip(pts, w)))
    sp = kc.energy_spatial(k, mu)
    se = kc.energy_spectral(k, mu)
    assert abs(sp.value - se.value) <= sp.error_bound + se.error_bound


@pytest.mark.parametrize("g", [1e5, 1.6e6])
def test_sinc_far_atoms_within_the_spectral_bound(g):
    # rounding the cosine arguments w d errs in proportion to the lag: at
    # these spacings it once exceeded the spectral bound (1.32e-13 against
    # 9.0e-14, and 7.26e-12 against 2.06e-12)
    atoms = [(0.0, 1.0), (g / 3 + 0.1, 0.25), (g, -0.5)]
    k = kc.sinc(1.0, 1)
    se = kc.energy_spectral(k, kc.construct(k.space, [([x], w) for x, w in atoms]))
    with mp.workdps(30):
        exact = mp.fsum(mp.mpf(wi) * mp.mpf(wj) * (mp.sin(r) / r if r else 1)
                        for xi, wi in atoms for xj, wj in atoms
                        for r in [mp.mpf(xi) - mp.mpf(xj)])
        assert abs(mp.mpf(se.value) - exact) <= se.error_bound
