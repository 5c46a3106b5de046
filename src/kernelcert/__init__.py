"""kernelcert: mean embeddings of finite signed measures, exact MMD on
discrete measures, and spectral certification of kernel separation
properties, with constructive witnesses for every failure."""

from .measures import (
    Space,
    euclidean,
    torus,
    DiscreteSignedMeasure,
    TorusCosine,
    ModulatedSincSq,
    construct,
    dirac,
    jordan_decompose,
    normalize_to_pq,
    fourier_transform,
    torus_coefficient,
    density_ft,
    sinc_sq_spectrum,
    measure_to_json,
    measure_from_json,
)
from .kernels import (
    KernelDescriptor,
    SpectralMeasure,
    SpectralSupport,
    TaylorCoefficients,
    make_kernel,
    kernel_class,
    eval_kernel,
    gram,
    cross_gram,
    spectral,
    taylor_features,
    taylor_coefficients,
    sup_kxx,
    kernel_to_json,
    kernel_from_json,
    gaussian_ti,
    laplacian_ti,
    b1_spline,
    sinc,
    sinc_sq,
    poisson_torus,
    expcos_torus,
    quadpoly_torus,
    dirichlet,
    fejer,
    radial_gaussian,
    inverse_multiquadric,
    radial_atoms,
    taylor_exp,
    taylor_binomial,
    constant,
)
from .embedding import (
    EnergyResult,
    inner,
    energy_spatial,
    energy_spectral,
    energy_features,
    embed_eval,
    mmd,
    mmd_witness_gap,
)
from .certify import (
    Certificate,
    ImplicationGraph,
    certify,
    certify_all,
    check_strict_pd_numeric,
    check_cond_strict_pd_numeric,
    audit_implications,
    default_implication_graph,
    applicable_properties,
    certificate_to_json,
    PROPERTIES,
)
from .witness import (
    Witness,
    torus_zero_energy_witness,
    bandlimited_zero_energy_witness,
    gram_null_witness,
    indistinguishable_pair,
    witness_to_json,
)
from .weaktopo import (
    ConvergenceSpec,
    ExperimentReport,
    bounded_lipschitz,
    run_convergence,
    comonotonicity_check,
    empirical_from_target,
    shrink_to_dirac,
    moving_atom,
)
from .numerics import (
    QuadratureConfig,
    integrate_1d,
    min_eig_sym,
    solve_lp,
)

__version__ = "0.1.0"
