"""Spectral Fourier-Galerkin engine for incompressible Navier-Stokes on the
periodic 3-torus, with evaluators for energy estimates and mixed-norm
(LPS-type) regularity monitors."""

from .fields import (
    SpectralScalarField,
    SpectralVectorField,
    WaveVector,
    load_field,
    random_scalar_field,
    random_vector_field,
    save_field,
    scalar_from_modes,
    vector_from_modes,
)
from .operators import (
    convect,
    div,
    dj_norm,
    grad,
    grad_norm,
    hs_norm,
    inner_l2,
    l2_norm_exact,
    laplacian,
    lp_norm,
    neg_laplacian_pow,
    partial_derivative,
    rot,
    self_convection,
    sobolev_norm,
    symmetrized_convection,
)
from .helmholtz import (
    ProjectionDecomposition,
    decompose,
    derivative_commutation_defect,
    dual_norm,
    gradient_potential,
    leray_project,
    recover_pressure,
)
from .eigenbasis import (
    DivFreeBasis,
    Shell,
    build_basis,
    enumerate_shells,
    gradient_coefficients,
    load_basis,
    project_coefficients,
    reconstruct,
    save_basis,
)
from .galerkin import (
    FieldTrajectory,
    LinearizedOperator,
    SolverAbort,
    SolverConfig,
    assemble_linearized,
    energy_identity_defect,
    linearized_closed_form,
    load_trajectory,
    matrix_exponential,
    residual,
    save_trajectory,
    solve_linearized,
    solve_navier_stokes,
)
from .estimates import (
    BochnerScaleNorm,
    EnergyCertificate,
    LpsReport,
    PerovInput,
    bochner_scale_norm,
    energy_certificate,
    gn_report,
    lps_admissible,
    lps_norm,
    nonlinear_term_bound_report,
    perov_bound,
)

__version__ = "0.1.0"
