"""Metric-operator channels, PT-symmetric qubit simulation, and verification.

The package realizes a change of Hilbert-space inner product as a quantum
channel, simulates qubit PT-symmetric dynamics through a single-qutrit
unitary dilation with postselection, and plays a tomographic verification
game whose acceptance threshold separates honest inner-product changes from
unitary-mixture impostors.
"""

from .errors import (
    BrokenPtRegimeError,
    DegenerateMetricError,
    DimMismatchError,
    InvalidDensityOperatorError,
    IterationCapWarning,
    MetricExceedsIdentityError,
    MetriqError,
    NegativeParameterError,
    NotHermitianError,
    NotNormalizedError,
    NotPositiveDefiniteError,
    NotPsdError,
    NotSquareError,
    SingularDesignError,
    SupernormalizedError,
    UncertifiedAcceptWarning,
)
from .linalg import (
    HermitianEigensystem,
    hermitian_eig,
    kron,
    matrix_exp_hermitian_generator,
    operator_norm,
    psd_sqrt,
    trace_norm,
)
from .rng import RngStream
from .hilbert import (
    MetricOperator,
    StateVector,
    eta_adjoint,
    eta_inner,
    lift,
    lift_eta,
    representation_change,
    validate_density,
    validate_metric,
)
from .channels import (
    ChoiMatrix,
    KrausChannel,
    apply,
    apply_e_eta,
    choi,
    compose,
    g_eta,
    g_kappa_eta_inv,
    is_trace_nonincreasing,
    kraus_channel,
    scaled_metric,
    superoperator,
)
from .ptsym import (
    PtHamiltonian,
    PtSystem,
    analytic_pt_evolution,
    build_pt_system,
    u_pt,
)
from .dilation import (
    DilationUnitary,
    build_dilation,
    embed,
    normalize_metric,
    postselect,
)
from .montecarlo import (
    SimulationRecord,
    chained_success_probability,
    simulate_g_eta,
    simulate_pt,
)
from .tomography import (
    ProverModel,
    ReconstructedChannel,
    TomographyDesign,
    VerificationReport,
    default_design,
    dishonest_prover,
    embedded_metric_channel,
    honest_prover,
    one_to_one_norm,
    reconstruct,
    run_prover,
    sampled_one_to_one,
    threshold,
    verify,
)

__version__ = "0.1.0"
