"""Functional linear regression with spectral-cutoff and ridge estimators.

Core objects: midpoint-grid functions and kernels (``grid``), spectral
decompositions and perturbation diagnostics (``spectral``), the two slope
estimators (``estimators``), a reproducible simulator (``simulation``), the
Monte Carlo benchmark harness (``evaluation``) and a batch CLI (``cli``).
"""

from .errors import (
    DataFormatError,
    DegenerateSpectrumError,
    DimensionMismatchError,
    FlregError,
    InsufficientDataError,
    ParameterError,
    RankError,
)
from .grid import (
    Grid,
    GridFunction,
    SymmetricKernel,
    apply_kernel,
    hs_norm,
    inner_product,
    l2_distance_sq,
    l2_norm,
)
from .spectral import (
    EigenSystem,
    PerturbationReport,
    align_signs,
    eigendecompose,
    perturbation_report,
    resolvent_identity_residual,
)
from .estimators import (
    CenteredMoments,
    Dataset,
    FittedModel,
    compute_moments,
    pca_fit,
    predict,
    ridge_fit,
    ridge_filter_slope,
    usable_rank,
)
from .simulation import (
    SimConfig,
    TruthBundle,
    basis,
    draw_dataset,
    gamma_sequence,
    true_slope,
    truth_bundle,
)
from .evaluation import (
    McResult,
    RateFit,
    emit_table,
    mc_run,
    rate_fit,
)

__version__ = "0.1.0"
