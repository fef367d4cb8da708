"""Functional linear regression with spectral-cutoff and ridge estimators.

Functions on the p-point midpoint grid of [0, 1] (``grid``) are (p,) float
arrays and kernels (p, p) float arrays throughout.  Modules: spectral
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
from .grid import Grid
from .spectral import (
    PerturbationReport,
    align_signs,
    eigendecompose,
    perturbation_report,
    resolvent_identity_residual,
)
from .estimators import (
    Dataset,
    FittedModel,
    compute_moments,
    pca_fit,
    predict,
    ridge_fit,
    usable_rank,
)
from .simulation import (
    SimConfig,
    TruthBundle,
    basis_matrix,
    draw_dataset,
    gamma_sequence,
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
