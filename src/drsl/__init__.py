"""Deep representational similarity learning.

Regularized multi-set regression with a multilayer nonlinear kernel,
fitted block by block (mini-batch Adam on the kernel, an exact elastic-net
solve for the signatures), plus linear baselines (OLS, LASSO, and the
identity-kernel ablation), synthetic data with known ground truth, and the
correlation/MSE/ECOC evaluation protocols.
"""

__version__ = "0.1.0"

from .baselines import fit_glm, fit_lasso, fit_lrsl
from .data_model import (
    Activation,
    DesignMatrix,
    FitConfig,
    InitScheme,
    NetworkParameters,
    SignatureMatrix,
    SubjectData,
    standardize_columns,
    validate_pair,
)
from .design import (
    Event,
    EventTable,
    build_design_column,
    build_design_matrix,
    canonical_hrf,
)
from .evaluation import (
    CvReport,
    EcocCodebook,
    MethodFit,
    between_class_correlation,
    build_hyperplanes,
    cross_validate,
    ecoc_codebook,
    fit_method,
    group_mse,
    predict,
)
from .kernel_net import (
    default_layer_sizes,
    forward,
    init_params,
)
from .optimizer import (
    AdamState,
    GroupFit,
    SubjectFit,
    adam_step,
    fit,
    fit_subject,
    objective,
    regularizer,
    sample_batch,
)
from .synth import Nonlinearity, SignatureStyle, SynthSpec, generate_dataset

__all__ = [
    "Activation",
    "AdamState",
    "CvReport",
    "DesignMatrix",
    "EcocCodebook",
    "Event",
    "EventTable",
    "FitConfig",
    "GroupFit",
    "InitScheme",
    "MethodFit",
    "NetworkParameters",
    "Nonlinearity",
    "SignatureMatrix",
    "SignatureStyle",
    "SubjectData",
    "SubjectFit",
    "SynthSpec",
    "adam_step",
    "between_class_correlation",
    "build_design_column",
    "build_design_matrix",
    "build_hyperplanes",
    "canonical_hrf",
    "cross_validate",
    "default_layer_sizes",
    "ecoc_codebook",
    "fit",
    "fit_glm",
    "fit_lasso",
    "fit_lrsl",
    "fit_method",
    "fit_subject",
    "forward",
    "generate_dataset",
    "group_mse",
    "init_params",
    "objective",
    "predict",
    "regularizer",
    "sample_batch",
    "standardize_columns",
    "validate_pair",
]
