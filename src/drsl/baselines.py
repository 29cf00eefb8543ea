"""Linear comparison methods: classical RSA via OLS, LASSO, and the linear
ablation of the deep model (identity transformation).

The LASSO is solved by proximal gradient with soft thresholding; it shares
the batch/gradient machinery style of the main optimizer and is accurate
enough at desk scale. The OLS route goes through a rank-revealing least
squares solve, so rank-deficient designs get the minimum-norm solution.
"""

from __future__ import annotations

import enum

import numpy as np

from .data_model import (
    DesignMatrix,
    FitConfig,
    SignatureMatrix,
    SubjectData,
    validate_pair,
)
from .errors import DrslError
from .optimizer import GroupFit, fit, gram_bound, soft_threshold


class BaselineKind(str, enum.Enum):
    """Linear baselines; each variant maps to exactly one fit routine."""

    GLM_RSA = "glm"
    LASSO = "lasso"
    LRSL = "lrsl"


def fit_glm(data: SubjectData, design: DesignMatrix) -> SignatureMatrix:
    """Ordinary least squares signatures, B = pinv(D) X.

    Uses a rank-revealing solver, so a rank-deficient design yields the
    minimum-norm solution instead of failing.
    """
    validate_pair(data, design)
    b, *_ = np.linalg.lstsq(design.values, data.responses, rcond=None)
    return SignatureMatrix(values=b, conditions=design.conditions)


def lasso_step_size(design: DesignMatrix) -> float:
    """Safe proximal-gradient step, just under 1 / (2 lambda_max(D^T D))."""
    return 0.45 / max(gram_bound(design.values), 1e-12)


def fit_lasso(
    data: SubjectData,
    design: DesignMatrix,
    alpha_lasso: float = 0.9,
    iterations: int = 500,
) -> SignatureMatrix:
    """Minimize ||X - D B||_F^2 + alpha_lasso * sum|beta| by proximal gradient.

    The step is :func:`lasso_step_size`, below the stability limit. The
    gradient -2 (D^T X - D^T D B) comes from D^T D and D^T X, formed once,
    so an iteration costs O(P^2 V) instead of O(T P V).
    """
    validate_pair(data, design)
    if not alpha_lasso >= 0:
        raise DrslError(f"alpha_lasso must be >= 0, got {alpha_lasso}")
    eta = lasso_step_size(design)
    d = design.values
    gram = d.T @ d
    dtx = d.T @ data.responses
    b = np.zeros(dtx.shape)
    threshold = eta * alpha_lasso
    for _ in range(iterations):
        grad = -2.0 * (dtx - gram @ b)
        b = soft_threshold(b - eta * grad, threshold)
    return SignatureMatrix(values=b, conditions=design.conditions)


def fit_lrsl(datasets, config: FitConfig) -> GroupFit:
    """Group fit with the transformation fixed to the identity, f(x) = x.

    Runs the same two-level loop as the deep model but skips the kernel
    half-step entirely; the mapped space is the voxel space (V = V_org).
    """
    return fit(datasets, config, identity_kernel=True)
