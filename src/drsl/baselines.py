"""Linear comparison methods: classical RSA via OLS, LASSO, and the linear
ablation of the deep model (identity transformation).

The LASSO and the linear ablation are both elastic nets in B, solved by the
optimizer's one proximal-gradient routine, which also gives the deep
model's B half-step. The OLS route goes through a rank-revealing least
squares solve, so rank-deficient designs get the minimum-norm solution.
"""

from __future__ import annotations

import numpy as np

from .data_model import (
    DesignMatrix,
    FitConfig,
    SignatureMatrix,
    SubjectData,
    validate_lasso_settings,
    validate_pair,
)
from .optimizer import GroupFit, SubjectFit, _elastic_net, check_group, signature_step


def fit_glm(data: SubjectData, design: DesignMatrix) -> SignatureMatrix:
    """Ordinary least squares signatures, B = pinv(D) X.

    Uses a rank-revealing solver, so a rank-deficient design yields the
    minimum-norm solution instead of failing.
    """
    validate_pair(data, design)
    b, *_ = np.linalg.lstsq(design.values, data.responses, rcond=None)
    return SignatureMatrix(values=b, conditions=design.conditions)


def fit_lasso(
    data: SubjectData,
    design: DesignMatrix,
    alpha_lasso: float,
    iterations: int,
) -> SignatureMatrix:
    """Minimize ||X - D B||_F^2 + alpha_lasso * sum|beta| by proximal gradient.

    Starts from B = 0 and runs at most ``iterations`` iterations of the
    optimizer's elastic-net routine with no ridge term.
    """
    validate_pair(data, design)
    validate_lasso_settings(alpha_lasso, iterations)
    d = design.values
    dtx = d.T @ data.responses
    b = _elastic_net(d.T @ d, dtx, np.zeros(dtx.shape), alpha_lasso, 0.0, iterations)
    return SignatureMatrix(values=b, conditions=design.conditions)


def fit_lrsl(datasets, config: FitConfig) -> GroupFit:
    """Group fit with the transformation fixed to the identity, f(x) = x.

    Each subject's B is the deep model's exact B half-step
    (:func:`drsl.optimizer.signature_step`) on its voxel data from B = 0,
    and the group signatures are their mean. Of the config only ``alpha``
    applies.
    """
    conditions, v_org, p = check_group(datasets)
    fits = []
    for data, design in datasets:
        b = signature_step(np.zeros((p, v_org)), design.values, data.responses, config.alpha)
        fits.append(SubjectFit(SignatureMatrix(b, conditions), None, np.empty(0), data.responses))
    mean = np.mean([f.signatures.values for f in fits], axis=0)
    return GroupFit(SignatureMatrix(mean, conditions), tuple(fits))
