"""Regularized multi-set regression trained by block-coordinate SGD/Adam.

Each inner iteration alternates two half-steps on one mini-batch: a
proximal-gradient step on the signature matrix B, then an Adam step on the
kernel parameters theta with d_i B as the regression target. The batch
objective weights its data term by T / n, so it is an unbiased estimate of
the per-run objective sum_t ||f(x_t) - d_t B||^2 + R(B) and the regularizer
counts once per run, whatever the batch size. The B step size is
min(eta, 1 / L) with L the batch Lipschitz bound of the smooth part, so the
B half-step cannot diverge at any eta. Kernel outputs are standardized per
batch (see :mod:`drsl.kernel_net`), which anchors the scale of f.

One inner loop serves subject fits and held-out adaptation:
:func:`fit_subject` takes both half-steps, :func:`fit_kernel_params` keeps
B frozen and takes only the Adam step, and both log the same weighted batch
objective. The outer loop re-fits every subject from the current group mean
and re-aggregates; each subject's theta carries over from one outer
iteration to the next. A batch loss or B that stops being finite raises
:class:`NonFinite` at the step where it happens.

Group fits are deterministic for a fixed config: every subject fit draws
from its own seed stream derived from (master seed, outer iteration,
subject index), and subjects are fitted and averaged in subject order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import (
    DesignMatrix,
    FitConfig,
    NetworkParameters,
    RegularizerMode,
    SignatureMatrix,
    SubjectData,
    validate_pair,
)
from .errors import DrslError, NonFinite, ShapeMismatch
from .kernel_net import (
    FlatParameters,
    backprop_output_grad,
    default_layer_sizes,
    forward,
    init_params,
    standardize_backward,
    standardize_outputs,
)

# stream tags keep the rng sequences of unrelated draws disjoint
_STREAM_GROUP_INIT = 0
_STREAM_SUBJECT = 1
_STREAM_ADAPT = 2


def seed_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key...); used for per-subject streams."""
    return np.random.default_rng([int(seed), *[int(k) for k in key]])


def _signature_array(b) -> np.ndarray:
    values = b.values if isinstance(b, SignatureMatrix) else b
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"signatures must be 2-D, got shape {arr.shape}")
    return arr


def regularizer(b, alpha: float) -> float:
    """Elementwise penalty sum(alpha*|beta| + 10*alpha*beta^2)."""
    if not alpha >= 1.0:
        raise DrslError(f"alpha must be >= 1, got {alpha}")
    arr = _signature_array(b)
    return float(np.sum(alpha * np.abs(arr) + 10.0 * alpha * arr * arr))


def regularizer_grad(b, alpha: float) -> np.ndarray:
    """alpha*sign(B) + 20*alpha*B, with sign(0) = 0 (minimal subgradient)."""
    if not alpha >= 1.0:
        raise DrslError(f"alpha must be >= 1, got {alpha}")
    arr = _signature_array(b)
    return alpha * np.sign(arr) + 20.0 * alpha * arr


def _check_batch_shapes(b: np.ndarray, design_rows: np.ndarray, f_outputs: np.ndarray):
    if design_rows.ndim != 2 or f_outputs.ndim != 2:
        raise ShapeMismatch("design_rows and f_outputs must be 2-D")
    if design_rows.shape[0] != f_outputs.shape[0]:
        raise ShapeMismatch(
            f"{design_rows.shape[0]} design rows vs {f_outputs.shape[0]} outputs"
        )
    if design_rows.shape[1] != b.shape[0]:
        raise ShapeMismatch(
            f"design has {design_rows.shape[1]} conditions but B has {b.shape[0]} rows"
        )
    if f_outputs.shape[1] != b.shape[1]:
        raise ShapeMismatch(
            f"outputs have {f_outputs.shape[1]} features but B has {b.shape[1]} columns"
        )


def grad_b(
    b,
    design_rows: np.ndarray,
    f_outputs: np.ndarray,
    alpha: float,
    regularizer_mode: RegularizerMode = RegularizerMode.ENABLED,
    data_weight: float = 1.0,
) -> np.ndarray:
    """Batch gradient of :func:`objective` with respect to B.

    alpha*sign(B) + 20*alpha*B - 2 w sum_i d_i^T (f(x_i) - d_i B) with
    w = ``data_weight``; the regularizer term appears once per batch, not
    once per sample.
    """
    arr = _signature_array(b)
    d = np.asarray(design_rows, dtype=np.float64)
    f = np.asarray(f_outputs, dtype=np.float64)
    _check_batch_shapes(arr, d, f)
    data_term = -2.0 * data_weight * d.T @ (f - d @ arr)
    if RegularizerMode(regularizer_mode) is RegularizerMode.DISABLED:
        return data_term
    return regularizer_grad(arr, alpha) + data_term


def objective(
    b,
    design_rows: np.ndarray,
    f_outputs: np.ndarray,
    alpha: float,
    regularizer_mode: RegularizerMode = RegularizerMode.ENABLED,
    data_weight: float = 1.0,
) -> float:
    """w * sum_i ||f(x_i) - d_i B||^2 plus the regularizer (w = ``data_weight``)."""
    arr = _signature_array(b)
    d = np.asarray(design_rows, dtype=np.float64)
    f = np.asarray(f_outputs, dtype=np.float64)
    _check_batch_shapes(arr, d, f)
    resid = f - d @ arr
    data = data_weight * float(np.sum(resid * resid))
    if RegularizerMode(regularizer_mode) is RegularizerMode.DISABLED:
        return data
    return data + regularizer(arr, alpha)


def soft_threshold(x: np.ndarray, threshold: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def gram_bound(design_rows: np.ndarray) -> float:
    """lambda_max(D^T D): half the Lipschitz constant of ||F - D B||^2 in B."""
    d = np.asarray(design_rows, dtype=np.float64)
    return float(np.linalg.eigvalsh(d.T @ d)[-1])


def signature_step(
    b: np.ndarray,
    design_rows: np.ndarray,
    f_outputs: np.ndarray,
    alpha: float,
    eta: float,
    regularizer_mode: RegularizerMode = RegularizerMode.ENABLED,
    data_weight: float = 1.0,
) -> np.ndarray:
    """One proximal-gradient step on B for the weighted batch objective.

    The smooth part w * ||F - D B||^2 + 10*alpha*||B||^2 takes a gradient
    step of size s = min(eta, 1 / L), L = 2 w lambda_max(D^T D) + 20 alpha,
    and the alpha*|B| part its exact proximal map (soft thresholding at
    s * alpha). With s <= 1 / L the step never increases the batch
    objective, so B cannot diverge whatever eta is.
    """
    arr = _signature_array(b)
    smooth = grad_b(arr, design_rows, f_outputs, alpha, RegularizerMode.DISABLED, data_weight)
    enabled = RegularizerMode(regularizer_mode) is RegularizerMode.ENABLED
    lipschitz = 2.0 * data_weight * gram_bound(design_rows) + (20.0 * alpha if enabled else 0.0)
    step = eta if lipschitz <= 0.0 else min(eta, 1.0 / lipschitz)
    if not enabled:
        return arr - step * smooth
    moved = arr - step * (smooth + 20.0 * alpha * arr)
    return soft_threshold(moved, step * alpha)


def sample_batch(rng: np.random.Generator, t: int, n: int) -> np.ndarray:
    """N distinct time indices drawn uniformly without replacement."""
    if n > t:
        raise ShapeMismatch(f"batch size {n} exceeds {t} time points")
    if n < 1:
        raise ShapeMismatch(f"batch size must be >= 1, got {n}")
    return rng.choice(t, size=n, replace=False)


# elements per block of adam_step: each block's slices of theta, the
# gradient, both moments and the two scratch arrays stay in cache across
# the update's dozen passes; 16,384 measured best against 4,096-65,536
ADAM_BLOCK = 16_384


class AdamState:
    """Adam's moment accumulators, flat and congruent with theta.

    ``delta`` (first moment) and ``gamma`` (second moment) start at zero
    and :func:`adam_step` updates them in place; ``step_count`` counts the
    steps taken.
    """

    def __init__(self, layer_sizes):
        self.delta = FlatParameters(layer_sizes)
        self.gamma = FlatParameters(layer_sizes)
        self.step_count = 0
        self._scratch = np.empty((2, min(ADAM_BLOCK, self.delta.flat.size)))


def adam_step(
    state: AdamState,
    grads: FlatParameters,
    params: FlatParameters,
    eta: float,
    mu1: float,
    mu2: float,
    epsilon: float,
) -> None:
    """One bias-corrected Adam update of ``params`` and ``state``, in place.

    With g the gradient and c_i = 1 - mu_i**k at step k:
    delta = mu1*delta + (1-mu1)*g; gamma = mu2*gamma + ((1-mu2)*g)*g;
    theta -= (eta*(delta/c1)) / (sqrt(gamma/c2) + epsilon). The flat
    vectors are swept in blocks of :data:`ADAM_BLOCK` elements through two
    reused scratch arrays, so a step allocates nothing.
    """
    sizes = params.layer_sizes
    if grads.layer_sizes != sizes or state.delta.layer_sizes != sizes:
        raise ShapeMismatch("Adam state, gradients, and parameters disagree in shape")
    k = state.step_count + 1
    c1 = 1.0 - mu1**k
    c2 = 1.0 - mu2**k
    theta, g = params.flat, grads.flat
    delta, gamma = state.delta.flat, state.gamma.flat
    for lo in range(0, theta.size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, theta.size)
        gk, dk, ck, tk = g[lo:hi], delta[lo:hi], gamma[lo:hi], theta[lo:hi]
        a, b = state._scratch[0, : hi - lo], state._scratch[1, : hi - lo]
        np.multiply(dk, mu1, out=dk)
        np.multiply(gk, 1.0 - mu1, out=a)
        np.add(dk, a, out=dk)
        np.multiply(ck, mu2, out=ck)
        np.multiply(gk, 1.0 - mu2, out=a)
        np.multiply(a, gk, out=a)
        np.add(ck, a, out=ck)
        np.divide(ck, c2, out=a)
        np.sqrt(a, out=a)
        np.add(a, epsilon, out=a)
        np.divide(dk, c1, out=b)
        np.multiply(b, eta, out=b)
        np.divide(b, a, out=b)
        np.subtract(tk, b, out=tk)
    state.step_count = k


@dataclass(frozen=True)
class SubjectFit:
    """Result of one subject-level fit."""

    signatures: SignatureMatrix
    params: NetworkParameters | None
    loss_history: np.ndarray

    def __post_init__(self):
        hist = np.asarray(self.loss_history, dtype=np.float64)
        if hist.size and not np.all(np.isfinite(hist)):
            raise NonFinite(
                "subject fit diverged: loss history contains NaN/Inf "
                "(try a smaller eta)"
            )
        hist = hist.copy()
        hist.setflags(write=False)
        object.__setattr__(self, "loss_history", hist)


@dataclass(frozen=True)
class GroupFit:
    """Group-level signatures (mean over subjects) plus per-subject fits."""

    signatures: SignatureMatrix
    subject_fits: tuple[SubjectFit, ...]


def _resolve_sizes(config: FitConfig, v_org: int) -> tuple[int, ...]:
    sizes = config.layer_sizes if config.layer_sizes else default_layer_sizes(v_org)
    if sizes[0] != v_org:
        raise ShapeMismatch(
            f"network input width {sizes[0]} does not match {v_org} voxels"
        )
    return sizes


def _check_finite(subject_id: str, where: str, step: int, loss: float, b) -> None:
    if np.isfinite(loss) and np.all(np.isfinite(b)):
        return
    raise NonFinite(
        f"subject {subject_id!r} diverged at {where}, step {step}: batch loss "
        f"{loss!r}, ||B|| = {float(np.linalg.norm(b))!r} (try a smaller eta)"
    )


def _train(
    data: SubjectData,
    design: DesignMatrix,
    b_init: SignatureMatrix,
    config: FitConfig,
    rng: np.random.Generator,
    where: str,
    update_b: bool,
    identity_kernel: bool = False,
    initial_params: NetworkParameters | None = None,
) -> SubjectFit:
    """The inner training loop of one subject, with B updated or frozen.

    Per iteration: draw a batch; unless ``update_b`` is False, take a
    proximal step on B (:func:`signature_step`, data term weighted by
    T / n); log the weighted batch objective; then (unless the kernel is the
    identity) take an Adam step on theta against the targets d_i B. Theta
    starts from a copy of ``initial_params`` when given, otherwise from a
    fresh draw, and trains in flat buffers that no caller sees. A non-finite
    loss or B raises :class:`NonFinite` naming the subject, ``where`` and
    the step.
    """
    validate_pair(data, design)
    x = data.responses
    d = design.values
    t = x.shape[0]
    if config.batch_size > t:
        raise ShapeMismatch(f"batch size {config.batch_size} exceeds {t} time points")
    b = _signature_array(b_init).copy()
    if b.shape[0] != d.shape[1]:
        raise ShapeMismatch(
            f"B has {b.shape[0]} rows but design has {d.shape[1]} conditions"
        )
    if identity_kernel:
        theta = None
        width = x.shape[1]
    else:
        sizes = _resolve_sizes(config, x.shape[1])
        theta = FlatParameters.from_params(
            initial_params if initial_params is not None
            else init_params(sizes, config.init, rng=rng)
        )
        grads = FlatParameters(theta.layer_sizes)
        state = AdamState(theta.layer_sizes)
        width = theta.output_dim
    if b.shape[1] != width:
        raise ShapeMismatch(f"B has {b.shape[1]} columns but the kernel outputs {width}")

    weight = t / config.batch_size
    losses = np.empty(config.m2)
    for k in range(config.m2):
        idx = sample_batch(rng, t, config.batch_size)
        xb, db = x[idx], d[idx]
        if theta is None:
            fb = xb
        else:
            z, trace = forward(theta, xb, config.activation)
            fb, scale = standardize_outputs(z)
        if update_b:
            b = signature_step(
                b, db, fb, config.alpha, config.eta, config.regularizer, data_weight=weight
            )
        losses[k] = objective(b, db, fb, config.alpha, config.regularizer, data_weight=weight)
        _check_finite(data.subject_id, where, k, losses[k], b)
        if theta is not None:
            grad_out = standardize_backward(2.0 * (fb - db @ b), fb, scale)
            backprop_output_grad(theta, trace, grad_out, config.activation, out=grads)
            adam_step(state, grads, theta, config.eta, config.mu1, config.mu2, config.epsilon)

    return SubjectFit(
        signatures=SignatureMatrix(values=b, conditions=design.conditions),
        params=None if theta is None else theta.freeze(),
        loss_history=losses,
    )


def fit_subject(
    data: SubjectData,
    design: DesignMatrix,
    b_init: SignatureMatrix,
    config: FitConfig,
    rng: np.random.Generator | None = None,
    identity_kernel: bool = False,
    initial_params: NetworkParameters | None = None,
    outer: int = 0,
) -> SubjectFit:
    """Fit B and theta of one subject, starting from ``b_init``.

    The returned ``params`` are a read-only copy of the raw network: the
    fitted kernel is ``standardize_outputs`` of its outputs over the run,
    which :func:`drsl.kernel_net.fold_output_standardization` folds into it.
    A divergence names ``outer`` as its outer iteration.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return _train(
        data, design, b_init, config, rng, f"outer iteration {outer}",
        update_b=True, identity_kernel=identity_kernel, initial_params=initial_params,
    )


def check_group(datasets) -> tuple[tuple[str, ...], int, int]:
    """Validate a multi-subject dataset list; returns (conditions, V_org, P)."""
    if not datasets:
        raise ShapeMismatch("no subjects to fit")
    conditions = datasets[0][1].conditions
    v_org = datasets[0][0].n_voxels
    for data, design in datasets:
        validate_pair(data, design)
        if design.conditions != conditions:
            raise ShapeMismatch(
                f"subject {data.subject_id!r} has conditions {design.conditions}, "
                f"expected {conditions}"
            )
        if data.n_voxels != v_org:
            raise ShapeMismatch(
                f"subject {data.subject_id!r} has {data.n_voxels} voxels, "
                f"expected {v_org}"
            )
    return conditions, v_org, len(conditions)


def fit(
    datasets,
    config: FitConfig,
    identity_kernel: bool = False,
    subject_stream=None,
) -> GroupFit:
    """Group training loop: M1 outer iterations over all subjects.

    The group signatures start standard-normal from the config seed; each
    outer iteration fits every subject with B warm-started from the current
    group mean and theta carried over from the subject's previous outer
    iteration (drawn fresh in the first), then replaces the group
    signatures with the subject mean.

    ``subject_stream(seed, outer, subject_index)`` may override the default
    per-subject rng derivation (used by tests).
    """
    conditions, v_org, p = check_group(datasets)
    v = v_org if identity_kernel else _resolve_sizes(config, v_org)[-1]
    if subject_stream is None:
        subject_stream = lambda seed, outer, idx: seed_stream(
            seed, _STREAM_SUBJECT, outer, idx
        )

    init_rng = seed_stream(config.seed, _STREAM_GROUP_INIT)
    b_tilde = init_rng.standard_normal((p, v))
    fits: tuple[SubjectFit, ...] = ()
    thetas: list[NetworkParameters | None] = [None] * len(datasets)

    for outer in range(config.m1):
        b_start = SignatureMatrix(values=b_tilde, conditions=conditions)
        fits = tuple(
            fit_subject(
                data,
                design,
                b_start,
                config,
                rng=subject_stream(config.seed, outer, idx),
                identity_kernel=identity_kernel,
                initial_params=thetas[idx],
                outer=outer,
            )
            for idx, (data, design) in enumerate(datasets)
        )
        thetas = [f.params for f in fits]
        b_tilde = np.mean([f.signatures.values for f in fits], axis=0)

    signatures = SignatureMatrix(values=b_tilde, conditions=conditions)
    return GroupFit(signatures=signatures, subject_fits=fits)


def fit_kernel_params(
    data: SubjectData,
    design: DesignMatrix,
    signatures: SignatureMatrix,
    config: FitConfig,
    rng: np.random.Generator | None = None,
) -> SubjectFit:
    """Fit a fresh theta with B frozen at ``signatures``; adapts a held-out kernel.

    The targets d_i B come from the frozen group signatures, so the
    subject's responses never influence B; the fit's ``signatures`` are B
    as passed in. Callers that score scans pass only the scans set aside
    for adaptation.
    """
    if rng is None:
        rng = seed_stream(config.seed, _STREAM_ADAPT)
    return _train(data, design, signatures, config, rng, "kernel adaptation", update_b=False)
