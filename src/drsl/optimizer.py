"""Regularized multi-set regression, fitted block by block.

A subject fit alternates two blocks. First the kernel parameters theta take
M2 mini-batch Adam steps against the targets d_i B, with B frozen; each
step logs the batch objective with its data term weighted by T / n, an
unbiased estimate of the per-run objective sum_t ||f(x_t) - d_t B||^2 +
R(B). Kernel outputs are standardized per batch (see
:mod:`drsl.kernel_net`), which anchors the scale of f. Then the whole run
is mapped once and B is solved exactly (:func:`signature_step`): the
objective is a convex elastic net in B once theta is fixed.

The kernel trains in :data:`TRAIN_DTYPE` (float32): theta and its
gradient (writable ``NetworkParameters``), the Adam moments and the
gathered batches. A fresh theta is the float32 network that
:func:`drsl.kernel_net.init_params` draws into, so no fit holds a float64
copy of its kernel. Each subject fit casts the run to float32 once; the
batches are gathered from that array, and the whole-run map before the B
solve maps it too, in float32. The map is widened to float64 before it is
standardized, so the mapped run, B, the design, the objective and the B
solve stay float64. Theta is returned in the array it trained in, frozen
read-only, and carries over to the next outer iteration as it is. A group
fit allocates the gradient and the Adam moments once and reuses them for
every subject fit, and keeps only each subject's latest theta. Adam's
constants are those of Kingma & Ba (2015): :data:`ADAM_MU1`,
:data:`ADAM_MU2` and :data:`ADAM_EPSILON`.

Held-out adaptation (:func:`fit_kernel_params`) is the same kernel loop
without the B solve. The outer loop re-fits every subject from the current
group mean and re-aggregates; each subject's theta carries over from one
outer iteration to the next. A batch loss or B that stops being finite
raises :class:`NonFinite` at the step where it happens.

Group fits are deterministic for a fixed config: every subject fit draws
from its own seed stream derived from (master seed, outer iteration,
subject id) by :func:`subject_stream`, and subjects are fitted and
averaged in subject order. A subject's stream does not depend on its
position in the list, so its first outer iteration fits the same in any
list that holds it; ids must therefore be unique within a group
(:func:`check_group`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import (
    Activation,
    DesignMatrix,
    FitConfig,
    NetworkParameters,
    SignatureMatrix,
    SubjectData,
    signature_array,
    validate_pair,
)
from .errors import DrslError, NonFinite, ShapeMismatch
from .kernel_net import (
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

# the elastic-net solver stops once an iteration moves B by at most this
# share of max|B|, or after B_SOLVE_ITERATIONS iterations in the B solve
B_SOLVE_TOLERANCE = 1e-12
B_SOLVE_ITERATIONS = 500

# the dtype the kernel trains in; see the module docstring for what stays float64
TRAIN_DTYPE = np.float32

# Adam's moment decays and denominator guard, as Kingma & Ba (2015) set them
ADAM_MU1 = 0.9
ADAM_MU2 = 0.999
ADAM_EPSILON = 1e-8


def seed_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key...)."""
    return np.random.default_rng([int(seed), *[int(k) for k in key]])


def subject_stream(seed: int, subject_id: str, tag: int, *key: int) -> np.random.Generator:
    """The stream ``tag`` of subject ``subject_id``: (seed, tag, key..., len(b), *b).

    b is the id's UTF-8 bytes. The length prefix keeps the key injective
    for a fixed tag and key count, so ids such as "1" and "01" or "a" and
    "ab" draw from different streams, and one id always from the same.
    """
    b = subject_id.encode()
    return seed_stream(seed, tag, *key, len(b), *b)


def regularizer(b, alpha: float) -> float:
    """Elementwise penalty sum(alpha*|beta| + 10*alpha*beta^2)."""
    if not 1.0 <= alpha < np.inf:
        raise DrslError(f"alpha must be >= 1 and finite, got {alpha}")
    arr = signature_array(b)
    return float(np.sum(alpha * np.abs(arr) + 10.0 * alpha * arr * arr))


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


def objective(b, design_rows: np.ndarray, f_outputs: np.ndarray, alpha: float) -> float:
    """sum_i ||f(x_i) - d_i B||^2 plus the regularizer."""
    arr = signature_array(b)
    d = np.asarray(design_rows, dtype=np.float64)
    f = np.asarray(f_outputs, dtype=np.float64)
    _check_batch_shapes(arr, d, f)
    return _data_term(f, d @ arr, 1.0) + regularizer(arr, alpha)


def _data_term(f_outputs: np.ndarray, targets: np.ndarray, data_weight: float) -> float:
    """w * ||f - targets||^2 in float64; a float32 ``f_outputs`` widens exactly."""
    resid = f_outputs - targets
    return data_weight * float(np.add.reduce(np.square(resid, out=resid), axis=None))


def soft_threshold(x: np.ndarray, threshold: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def _elastic_net(gram, cross, b, l1: float, l2: float, iterations: int) -> np.ndarray:
    """Minimize ||F - D B||^2 + l1*|B| + l2*||B||^2 by proximal gradient from ``b``.

    Takes D^T D and D^T F, so an iteration costs O(P^2 V), not O(T P V).
    The step 1 / (2 lambda_max(D^T D) + 2 l2) is the inverse Lipschitz
    constant of the smooth part, so no iteration raises the objective.
    Stops once an iteration moves B by at most :data:`B_SOLVE_TOLERANCE`
    of max|B|, or after ``iterations`` iterations.
    """
    lipschitz = 2.0 * float(np.linalg.eigvalsh(gram)[-1]) + 2.0 * l2
    step = 1.0 / max(lipschitz, 1e-12)
    for _ in range(iterations):
        moved = b - step * (2.0 * (gram @ b - cross) + 2.0 * l2 * b)
        nxt = soft_threshold(moved, step * l1)
        done = np.max(np.abs(nxt - b)) <= B_SOLVE_TOLERANCE * np.max(np.abs(nxt))
        b = nxt
        if done:
            break
    return b


def signature_step(
    b: np.ndarray, design_rows: np.ndarray, f_outputs: np.ndarray, alpha: float
) -> np.ndarray:
    """The exact B half-step: the B that minimizes :func:`objective` on these rows.

    With theta fixed the objective ||F - D B||^2 + alpha*|B| +
    10*alpha*||B||^2 is a convex elastic net in B; it is solved by
    proximal gradient warm-started at ``b``, for at most
    :data:`B_SOLVE_ITERATIONS` iterations.
    """
    arr = signature_array(b)
    d = np.asarray(design_rows, dtype=np.float64)
    f = np.asarray(f_outputs, dtype=np.float64)
    _check_batch_shapes(arr, d, f)
    return _elastic_net(d.T @ d, d.T @ f, arr, alpha, 10.0 * alpha, B_SOLVE_ITERATIONS)


def _kkt_violation(b, d, f, alpha: float) -> float:
    """Largest violation of the optimality conditions of ||F - D B||^2 +
    alpha |B| + 10 alpha ||B||^2 at ``b``, relative to max(1, max|2 D^T F|):
    0 lies in the smooth gradient plus alpha times the subdifferential of |B|."""
    smooth = -2.0 * d.T @ (f - d @ b) + 20.0 * alpha * b
    nz = b != 0
    on = np.abs(smooth[nz] + alpha * np.sign(b[nz]))
    off = np.abs(smooth[~nz]) - alpha
    worst = max(float(np.max(on, initial=0.0)), float(np.max(off, initial=0.0)))
    return worst / max(1.0, float(np.max(np.abs(2.0 * d.T @ f))))


def sample_batch(rng: np.random.Generator, t: int, n: int) -> np.ndarray:
    """N distinct time indices drawn uniformly without replacement."""
    if n > t:
        raise ShapeMismatch(f"batch size {n} exceeds {t} time points")
    if n < 1:
        raise ShapeMismatch(f"batch size must be >= 1, got {n}")
    return rng.choice(t, size=n, replace=False)


# elements per block of adam_step: each block's slices of theta, the
# gradient, both moments and the scratch array stay in cache across the
# update's ten passes. Timed in float32 on the 2.05 M parameters of the
# paper net, one thread: 65,536 beat 16,384, 32,768 and 131,072
ADAM_BLOCK = 65_536


class AdamState:
    """Adam's moment accumulators for ``theta``: flat vectors of its size and dtype.

    They hold Kingma & Ba's moments divided by (1 - mu): ``delta`` is the
    first moment over (1 - mu1) and ``gamma`` the second over (1 - mu2), so
    that :func:`adam_step` updates them as mu*delta + g and mu*gamma + g*g.
    Both start at zero and are updated in place; ``step_count`` counts the
    steps taken. :meth:`reset` starts it over for another fit.
    """

    def __init__(self, theta: NetworkParameters):
        self.delta = np.zeros_like(theta.flat)
        self.gamma = np.zeros_like(theta.flat)
        self.step_count = 0
        self._scratch = np.empty(min(ADAM_BLOCK, self.delta.size), dtype=self.delta.dtype)

    def reset(self) -> None:
        """Zero both moments and the step count, in place."""
        self.delta.fill(0.0)
        self.gamma.fill(0.0)
        self.step_count = 0


def adam_step(
    state: AdamState,
    grads: NetworkParameters,
    params: NetworkParameters,
    eta: float,
) -> None:
    """One bias-corrected Adam update of ``params`` and ``state``, in place.

    Kingma & Ba's update, with mu1, mu2 and epsilon fixed at
    :data:`ADAM_MU1`, :data:`ADAM_MU2` and :data:`ADAM_EPSILON`, g the
    gradient and c_i = 1 - mu_i**k at step k, is m = mu1*m + (1-mu1)*g;
    v = mu2*v + (1-mu2)*g*g; theta -= eta*(m/c1) / (sqrt(v/c2) + epsilon).
    The state holds delta = m/(1-mu1) and gamma = v/(1-mu2) (see
    :class:`AdamState`), so the (1-mu) factors, the bias corrections and
    epsilon fold into two scalars, and a step is delta = mu1*delta + g;
    gamma = mu2*gamma + g*g; theta -= step * delta / (sqrt(gamma) + eps),
    with step = eta*(1-mu1)*sqrt(c2) / (c1*sqrt(1-mu2)) and eps =
    epsilon*sqrt(c2) / sqrt(1-mu2): the same Adam, rounded differently.
    The flat vectors are swept in blocks of :data:`ADAM_BLOCK` elements
    through one reused scratch array, ten passes a block, so a step
    allocates nothing, and computed in their dtype.
    """
    theta, g, delta, gamma = params.flat, grads.flat, state.delta, state.gamma
    if grads.layer_sizes != params.layer_sizes or delta.shape != theta.shape:
        raise ShapeMismatch("Adam state, gradients, and parameters disagree in shape")
    if not theta.dtype == g.dtype == delta.dtype:
        raise ShapeMismatch("Adam state, gradients, and parameters disagree in dtype")
    mu1, mu2, epsilon = ADAM_MU1, ADAM_MU2, ADAM_EPSILON
    k = state.step_count + 1
    c1 = 1.0 - mu1**k
    c2 = 1.0 - mu2**k
    # Python floats, so that the passes compute in the buffers' dtype
    step = float(eta * (1.0 - mu1) * math.sqrt(c2) / (c1 * math.sqrt(1.0 - mu2)))
    eps = float(epsilon * math.sqrt(c2) / math.sqrt(1.0 - mu2))
    for lo in range(0, theta.size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, theta.size)
        gk, dk, ck, tk = g[lo:hi], delta[lo:hi], gamma[lo:hi], theta[lo:hi]
        a = state._scratch[: hi - lo]
        np.multiply(dk, mu1, out=dk)
        np.add(dk, gk, out=dk)
        np.square(gk, out=a)
        np.multiply(ck, mu2, out=ck)
        np.add(ck, a, out=ck)
        np.sqrt(ck, out=a)
        np.add(a, eps, out=a)
        np.divide(dk, a, out=a)
        np.multiply(a, step, out=a)
        np.subtract(tk, a, out=tk)
    state.step_count = k


@dataclass(frozen=True)
class SubjectFit:
    """Result of one subject-level fit.

    ``mapped_responses`` is the f that B was solved against over the whole
    run; kernel adaptation solves no B and leaves it None. It is held as a
    read-only view, like every array of the fit, because one fit may back
    several results (see :func:`fit`'s ``first_fits``).
    """

    signatures: SignatureMatrix
    params: NetworkParameters | None
    loss_history: np.ndarray
    mapped_responses: np.ndarray | None = None

    def __post_init__(self):
        hist = np.array(self.loss_history, dtype=np.float64)
        hist.setflags(write=False)
        object.__setattr__(self, "loss_history", hist)
        if self.mapped_responses is not None:
            mapped = np.asarray(self.mapped_responses).view()
            mapped.setflags(write=False)
            object.__setattr__(self, "mapped_responses", mapped)


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


def _train_buffers(sizes) -> tuple[NetworkParameters, AdamState]:
    """A :data:`TRAIN_DTYPE` gradient buffer and Adam state for a kernel of ``sizes``."""
    grads = NetworkParameters(None, sizes, TRAIN_DTYPE)
    return grads, AdamState(grads)


def _train(
    subject_id: str,
    x: np.ndarray,
    design: DesignMatrix,
    signatures: SignatureMatrix,
    config: FitConfig,
    rng: np.random.Generator,
    where: str,
    initial_params: NetworkParameters | None = None,
    buffers: tuple[NetworkParameters, AdamState] | None = None,
) -> tuple[NetworkParameters, np.ndarray]:
    """The kernel loop of one subject: M2 Adam steps on theta, B frozen.

    ``x`` is the subject's run cast to :data:`TRAIN_DTYPE`, and the caller
    has checked it against ``design`` (:func:`validate_pair`). Per
    iteration: draw a batch, log the batch objective with its data term
    weighted by T / n, then take an Adam step on theta against the targets
    d_i B. Theta is a fresh :data:`TRAIN_DTYPE` copy of ``initial_params``
    when given, otherwise the writable float32 network of a fresh draw
    (:func:`drsl.kernel_net.init_params`), and trains in place on batches
    gathered from ``x``. The gradient and the Adam state are ``buffers``
    (from :func:`_train_buffers`; reset here, so one pair serves many
    fits), or fresh ones when None. Returns theta, frozen read-only in
    :data:`TRAIN_DTYPE`, and the loss history. A non-finite loss raises
    :class:`NonFinite` naming the subject, ``where`` and the step.
    """
    d = design.values
    t = x.shape[0]
    if config.batch_size > t:
        raise ShapeMismatch(f"batch size {config.batch_size} exceeds {t} time points")
    b = signature_array(signatures)
    if b.shape[0] != d.shape[1]:
        raise ShapeMismatch(
            f"B has {b.shape[0]} rows but design has {d.shape[1]} conditions"
        )
    sizes = _resolve_sizes(config, x.shape[1])
    # a fresh draw is theta itself; a carried-over network is copied, as it is frozen
    theta = (initial_params.astype(TRAIN_DTYPE) if initial_params is not None
             else init_params(sizes, config.init, rng=rng))
    if b.shape[1] != theta.output_dim:
        raise ShapeMismatch(
            f"B has {b.shape[1]} columns but the kernel outputs {theta.output_dim}"
        )
    grads, state = buffers if buffers is not None else _train_buffers(theta.layer_sizes)
    state.reset()

    weight = t / config.batch_size
    # B is frozen, so its penalty is one number per fit
    penalty = regularizer(b, config.alpha)
    losses = np.empty(config.m2)
    for k in range(config.m2):
        idx = sample_batch(rng, t, config.batch_size)
        losses[k] = _batch_gradient(
            theta, x[idx], d[idx], b, config.activation, weight, grads
        ) + penalty
        if not np.isfinite(losses[k]):
            raise NonFinite(
                f"subject {subject_id!r} diverged at {where}, step {k}: batch "
                f"loss {losses[k]!r} (try a smaller eta)"
            )
        adam_step(state, grads, theta, config.eta)
    return theta.freeze(), losses


def _batch_gradient(
    theta: NetworkParameters,
    xb: np.ndarray,
    db: np.ndarray,
    b: np.ndarray,
    activation: Activation | str,
    weight: float,
    out: NetworkParameters,
) -> float:
    """The batch data term of one kernel step and its gradient in theta.

    Maps ``xb``, standardizes the outputs f and returns ``weight`` *
    ||f - db B||^2, summed in float64; writes the gradient of the
    unweighted term ||f - db B||^2 into ``out``. The kernel computes in
    the dtype of ``theta``, feature-major (see :mod:`drsl.kernel_net`),
    and the targets db B are formed in float64 once for loss and gradient,
    in the same layout as f: the transpose of the C-contiguous (V x n)
    array B^T db^T. Every training step takes this path, and ``drsl
    gradcheck`` checks it.
    """
    z, activations = forward(theta, xb, activation)
    fb, scale, _ = standardize_outputs(z)
    targets = (b.T @ db.T).T
    loss = _data_term(fb, targets, weight)
    grad_out = standardize_backward(2.0 * (fb - targets.astype(fb.dtype)), fb, scale)
    backprop_output_grad(theta, activations, grad_out, activation, out=out)
    return loss


def fit_subject(
    data: SubjectData,
    design: DesignMatrix,
    b_init: SignatureMatrix,
    config: FitConfig,
    initial_params: NetworkParameters | None = None,
    outer: int = 0,
    *,
    _buffers: tuple[NetworkParameters, AdamState] | None = None,
) -> SubjectFit:
    """Fit theta against B frozen at ``b_init``, then B exactly from ``b_init``.

    The run is cast to :data:`TRAIN_DTYPE` once, for the batches and for
    the B solve (:func:`signature_step`), which maps the whole run once in
    float32 and standardizes the map widened to float64:
    ``mapped_responses`` f = standardize_outputs(float64(forward(params,
    float32(X)))). The mean and scale are taken in float64, so every column
    of f is centred to float64 rounding. ``params`` is the raw network,
    read-only float32, which
    :func:`drsl.kernel_net.fold_output_standardization` turns into the
    fitted kernel. A divergence names ``outer`` as its outer iteration.
    The fit draws from the subject's own stream for ``outer``
    (:func:`subject_stream`), which :func:`fit` relies on. ``_buffers`` is
    internal: :func:`fit` passes every subject fit the same gradient
    buffer and Adam state (see :func:`_train`).
    """
    validate_pair(data, design)
    rng = subject_stream(config.seed, data.subject_id, _STREAM_SUBJECT, outer)
    where = f"outer iteration {outer}"
    x = data.responses.astype(TRAIN_DTYPE)
    params, losses = _train(
        data.subject_id, x, design, b_init, config, rng, where, initial_params, _buffers
    )
    z = forward(params, x, config.activation)[0]
    mapped = standardize_outputs(z.astype(np.float64))[0]
    b = signature_step(b_init, design.values, mapped, config.alpha)
    if not np.all(np.isfinite(b)):
        raise NonFinite(
            f"subject {data.subject_id!r} diverged at {where}, B solve: "
            f"||B|| = {float(np.linalg.norm(b))!r} (try a smaller eta)"
        )
    return SubjectFit(
        signatures=SignatureMatrix(values=b, conditions=design.conditions),
        params=params,
        loss_history=losses,
        mapped_responses=mapped,
    )


def check_group(datasets) -> tuple[tuple[str, ...], int, int]:
    """Validate a multi-subject dataset list; returns (conditions, V_org, P).

    Subject ids must be unique: each keys the subject's seed streams, so
    two subjects sharing one would draw the same batches.
    """
    if not datasets:
        raise ShapeMismatch("no subjects to fit")
    conditions = datasets[0][1].conditions
    v_org = datasets[0][0].n_voxels
    seen = set()
    for data, design in datasets:
        validate_pair(data, design)
        if data.subject_id in seen:
            raise DrslError(f"subject {data.subject_id!r} appears twice")
        seen.add(data.subject_id)
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


def fit(datasets, config: FitConfig, *, first_fits: dict | None = None) -> GroupFit:
    """Group training loop: M1 outer iterations over all subjects.

    The group signatures start standard-normal from the config seed; each
    outer iteration fits every subject from the current group mean (the
    frozen B of its kernel loop and the warm start of its B solve) with
    theta carried over from the subject's previous outer iteration (drawn
    fresh in the first), then replaces the group signatures with the
    subject mean. Every subject fit trains in one gradient buffer and Adam
    state. Of a subject's previous fit only theta is kept, and only until
    it has seeded the subject's next fit.

    ``first_fits`` shares outer-iteration-0 subject fits between calls on
    overlapping dataset lists. Such a fit depends only on the subject's
    data and design (its id keys its seed stream), the config and the start
    B, which the config seed alone draws, and not on the subject's place in
    ``datasets``; so the fit found under the key ``(id(data), id(design))``
    is the one this call would compute, bit for bit. Misses are computed
    and stored; later outer iterations start from this call's own group
    mean and are never shared. One dict serves one config, and must not
    outlive the data and design objects whose ids it holds.
    :func:`drsl.evaluation.cross_validate` keeps one per call, where it
    holds at most S fits, one per subject.
    """
    conditions, v_org, p = check_group(datasets)
    sizes = _resolve_sizes(config, v_org)

    init_rng = seed_stream(config.seed, _STREAM_GROUP_INIT)
    b_tilde = init_rng.standard_normal((p, sizes[-1]))
    buffers = _train_buffers(sizes)
    thetas: list[NetworkParameters | None] = [None] * len(datasets)
    subject_fits: list[SubjectFit] = []

    for outer in range(config.m1):
        b_start = SignatureMatrix(values=b_tilde, conditions=conditions)
        # outside a shared first iteration a fresh dict, where each key occurs once
        fitted = first_fits if outer == 0 and first_fits is not None else {}
        subject_fits = []
        for idx, (data, design) in enumerate(datasets):
            key = (id(data), id(design))
            if key not in fitted:
                fitted[key] = fit_subject(
                    data,
                    design,
                    b_start,
                    config,
                    initial_params=thetas[idx],
                    outer=outer,
                    _buffers=buffers,
                )
            subject_fits.append(fitted[key])
            thetas[idx] = fitted[key].params
        b_tilde = np.mean([f.signatures.values for f in subject_fits], axis=0)

    signatures = SignatureMatrix(values=b_tilde, conditions=conditions)
    return GroupFit(signatures=signatures, subject_fits=tuple(subject_fits))


def fit_kernel_params(
    data: SubjectData,
    design: DesignMatrix,
    signatures: SignatureMatrix,
    config: FitConfig,
) -> SubjectFit:
    """Fit a fresh theta with B frozen at ``signatures``; adapts a held-out kernel.

    The targets d_i B come from the frozen group signatures, so the
    subject's responses never influence B; the fit's ``signatures`` are B
    as passed in. Callers that score scans pass only the scans set aside
    for adaptation. The fit draws from the subject's own adaptation
    stream (:func:`subject_stream`).
    """
    validate_pair(data, design)
    rng = subject_stream(config.seed, data.subject_id, _STREAM_ADAPT)
    params, losses = _train(
        data.subject_id, data.responses.astype(TRAIN_DTYPE), design, signatures, config,
        rng, "kernel adaptation",
    )
    return SubjectFit(signatures=signatures, params=params, loss_history=losses)
