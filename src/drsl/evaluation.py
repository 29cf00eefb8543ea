"""Evaluation protocols: between-class correlation, reconstruction MSE, and
signature-based ECOC classification with one-subject-out cross-validation.

Classification turns each signature pair into a linear hyperplane (the
signature difference, whitened per feature by the residual scale, with the
offset at the midpoint of the projected training class means). Pairwise
decisions are decoded through an exhaustive pairwise ECOC codebook by
minimum Hamming distance over the nonzero code entries.

Test subjects never touch training: each fold fits on the remaining
subjects only. The held-out run is split in two contiguous parts: for the
deep model the subject's kernel is adapted on the first part against the
frozen group signatures, and every method is scored on the dominant time
points of the second part only.

The deep model's folds share their first outer iteration's subject fits.
Such a fit sees only its own subject's data and design, its id (which
keys its seed stream), the config and the start B drawn from the config
seed, so subject s fits identically in every fold that trains on it,
wherever it sits in the fold's training list. A call therefore fits S
first-iteration subjects instead of S(S-1), keeps at most those S fits
until it returns, and reports bit for bit what refitting every fold would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import fit_glm, fit_lasso, fit_lrsl
from .data_model import DesignMatrix, FitConfig, SignatureMatrix, SubjectData, signature_array
from .errors import DrslError, NonFinite, ShapeMismatch
from .kernel_net import fold_output_standardization, forward
from .optimizer import GroupFit, check_group, fit, fit_kernel_params

METHODS = ("drsl", "lrsl", "glm", "lasso")

_RESIDUAL_FLOOR = 1e-8
_DOMINANCE_FRACTION = 0.5


def between_class_correlation(signatures) -> float:
    """Maximum absolute pairwise correlation between signature rows."""
    b = signature_array(signatures)
    if b.shape[0] < 2:
        raise ShapeMismatch(f"need a matrix with >= 2 rows, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise NonFinite("signatures contain NaN/Inf; correlation undefined")
    if np.any(b.max(axis=1) == b.min(axis=1)):
        raise DrslError("a signature row is constant; correlation undefined")
    off_diagonal = ~np.eye(b.shape[0], dtype=bool)
    return float(min(1.0, np.max(np.abs(np.corrcoef(b)[off_diagonal]))))


def _residual(x: np.ndarray, design: DesignMatrix, signatures) -> np.ndarray:
    """x - D @ B for one subject's response array, after checking the shapes."""
    b = signature_array(signatures)
    d = design.values
    if x.shape[0] != d.shape[0] or d.shape[1] != b.shape[0] or x.shape[1] != b.shape[1]:
        raise ShapeMismatch(
            f"inconsistent shapes: X {x.shape}, D {d.shape}, B {b.shape}"
        )
    return x - d @ b


def group_mse(responses, signatures, designs) -> float:
    """Mean squared reconstruction error pooled over subjects.

    ``responses`` are arrays in the space the signatures model: raw voxel
    data for identity-kernel methods, kernel outputs f(x; theta) for the
    deep model; ``designs`` are :class:`DesignMatrix` objects. Entries are
    averaged over all subjects, time points, and features.
    """
    if not (len(responses) == len(signatures) == len(designs)):
        raise ShapeMismatch(
            f"got {len(responses)} response sets, {len(signatures)} signature "
            f"sets, {len(designs)} designs"
        )
    total = 0.0
    count = 0
    for resp, sig, design in zip(responses, signatures, designs):
        resid = _residual(resp, design, sig)
        total += float(np.sum(resid * resid))
        count += resid.size
    if not np.isfinite(total):
        raise NonFinite("reconstruction error is not finite")
    return total / count


def pooled_residual_scale(responses, designs, signatures: SignatureMatrix) -> np.ndarray:
    """Residual scale pooled over several subjects sharing one signature set."""
    total = None
    rows = 0
    for resp, design in zip(responses, designs):
        resid = _residual(resp, design, signatures)
        sq = np.sum(resid * resid, axis=0)
        total = sq if total is None else total + sq
        rows += resid.shape[0]
    if total is None or rows == 0:
        raise ShapeMismatch("no responses to pool")
    return np.maximum(np.sqrt(total / rows), _RESIDUAL_FLOOR)


@dataclass(frozen=True)
class EcocCodebook:
    """Exhaustive pairwise code matrix over {+1, -1, 0}: P x P(P-1)/2."""

    codes: np.ndarray
    pairs: tuple[tuple[int, int], ...]


def ecoc_codebook(p: int) -> EcocCodebook:
    """Column per class pair (i, j): +1 at row i, -1 at row j, 0 elsewhere.

    Columns follow ``np.triu_indices(p, 1)``, the pair order of
    :func:`build_hyperplanes`.
    """
    if p < 2:
        raise DrslError(f"codebook needs >= 2 classes, got {p}")
    first, second = np.triu_indices(p, 1)
    columns = np.arange(first.size)
    codes = np.zeros((p, first.size))
    codes[first, columns] = 1.0
    codes[second, columns] = -1.0
    return EcocCodebook(codes=codes, pairs=tuple(zip(first.tolist(), second.tolist())))


def hamming_decode(bits, codebook: EcocCodebook):
    """Class whose codeword is Hamming-nearest, counting nonzero entries only.

    ``bits`` holds +1/-1 pair votes: one codeword (pairs,), decoded to an
    int, or a block (n, pairs), decoded to an (n,) array. A class's
    distance is P - 1 minus the pairs it wins, so the nearest class is the
    one ``bits @ codes.T`` scores highest. Ties break toward the lowest
    class index.
    """
    bits = np.asarray(bits, dtype=np.float64)
    if bits.shape[-1:] != (codebook.codes.shape[1],):
        raise ShapeMismatch(
            f"bits of shape {bits.shape} for {codebook.codes.shape[1]} codebook columns"
        )
    labels = np.argmax(bits @ codebook.codes.T, axis=-1)
    return int(labels) if bits.ndim == 1 else labels


def build_hyperplanes(
    signatures: SignatureMatrix,
    scale: np.ndarray,
    class_means: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One hyperplane per signature pair, as (normals, offsets).

    Row k of the (pairs, V) ``normals`` separates the k-th pair (i, j) of
    ``np.triu_indices(P, 1)``, class i on the positive side. The normal is
    the signature difference weighted elementwise by 1/scale
    (inverse-noise whitening); the offset places the boundary at the
    midpoint of the two projected class means. ``class_means`` defaults
    to the signature rows themselves.
    """
    b = signatures.values
    p = b.shape[0]
    if p < 2:
        raise ShapeMismatch(f"need >= 2 signatures, got {p}")
    scale = np.asarray(scale, dtype=np.float64)
    if scale.shape != (b.shape[1],):
        raise ShapeMismatch(
            f"scale has shape {scale.shape}, expected ({b.shape[1]},)"
        )
    means = b if class_means is None else np.asarray(class_means, dtype=np.float64)
    if means.shape != b.shape:
        raise ShapeMismatch(
            f"class means have shape {means.shape}, expected {b.shape}"
        )
    first, second = np.triu_indices(p, 1)
    same = np.all(b[first] == b[second], axis=1)
    if same.any():
        k = int(np.argmax(same))
        raise DrslError(f"signatures {first[k]} and {second[k]} are identical")
    normals = (b[first] - b[second]) / scale
    midpoints = 0.5 * (
        np.einsum("kv,kv->k", normals, means[first])
        + np.einsum("kv,kv->k", normals, means[second])
    )
    return normals, -midpoints


def predict(samples, hyperplanes, codebook: EcocCodebook):
    """Classify a (V,) scan to an int, or an (n, V) block to an (n,) array.

    Each pair votes +1 when its score is >= 0, and the votes are decoded
    by :func:`hamming_decode`, which rejects a plane count other than the
    codebook's column count.
    """
    normals, offsets = hyperplanes
    x = np.asarray(samples, dtype=np.float64)
    if x.shape[-1:] != (normals.shape[1],):
        raise ShapeMismatch(f"samples of shape {x.shape} for {normals.shape[1]} features")
    bits = np.where(x @ normals.T + offsets >= 0.0, 1.0, -1.0)
    return hamming_decode(bits, codebook)


def dominant_time_points(design: DesignMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Time points attributable to a single condition, with their labels.

    A row qualifies when its maximum is unique and exceeds half of that
    column's peak value; the label is the argmax condition.
    """
    d = design.values
    col_max = d.max(axis=0)
    labels = d.argmax(axis=1)
    row_best = d[np.arange(d.shape[0]), labels]
    runner_up = np.partition(d, -2, axis=1)[:, -2] if d.shape[1] > 1 else np.full(
        d.shape[0], -np.inf
    )
    keep = (row_best > runner_up) & (row_best > _DOMINANCE_FRACTION * col_max[labels])
    idx = np.nonzero(keep)[0]
    return idx, labels[idx]


@dataclass(frozen=True)
class CvReport:
    """One-subject-out cross-validation summary.

    ``scored_scans`` holds, per fold, the held-out scan indices that were
    classified.
    """

    subject_ids: tuple[str, ...]
    accuracies: tuple[float, ...]
    confusions: tuple[np.ndarray, ...]
    scored_scans: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        n = len(self.subject_ids)
        if len(self.accuracies) != n or len(self.confusions) != n or (
            self.scored_scans and len(self.scored_scans) != n
        ):
            raise ShapeMismatch("per-fold fields must have one entry per subject")
        for acc in self.accuracies:
            if not (0.0 <= acc <= 1.0):
                raise DrslError(f"accuracy {acc} outside [0, 1]")

    @property
    def n_folds(self) -> int:
        return len(self.accuracies)

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std_accuracy(self) -> float:
        if len(self.accuracies) < 2:
            return 0.0
        return float(np.std(self.accuracies, ddof=1))


@dataclass(frozen=True)
class MethodFit:
    """Group and per-subject results of one method on one dataset list.

    ``mapped_responses`` are each subject's responses in the space the
    signatures model: the raw voxel data for identity-kernel methods, the
    kernel outputs standardized over the subject's run for the deep model.
    """

    method: str
    signatures: SignatureMatrix
    subject_signatures: tuple[SignatureMatrix, ...]
    mapped_responses: tuple[np.ndarray, ...]
    group: GroupFit | None = None


def fit_method(datasets, method: str, config: FitConfig, *,
               first_fits: dict | None = None) -> MethodFit:
    """Fit one of :data:`METHODS`, named exactly, on a dataset list.

    Every method takes its settings from ``config``: lasso its
    ``lasso_alpha`` and ``lasso_iterations``, lrsl its ``alpha``, drsl
    all the rest; glm has none. Closed-form baselines average the
    per-subject solutions into the group signatures, mirroring the
    aggregation of the iterative fits. drsl needs ``config.m1 >= 1``:
    with no outer iteration there is no fit to report.
    ``first_fits`` is passed to drsl's :func:`drsl.optimizer.fit`; the
    other methods cost milliseconds and take no part in it.
    """
    if method not in METHODS:
        raise DrslError(f"unknown method {method!r}; expected one of {METHODS}")
    if method in ("drsl", "lrsl"):
        if method == "drsl" and not config.m1 >= 1:
            raise DrslError(f"drsl needs m1 >= 1 outer iterations, got m1={config.m1}")
        group = (
            fit(datasets, config, first_fits=first_fits)
            if method == "drsl"
            else fit_lrsl(datasets, config)
        )
        return MethodFit(
            method=method,
            signatures=group.signatures,
            subject_signatures=tuple(s.signatures for s in group.subject_fits),
            mapped_responses=tuple(s.mapped_responses for s in group.subject_fits),
            group=group,
        )
    # fit and fit_lrsl check the list themselves
    check_group(datasets)
    if method == "glm":
        fits = tuple(fit_glm(data, design) for data, design in datasets)
    else:
        fits = tuple(
            fit_lasso(data, design, config.lasso_alpha, config.lasso_iterations)
            for data, design in datasets
        )
    mean = np.mean([f.values for f in fits], axis=0)
    signatures = SignatureMatrix(values=mean, conditions=datasets[0][1].conditions)
    return MethodFit(
        method=method,
        signatures=signatures,
        subject_signatures=fits,
        mapped_responses=tuple(data.responses for data, _ in datasets),
    )


def _class_means(mapped, designs, signatures: SignatureMatrix) -> np.ndarray:
    """Mean mapped response per class over dominant training time points.

    Classes that never dominate fall back to their signature row.
    """
    picked = [dominant_time_points(design) for design in designs]
    labels = np.concatenate([labels for _, labels in picked])
    # a stable sort keeps each class's scans in subject, then scan order
    order = np.argsort(labels, kind="stable")
    rows = np.concatenate([resp[idx] for resp, (idx, _) in zip(mapped, picked)])[order]
    classes, starts, counts = np.unique(labels[order], return_index=True, return_counts=True)
    means = signatures.values.copy()
    for c, start, n in zip(classes, starts, counts):
        # a running sum adds one row at a time by definition, so its last row
        # is the sum a loop over the class's scans in that order gives
        means[c] = np.add.accumulate(rows[start:start + n], axis=0)[-1] / n
    return means


def cross_validate(datasets, method: str, config: FitConfig) -> CvReport:
    """One-subject-out protocol: fit on S-1 subjects, classify the held-out one.

    Each fold fits its training subjects with :func:`fit_method` and
    ``config``, so every method's settings in it reach every fold.

    The held-out run splits at scan T // 2. Every method is scored on the
    dominant time points of the second half (``CvReport.scored_scans``).
    For the deep model the subject's kernel is first adapted on the first
    half (its outputs standardized over those scans) and then maps the
    scored scans; no scored scan or its label reaches the adaptation.
    A batch larger than any subject's first half, or a subject list that
    :func:`drsl.optimizer.check_group` refuses, is rejected before any
    fold is fitted. The held-out kernel adapts on the subject's own
    adaptation stream.

    The deep model's folds share one ``first_fits`` dict
    (:func:`drsl.optimizer.fit`), keyed by the identity of each subject's
    data and design. It holds at most S first-outer-iteration fits for the
    length of the call, each with its theta and mapped run; later outer
    iterations start from the fold's own group mean and are refitted per
    fold.
    """
    if len(datasets) < 2:
        raise ShapeMismatch(f"cross-validation needs >= 2 subjects, got {len(datasets)}")
    check_group(datasets)
    first_fits = None
    if method == "drsl":
        for data, _ in datasets:
            if config.batch_size > data.n_scans // 2:
                raise ShapeMismatch(
                    f"batch size {config.batch_size} exceeds the {data.n_scans // 2} "
                    f"scans of subject {data.subject_id!r} kept for kernel adaptation "
                    f"(the first half of its {data.n_scans}-scan run)"
                )
        first_fits = {}
    p = datasets[0][1].n_conditions
    codebook = ecoc_codebook(p)
    accuracies, confusions, subject_ids, scored = [], [], [], []
    for fold, (test_data, test_design) in enumerate(datasets):
        train = [pair for k, pair in enumerate(datasets) if k != fold]
        method_fit = fit_method(train, method, config, first_fits=first_fits)
        signatures = method_fit.signatures
        train_designs = [design for _, design in train]
        mapped_train = method_fit.mapped_responses
        scale = pooled_residual_scale(mapped_train, train_designs, signatures)
        means = _class_means(mapped_train, train_designs, signatures)
        planes = build_hyperplanes(signatures, scale, means)
        split = test_data.n_scans // 2
        idx, labels = dominant_time_points(test_design)
        keep = idx >= split
        idx, labels = idx[keep], labels[keep]
        if idx.size == 0:
            raise DrslError(
                "no single-condition-dominant time points in the scored part of "
                "the test run"
            )
        if method == "drsl":
            adapt_x = test_data.responses[:split]
            theta = fit_kernel_params(
                SubjectData(subject_id=test_data.subject_id, responses=adapt_x),
                DesignMatrix(
                    conditions=test_design.conditions,
                    values=test_design.values[:split],
                ),
                signatures,
                config,
            ).params
            theta = fold_output_standardization(theta, adapt_x, config.activation)
            test_responses, _ = forward(theta, test_data.responses[idx], config.activation)
        else:
            test_responses = test_data.responses[idx]
        confusion = np.zeros((p, p), dtype=np.int64)
        np.add.at(confusion, (labels, predict(test_responses, planes, codebook)), 1)
        accuracies.append(float(np.trace(confusion)) / idx.size)
        confusions.append(confusion)
        subject_ids.append(test_data.subject_id)
        scored.append(idx)
    return CvReport(
        subject_ids=tuple(subject_ids),
        accuracies=tuple(accuracies),
        confusions=tuple(confusions),
        scored_scans=tuple(scored),
    )
