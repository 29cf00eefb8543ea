"""Synthetic multi-subject datasets with known ground-truth signatures.

All subjects share one block-design event schedule; noise, and any
nonlinear response warp, are drawn per subject. SNR is the ratio of signal
standard deviation to noise standard deviation (amplitude, not power).

Two constructions make the ground truth exactly recoverable by OLS from
the standardized observable in the identity/noise-free regime:

* the generative coefficients are mean-compensated, so removing column
  means during standardization maps the effective regressors back onto the
  ground truth rather than onto a shifted copy;
* signature columns are balanced to constant norm under the (adjusted)
  design covariance, so per-voxel standardization rescales every voxel by
  the same factor.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .data_model import DesignMatrix, SignatureMatrix, SubjectData, standardize_columns
from .design import Event, EventTable, build_design_matrix, canonical_hrf
from .errors import DrslError, ShapeMismatch

_STREAM_SIGNATURES = 10
_STREAM_EVENTS = 11
_STREAM_SUBJECT_NOISE = 12
_STREAM_SUBJECT_MIX = 13


class Nonlinearity(str, enum.Enum):
    IDENTITY = "identity"
    TANH_WARP = "tanh_warp"
    QUADRATIC_MIX = "quadratic_mix"


class SignatureStyle(str, enum.Enum):
    ORTHOGONAL = "orthogonal"
    CORRELATED = "correlated"


@dataclass(frozen=True)
class SynthSpec:
    """Dimensions and knobs of one synthetic dataset.

    ``quadratic_gain`` is the strength of the ``quadratic_mix`` warp (see
    :func:`apply_nonlinearity`); the other nonlinearities ignore it.
    """

    n_subjects: int = 4
    n_scans: int = 200
    n_voxels: int = 40
    n_conditions: int = 4
    tr: float = 2.0
    snr: float = 2.0
    nonlinearity: Nonlinearity = Nonlinearity.IDENTITY
    signature_style: SignatureStyle = SignatureStyle.ORTHOGONAL
    rho: float = 0.5
    seed: int = 0
    block_scans: int | None = None
    rest_scans: int | None = None
    quadratic_gain: float = 0.3

    def __post_init__(self):
        object.__setattr__(self, "nonlinearity", Nonlinearity(self.nonlinearity))
        object.__setattr__(self, "signature_style", SignatureStyle(self.signature_style))
        if self.n_subjects < 2:
            raise DrslError(f"need >= 2 subjects, got {self.n_subjects}")
        if self.n_conditions < 2:
            raise DrslError(f"need >= 2 conditions, got {self.n_conditions}")
        if self.n_scans < 4 * self.n_conditions:
            raise DrslError(
                f"need >= 4 scans per condition, got {self.n_scans} for "
                f"{self.n_conditions} conditions"
            )
        if self.n_voxels < self.n_conditions + 2:
            raise DrslError(
                f"need >= {self.n_conditions + 2} voxels for {self.n_conditions} "
                f"conditions, got {self.n_voxels}"
            )
        if not self.seed >= 0:
            raise DrslError(f"seed must be non-negative, got {self.seed}")
        # each guard is written so that NaN fails it
        if not self.snr > 0:
            raise DrslError(f"snr must be > 0, got {self.snr}")
        if not 0.0 < self.tr < math.inf:
            raise DrslError(f"tr must be > 0 and finite, got {self.tr}")
        if not (0.0 <= self.quadratic_gain < math.inf):
            raise DrslError(
                f"quadratic_gain must be finite and >= 0, got {self.quadratic_gain}"
            )
        if self.signature_style is SignatureStyle.CORRELATED and not (
            0.0 <= self.rho < 1.0
        ):
            raise DrslError(f"rho must lie in [0, 1), got {self.rho}")


def condition_names(p: int) -> tuple[str, ...]:
    return tuple(f"cond{k:02d}" for k in range(p))


def generate_events(spec: SynthSpec) -> EventTable:
    """Randomized block schedule: per cycle, every condition appears once.

    Blocks of ``spec.block_scans`` scans have ``spec.rest_scans`` rest
    scans after them; the schedule is infeasible unless every condition
    fits at least twice.
    """
    p = spec.n_conditions
    block_scans, rest_scans = spec.block_scans, spec.rest_scans
    if block_scans is None or rest_scans is None:
        # shrink blocks for short runs so the minimum T >= 4P stays feasible
        if spec.n_scans >= 10 * p:
            block_scans, rest_scans = 3, 2
        else:
            block_scans, rest_scans = 1, 1
    if block_scans < 1 or rest_scans < 0:
        raise DrslError(f"bad block/rest lengths: {block_scans}, {rest_scans}")
    cycle = p * (block_scans + rest_scans)
    n_cycles = spec.n_scans // cycle
    if n_cycles < 2:
        raise DrslError(
            f"{spec.n_scans} scans fit only {n_cycles} cycles of {cycle}; "
            "every condition must appear at least twice"
        )
    rng = np.random.default_rng([spec.seed, _STREAM_EVENTS])
    names = condition_names(p)
    events = []
    pos = 0
    for _ in range(n_cycles):
        for k in rng.permutation(p):
            events.append(
                Event(
                    onset=pos * spec.tr,
                    duration=block_scans * spec.tr,
                    condition=names[k],
                )
            )
            pos += block_scans + rest_scans
    return EventTable(
        events=tuple(events), tr=spec.tr, n_scans=spec.n_scans, conditions=names
    )


def generate_design(spec: SynthSpec) -> DesignMatrix:
    """Shared design for all subjects: events convolved with the canonical HRF."""
    return build_design_matrix(generate_events(spec), canonical_hrf(spec.tr))


def _mean_adjustment(design: DesignMatrix) -> np.ndarray:
    """P x P map G with pinv(D) @ standardize(D G B) == B up to column scale."""
    d = design.values
    t, p = d.shape
    c, *_ = np.linalg.lstsq(d, np.ones(t), rcond=None)
    md = d.mean(axis=0)
    denom = 1.0 - md @ c
    if abs(denom) < 1e-9:
        return np.eye(p)
    return np.eye(p) + np.outer(c, md) / denom


def _balanced_orthonormal_rows(
    p: int, v: int, metric: np.ndarray, rng: np.random.Generator, iterations: int = 200
) -> np.ndarray:
    """Orthonormal rows whose columns have constant metric-weighted norm.

    Alternates column rescaling with symmetric (polar) re-orthonormalization;
    the final polar step leaves pairwise row products below 1e-12.
    """
    a = rng.standard_normal((v, p))
    q, _ = np.linalg.qr(a)
    b = q[:, :p].T
    for _ in range(iterations):
        col_energy = np.einsum("kj,kl,lj->j", b, metric, b)
        b = b * np.sqrt(col_energy.mean() / np.maximum(col_energy, 1e-30))
        u, _, vt = np.linalg.svd(b, full_matrices=False)
        b = u @ vt
    return b


def generate_signatures(spec: SynthSpec) -> SignatureMatrix:
    """Ground-truth signatures B_true (P x V_org), unit row norm.

    ``orthogonal`` rows are exactly orthonormal (and balanced against the
    shared design so the standardized observable preserves their geometry);
    ``correlated`` rows have exact pairwise sample correlation rho.
    """
    p, v = spec.n_conditions, spec.n_voxels
    rng = np.random.default_rng([spec.seed, _STREAM_SIGNATURES])
    names = condition_names(p)
    if spec.signature_style is SignatureStyle.ORTHOGONAL:
        design = generate_design(spec)
        d = design.values
        centered = d - d.mean(axis=0)
        g = _mean_adjustment(design)
        metric = g.T @ (centered.T @ centered / (d.shape[0] - 1)) @ g
        b = _balanced_orthonormal_rows(p, v, metric, rng)
        return SignatureMatrix(values=b, conditions=names)
    # correlated: rows r_k = sqrt(rho) u_0 + sqrt(1-rho) u_k with u_* an
    # orthonormal, zero-mean family, giving exact pairwise correlation rho
    a = rng.standard_normal((v, p + 1))
    a = a - a.mean(axis=0)
    q, _ = np.linalg.qr(a)
    shared = q[:, 0]
    rows = [
        math.sqrt(spec.rho) * shared + math.sqrt(1.0 - spec.rho) * q[:, k + 1]
        for k in range(p)
    ]
    return SignatureMatrix(values=np.vstack(rows), conditions=names)


def apply_nonlinearity(
    x: np.ndarray,
    kind: Nonlinearity,
    rng: np.random.Generator,
    quadratic_gain: float = 0.3,
) -> np.ndarray:
    """Warp a standardized response matrix; identity leaves it untouched.

    ``tanh_warp`` compresses large responses and rescales columns back to
    unit variance; ``quadratic_mix`` adds ``quadratic_gain * (R x) * x``
    (gain 0.3 by default) for a fixed random per-subject mixing matrix R,
    coupling voxels multiplicatively.
    """
    kind = Nonlinearity(kind)
    if kind is Nonlinearity.IDENTITY:
        return x
    if kind is Nonlinearity.TANH_WARP:
        y = np.tanh(x)
        std = y.std(axis=0, ddof=1) if y.shape[0] > 1 else np.ones(y.shape[1])
        return y / np.where(std > 0, std, 1.0)
    v = x.shape[1]
    mix = rng.standard_normal((v, v)) / math.sqrt(v)
    return x + quadratic_gain * (x @ mix.T) * x


def generate_subject(
    b_true: SignatureMatrix,
    design: DesignMatrix,
    spec: SynthSpec,
    subject_index: int,
) -> SubjectData:
    """One subject's observed responses.

    clean = D G B_true (G compensates the column means removed later);
    noise is drawn per voxel at std(clean)/snr; the warp acts on the
    standardized noisy signal so the nonlinearity operates at unit scale;
    the result is column-standardized.
    """
    b = b_true.values
    d = design.values
    if b.shape[0] != d.shape[1]:
        raise ShapeMismatch(
            f"signatures have {b.shape[0]} rows but design has {d.shape[1]} columns"
        )
    noise_rng = np.random.default_rng(
        [spec.seed, _STREAM_SUBJECT_NOISE, subject_index]
    )
    mix_rng = np.random.default_rng([spec.seed, _STREAM_SUBJECT_MIX, subject_index])
    clean = d @ (_mean_adjustment(design) @ b)
    sig_std = clean.std(axis=0, ddof=1)
    noisy = clean + noise_rng.standard_normal(clean.shape) * (sig_std / spec.snr)
    raw = SubjectData(subject_id=f"{subject_index + 1:02d}", responses=noisy)
    warped = apply_nonlinearity(
        standardize_columns(raw).responses,
        spec.nonlinearity,
        mix_rng,
        quadratic_gain=spec.quadratic_gain,
    )
    return standardize_columns(
        SubjectData(subject_id=raw.subject_id, responses=warped)
    )


@dataclass(frozen=True)
class SynthDataset:
    """Everything one synthetic run produces."""

    spec: SynthSpec
    ground_truth: SignatureMatrix
    events: EventTable
    designs: tuple[DesignMatrix, ...]
    subjects: tuple[SubjectData, ...]

    @property
    def pairs(self) -> list[tuple[SubjectData, DesignMatrix]]:
        return list(zip(self.subjects, self.designs))


def generate_dataset(spec: SynthSpec) -> SynthDataset:
    """Full pipeline: signatures, shared events/design, per-subject responses."""
    b_true = generate_signatures(spec)
    events = generate_events(spec)
    design = build_design_matrix(events, canonical_hrf(spec.tr))
    subjects = tuple(
        generate_subject(b_true, design, spec, idx) for idx in range(spec.n_subjects)
    )
    designs = tuple(design for _ in subjects)
    return SynthDataset(
        spec=spec,
        ground_truth=b_true,
        events=events,
        designs=designs,
        subjects=subjects,
    )
