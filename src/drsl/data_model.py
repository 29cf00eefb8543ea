"""Core typed containers, shape validation, and column standardization.

Containers hold read-only 64-bit float arrays: the finite-difference
gradient checks used throughout the test suite need ~1e-6 relative
precision, which float32 cannot deliver. They are finite by construction
(:func:`as_matrix`), so each run is checked once, where it enters the
program. The one exception is :class:`NetworkParameters`, which is built
in any dtype and writable until it is frozen: it also serves as the
kernel's float32 training buffers inside :mod:`drsl.optimizer`, and a
fitted network keeps the float32 it trained in and is frozen read-only
like the rest.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DrslError, NonFinite, ShapeMismatch


def as_matrix(values, name: str = "values") -> np.ndarray:
    """Copy input to a read-only, finite 2-D float64 array; errors begin with ``name``."""
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"{name} contain NaN/Inf")
    arr.setflags(write=False)
    return arr


class Activation(str, enum.Enum):
    SIGMOID = "sigmoid"
    TANH = "tanh"
    RELU = "relu"


class InitScheme(str, enum.Enum):
    PAPER_NORMAL = "paper_normal"
    SCALED_NORMAL = "scaled_normal"


@dataclass(frozen=True)
class SubjectData:
    """One subject's neural responses: T time points by V_org voxels."""

    subject_id: str
    responses: np.ndarray

    def __post_init__(self):
        resp = as_matrix(self.responses, f"responses of subject {self.subject_id!r}")
        if resp.shape[0] < 1 or resp.shape[1] < 1:
            raise ShapeMismatch(f"responses must be non-empty, got {resp.shape}")
        object.__setattr__(self, "responses", resp)

    @property
    def n_scans(self) -> int:
        return self.responses.shape[0]

    @property
    def n_voxels(self) -> int:
        return self.responses.shape[1]


@dataclass(frozen=True)
class DesignMatrix:
    """Expected responses per condition: T time points by P conditions.

    Columns are condition onsets convolved with the HRF, ordered by the
    sorted condition names.
    """

    conditions: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = as_matrix(self.values, "design values")
        conds = tuple(str(c) for c in self.conditions)
        if len(conds) != vals.shape[1]:
            raise ShapeMismatch(
                f"{len(conds)} condition names for {vals.shape[1]} design columns"
            )
        if len(conds) < 2:
            raise ShapeMismatch(f"design needs >= 2 conditions, got {conds}")
        if len(set(conds)) != len(conds):
            raise DrslError(f"duplicate condition names: {conds}")
        object.__setattr__(self, "conditions", conds)
        object.__setattr__(self, "values", vals)

    @property
    def n_scans(self) -> int:
        return self.values.shape[0]

    @property
    def n_conditions(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SignatureMatrix:
    """Estimated regressors: one spatial pattern per condition (P x V)."""

    values: np.ndarray
    conditions: tuple[str, ...] = ()

    def __post_init__(self):
        vals = as_matrix(self.values, "signature values")
        if vals.shape[1] < 1:
            raise ShapeMismatch("signatures need at least one feature column")
        conds = tuple(str(c) for c in self.conditions)
        if conds and len(conds) != vals.shape[0]:
            raise ShapeMismatch(
                f"{len(conds)} condition names for {vals.shape[0]} signature rows"
            )
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "conditions", conds)

    @property
    def n_conditions(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


def signature_array(b) -> np.ndarray:
    """The P x V float64 values of a :class:`SignatureMatrix` or of a 2-D array."""
    arr = np.asarray(b.values if isinstance(b, SignatureMatrix) else b, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"signatures must be 2-D, got shape {arr.shape}")
    return arr


class NetworkParameters:
    """Per-layer weights and biases of the kernel MLP, in one contiguous vector.

    ``layer_sizes`` is ``[V_org, U_2, ..., U_{C-1}, V]``; layer m has weight
    shape ``U_m x U_{m-1}`` and bias length ``U_m``. At least one hidden
    layer is required (C >= 3). ``flat`` holds every parameter and
    ``layers`` a (w, b) view per layer into it, so an optimizer can update
    the whole network with vector operations.

    Writability: a network, built from ``layers`` (copied) or from
    ``layers=None`` (all zeros), is writable in any dtype until
    :meth:`freeze` makes it read-only in place. Training keeps theta and
    its gradient in :data:`drsl.optimizer.TRAIN_DTYPE` ones, and
    :func:`drsl.kernel_net.init_params` draws into a float32 one, which
    training takes as theta. Every fitted network is frozen, because
    several results may share it.
    """

    def __init__(self, layers, layer_sizes, dtype=np.float64):
        sizes = tuple(int(s) for s in layer_sizes)
        validate_layer_sizes(sizes)
        self.layer_sizes = sizes
        self.flat = np.zeros(
            sum(u * (v + 1) for v, u in zip(sizes[:-1], sizes[1:])), dtype=dtype
        )
        views, start = [], 0
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            w = self.flat[start : start + fan_out * fan_in].reshape(fan_out, fan_in)
            start += fan_out * fan_in
            views.append((w, self.flat[start : start + fan_out]))
            start += fan_out
        self.layers = tuple(views)
        if layers is None:
            return
        if len(layers) != len(views):
            raise ShapeMismatch(f"{len(layers)} layers for {len(sizes)} layer sizes")
        for m, ((w, b), (vw, vb)) in enumerate(zip(layers, views)):
            w, b = np.asarray(w), np.asarray(b)
            if w.shape != vw.shape:
                raise ShapeMismatch(
                    f"weight {m + 2} has shape {w.shape}, expected {vw.shape}"
                )
            if b.shape != vb.shape:
                raise ShapeMismatch(
                    f"bias {m + 2} has shape {b.shape}, expected {vb.shape}"
                )
            vw[...] = w
            vb[...] = b

    def freeze(self) -> NetworkParameters:
        """Make the vector and every layer view read-only, in place; returns self."""
        for a in (self.flat, *(a for layer in self.layers for a in layer)):
            a.setflags(write=False)
        return self

    def astype(self, dtype) -> NetworkParameters:
        """A writable copy in ``dtype``, whether or not this network is
        frozen; writing to either network leaves the other as it was."""
        return NetworkParameters(self.layers, self.layer_sizes, dtype)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]


def validate_layer_sizes(sizes: tuple[int, ...]) -> None:
    if len(sizes) < 3:
        raise ShapeMismatch(f"need at least 3 layers (input/hidden/output), got {sizes}")
    if any(s < 1 for s in sizes):
        raise ShapeMismatch(f"layer sizes must be positive, got {sizes}")
    if sizes[-1] > sizes[0]:
        raise ShapeMismatch(
            f"output dim {sizes[-1]} exceeds input dim {sizes[0]}; the mapped "
            "space cannot be wider than the voxel space"
        )


def validate_lasso_settings(alpha_lasso: float, iterations: int) -> None:
    """Reject a LASSO penalty that is negative or not finite, or a cap below 1."""
    if not 0.0 <= alpha_lasso < np.inf:
        raise DrslError(f"alpha_lasso must be >= 0 and finite, got {alpha_lasso}")
    if not iterations >= 1:
        raise DrslError(f"lasso iterations must be >= 1, got {iterations}")


@dataclass(frozen=True)
class FitConfig:
    """Settings of one run, for every method.

    Defaults: alpha=10, eta=1e-3, 10 outer by 100 inner iterations, batch
    size 50. ``layer_sizes=None`` derives the architecture from the voxel
    count at fit time. Adam's constants are fixed in :mod:`drsl.optimizer`.
    ``lasso_alpha`` (0.9) and ``lasso_iterations`` (500) are the LASSO
    baseline's penalty and iteration cap; only that method reads them, but
    every config checks them, so that no run records a setting LASSO
    would refuse.
    """

    alpha: float = 10.0
    eta: float = 1e-3
    m1: int = 10
    m2: int = 100
    batch_size: int = 50
    layer_sizes: tuple[int, ...] | None = None
    activation: Activation = Activation.SIGMOID
    init: InitScheme = InitScheme.SCALED_NORMAL
    seed: int = 0
    lasso_alpha: float = 0.9
    lasso_iterations: int = 500

    def __post_init__(self):
        object.__setattr__(self, "activation", Activation(self.activation))
        object.__setattr__(self, "init", InitScheme(self.init))
        # each guard is written so that NaN fails it
        if not 1.0 <= self.alpha < np.inf:
            raise DrslError(f"alpha must be >= 1 and finite, got {self.alpha}")
        if not 0.0 < self.eta < np.inf:
            raise DrslError(f"eta must be > 0 and finite, got {self.eta}")
        if not (self.m1 >= 0 and self.m2 >= 0):
            raise DrslError(f"iteration counts must be >= 0, got m1={self.m1} m2={self.m2}")
        # a batch of one standardizes every kernel output to 0, so no step would train
        if not self.batch_size >= 2:
            raise DrslError(f"batch size must be >= 2, got {self.batch_size}")
        if not self.seed >= 0:
            raise DrslError(f"seed must be non-negative, got {self.seed}")
        validate_lasso_settings(self.lasso_alpha, self.lasso_iterations)
        if self.layer_sizes is not None:
            sizes = tuple(int(s) for s in self.layer_sizes)
            validate_layer_sizes(sizes)
            object.__setattr__(self, "layer_sizes", sizes)


def validate_pair(data: SubjectData, design: DesignMatrix) -> None:
    """Raise ShapeMismatch unless responses and design have the same scan count;
    every other condition on a pair holds by construction."""
    if data.n_scans != design.n_scans:
        raise ShapeMismatch(
            f"responses have {data.n_scans} scans but design has {design.n_scans}"
        )


def standardize_columns(data: SubjectData) -> SubjectData:
    """Return a copy with each column scaled to zero mean and unit variance.

    Uses the sample standard deviation (T-1 denominator), matching the
    Pearson-correlation convention used in evaluation. Constant columns map
    to all-zeros instead of raising, so degenerate voxels do not abort a
    whole-dataset fit.
    """
    x = data.responses
    n = x.shape[0]
    if n < 2:
        raise ShapeMismatch(f"standardization needs >= 2 rows, got {n}")
    constant = x.max(axis=0) == x.min(axis=0)
    # centred once; the mean and the sample std are x.mean's and x.std's, bit for bit
    out = x - np.add.reduce(x, axis=0) / n
    std = np.sqrt(np.add.reduce(np.square(out), axis=0) / (n - 1))
    out /= np.where(std > 0, std, 1.0)
    out[:, constant] = 0.0
    return SubjectData(subject_id=data.subject_id, responses=out)
