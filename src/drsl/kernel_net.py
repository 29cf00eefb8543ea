"""The deep transformation f(x; theta): forward pass, output standardization, backprop.

A plain MLP with nonlinear hidden layers and an affine output layer (the
mapped space feeds a regression, so the last layer carries no activation).
Gradients are summed over the batch, not averaged; the learning rate
absorbs the scale.

During training the kernel's outputs are standardized per feature over the
batch (zero mean, unit variance). That anchors the scale of f: without it
the joint objective is minimized by the trivial f = 0, B = 0. Because the
standardization is affine per output feature, it folds exactly into the
output layer once a run's statistics are known
(:func:`fold_output_standardization`).

:func:`forward` computes in the dtype of its :class:`NetworkParameters`,
casting the batch to it, and the standardization and
:func:`backprop_output_grad` follow the arrays they are given: training
passes float32 networks and computes in float32. A float64 map takes the
network's float64 copy, ``params.astype(np.float64)``.

A forward pass records only its activations h_1..h_C, the batch first and
the output last; each hidden activation is applied in place to its layer's
affine output, so a hidden layer holds one array per pass. Backprop needs
nothing more: every activation's derivative is a function of h.

Layers compute feature-major. Layer m's output is a C-contiguous (V_m x n)
array, W_m h_{m-1}^T + b_m, and is handed on as its (n x V_m) transpose;
backprop chains its deltas the same way. So every public shape is (n x V),
and the per-feature reductions over the batch (the standardization, its
backward pass, the bias gradients) and the bias add run along contiguous
rows of n values, not across n short rows of V.
"""

from __future__ import annotations

import numpy as np

from .data_model import Activation, InitScheme, NetworkParameters
from .errors import ShapeMismatch

_STANDARDIZE_EPS = 1e-8

# normals per draw of init_params: its float64 scratch array is 512 KiB
_DRAW_CHUNK = 65_536


def default_layer_sizes(v_org: int) -> tuple[int, ...]:
    """Two-hidden-layer architecture scaled to the voxel count.

    [1000, 700, 500] units for >= 1000 voxels, [700, 500, 200] down to 200
    voxels; below that the widths shrink proportionally so the mapped
    space never exceeds the voxel space.
    """
    if v_org >= 1000:
        return (v_org, 1000, 700, 500)
    if v_org >= 200:
        return (v_org, 700, 500, 200)
    h1 = max(4, (v_org * 7) // 10)
    h2 = max(3, v_org // 2)
    out = max(2, v_org // 4)
    return (v_org, h1, h2, out)


def init_params(
    layer_sizes,
    scheme: InitScheme | str,
    rng: np.random.Generator,
) -> NetworkParameters:
    """Draw initial weights and biases from ``rng`` into a writable float32 network.

    ``paper_normal`` uses i.i.d. standard normals; ``scaled_normal`` scales
    the standard deviation by 1/sqrt(fan_in), which keeps wide sigmoid
    layers out of saturation. Each layer draws its weights, then its
    biases, :data:`_DRAW_CHUNK` normals at a time through one float64
    scratch array; each chunk is scaled in float64 and rounded to float32
    as it is written, so the values are
    ``(rng.standard_normal(shape) * std).astype(np.float32)`` per array and
    no float64 copy of the network is made. Training uses the result as
    theta; a caller that computes in float64 takes ``.astype(np.float64)``.
    """
    params = NetworkParameters(None, layer_sizes, np.float32)
    scheme = InitScheme(scheme)
    scratch = np.empty(min(_DRAW_CHUNK, params.flat.size))
    for fan_in, (w, b) in zip(params.layer_sizes, params.layers):
        std = 1.0 if scheme is InitScheme.PAPER_NORMAL else 1.0 / np.sqrt(fan_in)
        for a in (w.reshape(-1), b):
            for lo in range(0, a.size, _DRAW_CHUNK):
                view = a[lo : lo + _DRAW_CHUNK]
                normals = rng.standard_normal(out=scratch[: view.size])
                np.multiply(normals, std, out=view, casting="same_kind")
    return params


def _apply_activation(z: np.ndarray, activation: Activation) -> np.ndarray:
    """Overwrite ``z`` with the activation of ``z`` and return it."""
    if activation is Activation.SIGMOID:
        # the logistic as 0.5 * (1 + tanh(z / 2)): no exp to overflow, and
        # no boolean masks to gather and scatter
        z *= 0.5
        np.tanh(z, out=z)
        z += 1.0
        z *= 0.5
        return z
    if activation is Activation.TANH:
        return np.tanh(z, out=z)
    return np.maximum(z, 0.0, out=z)


def _activation_derivative(h: np.ndarray, activation: Activation) -> np.ndarray:
    """d h / d z as a function of h alone; relu's h > 0 exactly where z > 0."""
    if activation is Activation.SIGMOID:
        return h * (1.0 - h)
    if activation is Activation.TANH:
        return 1.0 - np.square(h)
    return (h > 0).astype(h.dtype)


def forward(
    params: NetworkParameters,
    batch: np.ndarray,
    activation: Activation | str = Activation.SIGMOID,
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Map a batch (n x V_org) through the network to (n x V).

    Returns ``(output, activations)``: ``activations`` holds h_1..h_C, the
    batch cast to the network's dtype (the caller's own array when it is
    in that dtype already) first and ``output`` itself last. Layer m is
    computed feature-major, as W_m h_{m-1}^T + b_m in a C-contiguous
    (V_m x n) array, and recorded as its (n x V_m) transpose. Hidden layers
    apply the activation componentwise, in place on their affine output;
    the output layer is affine. Neither ``batch`` nor ``params`` is written
    to. Every value is computed in the network's dtype.
    """
    activation = Activation(activation)
    x = np.asarray(batch, dtype=params.flat.dtype)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ShapeMismatch(
            f"batch has shape {x.shape}, expected (n, {params.input_dim})"
        )
    acts = [x]
    last = len(params.layers) - 1
    for m, (w, b) in enumerate(params.layers):
        h = w @ acts[-1].T
        h += b[:, None]
        acts.append((h if m == last else _apply_activation(h, activation)).T)
    return acts[-1], tuple(acts)


def standardize_outputs(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-feature batch standardization; returns (y, scale, mean).

    y = (z - mean) / scale with scale = sqrt(var + eps), both over the batch
    rows (population variance). A feature that is constant over the batch
    maps to zeros. float32 input is standardized in float32.

    The rows are centred twice. In float32 the rounding error of the first
    mean shifts every row of a feature alike, and
    :func:`standardize_backward` would turn that shift into the same error
    in every row of the gradient; the second pass removes it. ``mean`` is
    the total removed.
    """
    z = np.asarray(z)
    n = z.shape[0]
    # np.add.reduce, here and in the backward pass, skips np.mean's Python
    # wrapper, which costs as much as the sum on a small batch
    mean = np.add.reduce(z, axis=0) / n
    centered = z - mean
    residue = np.add.reduce(centered, axis=0) / n
    centered -= residue
    mean += residue
    scale = np.sqrt(np.add.reduce(np.square(centered), axis=0) / n + _STANDARDIZE_EPS)
    return centered / scale, scale, mean


def standardize_backward(grad_y: np.ndarray, y: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Exact gradient through :func:`standardize_outputs`, given dL/dy."""
    g = np.asarray(grad_y)
    n = g.shape[0]
    return (g - np.add.reduce(g, axis=0) / n - y * (np.add.reduce(g * y, axis=0) / n)) / scale


def fold_output_standardization(
    params: NetworkParameters,
    reference: np.ndarray,
    activation: Activation | str = Activation.SIGMOID,
) -> NetworkParameters:
    """Fold the output standardization over ``reference`` into the last layer.

    Returns a frozen float64 copy of ``params`` that maps ``reference`` to
    exactly ``standardize_outputs(forward(params.astype(np.float64),
    reference))`` and applies the same per-feature shift and scale to any
    other scans.
    """
    folded = params.astype(np.float64)
    z, _ = forward(folded, reference, activation)
    _, scale, mean = standardize_outputs(z)
    w, b = folded.layers[-1]
    w /= scale[:, None]
    b -= mean
    b /= scale
    return folded.freeze()


def backprop_output_grad(
    params: NetworkParameters,
    activations: tuple[np.ndarray, ...],
    grad_output: np.ndarray,
    activation: Activation | str,
    out: NetworkParameters,
) -> NetworkParameters:
    """Chain a given dL/d(output) back through ``params``.

    ``activations`` is the record :func:`forward` returned for the same
    network: h_m feeds layer m's weight gradient, and the derivative of
    each hidden activation comes from h alone. Each delta is chained
    feature-major, as (W^T delta^T)^T, so that it is the transpose of a
    C-contiguous (V_m x n) array like the layers. The gradients are written
    into ``out``, a writable network, which is returned and sets the dtype
    of the chain; ``out`` must not be ``params`` itself.
    """
    activation = Activation(activation)
    if out.layer_sizes != params.layer_sizes:
        raise ShapeMismatch(
            f"gradient buffer has layer sizes {out.layer_sizes}, "
            f"expected {params.layer_sizes}"
        )
    delta = np.asarray(grad_output, dtype=out.flat.dtype)
    for m in range(len(params.layers) - 1, -1, -1):
        w, _ = params.layers[m]
        gw, gb = out.layers[m]
        np.matmul(delta.T, activations[m], out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        if m > 0:
            delta = (w.T @ delta.T).T * _activation_derivative(activations[m], activation)
    return out
