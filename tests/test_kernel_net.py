import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsl.data_model import Activation, NetworkParameters
from drsl.errors import ShapeMismatch
from drsl.kernel_net import (
    _DRAW_CHUNK,
    _apply_activation,
    backprop_output_grad,
    default_layer_sizes,
    fold_output_standardization,
    forward,
    init_params,
    standardize_backward,
    standardize_outputs,
)
from drsl.optimizer import _batch_gradient, _data_term


def squared_error(params, x, t, activation="sigmoid"):
    """Squared output error summed over the batch: training's data term
    without the standardization."""
    out, _ = forward(params, x, activation)
    return _data_term(out, t, 1.0)


def squared_error_grad(params, x, t, activation="sigmoid"):
    """The gradient of :func:`squared_error`: its output gradient through
    backprop_output_grad."""
    out, activations = forward(params, x, activation)
    return backprop_output_grad(params, activations, 2.0 * (out - t), activation,
                                NetworkParameters(None, params.layer_sizes))


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def finite_difference_grads(params, x, t, activation, h=1e-5):
    grads = []
    for li in range(len(params.layers)):
        layer_grads = []
        for arr_idx in range(2):
            shape = params.layers[li][arr_idx].shape
            g = np.zeros(shape)
            for pos in np.ndindex(shape):
                layers = [(w.copy(), b.copy()) for w, b in params.layers]
                layers[li][arr_idx][pos] += h
                plus = squared_error(
                    NetworkParameters(tuple(layers), params.layer_sizes), x, t, activation
                )
                layers[li][arr_idx][pos] -= 2 * h
                minus = squared_error(
                    NetworkParameters(tuple(layers), params.layer_sizes), x, t, activation
                )
                g[pos] = (plus - minus) / (2 * h)
            layer_grads.append(g)
        grads.append(tuple(layer_grads))
    return grads


class TestInitParams:
    def test_same_seed_bit_identical(self):
        a = init_params((8, 5, 4, 3), "scaled_normal", rng=np.random.default_rng(42))
        b = init_params((8, 5, 4, 3), "scaled_normal", rng=np.random.default_rng(42))
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba, bb)

    def test_shapes(self):
        params = init_params((8, 5, 4, 3), "paper_normal", rng=np.random.default_rng(0))
        shapes = [(w.shape, b.shape) for w, b in params.layers]
        assert shapes == [((5, 8), (5,)), ((4, 5), (4,)), ((3, 4), (3,))]

    def test_scaled_normal_std(self):
        params = init_params((10_000, 50, 8, 4), "scaled_normal", rng=np.random.default_rng(7))
        w = params.layers[0][0]
        assert abs(w.std() - 0.01) < 0.001  # 1/sqrt(10000), within 10%

    def test_paper_normal_std(self):
        params = init_params((2000, 50, 8, 4), "paper_normal", rng=np.random.default_rng(7))
        assert abs(params.layers[0][0].std() - 1.0) < 0.1

    @pytest.mark.parametrize("scheme", ["paper_normal", "scaled_normal"])
    def test_bit_identical_to_per_array_draws_across_chunks(self, scheme):
        # the first weight matrix spans three draw chunks, the last ends mid-chunk
        sizes = (500, 300, 20, 10)
        assert sizes[0] * sizes[1] > 2 * _DRAW_CHUNK
        params = init_params(sizes, scheme, rng=np.random.default_rng(4))
        oracle = np.random.default_rng(4)
        assert params.flat.dtype == np.float32 and params.flat.flags.writeable
        for fan_in, (w, b) in zip(sizes, params.layers):
            std = 1.0 if scheme == "paper_normal" else 1.0 / np.sqrt(fan_in)
            for a in (w, b):
                expected = (oracle.standard_normal(a.shape) * std).astype(np.float32)
                assert a.dtype == np.float32 and a.flags.writeable
                assert a.tobytes() == expected.tobytes()
        # the draw leaves the stream where the per-array draws leave it
        rng = np.random.default_rng(4)
        init_params(sizes, scheme, rng=rng)
        assert rng.standard_normal() == oracle.standard_normal()

    def test_paper_net_draw_allocates_only_the_network(self):
        sizes = (1000, 1000, 700, 500)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            params = init_params(sizes, "scaled_normal", rng=rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the float32 network, 8.2 MB, and at most 1 MiB of scratch
        assert params.flat.size == 2_052_200
        assert peak <= 4 * params.flat.size + 2**20

    def test_too_few_layers_rejected(self):
        with pytest.raises(ShapeMismatch, match="need at least 3 layers"):
            init_params((8, 3), "scaled_normal", rng=np.random.default_rng(0))

    def test_output_wider_than_input_rejected(self):
        with pytest.raises(ShapeMismatch, match="output dim 6 exceeds input dim 4"):
            init_params((4, 8, 8, 6), "scaled_normal", rng=np.random.default_rng(0))


class TestDefaultSizes:
    def test_reference_architectures(self):
        assert default_layer_sizes(1452) == (1452, 1000, 700, 500)
        assert default_layer_sizes(722) == (722, 700, 500, 200)

    def test_small_inputs_keep_output_within_voxels(self):
        for v in (8, 20, 50, 199):
            sizes = default_layer_sizes(v)
            assert sizes[0] == v
            assert sizes[-1] <= v
            assert len(sizes) == 4


class TestForward:
    def test_all_zero_params_sigmoid_outputs_zero(self):
        sizes = (4, 3, 3, 2)
        layers = tuple(
            (np.zeros((sizes[m + 1], sizes[m])), np.zeros(sizes[m + 1]))
            for m in range(3)
        )
        params = NetworkParameters(layers, sizes)
        out, activations = forward(params, np.ones((5, 4)), "sigmoid")
        np.testing.assert_array_equal(out, 0.0)
        # hidden activations sit at sigmoid(0) = 0.5
        np.testing.assert_array_equal(activations[1], 0.5)

    def test_final_bias_sets_every_row(self):
        sizes = (4, 3, 2)
        layers = (
            (np.zeros((3, 4)), np.zeros(3)),
            (np.zeros((2, 3)), np.array([1.5, -2.0])),
        )
        params = NetworkParameters(layers, sizes)
        out, _ = forward(params, np.random.default_rng(0).standard_normal((6, 4)))
        np.testing.assert_allclose(out, np.tile([1.5, -2.0], (6, 1)))

    def test_matches_per_neuron_oracle(self):
        rng = np.random.default_rng(12)
        params = init_params((3, 4, 4, 2), "scaled_normal", rng=np.random.default_rng(5))
        params = params.astype(np.float64)
        x = rng.standard_normal((6, 3))
        out, _ = forward(params, x, "sigmoid")
        for i in range(6):
            h = x[i]
            for m, (w, b) in enumerate(params.layers):
                z = np.array(
                    [sum(w[r, c] * h[c] for c in range(w.shape[1])) + b[r] for r in range(w.shape[0])]
                )
                h = z if m == len(params.layers) - 1 else sigmoid(z)
            np.testing.assert_allclose(out[i], h, atol=1e-12)

    def test_trace_endpoints(self):
        params = init_params((3, 4, 4, 2), "scaled_normal", rng=np.random.default_rng(5))
        params = params.astype(np.float64)
        x = np.random.default_rng(0).standard_normal((4, 3))
        out, activations = forward(params, x, "tanh")
        assert len(activations) == 4
        assert activations[0] is x and activations[-1] is out

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("activation", ["sigmoid", "tanh", "relu"])
    def test_layers_are_feature_major(self, activation, dtype):
        # layer m is W_m h^T + b_m in a C-contiguous (V_m x n) array, handed on transposed
        params = init_params((6, 5, 4, 3), "paper_normal", rng=np.random.default_rng(2))
        params = params.astype(dtype)
        x = np.random.default_rng(1).standard_normal((7, 6)).astype(dtype)
        out, activations = forward(params, x, activation)
        expected = [x.T]
        for m, (w, b) in enumerate(params.layers):
            z = w @ expected[-1] + b[:, None]
            last = m == len(params.layers) - 1
            expected.append(z if last else _apply_activation(z, Activation(activation)))
        assert activations[-1] is out
        for a, e in zip(activations[1:], expected[1:], strict=True):
            assert a.shape == e.T.shape and a.dtype == dtype
            assert a.T.flags.c_contiguous
            assert a.T.tobytes() == e.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("activation", ["sigmoid", "tanh", "relu"])
    def test_batch_and_parameters_left_bitwise_unchanged(self, activation, dtype):
        params = init_params((6, 5, 4, 3), "paper_normal", rng=np.random.default_rng(2))
        params = params.astype(np.float64)
        x = np.random.default_rng(1).standard_normal((7, 6)).astype(dtype)
        x_before = x.tobytes()
        for net in (params, params.astype(dtype)):
            before = [a.tobytes() for layer in net.layers for a in layer]
            _, activations = forward(net, x, activation)
            assert (activations[0] is x) == (net.layers[0][0].dtype == dtype)
            assert x.tobytes() == x_before
            assert [a.tobytes() for layer in net.layers for a in layer] == before

    def test_wrong_width_rejected(self):
        params = init_params((3, 4, 4, 2), "scaled_normal", rng=np.random.default_rng(5))
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros((4, 7)))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_row_decomposable(self, seed):
        rng = np.random.default_rng(seed)
        params = init_params((5, 6, 4, 3), "scaled_normal", rng=np.random.default_rng(seed))
        params = params.astype(np.float64)
        x = rng.standard_normal((7, 5))
        full, _ = forward(params, x, "tanh")
        rows = np.vstack([forward(params, x[i : i + 1], "tanh")[0] for i in range(7)])
        np.testing.assert_allclose(full, rows, atol=1e-12)


class TestKernelLoss:
    def test_zero_when_targets_equal_output(self):
        params = init_params((3, 4, 4, 2), "scaled_normal", rng=np.random.default_rng(1))
        x = np.random.default_rng(2).standard_normal((5, 3))
        out, _ = forward(params, x)
        assert squared_error(params, x, out) == 0.0

    def test_zero_net_all_one_targets(self):
        sizes = (3, 2, 3)
        layers = ((np.zeros((2, 3)), np.zeros(2)), (np.zeros((3, 2)), np.zeros(3)))
        params = NetworkParameters(layers, sizes)
        assert squared_error(params, np.zeros((2, 3)), np.ones((2, 3))) == 6.0

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(9)
        params = init_params((4, 5, 4, 3), "scaled_normal", rng=np.random.default_rng(9))
        x = rng.standard_normal((6, 4))
        t = rng.standard_normal((6, 3))
        out, _ = forward(params, x)
        oracle = sum(
            (out[i, j] - t[i, j]) ** 2 for i in range(6) for j in range(3)
        )
        assert squared_error(params, x, t) == pytest.approx(oracle, abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        params = init_params((4, 5, 4, 3), "scaled_normal", rng=np.random.default_rng(3))
        x = rng.standard_normal((6, 4))
        t = rng.standard_normal((6, 3))
        assert squared_error(params, x, t) >= 0.0


class TestBackprop:
    def test_zero_gradient_at_minimum(self):
        params = init_params((3, 4, 4, 2), "scaled_normal", rng=np.random.default_rng(1))
        x = np.random.default_rng(2).standard_normal((5, 3))
        out, _ = forward(params, x)
        grads = squared_error_grad(params, x, out)
        for gw, gb in grads.layers:
            np.testing.assert_allclose(gw, 0.0, atol=1e-12)
            np.testing.assert_allclose(gb, 0.0, atol=1e-12)

    def test_one_one_one_net_hand_derivation(self):
        # single sample through a 1-1-1 sigmoid net, chain rule by hand
        w2, a2, w3, a3 = 0.7, -0.2, 1.3, 0.4
        x_val, t_val = 0.9, 2.0
        params = NetworkParameters(
            ((np.array([[w2]]), np.array([a2])), (np.array([[w3]]), np.array([a3]))),
            (1, 1, 1),
        )
        x = np.array([[x_val]])
        t = np.array([[t_val]])
        z2 = w2 * x_val + a2
        h2 = sigmoid(np.array(z2))
        out = w3 * h2 + a3
        resid = 2.0 * (out - t_val)
        expected = {
            "w3": resid * h2,
            "a3": resid,
            "w2": resid * w3 * h2 * (1 - h2) * x_val,
            "a2": resid * w3 * h2 * (1 - h2),
        }
        grads = squared_error_grad(params, x, t, "sigmoid")
        assert grads.layers[1][0][0, 0] == pytest.approx(float(expected["w3"]), rel=1e-12)
        assert grads.layers[1][1][0] == pytest.approx(float(expected["a3"]), rel=1e-12)
        assert grads.layers[0][0][0, 0] == pytest.approx(float(expected["w2"]), rel=1e-12)
        assert grads.layers[0][1][0] == pytest.approx(float(expected["a2"]), rel=1e-12)

    @pytest.mark.parametrize("activation", ["sigmoid", "tanh", "relu"])
    def test_matches_finite_differences(self, activation):
        rng = np.random.default_rng(17)
        # in float64: a float32 theta would round away most of each nudge
        params = init_params((4, 5, 4, 3), "scaled_normal", rng=np.random.default_rng(11))
        params = params.astype(np.float64)
        x = rng.standard_normal((6, 4))
        t = rng.standard_normal((6, 3))
        analytic = squared_error_grad(params, x, t, activation)
        numeric = finite_difference_grads(params, x, t, activation)
        for (aw, ab), (nw, nb) in zip(analytic.layers, numeric):
            rel_w = np.abs(aw - nw) / np.maximum(1.0, np.abs(nw))
            rel_b = np.abs(ab - nb) / np.maximum(1.0, np.abs(nb))
            assert rel_w.max() < 1e-5
            assert rel_b.max() < 1e-5

    def test_batch_gradient_is_sum_of_per_sample(self):
        rng = np.random.default_rng(8)
        params = init_params((3, 4, 4, 2), "scaled_normal", rng=np.random.default_rng(8))
        params = params.astype(np.float64)
        x = rng.standard_normal((5, 3))
        t = rng.standard_normal((5, 2))
        full = squared_error_grad(params, x, t)
        per_sample = [squared_error_grad(params, x[i : i + 1], t[i : i + 1]) for i in range(5)]
        for li in range(len(full.layers)):
            np.testing.assert_allclose(
                full.layers[li][0],
                sum(g.layers[li][0] for g in per_sample),
                atol=1e-10,
            )


def _allocating_backprop(params, activations, grad_output, activation):
    """Backprop that allocates each layer's gradient, as it did before it
    wrote into a flat buffer; the reference for the buffered form. Each
    delta is chained feature-major, (W^T delta^T)^T, as forward computes
    its layers. Relu's derivative reads the pre-activation z, recomputed
    from the layer input in the same layout."""
    grads = [None] * len(params.layers)
    delta = grad_output
    for m in range(len(params.layers) - 1, -1, -1):
        w, _ = params.layers[m]
        grads[m] = (delta.T @ activations[m], delta.sum(axis=0))
        if m > 0:
            w_in, b_in = params.layers[m - 1]
            z, h = (w_in @ activations[m - 1].T + b_in[:, None]).T, activations[m]
            if activation == "sigmoid":
                derivative = h * (1.0 - h)
            elif activation == "tanh":
                derivative = 1.0 - h * h
            else:
                derivative = np.where(z > 0, 1.0, 0.0)
            delta = (w.T @ delta.T).T * derivative
    return grads


class TestGradientBuffer:
    @pytest.mark.parametrize(
        "activation, zero",
        [
            pytest.param("sigmoid", False, id="sigmoid"),
            pytest.param("tanh", False, id="tanh"),
            pytest.param("relu", False, id="relu"),
            # hidden layers all zero: every hidden z is exactly 0, where relu's
            # h > 0 and z > 0 must agree; the output layer carries the gradient back
            pytest.param("relu", True, id="relu-zero"),
        ],
    )
    def test_written_gradient_equals_allocating_backprop(self, activation, zero):
        rng = np.random.default_rng(12)
        sizes = (30, 25, 18, 7)
        params = init_params(sizes, "paper_normal", rng=np.random.default_rng(6))
        if zero:
            layers = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params.layers[:-1]]
            params = NetworkParameters((*layers, params.layers[-1]), sizes)
        x = rng.standard_normal((13, 30))
        grad_output = rng.standard_normal((13, 7))
        _, activations = forward(params, x, activation)
        expected = _allocating_backprop(params, activations, grad_output, activation)
        buffer = NetworkParameters(None, sizes)
        buffer.flat[:] = np.nan
        got = backprop_output_grad(params, activations, grad_output, activation, out=buffer)
        assert got is buffer
        for (gw, gb), (ew, eb) in zip(buffer.layers, expected):
            np.testing.assert_array_equal(gw, ew)
            np.testing.assert_array_equal(gb, eb)

    def test_buffer_of_other_sizes_rejected(self):
        params = init_params((4, 3, 2), "scaled_normal", rng=np.random.default_rng(0))
        _, activations = forward(params, np.ones((2, 4)))
        with pytest.raises(ShapeMismatch):
            backprop_output_grad(
                params, activations, np.ones((2, 2)), "sigmoid",
                out=NetworkParameters(None, (4, 3, 3)),
            )

    def test_flat_copy_and_freeze_share_no_memory(self):
        # a float32 copy trains in place; a frozen float64 copy stays as it was
        params = init_params((5, 4, 3), "scaled_normal", rng=np.random.default_rng(1))
        params = params.astype(np.float64)
        flat = params.astype(np.float32)
        frozen = flat.astype(np.float64).freeze()
        for (w, b), (fw, fb), (zw, zb) in zip(params.layers, flat.layers, frozen.layers):
            np.testing.assert_array_equal(fw, w)
            np.testing.assert_array_equal(zb, b)
            assert np.shares_memory(fw, flat.flat) and np.shares_memory(fb, flat.flat)
            assert fw.flags.writeable and fb.flags.writeable
            assert not (zw.flags.writeable or zb.flags.writeable)
        assert flat.flat.flags.writeable and not frozen.flat.flags.writeable
        flat.flat[:] = 0.0
        for (w, b), (zw, zb) in zip(params.layers, frozen.layers):
            np.testing.assert_array_equal(zw, w)
            np.testing.assert_array_equal(zb, b)
            assert np.any(w != 0.0)

    def test_layers_of_other_shapes_rejected(self):
        w, b = np.zeros((3, 4)), np.zeros(3)
        with pytest.raises(ShapeMismatch, match="weight 3"):
            NetworkParameters(((w, b), (np.zeros((3, 2)), np.zeros(2))), (4, 3, 2))
        with pytest.raises(ShapeMismatch, match="bias 2"):
            NetworkParameters(((w, np.zeros(4)), (np.zeros((2, 3)), np.zeros(2))), (4, 3, 2))
        with pytest.raises(ShapeMismatch, match="1 layers for 3 layer sizes"):
            NetworkParameters(((w, b),), (4, 3, 2))


class TestFloat32:
    """Training runs in float32 buffers; every function follows their dtype."""

    sizes = (30, 25, 18, 7)

    def nets(self, seed=6):
        """A fresh draw's float64 copy and the float32 draw itself."""
        flat = init_params(self.sizes, "scaled_normal", rng=np.random.default_rng(seed))
        return flat.astype(np.float64), flat

    def test_init_params_draw_a_writable_float32_network(self):
        # training takes the draw as theta, and its float64 copy holds the same values
        params = init_params(self.sizes, "paper_normal", rng=np.random.default_rng(3))
        assert params.flat.dtype == np.float32 and params.flat.flags.writeable
        for (w, b), (zw, zb) in zip(params.layers, params.astype(np.float64).layers):
            assert w.dtype == b.dtype == np.float32
            assert np.shares_memory(w, params.flat) and np.shares_memory(b, params.flat)
            assert zw.dtype == zb.dtype == np.float64
            np.testing.assert_array_equal(zw.astype(np.float32), w)
            np.testing.assert_array_equal(zb.astype(np.float32), b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_astype_float64_is_writable_and_shares_no_memory(self, dtype):
        # writable whether or not the source is frozen, in either dtype
        source = init_params(self.sizes, "paper_normal", rng=np.random.default_rng(3))
        source = source.astype(dtype).freeze()
        before = source.flat.tobytes()
        copy = source.astype(np.float64)
        assert copy.flat.dtype == np.float64
        for a in (copy.flat, *(a for layer in copy.layers for a in layer)):
            assert a.flags.writeable and not np.shares_memory(a, source.flat)
        copy.flat[:] = 0.0
        assert source.flat.tobytes() == before

    def test_float32_copy_freezes_back_to_the_float64_values(self):
        params, flat = self.nets()
        assert flat.flat.dtype == np.float32
        for (w, b), (zw, zb) in zip(params.layers, flat.astype(np.float64).layers):
            assert zw.dtype == zb.dtype == np.float64
            np.testing.assert_array_equal(zw, w)
            np.testing.assert_array_equal(zb, b)

    @pytest.mark.parametrize("activation", ["sigmoid", "tanh", "relu"])
    def test_forward_stays_float32_and_matches_float64(self, activation):
        params, flat = self.nets()
        x = np.random.default_rng(2).standard_normal((13, 30))
        expected, _ = forward(params, x, activation)
        got, activations = forward(flat, x.astype(np.float32), activation)
        assert got.dtype == np.float32
        assert all(a.dtype == np.float32 for a in activations)
        np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("activation", ["sigmoid", "tanh", "relu"])
    def test_float32_network_maps_a_float64_batch_as_its_float64_copy(self, activation):
        # a fitted kernel is float32; its float64 copy maps float64 scans,
        # each layer as the float32 weights widened to float64
        _, flat = self.nets()
        net = flat.astype(np.float64)
        x = np.random.default_rng(3).standard_normal((13, 30))
        before = flat.flat.tobytes()
        got, activations = forward(net, x, activation)
        expected_acts = [x]
        for m, (w, b) in enumerate(flat.layers):
            h = expected_acts[-1] @ w.astype(np.float64).T
            h += b
            last = m == len(flat.layers) - 1
            expected_acts.append(h if last else _apply_activation(h, Activation(activation)))
        assert activations[0] is x
        assert got.dtype == np.float64 and all(a.dtype == np.float64 for a in activations)
        for a, e in zip(activations, expected_acts, strict=True):
            np.testing.assert_array_equal(a, e)
        assert flat.flat.tobytes() == before

    @pytest.mark.parametrize("activation", ["sigmoid", "tanh", "relu"])
    def test_float32_network_maps_a_float64_batch_in_float32(self, activation):
        # a network computes in its own dtype: the batch is cast to float32 first
        _, flat = self.nets()
        x = np.random.default_rng(3).standard_normal((13, 30))
        got, activations = forward(flat, x, activation)
        expected, expected_acts = forward(flat, x.astype(np.float32), activation)
        assert got.dtype == np.float32 and all(a.dtype == np.float32 for a in activations)
        assert got.tobytes() == expected.tobytes()
        for a, e in zip(activations, expected_acts, strict=True):
            assert a.tobytes() == e.tobytes()

    def test_standardization_stays_float32_and_matches_float64(self):
        z = np.random.default_rng(4).standard_normal((40, 7)) * 3.0 + 1.0
        g = np.random.default_rng(5).standard_normal((40, 7))
        y, scale, _ = standardize_outputs(z)
        y32, scale32, _ = standardize_outputs(z.astype(np.float32))
        back32 = standardize_backward(g.astype(np.float32), y32, scale32)
        assert y32.dtype == scale32.dtype == back32.dtype == np.float32
        np.testing.assert_allclose(y32, y, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(back32, standardize_backward(g, y, scale), rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("activation", ["sigmoid", "tanh", "relu"])
    def test_gradient_into_a_float32_buffer_matches_allocating_backprop(self, activation):
        params, flat = self.nets()
        rng = np.random.default_rng(12)
        x = rng.standard_normal((13, 30))
        grad_output = rng.standard_normal((13, 7))
        _, activations = forward(params, x, activation)
        expected = _allocating_backprop(params, activations, grad_output, activation)
        _, activations32 = forward(flat, x.astype(np.float32), activation)
        buffer = NetworkParameters(None, self.sizes, np.float32)
        got = backprop_output_grad(
            flat, activations32, grad_output.astype(np.float32), activation, out=buffer
        )
        assert got is buffer and buffer.flat.dtype == np.float32
        for (gw, gb), (ew, eb) in zip(buffer.layers, expected):
            scale = max(np.max(np.abs(ew)), np.max(np.abs(eb)))
            np.testing.assert_allclose(gw, ew, rtol=0, atol=1e-5 * scale)
            np.testing.assert_allclose(gb, eb, rtol=0, atol=1e-5 * scale)


class TestActivationContract:
    def test_sigmoid_at_zero(self):
        from drsl.kernel_net import _apply_activation
        from drsl.data_model import Activation

        assert _apply_activation(np.array([0.0]), Activation.SIGMOID)[0] == 0.5

    def test_sigmoid_matches_the_logistic_without_overflow(self):
        import warnings

        from drsl.kernel_net import _apply_activation
        from drsl.data_model import Activation

        z = np.random.default_rng(0).standard_normal((50, 200)) * 10.0
        # the logistic split by sign, so that no exp overflows either
        ez = np.exp(-np.abs(z))
        logistic = np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the activation overwrites its argument, so z itself stays for the checks
            work = z.copy()
            got = _apply_activation(work, Activation.SIGMOID)
            ends = _apply_activation(np.array([-1000.0, 1000.0]), Activation.SIGMOID)
        assert got is work
        np.testing.assert_allclose(got, logistic, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(ends, [0.0, 1.0])
        assert z.min() < -20 and z.max() > 20

    def test_tanh_at_zero(self):
        from drsl.kernel_net import _apply_activation
        from drsl.data_model import Activation

        assert _apply_activation(np.array([0.0]), Activation.TANH)[0] == 0.0

    def test_relu_clamps_negatives(self):
        from drsl.kernel_net import _apply_activation
        from drsl.data_model import Activation

        z = np.array([-3.0, -0.5, 0.0, 2.0])
        np.testing.assert_array_equal(
            _apply_activation(z, Activation.RELU), [0.0, 0.0, 0.0, 2.0]
        )


class TestOutputStandardization:
    def test_zero_mean_unit_variance(self):
        z = np.random.default_rng(0).standard_normal((30, 4)) * [1.0, 5.0, 0.1, 20.0] + 3.0
        y, _, mean = standardize_outputs(z)
        np.testing.assert_allclose(mean, z.mean(axis=0), rtol=1e-15)
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-12)
        # eps = 1e-8 under the square root: var(y) = var(z) / (var(z) + eps)
        np.testing.assert_allclose(y.var(axis=0), z.var(axis=0) / (z.var(axis=0) + 1e-8))

    def test_float32_outputs_near_a_large_mean_are_centred(self):
        # a sigmoid output's batch std can be 0.0074 about a mean of -1.24:
        # one float32 centring pass leaves a shift that every row shares
        rng = np.random.default_rng(7)
        z = (-1.24 + 0.0074 * rng.standard_normal((9, 6))).astype(np.float32)
        y, _, mean = standardize_outputs(z)
        assert y.dtype == mean.dtype == np.float32
        assert np.max(np.abs(y.mean(axis=0, dtype=np.float64))) < 1e-6
        np.testing.assert_allclose(mean, z.astype(np.float64).mean(axis=0), rtol=1e-7)

    def test_constant_feature_maps_to_zero(self):
        z = np.column_stack([np.full(5, 2.0), np.arange(5.0)])
        y = standardize_outputs(z)[0]
        np.testing.assert_array_equal(y[:, 0], 0.0)

    @pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
    def test_gradient_matches_finite_differences(self, activation):
        rng = np.random.default_rng(7)
        # in float64: a float32 theta would round away most of each nudge
        params = init_params((5, 4, 4, 3), "scaled_normal", rng=np.random.default_rng(11))
        params = params.astype(np.float64)
        x = rng.standard_normal((9, 5))
        t = rng.standard_normal((9, 3))

        def loss(p):
            y = standardize_outputs(forward(p, x, activation)[0])[0]
            return float(np.sum((y - t) ** 2))

        z, activations = forward(params, x, activation)
        y, scale, _ = standardize_outputs(z)
        grads = backprop_output_grad(
            params, activations, standardize_backward(2.0 * (y - t), y, scale), activation,
            NetworkParameters(None, params.layer_sizes),
        )
        h = 1e-6
        for li in range(len(params.layers)):
            for arr_idx in range(2):
                for pos in np.ndindex(params.layers[li][arr_idx].shape):
                    layers = [(w.copy(), b.copy()) for w, b in params.layers]
                    layers[li][arr_idx][pos] += h
                    plus = loss(NetworkParameters(tuple(layers), params.layer_sizes))
                    layers[li][arr_idx][pos] -= 2 * h
                    minus = loss(NetworkParameters(tuple(layers), params.layer_sizes))
                    fd = (plus - minus) / (2 * h)
                    got = grads.layers[li][arr_idx][pos]
                    assert abs(got - fd) / max(1.0, abs(fd)) < 1e-6

    def test_backprop_is_output_grad_of_squared_error(self):
        # the training step: the standardized squared error's output gradient
        # through backprop, unscaled by the loss weight, in theta's dtype
        rng = np.random.default_rng(3)
        params = init_params((4, 3, 2), "scaled_normal", rng=np.random.default_rng(1))
        x = rng.standard_normal((6, 4))
        d, b = rng.standard_normal((6, 3)), rng.standard_normal((3, 2))
        # the targets in the step's feature-major layout, so that the float64
        # loss sums in the same order
        t = (b.T @ d.T).T
        for dtype in (np.float64, np.float32):
            theta = params.astype(dtype)
            got = NetworkParameters(None, params.layer_sizes, dtype)
            loss = _batch_gradient(theta, x.astype(dtype), d, b, "tanh", 2.5, got)
            out, activations = forward(theta, x.astype(dtype), "tanh")
            y, scale, _ = standardize_outputs(out)
            grad_y = standardize_backward(2.0 * (y - t.astype(dtype)), y, scale)
            expected = backprop_output_grad(theta, activations, grad_y, "tanh",
                                            NetworkParameters(None, params.layer_sizes, dtype))
            assert got.flat.dtype == dtype
            assert loss == 2.5 * float(np.sum((y - t) ** 2))
            np.testing.assert_array_equal(got.flat, expected.flat)

    def test_fold_reproduces_reference_standardization(self):
        rng = np.random.default_rng(5)
        params = init_params((6, 5, 4), "paper_normal", rng=np.random.default_rng(2))
        params = params.astype(np.float64)
        ref = rng.standard_normal((20, 6))
        other = rng.standard_normal((7, 6))
        folded = fold_output_standardization(params, ref, "tanh")
        expected = standardize_outputs(forward(params, ref, "tanh")[0])[0]
        np.testing.assert_allclose(forward(folded, ref, "tanh")[0], expected, atol=1e-10)
        # the same affine map applies to scans outside the reference
        z_ref = forward(params, ref, "tanh")[0]
        _, scale, _ = standardize_outputs(z_ref)
        np.testing.assert_allclose(
            forward(folded, other, "tanh")[0],
            (forward(params, other, "tanh")[0] - z_ref.mean(axis=0)) / scale,
            atol=1e-10,
        )

    def test_fold_of_a_float32_kernel_is_its_frozen_float64_copy_rescaled(self):
        # CV folds the float32 adapted kernel over float64 adaptation scans
        rng = np.random.default_rng(5)
        params = init_params((6, 5, 4, 3), "paper_normal", rng=np.random.default_rng(2))
        ref = rng.standard_normal((20, 6))
        before = params.flat.tobytes()
        folded = fold_output_standardization(params, ref, "tanh")
        wide = params.astype(np.float64)
        _, scale, mean = standardize_outputs(forward(wide, ref, "tanh")[0])
        w, b = wide.layers[-1]
        expected = (*wide.layers[:-1], (w / scale[:, None], (b - mean) / scale))
        assert folded.flat.dtype == np.float64 and folded.layer_sizes == params.layer_sizes
        for a in (folded.flat, *(a for layer in folded.layers for a in layer)):
            assert not a.flags.writeable
        for (fw, fb), (ew, eb) in zip(folded.layers, expected, strict=True):
            assert fw.tobytes() == ew.tobytes() and fb.tobytes() == eb.tobytes()
        assert params.flat.tobytes() == before and params.flat.flags.writeable
