import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsl.data_model import (
    DesignMatrix,
    FitConfig,
    NetworkParameters,
    SignatureMatrix,
    SubjectData,
)
from drsl.errors import DrslError, NonFinite, ShapeMismatch
from drsl.kernel_net import forward, init_params, standardize_outputs
from drsl.baselines import fit_lrsl
from drsl.optimizer import (
    ADAM_BLOCK,
    ADAM_EPSILON,
    ADAM_MU1,
    ADAM_MU2,
    B_SOLVE_ITERATIONS,
    AdamState,
    SubjectFit,
    _data_term,
    _elastic_net,
    _kkt_violation,
    adam_step,
    fit,
    fit_kernel_params,
    fit_subject,
    objective,
    regularizer,
    sample_batch,
    seed_stream,
    signature_step,
    subject_stream,
)


class TestRegularizer:
    def test_zero_matrix(self):
        assert regularizer(np.zeros((3, 4)), alpha=10.0) == 0.0

    def test_single_entry(self):
        assert regularizer(np.array([[1.0]]), alpha=10.0) == pytest.approx(110.0)

    def test_two_entries(self):
        assert regularizer(np.array([[0.5, -0.5]]), alpha=10.0) == pytest.approx(60.0)

    def test_alpha_below_one_rejected(self):
        with pytest.raises(DrslError, match="alpha must be >= 1 and finite, got 0.9"):
            regularizer(np.ones((2, 2)), alpha=0.9)

    @pytest.mark.parametrize("penalty", [regularizer])
    def test_nan_alpha_rejected(self, penalty):
        with pytest.raises(DrslError, match="alpha must be >= 1 and finite, got nan"):
            penalty(np.ones((2, 2)), alpha=float("nan"))

    def test_even(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((4, 6))
        assert regularizer(b, 10.0) == regularizer(-b, 10.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_midpoint_convex(self, seed):
        rng = np.random.default_rng(seed)
        b1 = rng.standard_normal((3, 5)) * 3
        b2 = rng.standard_normal((3, 5)) * 3
        mid = regularizer((b1 + b2) / 2, 10.0)
        assert mid <= (regularizer(b1, 10.0) + regularizer(b2, 10.0)) / 2 + 1e-12

    def test_strictly_increasing_in_magnitude(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((3, 4))
        base = regularizer(b, 10.0)
        for _ in range(20):
            k, j = rng.integers(0, 3), rng.integers(0, 4)
            bumped = b.copy()
            bumped[k, j] += np.sign(bumped[k, j]) * 0.1 if bumped[k, j] else 0.1
            assert regularizer(bumped, 10.0) > base


class TestSignatureStep:
    def make(self, seed=0, n=60, p=3, v=5):
        rng = np.random.default_rng(seed)
        return (
            rng.standard_normal((p, v)),
            np.abs(rng.standard_normal((n, p))),
            rng.standard_normal((n, v)),
        )

    def test_zero_penalty_solve_reaches_least_squares(self):
        # the solver under signature_step, run as the LASSO baseline runs it at alpha 0
        b, d, f = self.make()
        got = _elastic_net(d.T @ d, d.T @ f, b, 0.0, 0.0, B_SOLVE_ITERATIONS)
        ols, *_ = np.linalg.lstsq(d, f, rcond=None)
        np.testing.assert_allclose(got, ols, rtol=0, atol=1e-10)

    def test_result_does_not_depend_on_the_warm_start(self):
        # the elastic net is strictly convex, so every start reaches one B
        b, d, f = self.make(seed=1)
        for alpha in (1.0, 10.0):
            from_zero = signature_step(np.zeros_like(b), d, f, alpha)
            np.testing.assert_allclose(
                signature_step(100.0 * b, d, f, alpha), from_zero, rtol=0, atol=1e-10
            )

    @pytest.mark.parametrize("scale", [1e-2, 1.0, 1e6])
    def test_never_increases_the_batch_objective(self, scale):
        for seed in range(10):
            b, d, f = self.make(seed=seed, n=12)
            b = scale * b
            for alpha in (1.0, 10.0):
                before = objective(b, d, f, alpha)
                after = objective(signature_step(b, d, f, alpha), d, f, alpha)
                assert after <= before * (1 + 1e-12)

    def test_iterates_converge_to_the_stationary_point(self):
        for seed in range(5):
            b, d, f = self.make(seed=seed)
            for alpha in (1.0, 3.0, 10.0):
                got = signature_step(b, d, f, alpha)
                assert _kkt_violation(got, d, f, alpha) < 1e-9
        # alpha = 10 on this run zeroes some entries and keeps others
        assert 0 < np.sum(got == 0) < got.size

    def test_weight_scales_the_data_term(self):
        b, d, f = self.make(seed=3)
        data = float(np.sum((f - d @ b) ** 2))
        assert _data_term(f, d @ b, 2.5) == pytest.approx(2.5 * data)


class TestObjective:
    def test_zero_everything(self):
        assert objective(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros((4, 3)), 10.0) == 0.0

    def test_exact_fit_leaves_regularizer(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((2, 3))
        d = rng.standard_normal((5, 2))
        f = d @ b
        assert objective(b, d, f, 10.0) == pytest.approx(regularizer(b, 10.0))

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((3, 4))
        d = rng.standard_normal((6, 3))
        f = rng.standard_normal((6, 4))
        data = sum(
            (f[i, j] - sum(d[i, k] * b[k, j] for k in range(3))) ** 2
            for i in range(6)
            for j in range(4)
        )
        reg = sum(
            10.0 * abs(b[k, j]) + 100.0 * b[k, j] ** 2 for k in range(3) for j in range(4)
        )
        assert objective(b, d, f, 10.0) == pytest.approx(data + reg, abs=1e-10)


class TestSampleBatch:
    def test_full_batch_is_permutation(self):
        rng = np.random.default_rng(0)
        idx = sample_batch(rng, 10, 10)
        assert sorted(idx.tolist()) == list(range(10))

    def test_deterministic_given_state(self):
        a = sample_batch(np.random.default_rng(5), 100, 20)
        b = sample_batch(np.random.default_rng(5), 100, 20)
        np.testing.assert_array_equal(a, b)

    def test_distinct_indices(self):
        idx = sample_batch(np.random.default_rng(1), 50, 30)
        assert len(set(idx.tolist())) == 30

    def test_batch_too_large(self):
        with pytest.raises(ShapeMismatch, match="batch size 6 exceeds 5 time points"):
            sample_batch(np.random.default_rng(0), 5, 6)

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(1234)
        t, n, draws = 1000, 50, 10_000
        counts = np.zeros(t)
        for _ in range(draws):
            counts[sample_batch(rng, t, n)] += 1
        expected = draws * n / t
        sd = np.sqrt(draws * (n / t) * (1 - n / t))
        assert np.all(np.abs(counts - expected) < 4 * sd)


def _reference_adam(theta, delta, gamma, g, k, eta, mu1, mu2, eps):
    """Textbook functional Adam on one array (Kingma & Ba, Algorithm 1);
    returns new (theta, delta, gamma), the moments as the paper defines them."""
    delta = mu1 * delta + (1.0 - mu1) * g
    gamma = mu2 * gamma + (1.0 - mu2) * g * g
    denom = np.sqrt(gamma / (1.0 - mu2**k)) + eps
    return theta - eta * (delta / (1.0 - mu1**k)) / denom, delta, gamma


def _scaled_adam(theta, delta, gamma, g, k, eta, mu1, mu2, eps):
    """Functional Adam on moments divided by (1 - mu), in adam_step's order
    of operations; returns new (theta, delta, gamma), the moments scaled."""
    c1, c2 = 1.0 - mu1**k, 1.0 - mu2**k
    step = eta * (1.0 - mu1) * math.sqrt(c2) / (c1 * math.sqrt(1.0 - mu2))
    eps_scaled = eps * math.sqrt(c2) / math.sqrt(1.0 - mu2)
    delta = mu1 * delta + g
    gamma = mu2 * gamma + g * g
    return theta - delta / (np.sqrt(gamma) + eps_scaled) * step, delta, gamma


class TestAdamStep:
    def make(self, seed=0, sizes=(3, 4, 4, 2)):
        params = init_params(sizes, "scaled_normal", rng=np.random.default_rng(seed))
        params = params.astype(np.float64)
        return params, AdamState(params)

    def test_zero_gradient_leaves_parameters(self):
        params, state = self.make()
        before = params.flat.copy()
        adam_step(state, NetworkParameters(None, params.layer_sizes), params, 1e-3)
        assert state.step_count == 1
        np.testing.assert_array_equal(params.flat, before)

    def test_first_step_is_signed_learning_rate(self):
        params, state = self.make()
        before = [(w.copy(), b.copy()) for w, b in params.layers]
        grads = NetworkParameters(None, params.layer_sizes)
        for gw, gb in grads.layers:
            gw[...] = 5.0
            gb[...] = -5.0
        adam_step(state, grads, params, 1e-3)
        for (w0, b0), (w1, b1) in zip(before, params.layers):
            np.testing.assert_allclose(w1 - w0, -1e-3, rtol=1e-6)
            np.testing.assert_allclose(b1 - b0, 1e-3, rtol=1e-6)

    def test_three_steps_match_scalar_oracle(self):
        # scalar Adam recurrence, constant gradient g
        g, eta, mu1, mu2, eps = 2.5, 1e-2, ADAM_MU1, ADAM_MU2, ADAM_EPSILON
        theta, delta, gamma = 0.3, 0.0, 0.0
        expected = []
        for k in range(1, 4):
            delta = mu1 * delta + (1 - mu1) * g
            gamma = mu2 * gamma + (1 - mu2) * g * g
            theta = theta - eta * (delta / (1 - mu1**k)) / (
                np.sqrt(gamma / (1 - mu2**k)) + eps
            )
            expected.append(theta)

        sizes = (1, 1, 1)
        params, grads = NetworkParameters(None, sizes), NetworkParameters(None, sizes)
        params.flat[:] = 0.3
        grads.flat[:] = g
        state = AdamState(params)
        for k in range(3):
            adam_step(state, grads, params, eta)
            assert params.layers[0][0][0, 0] == pytest.approx(expected[k], abs=1e-12)

    def test_bit_identical_to_functional_reference_across_blocks(self):
        # 132,960 parameters: the block boundary at ADAM_BLOCK falls inside
        # the first weight matrix, the first layer boundary inside block 2
        sizes = (400, 200, 250, 10)
        params, state = self.make(seed=3, sizes=sizes)
        n_first = sizes[1] * (sizes[0] + 1)
        assert ADAM_BLOCK < sizes[1] * sizes[0] < n_first < 2 * ADAM_BLOCK < params.flat.size
        arrays = [a for layer in params.layers for a in layer]
        ref = [[a.copy(), np.zeros_like(a), np.zeros_like(a)] for a in arrays]
        grads = NetworkParameters(None, sizes)
        rng = np.random.default_rng(8)
        eta, mu1, mu2, eps = 1e-2, ADAM_MU1, ADAM_MU2, ADAM_EPSILON
        for k in range(1, 6):
            grads.flat[:] = rng.standard_normal(grads.flat.size) * 10.0 ** rng.uniform(-4, 2)
            adam_step(state, grads, params, eta)
            g_arrays = [a for layer in grads.layers for a in layer]
            for entry, g in zip(ref, g_arrays):
                entry[:] = _scaled_adam(*entry, g, k, eta, mu1, mu2, eps)
        # theta, delta and gamma are flat, in the order of params.layers
        bounds = np.cumsum([entry[0].size for entry in ref])[:-1]
        for got, i in ((params.flat, 0), (state.delta, 1), (state.gamma, 2)):
            for a, entry in zip(np.split(got, bounds), ref):
                np.testing.assert_array_equal(a, np.ravel(entry[i]))
        assert state.step_count == 5

    def test_mismatched_buffers_raise(self):
        params, state = self.make()
        with pytest.raises(ShapeMismatch):
            adam_step(state, NetworkParameters(None, (3, 4, 2)), params, 1e-3)

    def test_float32_buffers_match_functional_reference_across_blocks(self):
        # as the bit-identical test above, with float32 theta, gradient and
        # moments against the float64 textbook reference: theta as written,
        # the moments once multiplied back by (1 - mu)
        sizes = (400, 200, 250, 10)
        params64 = init_params(sizes, "scaled_normal", rng=np.random.default_rng(3))
        params = params64.astype(np.float32)
        state = AdamState(params)
        ref = [[a.copy(), np.zeros_like(a), np.zeros_like(a)]
               for layer in params64.layers for a in layer]
        grads = NetworkParameters(None, sizes, np.float32)
        rng = np.random.default_rng(8)
        eta, mu1, mu2, eps = 1e-2, ADAM_MU1, ADAM_MU2, ADAM_EPSILON
        for k in range(1, 6):
            grads.flat[:] = rng.standard_normal(grads.flat.size) * 10.0 ** rng.uniform(-4, 2)
            adam_step(state, grads, params, eta)
            for buffer in (params.flat, grads.flat, state.delta, state.gamma):
                assert buffer.dtype == np.float32
            g_arrays = [a.astype(np.float64) for layer in grads.layers for a in layer]
            for entry, g in zip(ref, g_arrays):
                entry[:] = _reference_adam(*entry, g, k, eta, mu1, mu2, eps)
        # each array against its own reference, as scales differ by layer
        bounds = np.cumsum([entry[0].size for entry in ref])[:-1]
        moments = (params.flat, (1.0 - mu1) * state.delta.astype(np.float64),
                   (1.0 - mu2) * state.gamma.astype(np.float64))
        for i, got in enumerate(moments):
            for a, entry in zip(np.split(got, bounds), ref):
                e = np.ravel(entry[i])
                np.testing.assert_allclose(a, e, rtol=1e-5, atol=1e-6 * np.max(np.abs(e)))

    def test_fifty_float64_steps_match_textbook_adam_across_blocks(self):
        # the scaled moments are the same Adam rounded differently: over 50
        # float64 steps, across an ADAM_BLOCK boundary, theta and the moments
        # multiplied back by (1 - mu) stay within rtol 1e-12 and an atol of
        # 1e-12 times the largest reference magnitude of the textbook
        # recurrence, a bound fixed before this test first ran
        sizes = (400, 200, 250, 10)
        params, state = self.make(seed=5, sizes=sizes)
        assert ADAM_BLOCK < params.flat.size
        ref = [params.flat.copy(), np.zeros(params.flat.size), np.zeros(params.flat.size)]
        grads = NetworkParameters(None, sizes)
        rng = np.random.default_rng(11)
        eta, mu1, mu2, eps = 1e-2, ADAM_MU1, ADAM_MU2, ADAM_EPSILON
        for k in range(1, 51):
            grads.flat[:] = rng.standard_normal(grads.flat.size) * 10.0 ** rng.uniform(-4, 2)
            adam_step(state, grads, params, eta)
            ref[:] = _reference_adam(*ref, grads.flat.copy(), k, eta, mu1, mu2, eps)
        got = (params.flat, (1.0 - mu1) * state.delta, (1.0 - mu2) * state.gamma)
        for a, e in zip(got, ref):
            np.testing.assert_allclose(a, e, rtol=1e-12, atol=1e-12 * np.max(np.abs(e)))
        assert state.step_count == 50

    def test_mismatched_dtypes_raise(self):
        params, state = self.make()
        with pytest.raises(ShapeMismatch):
            adam_step(state, NetworkParameters(None, params.layer_sizes, np.float32), params, 1e-3)


def make_subject(t=60, v=8, p=3, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    d = np.abs(rng.standard_normal((t, p)))
    b_true = rng.standard_normal((p, v))
    x = d @ b_true + noise * rng.standard_normal((t, v))
    data = SubjectData(f"s{seed}", x)
    design = DesignMatrix(conditions=tuple(f"c{k}" for k in range(p)), values=d)
    return data, design


class TestFitSubject:
    def test_m2_zero_returns_init_unchanged(self):
        # theta stays at its start; B is still solved for that kernel
        data, design = make_subject()
        cfg = FitConfig(m2=0, batch_size=10, layer_sizes=(8, 6, 5, 4))
        start = init_params((8, 6, 5, 4), cfg.init, rng=np.random.default_rng(2))
        b0 = np.ones((3, 4))
        out = fit_subject(data, design, SignatureMatrix(b0), cfg, initial_params=start)
        assert out.loss_history.size == 0
        for (w1, c1), (w2, c2) in zip(out.params.layers, start.layers):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(c1, c2)
        # the run maps in float32 and is standardized widened to float64
        z = forward(start.astype(np.float32), data.responses.astype(np.float32))[0]
        f = standardize_outputs(z.astype(np.float64))[0]
        np.testing.assert_array_equal(out.mapped_responses, f)
        np.testing.assert_array_equal(
            out.signatures.values, signature_step(b0, design.values, f, cfg.alpha)
        )

    def test_fixed_seed_bit_identical(self):
        data, design = make_subject()
        b0 = SignatureMatrix(np.zeros((3, 4)))
        cfg = FitConfig(m1=1, m2=20, batch_size=10, layer_sizes=(8, 6, 5, 4), seed=9)
        one = fit_subject(data, design, b0, cfg)
        two = fit_subject(data, design, b0, cfg)
        np.testing.assert_array_equal(one.signatures.values, two.signatures.values)
        np.testing.assert_array_equal(one.loss_history, two.loss_history)
        for (w1, b1), (w2, b2) in zip(one.params.layers, two.params.layers):
            np.testing.assert_array_equal(w1, w2)

    def test_alpha_dominated_regime_shrinks_b(self):
        # alpha changes no kernel step, so every fit maps the run alike and
        # only the B solve sees alpha: ||B|| falls with it, to exactly 0
        data, design = make_subject(noise=0.01)
        b0 = SignatureMatrix(np.random.default_rng(3).standard_normal((3, 4)))
        fits = [
            fit_subject(data, design, b0, FitConfig(
                alpha=alpha, m2=5, batch_size=20, layer_sizes=(8, 6, 5, 4), seed=4
            ))
            for alpha in (1.0, 2.0, 4.0, 8.0, 1e4)
        ]
        for fit_ in fits[1:]:
            np.testing.assert_array_equal(fit_.mapped_responses, fits[0].mapped_responses)
        norms = [np.linalg.norm(f.signatures.values) for f in fits]
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert norms[-2] > 0.0 and norms[-1] == 0.0

    def test_batch_too_large(self):
        data, design = make_subject(t=20)
        cfg = FitConfig(batch_size=50, layer_sizes=(8, 6, 5, 4))
        with pytest.raises(ShapeMismatch, match="batch size 50 exceeds 20 time points"):
            fit_subject(data, design, SignatureMatrix(np.zeros((3, 4))), cfg)

    def test_runaway_eta_raises_at_the_step(self):
        # B = 0 sets the kernel no target, so start from a nonzero B
        data, design = make_subject()
        cfg = FitConfig(m2=50, batch_size=20, layer_sizes=(8, 6, 5, 4), eta=1e306, seed=1)
        with np.errstate(all="ignore"), pytest.raises(
            NonFinite, match=r"subject 's0' diverged at outer iteration 3, step \d+"
        ):
            fit_subject(data, design, SignatureMatrix(np.ones((3, 4))), cfg, outer=3)

    def test_non_finite_b_solve_raises(self, monkeypatch):
        import drsl.optimizer as opt

        data, design = make_subject()
        cfg = FitConfig(m2=0, batch_size=20, layer_sizes=(8, 6, 5, 4), seed=1)
        monkeypatch.setattr(
            opt, "forward", lambda params, x, act: (np.full((x.shape[0], 4), np.inf), None)
        )
        with np.errstate(all="ignore"), pytest.raises(
            NonFinite, match=r"subject 's0' diverged at outer iteration 2, B solve"
        ):
            fit_subject(data, design, SignatureMatrix(np.ones((3, 4))), cfg, outer=2)

    def test_b_meets_the_elastic_net_kkt_conditions_on_the_full_run(self):
        data, design = make_subject()
        b0 = np.random.default_rng(5).standard_normal((3, 4))
        for alpha in (1.0, 10.0):
            cfg = FitConfig(alpha=alpha, m2=10, batch_size=20, layer_sizes=(8, 6, 5, 4), seed=1)
            out = fit_subject(data, design, SignatureMatrix(b0), cfg)
            # the run's standardized kernel outputs, mapped here from the
            # result as the fit maps them: in float32, standardized in float64
            z = forward(out.params, data.responses.astype(np.float32))[0]
            f = standardize_outputs(z.astype(np.float64))[0]
            b = out.signatures.values
            assert _kkt_violation(b, design.values, f, alpha) < 1e-9
            # the B solve never ends above its warm start on the full run
            assert objective(b, design.values, f, alpha) <= objective(b0, design.values, f, alpha)

    def test_adaptation_runaway_eta_raises_at_the_step(self):
        data, design = make_subject()
        cfg = FitConfig(m2=50, batch_size=20, layer_sizes=(8, 6, 5, 4), eta=1e306, seed=1)
        sig = SignatureMatrix(np.ones((3, 4)))
        with np.errstate(all="ignore"), pytest.raises(
            NonFinite, match=r"subject 's0' diverged at kernel adaptation, step \d+"
        ):
            fit_kernel_params(data, design, sig, cfg)

    @pytest.mark.parametrize("batch", [60, 20])
    def test_adaptation_keeps_b_and_logs_the_weighted_objective(self, monkeypatch, batch):
        import drsl.optimizer as opt

        data, design = make_subject(t=60)
        cfg = FitConfig(m2=12, batch_size=batch, layer_sizes=(8, 6, 5, 4), seed=2)
        sig = SignatureMatrix(
            np.random.default_rng(3).standard_normal((3, 4)), design.conditions
        )
        batches, outputs = [], []
        sample, standardize = opt.sample_batch, opt.standardize_outputs

        def spy_sample(*args):
            batches.append(sample(*args))
            return batches[-1]

        def spy_standardize(z):
            fb, scale, mean = standardize(z)
            outputs.append(fb.copy())
            return fb, scale, mean

        monkeypatch.setattr(opt, "sample_batch", spy_sample)
        monkeypatch.setattr(opt, "standardize_outputs", spy_standardize)
        out = fit_kernel_params(data, design, sig, cfg)

        np.testing.assert_array_equal(out.signatures.values, sig.values)
        assert out.signatures.conditions == design.conditions
        assert len(batches) == len(outputs) == cfg.m2
        weight = data.n_scans / cfg.batch_size
        expected = [
            weight * float(np.sum((fb.astype(np.float64) - design.values[idx] @ sig.values) ** 2))
            + regularizer(sig, cfg.alpha)
            for idx, fb in zip(batches, outputs)
        ]
        np.testing.assert_allclose(out.loss_history, expected, rtol=1e-12)

    def test_initial_params_untouched_and_result_read_only(self):
        data, design = make_subject()
        cfg = FitConfig(m2=15, batch_size=20, layer_sizes=(8, 6, 5, 4), seed=3)
        start = init_params((8, 6, 5, 4), cfg.init, rng=np.random.default_rng(4))
        before = [a.copy() for layer in start.layers for a in layer]
        b0 = SignatureMatrix(np.zeros((3, 4)))
        out = fit_subject(data, design, b0, cfg, initial_params=start)
        adapted = fit_kernel_params(data, design, out.signatures, cfg)
        for a, b in zip((a for layer in start.layers for a in layer), before):
            np.testing.assert_array_equal(a, b)
        for params in (out.params, adapted.params):
            for a in (a for layer in params.layers for a in layer):
                assert not a.flags.writeable
                assert not any(np.shares_memory(a, s) for layer in start.layers for s in layer)
                with pytest.raises(ValueError):
                    a[...] = 0.0

    def test_mapped_responses_are_read_only(self):
        data, design = make_subject()
        cfg = FitConfig(m2=5, batch_size=20, layer_sizes=(8, 6, 5, 4), seed=1)
        deep = fit_subject(data, design, SignatureMatrix(np.zeros((3, 4))), cfg)
        linear = fit_lrsl([(data, design)], cfg).subject_fits[0]
        for mapped in (deep.mapped_responses, linear.mapped_responses):
            assert not mapped.flags.writeable
            with pytest.raises(ValueError):
                mapped[0, 0] = 1.0
        # the fit freezes a view: the caller's own array stays writable
        own = np.zeros((4, 2))
        SubjectFit(deep.signatures, None, np.empty(0), own)
        assert own.flags.writeable

    def test_kernel_trains_and_is_returned_in_float32(self, monkeypatch):
        import drsl.optimizer as opt

        seen = []
        step = opt.adam_step

        def spy_adam(state, grads, params, *args):
            seen.append((params.flat.dtype, grads.flat.dtype,
                         state.delta.dtype, state.gamma.dtype, args))
            return step(state, grads, params, *args)

        monkeypatch.setattr(opt, "adam_step", spy_adam)
        data, design = make_subject()
        cfg = FitConfig(m2=4, batch_size=20, layer_sizes=(8, 6, 5, 4), seed=1)
        out = fit_subject(data, design, SignatureMatrix(np.ones((3, 4))), cfg)
        # Adam's constants are Kingma & Ba's, the same for every fit
        assert (ADAM_MU1, ADAM_MU2, ADAM_EPSILON) == (0.9, 0.999, 1e-8)
        assert seen == [(*(np.float32,) * 4, (cfg.eta,))] * cfg.m2
        # theta is the float32 array it trained in, frozen; the mapped run is float64
        assert not out.params.flat.flags.writeable
        for a in (out.params.flat, *(a for layer in out.params.layers for a in layer)):
            assert a.dtype == np.float32 and not a.flags.writeable
        assert out.mapped_responses.dtype == out.signatures.values.dtype == np.float64

    def test_mapped_run_is_standardized_in_float64_at_500_outputs(self):
        # a float32 standardization of a 500-wide map leaves column means
        # near 1e-8, which the paper-fit check (mean <= 1e-9) refuses
        data, design = make_subject(t=300, v=500)
        cfg = FitConfig(m2=3, batch_size=50, layer_sizes=(500, 64, 64, 500), seed=2)
        mapped = fit_subject(data, design, SignatureMatrix(np.ones((3, 500))), cfg).mapped_responses
        assert mapped.dtype == np.float64
        assert np.max(np.abs(mapped.mean(axis=0))) <= 1e-12
        assert np.max(np.abs(mapped.var(axis=0) - 1.0)) <= 1e-3

    def test_loss_history_length(self):
        data, design = make_subject()
        cfg = FitConfig(m2=17, batch_size=20, layer_sizes=(8, 6, 5, 4), seed=1)
        out = fit_subject(data, design, SignatureMatrix(np.zeros((3, 4))), cfg)
        assert out.loss_history.shape == (17,)
        assert np.all(np.isfinite(out.loss_history))


class TestGroupFit:
    def test_single_subject_group_equals_subject(self):
        pair = make_subject(seed=5)
        cfg = FitConfig(m1=2, m2=10, batch_size=20, seed=7, layer_sizes=(8, 6, 5, 4))
        group = fit([pair], cfg)
        np.testing.assert_allclose(
            group.signatures.values,
            group.subject_fits[0].signatures.values,
            atol=0,
        )

    def test_group_mean_invariant(self):
        pairs = [make_subject(seed=s) for s in range(3)]
        cfg = FitConfig(m1=2, m2=15, batch_size=20, seed=3, layer_sizes=(8, 6, 5, 4))
        group = fit(pairs, cfg)
        stacked = np.mean([f.signatures.values for f in group.subject_fits], axis=0)
        np.testing.assert_allclose(group.signatures.values, stacked, atol=1e-12)

    def test_zero_outer_iterations_returns_random_init(self):
        pairs = [make_subject(seed=1)]
        cfg = FitConfig(m1=0, m2=10, batch_size=20, seed=3, layer_sizes=(8, 6, 5, 4))
        group = fit(pairs, cfg)
        assert group.subject_fits == ()
        assert group.signatures.values.shape == (3, 4)

    def test_condition_mismatch(self):
        a = make_subject(seed=1)
        data, design = make_subject(seed=2)
        bad_design = DesignMatrix(
            conditions=("x0", "x1", "x2"), values=design.values
        )
        cfg = FitConfig(m1=1, m2=5, batch_size=10, layer_sizes=(8, 6, 5, 4))
        with pytest.raises(ShapeMismatch, match=r"has conditions \('x0', 'x1', 'x2'\)"):
            fit([a, (data, bad_design)], cfg)

    def test_large_eta_deep_fit_converges_or_raises(self):
        # the criterion-5b workload at eta = 1e-2; plain SGD on B ran away
        # to ||B|| ~ 1e11 here without an error
        from drsl.synth import SynthSpec, generate_dataset

        ds = generate_dataset(
            SynthSpec(n_subjects=4, n_scans=300, n_voxels=50, n_conditions=4, snr=5.0, seed=0)
        )
        cfg = FitConfig(
            layer_sizes=(50, 64, 64, 50), activation="tanh", init="paper_normal",
            eta=1e-2, seed=0,
        )
        try:
            group = fit(ds.pairs, cfg)
        except NonFinite:
            return
        # the full-run minimizer over B of ||F - D B||^2 + R(B) lies below its
        # objective at B = 0, so 10 alpha ||B||^2 <= ||F||^2 = T V for
        # unit-variance kernel outputs
        bound = np.sqrt(300 * 50 / (10.0 * cfg.alpha))
        for b in [group.signatures] + [f.signatures for f in group.subject_fits]:
            assert np.all(np.isfinite(b.values))
            assert np.linalg.norm(b.values) < bound

    def test_persistent_theta_rerun_is_deterministic(self, monkeypatch):
        import drsl.optimizer as opt

        pairs = [make_subject(seed=s) for s in range(2)]
        cfg = FitConfig(m1=3, m2=10, batch_size=20, seed=2, layer_sizes=(8, 6, 5, 4))
        calls = []
        original = opt.fit_subject

        def spy(data, design, b_init, config, **kw):
            out = original(data, design, b_init, config, **kw)
            calls.append((kw["outer"], data.subject_id, kw["initial_params"], out.params))
            return out

        monkeypatch.setattr(opt, "fit_subject", spy)
        one = fit(pairs, cfg)
        first_run = list(calls)
        two = fit(pairs, cfg)
        np.testing.assert_array_equal(one.signatures.values, two.signatures.values)
        for a, b in zip(one.subject_fits, two.subject_fits):
            for (wa, ba), (wb, bb) in zip(a.params.layers, b.params.layers):
                np.testing.assert_array_equal(wa, wb)
                np.testing.assert_array_equal(ba, bb)
        # theta starts fresh only in the first outer iteration, then carries over
        returned = {(outer, sid): out for outer, sid, _, out in first_run}
        for outer, sid, start, _ in first_run:
            if outer == 0:
                assert start is None
            else:
                assert start is returned[(outer - 1, sid)]


    def test_fit_never_writes_carried_theta_or_earlier_results(self, monkeypatch):
        import drsl.optimizer as opt

        pairs = [make_subject(seed=s) for s in range(2)]
        cfg = FitConfig(m1=3, m2=10, batch_size=20, seed=4, layer_sizes=(8, 6, 5, 4))
        returned = []
        original = opt.fit_subject

        def spy(*args, **kw):
            out = original(*args, **kw)
            returned.append((out.params, [a.copy() for layer in out.params.layers for a in layer]))
            return out

        monkeypatch.setattr(opt, "fit_subject", spy)
        first = fit(pairs, cfg)
        weights = lambda group: [
            a for sub in group.subject_fits for layer in sub.params.layers for a in layer
        ]
        kept = [a.copy() for a in weights(first)]
        fit(pairs, cfg)
        # every theta handed on to a later outer iteration, and the results of
        # the first call, still hold what they held when they were returned
        for params, snapshot in returned:
            for a, b in zip((a for layer in params.layers for a in layer), snapshot):
                np.testing.assert_array_equal(a, b)
        for a, b in zip(weights(first), kept):
            np.testing.assert_array_equal(a, b)


    def test_direct_subject_fit_and_adaptation_check_their_pair(self, monkeypatch):
        # a direct subject fit or adaptation checks its own pair, and a
        # design one scan short fails either
        import drsl.optimizer as opt

        checked = []
        validate = opt.validate_pair

        def spy(data, design):
            checked.append(data.subject_id)
            validate(data, design)

        pairs = [make_subject(seed=s) for s in range(3)]
        cfg = FitConfig(m1=2, m2=3, batch_size=20, seed=4, layer_sizes=(8, 6, 5, 4))
        group = fit(pairs, cfg)
        monkeypatch.setattr(opt, "validate_pair", spy)
        fit_subject(*pairs[1], group.signatures, cfg)
        fit_kernel_params(*pairs[2], group.signatures, cfg)
        assert checked == ["s1", "s2"]
        data, design = pairs[0]
        short = DesignMatrix(design.conditions, design.values[:-1])
        for call in (fit_subject, fit_kernel_params):
            with pytest.raises(ShapeMismatch, match="responses have 60 scans but design has 59"):
                call(data, short, group.signatures, cfg)

    def test_first_fits_do_not_depend_on_subject_order(self):
        # each subject draws from streams keyed by its id, and the start B
        # from the config seed, so a subject's first outer iteration fits
        # the same wherever it sits in the list
        pairs = [make_subject(seed=s) for s in range(4)]
        cfg = FitConfig(m1=1, m2=10, batch_size=20, seed=4, layer_sizes=(8, 6, 5, 4))
        in_order = fit(pairs, cfg).subject_fits
        reversed_ = fit(pairs[::-1], cfg).subject_fits[::-1]
        for a, b in zip(in_order, reversed_, strict=True):
            np.testing.assert_array_equal(a.signatures.values, b.signatures.values)
            np.testing.assert_array_equal(a.mapped_responses, b.mapped_responses)
            for (wa, ca), (wb, cb) in zip(a.params.layers, b.params.layers, strict=True):
                np.testing.assert_array_equal(wa, wb)
                np.testing.assert_array_equal(ca, cb)

    def test_group_fit_holds_about_ten_kernels_at_its_peak(self):
        # what a 4-subject fit must hold: a float32 theta per subject, one
        # gradient and two Adam moments shared by every subject fit, and the
        # next theta, initial draw included, while it trains. A float64
        # copy per fit, an old fit kept beside each new one, or buffers made
        # per subject fit would each add kernels. T is kept small, so the
        # run-sized arrays stay small beside a kernel. The first call warms
        # up caches that a second, identical call does not allocate again.
        import tracemalloc

        sizes = (400, 300, 200, 100)
        kernel_bytes = 4 * sum(u * (v + 1) for v, u in zip(sizes[:-1], sizes[1:]))
        pairs = [make_subject(t=100, v=400, seed=s) for s in range(4)]
        cfg = FitConfig(m1=2, m2=3, batch_size=50, layer_sizes=sizes, seed=0)
        fit(pairs, cfg)
        tracemalloc.start()
        try:
            fit(pairs, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * kernel_bytes, f"peak {peak / kernel_bytes:.1f} kernels"


class TestSeedStream:
    def test_same_key_same_sequence(self):
        a = seed_stream(7, 1, 2, 3).standard_normal(5)
        b = seed_stream(7, 1, 2, 3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_decorrelate(self):
        a = seed_stream(7, 1, 0, 0).standard_normal(1000)
        b = seed_stream(7, 1, 0, 1).standard_normal(1000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.2

    def test_subject_ids_key_distinct_streams(self):
        # the length prefix keeps ids that share digits or a prefix apart
        ids = ("1", "01", "10", "a", "ab")
        draws = {sid: subject_stream(7, sid, 1, 0).standard_normal(8) for sid in ids}
        assert len({d.tobytes() for d in draws.values()}) == len(ids)
        for sid in ids:
            np.testing.assert_array_equal(
                subject_stream(7, sid, 1, 0).standard_normal(8), draws[sid]
            )

    def test_default_streams_are_keyed_by_subject_id(self):
        # each fit trains as the kernel loop does on its subject's stream
        from drsl.optimizer import _STREAM_ADAPT, _STREAM_SUBJECT, _train

        data, design = make_subject(seed=1)
        sig = SignatureMatrix(np.zeros((3, 4)))
        cfg = FitConfig(m2=6, batch_size=10, layer_sizes=(8, 6, 5, 4), seed=9)
        cases = [
            (fit_subject(data, design, sig, cfg, outer=2),
             subject_stream(9, data.subject_id, _STREAM_SUBJECT, 2)),
            (fit_kernel_params(data, design, sig, cfg),
             subject_stream(9, data.subject_id, _STREAM_ADAPT)),
        ]
        for fitted, rng in cases:
            x = data.responses.astype(np.float32)
            params, losses = _train(data.subject_id, x, design, sig, cfg, rng, "by hand")
            np.testing.assert_array_equal(fitted.loss_history, losses)
            for (wa, _), (wb, _) in zip(fitted.params.layers, params.layers):
                np.testing.assert_array_equal(wa, wb)
