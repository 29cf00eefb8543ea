import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsl.data_model import DesignMatrix, FitConfig, SignatureMatrix
from drsl.errors import DrslError, NonFinite, ShapeMismatch
from drsl.evaluation import (
    CvReport,
    between_class_correlation,
    build_hyperplanes,
    cross_validate,
    dominant_time_points,
    ecoc_codebook,
    fit_method,
    group_mse,
    hamming_decode,
    pooled_residual_scale,
    predict,
)
from drsl.optimizer import fit_kernel_params
from drsl.synth import SynthSpec, generate_dataset
from oracles import pearson_corr


class TestPearsonCorr:
    def test_self_correlation(self):
        a = np.array([1.0, 5.0, 2.0, 8.0])
        assert pearson_corr(a, a) == pytest.approx(1.0)

    def test_sign_flip(self):
        a = np.array([1.0, 5.0, 2.0, 8.0])
        assert pearson_corr(a, -a) == pytest.approx(-1.0)

    def test_direct_formula(self):
        assert pearson_corr([1, 2, 3], [1, 2, 4]) == pytest.approx(
            9.0 / np.sqrt(84.0), abs=1e-5
        )

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            r = pearson_corr(rng.standard_normal(10), rng.standard_normal(10))
            assert -1.0 <= r <= 1.0


class TestBetweenClassCorrelation:
    def test_anticorrelated_rows(self):
        b = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        assert between_class_correlation(b) == pytest.approx(1.0)

    def test_identity_rows(self):
        assert between_class_correlation(np.eye(3)) == pytest.approx(0.5)

    def test_duplicate_row(self):
        rng = np.random.default_rng(1)
        row = rng.standard_normal(8)
        b = np.vstack([row, rng.standard_normal(8), row])
        assert between_class_correlation(b) == pytest.approx(1.0)

    def test_constant_row_rejected(self):
        with pytest.raises(DrslError, match="a signature row is constant"):
            between_class_correlation(np.array([[1.0, 1.0], [0.0, 2.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_signatures_rejected(self, bad):
        b = np.random.default_rng(3).standard_normal((3, 5))
        b[1, 2] = bad
        with pytest.raises(NonFinite, match="signatures contain NaN/Inf"):
            between_class_correlation(b)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_invariant_to_row_affine_transforms(self, seed):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((4, 9))
        scale = rng.uniform(0.5, 3.0, size=4)
        shift = rng.uniform(-2.0, 2.0, size=4)
        b2 = b * scale[:, None] + shift[:, None]
        assert between_class_correlation(b2) == pytest.approx(
            between_class_correlation(b), abs=1e-10
        )

    @pytest.mark.parametrize("shape", [(2, 3), (4, 9), (8, 50)])
    def test_matches_largest_pairwise_pearson_corr(self, shape):
        b = np.random.default_rng(shape[1]).standard_normal(shape)
        pairwise = max(
            abs(pearson_corr(b[i], b[j]))
            for i in range(shape[0])
            for j in range(i + 1, shape[0])
        )
        assert between_class_correlation(b) == pytest.approx(pairwise, abs=1e-12)


def _design(d):
    return DesignMatrix(tuple(f"c{k}" for k in range(d.shape[1])), d)


class TestGroupMse:
    def test_exact_fit(self):
        rng = np.random.default_rng(2)
        d = rng.standard_normal((10, 3))
        b = rng.standard_normal((3, 5))
        assert group_mse([d @ b], [b], [_design(d)]) == 0.0

    def test_zero_signatures_on_standardized_data(self):
        spec = SynthSpec(n_subjects=2, n_scans=200, n_voxels=20, n_conditions=3, seed=4)
        ds = generate_dataset(spec)
        zero = np.zeros((3, 20))
        mse = group_mse(
            [s.responses for s in ds.subjects], [zero, zero], list(ds.designs)
        )
        assert mse == pytest.approx(1.0, abs=0.05)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(5)
        xs, bs, ds_ = [], [], []
        total, count = 0.0, 0
        for s in range(2):
            x = rng.standard_normal((7, 4))
            b = rng.standard_normal((3, 4))
            d = rng.standard_normal((7, 3))
            xs.append(x), bs.append(b), ds_.append(d)
            for i in range(7):
                for j in range(4):
                    pred = sum(d[i, k] * b[k, j] for k in range(3))
                    total += (x[i, j] - pred) ** 2
                    count += 1
        oracle = total / count
        assert group_mse(xs, bs, [_design(d) for d in ds_]) == pytest.approx(oracle, abs=1e-10)

    def test_ols_is_optimal(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((30, 6))
        d = rng.standard_normal((30, 3))
        ols, *_ = np.linalg.lstsq(d, x, rcond=None)
        perturbed = ols + 0.1 * rng.standard_normal(ols.shape)
        assert group_mse([x], [ols], [_design(d)]) <= group_mse([x], [perturbed], [_design(d)])

    def test_nan_signatures_rejected(self):
        rng = np.random.default_rng(7)
        d = rng.standard_normal((10, 3))
        b = np.full((3, 5), np.nan)
        with pytest.raises(NonFinite, match="reconstruction error is not finite"):
            group_mse([rng.standard_normal((10, 5))], [b], [_design(d)])


class TestResidualScale:
    def test_exact_fit_floors(self):
        rng = np.random.default_rng(7)
        d = rng.standard_normal((10, 3))
        b = rng.standard_normal((3, 4))
        np.testing.assert_array_equal(pooled_residual_scale([d @ b], [_design(d)], b), 1e-8)

    def test_unit_residuals(self):
        d = np.zeros((4, 2))
        b = np.zeros((2, 3))
        x = np.array(
            [[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
        )
        np.testing.assert_allclose(pooled_residual_scale([x], [_design(d)], b), 1.0)

    def test_matches_column_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((12, 5))
        d = rng.standard_normal((12, 3))
        b = rng.standard_normal((3, 5))
        resid = x - d @ b
        oracle = [
            max(np.sqrt(np.mean([resid[i, j] ** 2 for i in range(12)])), 1e-8)
            for j in range(5)
        ]
        np.testing.assert_allclose(pooled_residual_scale([x], [_design(d)], b), oracle, atol=1e-10)

    def test_pooled_scale_rejects_inconsistent_shapes(self):
        rng = np.random.default_rng(10)
        d = rng.standard_normal((10, 3))
        b = SignatureMatrix(rng.standard_normal((3, 5)))
        with pytest.raises(ShapeMismatch, match="inconsistent shapes"):
            pooled_residual_scale([rng.standard_normal((10, 4))], [_design(d)], b)


class TestHyperplanes:
    def test_unit_scale_gives_signature_difference(self):
        b = SignatureMatrix(np.array([[2.0, 0.0], [0.0, 1.0]]))
        normals, _ = build_hyperplanes(b, np.ones(2))
        np.testing.assert_array_equal(normals, [[2.0, -1.0]])

    def test_hand_computed_midpoint(self):
        b = SignatureMatrix(np.array([[2.0, 0.0], [0.0, 0.0], [5.0, 5.0]])[:2])
        means = np.array([[2.0, 0.0], [0.0, 0.0]])
        normals, offsets = build_hyperplanes(b, np.ones(2), means)
        # projections of the class means are 4 and 0, midpoint 2
        assert offsets[0] == pytest.approx(-2.0)
        assert predict(np.array([2.0, 0.0]), (normals, offsets), ecoc_codebook(2)) == 0

    def test_swap_antisymmetry(self):
        rng = np.random.default_rng(9)
        b = rng.standard_normal((2, 5))
        scale = rng.uniform(0.5, 2.0, size=5)
        normals, offsets = build_hyperplanes(SignatureMatrix(b), scale)
        flipped, flipped_offsets = build_hyperplanes(SignatureMatrix(b[::-1].copy()), scale)
        np.testing.assert_allclose(normals, -flipped, atol=1e-12)
        assert offsets[0] == pytest.approx(-flipped_offsets[0])

    def test_degenerate_pair(self):
        row = np.ones(4)
        b = SignatureMatrix(np.vstack([row, row]))
        with pytest.raises(DrslError, match="signatures 0 and 1 are identical"):
            build_hyperplanes(b, np.ones(4))

    def test_degenerate_pair_names_the_first_identical_pair(self):
        b = np.arange(20.0).reshape(5, 4)
        b[4] = b[3]
        b[2] = b[1]
        with pytest.raises(DrslError, match="signatures 1 and 2 "):
            build_hyperplanes(SignatureMatrix(b), np.ones(4))

    def test_inverse_noise_weighting(self):
        b = SignatureMatrix(np.array([[4.0, 2.0], [0.0, 0.0]]))
        scale = np.array([2.0, 0.5])
        normals, _ = build_hyperplanes(b, scale)
        np.testing.assert_allclose(normals, [[2.0, 4.0]])


class TestEcoc:
    def test_two_classes(self):
        cb = ecoc_codebook(2)
        assert cb.codes.shape == (2, 1)
        np.testing.assert_array_equal(cb.codes[:, 0], [1.0, -1.0])

    def test_three_classes(self):
        cb = ecoc_codebook(3)
        assert cb.codes.shape == (3, 3)
        np.testing.assert_array_equal(cb.codes[0], [1.0, 1.0, 0.0])
        assert cb.pairs == ((0, 1), (0, 2), (1, 2))

    def test_eight_classes_column_count(self):
        assert ecoc_codebook(8).codes.shape == (8, 28)

    @pytest.mark.parametrize("p", range(2, 17))
    def test_rows_pairwise_distinct(self, p):
        cb = ecoc_codebook(p)
        rows = {tuple(row) for row in cb.codes}
        assert len(rows) == p

    @pytest.mark.parametrize("p", [2, 3, 4, 8])
    def test_noiseless_codewords_decode_to_their_class(self, p):
        cb = ecoc_codebook(p)
        for cls in range(p):
            assert hamming_decode(cb.codes[cls], cb) == cls


class TestPredict:
    def make_separable(self, p=3, v=6, seed=0):
        rng = np.random.default_rng(seed)
        b = np.zeros((p, v))
        for k in range(p):
            b[k, k * 2 : k * 2 + 2] = 3.0
        b += 0.01 * rng.standard_normal((p, v))
        return SignatureMatrix(b)

    def test_samples_at_signatures_classify_correctly(self):
        sig = self.make_separable()
        planes = build_hyperplanes(sig, np.ones(6))
        cb = ecoc_codebook(3)
        for k in range(3):
            assert predict(sig.values[k], planes, cb) == k

    def test_two_class_positive_side(self):
        b = SignatureMatrix(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        planes = build_hyperplanes(b, np.ones(2))
        cb = ecoc_codebook(2)
        assert predict(np.array([5.0, 0.0]), planes, cb) == 0
        assert predict(np.array([-5.0, 0.0]), planes, cb) == 1

    def test_tie_breaks_to_lowest_index(self):
        # a bit vector disagreeing with both rows equally is impossible for
        # P=2; at P=4 these votes give classes 1 and 2 two wins each, and
        # classes 0 and 3 one
        cb4 = ecoc_codebook(4)
        bits = np.array([-1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
        d = [(cb4.codes[c] != 0) & (cb4.codes[c] != bits) for c in range(4)]
        dists = [x.sum() for x in d]
        winner = hamming_decode(bits, cb4)
        assert dists == [2, 1, 1, 2]
        assert winner == int(np.argmin(dists)) == 1

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        gain=st.floats(min_value=0.1, max_value=50.0),
    )
    def test_invariant_to_uniform_positive_scaling(self, seed, gain):
        rng = np.random.default_rng(seed)
        sig = SignatureMatrix(rng.standard_normal((3, 5)))
        planes = build_hyperplanes(sig, np.ones(5))
        normals, offsets = planes
        scaled = (normals * gain, offsets * gain)
        cb = ecoc_codebook(3)
        x = rng.standard_normal(5)
        assert predict(x, planes, cb) == predict(x, scaled, cb)


def _loop_hyperplanes(b, scale, means):
    """Reference: one (normal, offset) per pair (i < j), built pair by pair."""
    planes = []
    for i in range(b.shape[0]):
        for j in range(i + 1, b.shape[0]):
            normal = (b[i] - b[j]) / scale
            planes.append((normal, -0.5 * (normal @ means[i] + normal @ means[j])))
    return planes


def _loop_predict(sample, planes, codebook):
    """Reference: per-plane decisions, then the nearest codeword over nonzero
    entries, lowest class on a tie."""
    bits = [1.0 if float(normal @ sample) + offset >= 0.0 else -1.0 for normal, offset in planes]
    best, best_distance = 0, None
    for cls, code in enumerate(codebook.codes):
        distance = sum(1 for c, bit in zip(code, bits) if c != 0 and c != bit)
        if best_distance is None or distance < best_distance:
            best, best_distance = cls, distance
    return best


class TestArrayPathMatchesLoop:
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_labels_identical_to_the_per_scan_loop(self, p):
        rng = np.random.default_rng(100 + p)
        v = 7
        b = rng.standard_normal((p, v))
        scale = rng.uniform(0.2, 3.0, size=v)
        means = b + 0.3 * rng.standard_normal((p, v))
        normals, offsets = build_hyperplanes(SignatureMatrix(b), scale, means)
        loop = _loop_hyperplanes(b, scale, means)
        np.testing.assert_array_equal(normals, [normal for normal, _ in loop])
        np.testing.assert_allclose(offsets, [offset for _, offset in loop], rtol=1e-12)
        cb = ecoc_codebook(p)
        scans = np.vstack([rng.standard_normal((200, v)) * 2.0, b, means])
        labels = predict(scans, (normals, offsets), cb)
        assert labels.shape == (scans.shape[0],)
        expected = [_loop_predict(x, loop, cb) for x in scans]
        np.testing.assert_array_equal(labels, expected)
        assert [predict(x, (normals, offsets), cb) for x in scans] == expected

    def test_score_of_exactly_zero_decides_plus_one(self):
        b = SignatureMatrix(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        planes = build_hyperplanes(b, np.ones(2))
        normals, offsets = planes
        on_plane = np.array([0.0, 5.0])
        assert on_plane @ normals[0] + offsets[0] == 0.0
        cb = ecoc_codebook(2)
        assert predict(on_plane, planes, cb) == 0
        np.testing.assert_array_equal(predict(np.vstack([on_plane, -on_plane]), planes, cb), [0, 0])
        assert _loop_predict(on_plane, _loop_hyperplanes(b.values, np.ones(2), b.values), cb) == 0

    def test_tie_goes_to_the_lowest_class(self):
        cb = ecoc_codebook(3)
        # the cyclic votes 0 > 1, 2 > 0, 1 > 2 leave every class one vote short
        bits = np.array([1.0, -1.0, 1.0])
        assert hamming_decode(bits, cb) == 0
        assert hamming_decode(-bits, cb) == 0
        # planes that make these scans vote cyclically decode the same way
        normals = np.array([[1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
        scans = np.array([[1.0, 1.0], [-1.0, -1.0]])
        np.testing.assert_array_equal(predict(scans, (normals, np.zeros(3)), cb), [0, 0])
        loop = [(normal, 0.0) for normal in normals]
        assert [_loop_predict(x, loop, cb) for x in scans] == [0, 0]

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_block_decode_equals_row_by_row(self, p):
        rng = np.random.default_rng(p)
        cb = ecoc_codebook(p)
        bits = rng.choice([-1.0, 1.0], size=(300, cb.codes.shape[1]))
        labels = hamming_decode(bits, cb)
        assert labels.shape == (300,)
        assert labels.tolist() == [hamming_decode(row, cb) for row in bits]

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_decode_is_per_entry_hamming_on_every_sign_pattern(self, p):
        # the oracle is the per-entry definition: count the nonzero code
        # entries a vote disagrees with, nearest class first, ties low
        codebook = ecoc_codebook(p)
        k = codebook.codes.shape[1]
        bits = ((np.arange(2**k)[:, None] >> np.arange(k)) & 1) * 2.0 - 1.0
        active = codebook.codes != 0
        distances = np.sum(active & (codebook.codes != bits[..., None, :]), axis=-1)
        labels = np.argmin(distances, axis=-1)
        np.testing.assert_array_equal(hamming_decode(bits, codebook), labels)


def _loop_class_means(mapped, designs, b):
    """Per-class means of the dominant scans, summed one scan at a time in
    subject, then scan order; a class that never dominates keeps its row of b."""
    sums, counts = np.zeros_like(b), np.zeros(b.shape[0])
    for resp, design in zip(mapped, designs):
        for t, c in zip(*dominant_time_points(design)):
            sums[c] += resp[t]
            counts[c] += 1
    return np.array([s / n if n else row for s, n, row in zip(sums, counts, b)])


class TestClassMeans:
    @pytest.mark.parametrize("v", [1, 3, 40])
    def test_bit_identical_to_the_per_scan_loop(self, v):
        # rows spread over 16 orders of magnitude, so any other summation
        # order would round differently; class 3 never dominates
        from drsl.evaluation import _class_means

        rng = np.random.default_rng(v)
        p, designs, mapped = 4, [], []
        for t in (90, 120, 75):
            d = rng.uniform(0.0, 1.0, (t, p))
            d[:, 3] = 0.0
            designs.append(DesignMatrix(tuple(f"c{k}" for k in range(p)), d))
            mapped.append(rng.standard_normal((t, v)) * 10.0 ** rng.uniform(-8, 8, (t, 1)))
        b = rng.standard_normal((p, v))
        got = _class_means(mapped, designs, SignatureMatrix(b))
        expected = _loop_class_means(mapped, designs, b)
        assert got.dtype == expected.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
        np.testing.assert_array_equal(got[3], b[3])


class TestDominantTimePoints:
    def test_block_design_labels(self):
        spec = SynthSpec(n_subjects=2, n_scans=200, n_voxels=10, n_conditions=3, seed=3)
        ds = generate_dataset(spec)
        idx, labels = dominant_time_points(ds.designs[0])
        assert idx.size > 0
        assert set(labels.tolist()) == {0, 1, 2}
        d = ds.designs[0].values
        for i, lab in zip(idx, labels):
            assert d[i].argmax() == lab
            assert d[i, lab] > 0.5 * d[:, lab].max()


def _cv_dataset(nonlinearity="identity", snr=4.0, seed=0, s=3):
    spec = SynthSpec(
        n_subjects=s,
        n_scans=160,
        n_voxels=16,
        n_conditions=3,
        snr=snr,
        nonlinearity=nonlinearity,
        seed=seed,
    )
    return generate_dataset(spec)


class TestCrossValidate:
    def test_too_few_subjects(self):
        ds = _cv_dataset()
        with pytest.raises(ShapeMismatch, match="cross-validation needs >= 2 subjects"):
            cross_validate(ds.pairs[:1], "glm", FitConfig())

    def test_report_has_one_fold_per_subject(self):
        ds = _cv_dataset(s=3)
        report = cross_validate(ds.pairs, "glm", FitConfig())
        assert report.n_folds == 3
        assert all(0.0 <= a <= 1.0 for a in report.accuracies)
        assert all(c.shape == (3, 3) for c in report.confusions)

    def test_separable_subjects_reach_high_accuracy(self):
        ds = _cv_dataset(snr=50.0, seed=2, s=3)
        report = cross_validate(ds.pairs, "glm", FitConfig())
        assert report.mean_accuracy > 0.9

    def test_two_identical_noiseless_subjects_are_perfect(self):
        ds = _cv_dataset(snr=1e9, seed=6, s=2)
        # same design and effectively no noise: both subjects coincide
        report = cross_validate(ds.pairs, "glm", FitConfig())
        assert report.accuracies == (1.0, 1.0)

    def test_training_never_sees_test_subject(self, monkeypatch):
        ds = _cv_dataset(s=3)
        seen = []
        import drsl.evaluation as ev

        original = ev.fit_method

        def spy(datasets, method, config, **kw):
            seen.append([data.subject_id for data, _ in datasets])
            return original(datasets, method, config, **kw)

        monkeypatch.setattr(ev, "fit_method", spy)
        cross_validate(ds.pairs, "glm", FitConfig())
        ids = [data.subject_id for data, _ in ds.pairs]
        assert len(seen) == 3
        for fold, train_ids in enumerate(seen):
            assert ids[fold] not in train_ids
            assert len(train_ids) == 2

    def test_lasso_folds_use_the_config_penalty_and_cap(self, monkeypatch):
        import drsl.evaluation as ev

        seen = []
        original = ev.fit_lasso

        def spy(data, design, alpha_lasso, iterations):
            seen.append((alpha_lasso, iterations))
            return original(data, design, alpha_lasso, iterations)

        monkeypatch.setattr(ev, "fit_lasso", spy)
        ds = _cv_dataset(s=3)
        cross_validate(ds.pairs, "lasso", FitConfig(lasso_alpha=2.0, lasso_iterations=7))
        assert seen == [(2.0, 7)] * 6  # 3 folds of 2 training subjects

    @pytest.mark.parametrize("method", ["GLM", "Drsl"])
    def test_method_names_match_exactly(self, method):
        ds = _cv_dataset(s=2)
        with pytest.raises(DrslError, match="unknown method"):
            fit_method(ds.pairs, method, FitConfig())

    def test_drsl_adaptation_never_sees_scored_scans(self, monkeypatch):
        import drsl.evaluation as ev

        ds = _cv_dataset(nonlinearity="quadratic_mix", s=3)
        adapted = []
        original = ev.fit_kernel_params

        def spy(test_data, test_design, signatures, config, **kw):
            adapted.append((test_data.responses.copy(), test_design.values.copy()))
            return original(test_data, test_design, signatures, config, **kw)

        monkeypatch.setattr(ev, "fit_kernel_params", spy)
        cfg = FitConfig(
            m1=2, m2=20, batch_size=40, layer_sizes=(16, 12, 10, 8), activation="tanh", seed=3
        )
        report = cross_validate(ds.pairs, "drsl", cfg)
        assert len(adapted) == 3
        for fold, (x_seen, d_seen) in enumerate(adapted):
            full_x = ds.subjects[fold].responses
            full_d = ds.designs[fold].values
            # locate every adaptation scan in the held-out run
            seen = np.array(
                [int(np.flatnonzero((full_x == row).all(axis=1))[0]) for row in x_seen]
            )
            np.testing.assert_array_equal(d_seen, full_d[seen])
            scored = report.scored_scans[fold]
            assert scored.size > 0
            assert np.intersect1d(seen, scored).size == 0
            assert seen.max() < scored.min()

        glm = cross_validate(ds.pairs, "glm", FitConfig())
        lrsl = cross_validate(ds.pairs, "lrsl", FitConfig(m1=2, m2=20, batch_size=40, seed=3))
        for other in (glm, lrsl):
            for a, b in zip(report.scored_scans, other.scored_scans):
                np.testing.assert_array_equal(a, b)

    def test_drsl_batch_above_the_adaptation_half_fails_before_any_fit(self, monkeypatch):
        import drsl.optimizer as opt

        ds = _cv_dataset(s=3)
        calls = []
        original = opt.fit_subject

        def spy(*args, **kw):
            calls.append(kw.get("outer"))
            return original(*args, **kw)

        monkeypatch.setattr(opt, "fit_subject", spy)
        cfg = FitConfig(m1=1, m2=5, batch_size=100, layer_sizes=(16, 12, 10, 8))
        with pytest.raises(
            ShapeMismatch,
            match=r"batch size 100 exceeds the 80 scans of subject '01' kept for "
            r"kernel adaptation \(the first half of its 160-scan run\)",
        ):
            cross_validate(ds.pairs, "drsl", cfg)
        assert calls == []

    def test_repeated_subject_id_is_refused_before_any_fit(self, monkeypatch):
        # an id keys the subject's seed streams, so two subjects sharing one
        # would draw the same batches
        import drsl.optimizer as opt
        from drsl.data_model import SubjectData

        ds = _cv_dataset(s=3)
        (first, _), (second, design), third = ds.pairs
        twin = SubjectData(subject_id=first.subject_id, responses=second.responses)
        pairs = [ds.pairs[0], (twin, design), third]
        calls = []
        original = opt.fit_subject

        def spy(*args, **kw):
            calls.append(kw.get("outer"))
            return original(*args, **kw)

        monkeypatch.setattr(opt, "fit_subject", spy)
        cfg = FitConfig(m1=1, m2=5, batch_size=40, layer_sizes=(16, 12, 10, 8))
        for call in (
            lambda: opt.fit(pairs, cfg),
            lambda: fit_method(pairs, "glm", cfg),
            lambda: cross_validate(pairs, "drsl", cfg),
            lambda: cross_validate(pairs, "glm", cfg),
        ):
            with pytest.raises(DrslError, match=r"subject '01' appears twice"):
                call()
        assert calls == []

    @pytest.mark.parametrize("m1", [1, 2])
    def test_drsl_folds_share_first_iteration_fits_exactly(self, monkeypatch, m1):
        import drsl.evaluation as ev
        import drsl.optimizer as opt

        ds = _cv_dataset(nonlinearity="quadratic_mix", s=4, seed=5)
        cfg = FitConfig(
            m1=m1, m2=8, batch_size=40, layer_sizes=(16, 10, 8, 6), activation="tanh",
            alpha=1.0, seed=7,
        )
        folds, outers = [], []
        original_fit_method, original_fit_subject = ev.fit_method, opt.fit_subject

        def spy_fit_method(datasets, method, config, **kw):
            out = original_fit_method(datasets, method, config, **kw)
            folds.append((list(datasets), out.group))
            return out

        def spy_fit_subject(*args, **kw):
            outers.append(kw["outer"])
            return original_fit_subject(*args, **kw)

        monkeypatch.setattr(ev, "fit_method", spy_fit_method)
        monkeypatch.setattr(opt, "fit_subject", spy_fit_subject)
        cross_validate(ds.pairs, "drsl", cfg)
        s = len(ds.pairs)
        assert outers.count(0) == s
        assert outers.count(1) == (s * (s - 1) if m1 == 2 else 0)
        assert len(folds) == s

        for train, shared in folds:
            fresh = opt.fit(train, cfg)
            np.testing.assert_array_equal(shared.signatures.values, fresh.signatures.values)
            for a, b in zip(shared.subject_fits, fresh.subject_fits, strict=True):
                np.testing.assert_array_equal(a.signatures.values, b.signatures.values)
                np.testing.assert_array_equal(a.mapped_responses, b.mapped_responses)
                for (wa, ca), (wb, cb) in zip(a.params.layers, b.params.layers):
                    np.testing.assert_array_equal(wa, wb)
                    np.testing.assert_array_equal(ca, cb)

    @pytest.mark.parametrize("method", ["drsl", "lrsl", "glm", "lasso"])
    def test_each_fold_checks_its_training_list_once(self, monkeypatch, method):
        # the whole list once up front, then each fold's training list once
        from drsl import baselines, evaluation, optimizer

        checked = []
        original = optimizer.check_group

        def spy(datasets):
            checked.append([data.subject_id for data, _ in datasets])
            return original(datasets)

        for module in (evaluation, optimizer, baselines):
            monkeypatch.setattr(module, "check_group", spy)
        ds = _cv_dataset(s=3)
        cfg = FitConfig(m1=1, m2=2, batch_size=40, layer_sizes=(16, 10, 8, 6), alpha=1.0)
        cross_validate(ds.pairs, method, cfg)
        ids = [data.subject_id for data, _ in ds.pairs]
        assert checked == [ids] + [ids[:k] + ids[k + 1:] for k in range(len(ids))]

    def test_confusion_rows_sum_to_label_counts(self):
        ds = _cv_dataset(s=3)
        report = cross_validate(ds.pairs, "glm", FitConfig())
        for fold, (data, design) in enumerate(ds.pairs):
            idx, labels = dominant_time_points(design)
            scored = idx >= data.n_scans // 2
            np.testing.assert_array_equal(report.scored_scans[fold], idx[scored])
            counts = np.bincount(labels[scored], minlength=3)
            np.testing.assert_array_equal(report.confusions[fold].sum(axis=1), counts)


class TestDeepFit:
    def fits(self, seed):
        ds = generate_dataset(
            SynthSpec(n_subjects=2, n_scans=160, n_voxels=16, n_conditions=3, snr=4.0, seed=seed)
        )
        cfg = FitConfig(
            alpha=1.0, eta=1e-2, m1=3, m2=100, batch_size=80,
            layer_sizes=(16, 12, 10, 8), activation="tanh", seed=seed,
        )
        return fit_method(ds.pairs, "drsl", cfg), fit_method(ds.pairs, "lrsl", cfg)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_signatures_do_not_collapse(self, seed):
        # both methods see unit-variance features, so their per-entry B
        # scales are comparable; without a scale anchor the deep B goes to 0
        deep, linear = self.fits(seed)
        for d_sig, l_sig in zip(deep.subject_signatures, linear.subject_signatures):
            rms_deep = np.sqrt(np.mean(d_sig.values**2))
            rms_linear = np.sqrt(np.mean(l_sig.values**2))
            assert rms_deep > 0.5 * rms_linear

    def test_mapped_responses_are_standardized_over_the_run(self):
        deep, _ = self.fits(0)
        for mapped in deep.mapped_responses:
            np.testing.assert_allclose(mapped.mean(axis=0), 0.0, atol=1e-9)
            np.testing.assert_allclose(mapped.var(axis=0), 1.0, atol=1e-6)

    def test_mapped_responses_are_the_returned_kernel_over_the_run(self):
        from drsl.kernel_net import forward, standardize_outputs

        ds = generate_dataset(
            SynthSpec(n_subjects=2, n_scans=160, n_voxels=16, n_conditions=3, snr=4.0, seed=0)
        )
        cfg = FitConfig(m1=2, m2=20, batch_size=80, layer_sizes=(16, 12, 10, 8), seed=0)
        deep = fit_method(ds.pairs, "drsl", cfg)
        for (data, _), sub, mapped in zip(
            ds.pairs, deep.group.subject_fits, deep.mapped_responses
        ):
            # the run maps in float32 and is standardized widened to float64
            z, _ = forward(sub.params, data.responses.astype(np.float32), cfg.activation)
            np.testing.assert_array_equal(mapped, standardize_outputs(z.astype(np.float64))[0])


class TestAdaptTestSubject:
    def test_m2_zero_returns_initial_params(self):
        ds = _cv_dataset()
        cfg = FitConfig(m2=0, batch_size=40, layer_sizes=(16, 12, 10, 8), seed=5)
        from drsl.kernel_net import init_params
        from drsl.optimizer import _STREAM_ADAPT, subject_stream

        sig = SignatureMatrix(np.random.default_rng(1).standard_normal((3, 8)))
        theta = fit_kernel_params(ds.subjects[0], ds.designs[0], sig, cfg).params
        rng = subject_stream(cfg.seed, ds.subjects[0].subject_id, _STREAM_ADAPT)
        fresh = init_params((16, 12, 10, 8), cfg.init, rng=rng)
        for (w1, _), (w2, _) in zip(theta.layers, fresh.layers):
            np.testing.assert_array_equal(w1, w2)

    def test_adaptation_reduces_kernel_loss(self):
        ds = _cv_dataset(seed=4)
        cfg = FitConfig(
            m2=150, batch_size=40, layer_sizes=(16, 12, 10, 8), seed=5, eta=1e-2,
            activation="tanh",
        )
        sig = SignatureMatrix(
            0.2 * np.random.default_rng(2).standard_normal((3, 8))
        )
        losses = fit_kernel_params(ds.subjects[0], ds.designs[0], sig, cfg).loss_history
        assert losses[-10:].mean() < losses[:10].mean()


class TestCvReport:
    def test_accuracy_bounds_enforced(self):
        with pytest.raises(DrslError, match=r"accuracy 1.5 outside \[0, 1\]"):
            CvReport(
                subject_ids=("a",), accuracies=(1.5,), confusions=(np.zeros((2, 2)),)
            )

    def test_mean_and_std(self):
        rep = CvReport(
            subject_ids=("a", "b"),
            accuracies=(0.5, 0.7),
            confusions=(np.zeros((2, 2)), np.zeros((2, 2))),
        )
        assert rep.mean_accuracy == pytest.approx(0.6)
        assert rep.std_accuracy == pytest.approx(np.std([0.5, 0.7], ddof=1))
