import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsl.data_model import (
    DesignMatrix,
    FitConfig,
    SignatureMatrix,
    SubjectData,
    standardize_columns,
    validate_pair,
)
from drsl.errors import DrslError, NonFinite, ShapeMismatch


def make_pair(t=10, v=4, p=2, seed=0):
    rng = np.random.default_rng(seed)
    data = SubjectData("s1", rng.standard_normal((t, v)))
    design = DesignMatrix(
        conditions=tuple(f"c{k}" for k in range(p)),
        values=rng.standard_normal((t, p)),
    )
    return data, design


class TestValidatePair:
    def test_consistent_shapes_pass(self):
        validate_pair(*make_pair(10, 4, 2))

    def test_scan_count_mismatch(self):
        data, _ = make_pair(10, 4, 2)
        _, design = make_pair(9, 4, 2)
        with pytest.raises(ShapeMismatch):
            validate_pair(data, design)

    def test_nan_in_responses(self):
        data, design = make_pair(10, 4, 2)
        bad = data.responses.copy()
        bad[3, 1] = np.nan
        with pytest.raises(NonFinite):
            validate_pair(SubjectData("s1", bad), design)

    def test_single_condition_rejected(self):
        # no pair can hold such a design: DesignMatrix refuses it
        rng = np.random.default_rng(0)
        data = SubjectData("s1", rng.standard_normal((10, 4)))
        with pytest.raises(ShapeMismatch, match="design needs >= 2 conditions"):
            validate_pair(data, DesignMatrix(("only",), rng.standard_normal((10, 1))))


class TestStandardize:
    def test_simple_column(self):
        out = standardize_columns(SubjectData("s", [[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(out.responses[:, 0], [-1.0, 0.0, 1.0])

    def test_constant_column_maps_to_zeros(self):
        out = standardize_columns(SubjectData("s", [[5.0], [5.0], [5.0]]))
        np.testing.assert_array_equal(out.responses[:, 0], [0.0, 0.0, 0.0])

    def test_inexact_constant_column_maps_to_zeros(self):
        out = standardize_columns(SubjectData("s", [[0.1], [0.1], [0.1]]))
        np.testing.assert_array_equal(out.responses[:, 0], [0.0, 0.0, 0.0])

    def test_against_brute_force(self):
        col = [2.0, 4.0, 6.0, 8.0]
        out = standardize_columns(SubjectData("s", np.array(col)[:, None]))
        mean = sum(col) / len(col)
        var = sum((x - mean) ** 2 for x in col) / (len(col) - 1)
        expected = [(x - mean) / var**0.5 for x in col]
        np.testing.assert_allclose(out.responses[:, 0], expected, atol=1e-12)

    @pytest.mark.parametrize("t, v, seed", [(2, 3, 0), (7, 5, 1), (41, 17, 2), (300, 1000, 3)])
    def test_bit_identical_to_numpy_mean_and_sample_std(self, t, v, seed):
        # columns spread over 300 orders of magnitude, each off its own
        # centre; column 0 is an inexact constant
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-150, 150, v)
        x = (rng.standard_normal((t, v)) + rng.uniform(-1e3, 1e3, v)) * scale
        x[:, 0] = 0.1
        with np.errstate(invalid="ignore"):
            expected = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
        expected[:, 0] = 0.0
        out = standardize_columns(SubjectData("s", x)).responses
        assert out.tobytes() == expected.tobytes()

    def test_too_few_rows(self):
        with pytest.raises(ShapeMismatch, match="needs >= 2 rows"):
            standardize_columns(SubjectData("s", [[1.0, 2.0]]))

    def test_preserves_shape_and_column_order(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, 6)) * np.arange(1, 7) + 3.0
        out = standardize_columns(SubjectData("s", x))
        assert out.responses.shape == x.shape
        # column order: each output column must be a rescaled original column
        for j in range(6):
            corr = np.corrcoef(out.responses[:, j], x[:, j])[0, 1]
            assert corr > 0.999999

    @settings(max_examples=50, deadline=None)
    @given(
        t=st.integers(min_value=2, max_value=30),
        v=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_idempotent(self, t, v, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((t, v)) * 7.5 - 2.0
        once = standardize_columns(SubjectData("s", x))
        twice = standardize_columns(once)
        np.testing.assert_allclose(twice.responses, once.responses, atol=1e-9)

    def test_mean_and_variance_after(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 5)) * 4 + 10
        out = standardize_columns(SubjectData("s", x)).responses
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.var(axis=0, ddof=1), 1.0, atol=1e-6)


class TestContainers:
    def test_responses_are_read_only(self):
        data, _ = make_pair()
        with pytest.raises(ValueError):
            data.responses[0, 0] = 1.0

    def test_condition_count_must_match_columns(self):
        with pytest.raises(ShapeMismatch):
            DesignMatrix(conditions=("a",), values=np.zeros((4, 2)))

    def test_signature_conditions_align_with_rows(self):
        with pytest.raises(ShapeMismatch):
            SignatureMatrix(values=np.zeros((3, 2)), conditions=("a", "b"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_responses_rejected_naming_the_subject(self, bad):
        x = np.zeros((5, 3))
        x[2, 1] = bad
        with pytest.raises(NonFinite) as exc:
            SubjectData("02", x)
        assert str(exc.value) == "responses of subject '02' contain NaN/Inf"

    def test_non_finite_design_rejected(self):
        values = np.zeros((4, 2))
        values[1, 0] = np.nan
        with pytest.raises(NonFinite, match="design values contain NaN/Inf"):
            DesignMatrix(conditions=("a", "b"), values=values)

    def test_non_finite_signatures_rejected(self):
        values = np.zeros((2, 3))
        values[0, 2] = np.nan
        with pytest.raises(NonFinite, match="signature values contain NaN/Inf"):
            SignatureMatrix(values=values, conditions=("a", "b"))

    def test_single_condition_design_rejected(self):
        with pytest.raises(ShapeMismatch, match=r"design needs >= 2 conditions, got \('a',\)"):
            DesignMatrix(conditions=("a",), values=np.zeros((4, 1)))


class TestFitConfig:
    def test_defaults(self):
        cfg = FitConfig()
        assert cfg.alpha == 10.0
        assert cfg.eta == 1e-3
        assert (cfg.m1, cfg.m2) == (10, 100)
        assert cfg.batch_size == 50

    def test_alpha_below_one_rejected(self):
        with pytest.raises(DrslError, match="alpha must be >= 1"):
            FitConfig(alpha=0.5)

    def test_nonpositive_eta_rejected(self):
        with pytest.raises(DrslError, match="eta must be > 0"):
            FitConfig(eta=0.0)

    @pytest.mark.parametrize(
        "field,match",
        [("alpha", "alpha must be >= 1"), ("eta", "eta must be > 0")],
    )
    def test_nan_setting_rejected(self, field, match):
        with pytest.raises(DrslError, match=match):
            FitConfig(**{field: float("nan")})

    @pytest.mark.parametrize("settings,match", [
        ({"lasso_alpha": float("nan")}, "alpha_lasso must be >= 0 and finite, got nan"),
        ({"lasso_alpha": float("inf")}, "alpha_lasso must be >= 0 and finite, got inf"),
        ({"lasso_alpha": -0.5}, "alpha_lasso must be >= 0 and finite, got -0.5"),
        ({"lasso_iterations": 0}, "lasso iterations must be >= 1, got 0"),
    ], ids=["alpha-nan", "alpha-inf", "alpha-negative", "iterations-zero"])
    def test_bad_lasso_setting_rejected_for_every_method(self, settings, match):
        with pytest.raises(DrslError, match=match):
            FitConfig(**settings)

    def test_nonpositive_batch_size_rejected(self):
        # one row too: its per-batch standardization maps every output to 0
        for size in (0, 1):
            with pytest.raises(DrslError, match=f"batch size must be >= 2, got {size}"):
                FitConfig(batch_size=size)

    def test_string_enums_coerced(self):
        cfg = FitConfig(activation="tanh", init="paper_normal")
        assert cfg.activation.value == "tanh"
        assert cfg.init.value == "paper_normal"
