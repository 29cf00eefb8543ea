import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsl.design import (
    Event,
    EventTable,
    build_design_column,
    build_design_matrix,
    canonical_hrf,
)
from drsl.errors import DrslError, ShapeMismatch


def gamma_pdf_scalar(t, shape):
    if t <= 0:
        return 0.0
    return math.exp((shape - 1) * math.log(t) - t - math.lgamma(shape))


def hrf_formula(t):
    return gamma_pdf_scalar(t, 6.0) - gamma_pdf_scalar(t, 16.0) / 6.0


class TestCanonicalHrf:
    def test_zero_at_origin(self):
        hrf = canonical_hrf(tr=2.0)
        assert hrf[0] == 0.0

    def test_sample_count(self):
        assert canonical_hrf(tr=2.0).shape == (16,)
        assert canonical_hrf(tr=2.5).shape == (13,)
        assert canonical_hrf(tr=32.0).shape == (1,)

    def test_samples_read_only(self):
        with pytest.raises(ValueError):
            canonical_hrf(2.0)[1] = 0.0

    def test_peak_near_five_seconds(self):
        # dense grid search on the continuous double-gamma form
        grid = np.arange(0.0, 32.0, 0.01)
        dense = np.array([hrf_formula(t) for t in grid])
        assert abs(grid[dense.argmax()] - 5.0) < 0.05

    def test_matches_formula_at_samples(self):
        hrf = canonical_hrf(tr=1.5)
        for i, v in enumerate(hrf):
            assert v == pytest.approx(hrf_formula(i * 1.5), abs=1e-12)

    @pytest.mark.parametrize(
        "tr,match",
        [(0.0, "tr must be > 0"), (-1.0, "tr must be > 0"), (32.5, "32.0 s HRF support"),
         (float("nan"), "tr must be > 0, got nan")],
        ids=["zero", "negative", "past-support", "nan"],
    )
    def test_bad_tr(self, tr, match):
        with pytest.raises(DrslError, match=match):
            canonical_hrf(tr=tr)


def impulse_table(onsets, t=40, tr=2.0, conditions=("a", "b")):
    events = tuple(Event(onset=o, duration=0.0, condition=c) for o, c in onsets)
    return EventTable(events=events, tr=tr, n_scans=t, conditions=conditions)


class TestDesignColumn:
    def test_zero_events_gives_zero_column(self):
        table = impulse_table([(0.0, "a")], conditions=("a", "b"))
        hrf = canonical_hrf(2.0)
        np.testing.assert_array_equal(build_design_column(table, "b", hrf), 0.0)

    def test_impulse_at_scan_zero_reproduces_hrf(self):
        table = impulse_table([(0.0, "a")], t=10)
        hrf = canonical_hrf(2.0)
        col = build_design_column(table, "a", hrf)
        np.testing.assert_allclose(col, hrf[:10], atol=0)

    def test_two_impulses_match_convolution_oracle(self):
        table = impulse_table([(4.0, "a"), (30.0, "a")], t=40)
        hrf = canonical_hrf(2.0)
        col = build_design_column(table, "a", hrf)
        # brute-force O(T*K) convolution of the boxcar with the kernel
        box = np.zeros(40)
        box[2] = 1.0
        box[15] = 1.0
        oracle = np.zeros(40)
        for i in range(40):
            for k in range(len(hrf)):
                if 0 <= i - k < 40:
                    oracle[i] += box[i - k] * hrf[k]
        np.testing.assert_allclose(col, oracle, atol=1e-12)

    def test_unknown_condition(self):
        table = impulse_table([(0.0, "a")], conditions=("a", "b"))
        with pytest.raises(DrslError, match="'nope' not in"):
            build_design_column(table, "nope", canonical_hrf(2.0))

    def test_boxcar_duration_spans_scans(self):
        events = (Event(onset=4.0, duration=6.0, condition="a"),)
        table = EventTable(events=events, tr=2.0, n_scans=20, conditions=("a", "b"))
        hrf = canonical_hrf(2.0)
        col = build_design_column(table, "a", hrf)
        box = np.zeros(20)
        box[2:5] = 1.0  # scans at 4s, 6s, 8s
        np.testing.assert_allclose(col, np.convolve(box, hrf)[:20], atol=1e-12)


class TestDesignMatrix:
    def test_columns_sorted_by_condition_name(self):
        events = (
            Event(onset=0.0, duration=2.0, condition="b"),
            Event(onset=10.0, duration=2.0, condition="a"),
        )
        table = EventTable(events=events, tr=2.0, n_scans=20)
        design = build_design_matrix(table, canonical_hrf(2.0))
        assert design.conditions == ("a", "b")
        col_a = build_design_column(table, "a", canonical_hrf(2.0))
        np.testing.assert_array_equal(design.values[:, 0], col_a)

    def test_matches_per_column_oracle(self):
        rng = np.random.default_rng(3)
        names = ("x", "y", "z")
        events = tuple(
            Event(
                onset=float(rng.integers(0, 30)) * 2.0,
                duration=float(rng.integers(0, 3)) * 2.0,
                condition=names[rng.integers(0, 3)],
            )
            for _ in range(12)
        )
        table = EventTable(events=events, tr=2.0, n_scans=40, conditions=names)
        hrf = canonical_hrf(2.0)
        design = build_design_matrix(table, hrf)
        for j, name in enumerate(names):
            np.testing.assert_allclose(
                design.values[:, j], build_design_column(table, name, hrf), atol=1e-12
            )

    def test_single_condition_rejected(self):
        table = impulse_table([(0.0, "a")], conditions=("a",))
        with pytest.raises(ShapeMismatch, match="design needs >= 2 conditions"):
            build_design_matrix(table, canonical_hrf(2.0))


class TestDesignProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_linearity_of_merged_event_lists(self, seed):
        rng = np.random.default_rng(seed)
        hrf = canonical_hrf(2.0)
        onsets = rng.choice(30, size=6, replace=False) * 2.0
        part_a = tuple(Event(onset=o, duration=2.0, condition="a") for o in onsets[:3])
        part_b = tuple(Event(onset=o, duration=2.0, condition="a") for o in onsets[3:])
        t_a = EventTable(events=part_a, tr=2.0, n_scans=40, conditions=("a", "b"))
        t_b = EventTable(events=part_b, tr=2.0, n_scans=40, conditions=("a", "b"))
        t_ab = EventTable(events=part_a + part_b, tr=2.0, n_scans=40, conditions=("a", "b"))
        merged = build_design_column(t_ab, "a", hrf)
        summed = build_design_column(t_a, "a", hrf) + build_design_column(t_b, "a", hrf)
        np.testing.assert_allclose(merged, summed, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        shift=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_shift_covariance(self, shift, seed):
        rng = np.random.default_rng(seed)
        hrf = canonical_hrf(2.0)
        onsets = sorted(rng.choice(20, size=3, replace=False) * 2.0)
        base = tuple(Event(onset=o, duration=4.0, condition="a") for o in onsets)
        moved = tuple(
            Event(onset=o + shift * 2.0, duration=4.0, condition="a") for o in onsets
        )
        t0 = EventTable(events=base, tr=2.0, n_scans=60, conditions=("a", "b"))
        t1 = EventTable(events=moved, tr=2.0, n_scans=60, conditions=("a", "b"))
        col0 = build_design_column(t0, "a", hrf)
        col1 = build_design_column(t1, "a", hrf)
        np.testing.assert_allclose(col1[shift:], col0[: 60 - shift], atol=1e-12)

    def test_values_finite_and_bounded(self):
        events = tuple(
            Event(onset=i * 4.0, duration=4.0, condition="a") for i in range(10)
        )
        table = EventTable(events=events, tr=2.0, n_scans=60, conditions=("a", "b"))
        hrf = canonical_hrf(2.0)
        col = build_design_column(table, "a", hrf)
        assert np.all(np.isfinite(col))
        bound = 10 * np.abs(hrf).max() * (4.0 / 2.0)
        assert np.abs(col).max() <= bound


class TestEventTable:
    def test_event_past_scan_window_rejected(self):
        with pytest.raises(DrslError, match="exceeds the 40.0s scan window"):
            EventTable(
                events=(Event(onset=38.0, duration=6.0, condition="a"),),
                tr=2.0,
                n_scans=20,
            )

    @pytest.mark.parametrize(
        "onset,duration,match",
        [(float("nan"), 2.0, "onset must be >= 0"), (0.0, float("nan"), "duration must be >= 0")],
    )
    def test_nan_event_rejected(self, onset, duration, match):
        with pytest.raises(DrslError, match=match):
            Event(onset=onset, duration=duration, condition="a")

    def test_nan_tr_rejected(self):
        with pytest.raises(DrslError, match="tr must be > 0"):
            EventTable(events=(), tr=float("nan"), n_scans=20, conditions=("a",))

    def test_conditions_sorted_unique(self):
        events = (
            Event(onset=0.0, duration=2.0, condition="zeta"),
            Event(onset=4.0, duration=2.0, condition="alpha"),
            Event(onset=8.0, duration=2.0, condition="zeta"),
        )
        table = EventTable(events=events, tr=2.0, n_scans=20)
        assert table.conditions == ("alpha", "zeta")
