import dataclasses

import numpy as np
import pytest

from drsl.baselines import fit_glm
from drsl.data_model import validate_pair
from drsl.errors import DrslError
from drsl.evaluation import between_class_correlation
from drsl.synth import (
    Nonlinearity,
    SignatureStyle,
    SynthSpec,
    apply_nonlinearity,
    generate_dataset,
    generate_events,
    generate_signatures,
)
from oracles import pearson_corr


# (bad fields, message); new cases go at the end so the kw<n> ids stay put
BAD_SPECS = [
    ({"n_subjects": 1}, "need >= 2 subjects"),
    ({"n_conditions": 1}, "need >= 2 conditions"),
    ({"n_scans": 7, "n_conditions": 2}, "need >= 4 scans per condition"),
    ({"n_voxels": 4, "n_conditions": 4}, "need >= 6 voxels"),
    ({"snr": 0.0}, "snr must be > 0"),
    ({"tr": -1.0}, "tr must be > 0"),
    ({"signature_style": "correlated", "rho": 1.0}, r"rho must lie in \[0, 1\)"),
    ({"quadratic_gain": -0.1}, "quadratic_gain must be finite and >= 0"),
    ({"quadratic_gain": float("nan")}, "quadratic_gain must be finite and >= 0"),
    ({"quadratic_gain": float("inf")}, "quadratic_gain must be finite and >= 0"),
    ({"snr": float("nan")}, "snr must be > 0, got nan"),
    ({"tr": float("nan")}, "tr must be > 0 and finite, got nan"),
]


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kw,match", BAD_SPECS, ids=[f"kw{i}" for i in range(len(BAD_SPECS))]
    )
    def test_bad_specs_rejected(self, kw, match):
        base = dict(n_subjects=3, n_scans=120, n_voxels=20, n_conditions=3)
        base.update(kw)
        with pytest.raises(DrslError, match=match):
            SynthSpec(**base)


class TestSignatures:
    def test_orthogonal_rows(self):
        spec = SynthSpec(n_subjects=2, n_scans=200, n_voxels=30, n_conditions=4, seed=3)
        b = generate_signatures(spec).values
        gram = b @ b.T - np.eye(4)
        assert np.abs(gram).max() < 1e-10

    def test_unit_row_norms(self):
        spec = SynthSpec(n_subjects=2, n_scans=200, n_voxels=30, n_conditions=4, seed=3)
        b = generate_signatures(spec).values
        np.testing.assert_allclose(np.linalg.norm(b, axis=1), 1.0, atol=1e-10)

    def test_correlated_rows_hit_target(self):
        spec = SynthSpec(
            n_subjects=2,
            n_scans=150,
            n_voxels=40,
            n_conditions=3,
            signature_style=SignatureStyle.CORRELATED,
            rho=0.8,
            seed=5,
        )
        b = generate_signatures(spec).values
        for i in range(3):
            for j in range(i + 1, 3):
                assert 0.75 <= pearson_corr(b[i], b[j]) <= 0.85

    def test_deterministic(self):
        spec = SynthSpec(n_subjects=2, n_scans=160, n_voxels=25, n_conditions=3, seed=9)
        np.testing.assert_array_equal(
            generate_signatures(spec).values, generate_signatures(spec).values
        )


class TestEvents:
    def test_all_conditions_present_no_overlap(self):
        spec = SynthSpec(n_subjects=2, n_scans=100, n_voxels=10, n_conditions=2, seed=1)
        table = generate_events(spec)
        names = {ev.condition for ev in table.events}
        assert names == {"cond00", "cond01"}
        spans = sorted((ev.onset, ev.onset + ev.duration) for ev in table.events)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2 + 1e-12

    def test_rest_gaps_exist(self):
        spec = SynthSpec(n_subjects=2, n_scans=100, n_voxels=10, n_conditions=2, seed=1)
        table = generate_events(spec)
        stimulated = sum(ev.duration for ev in table.events)
        assert stimulated < spec.n_scans * spec.tr

    def test_every_condition_at_least_twice(self):
        spec = SynthSpec(n_subjects=2, n_scans=40, n_voxels=10, n_conditions=4, seed=2)
        table = generate_events(spec)
        for name in table.conditions:
            assert sum(ev.condition == name for ev in table.events) >= 2

    def test_deterministic(self):
        spec = SynthSpec(n_subjects=2, n_scans=100, n_voxels=10, n_conditions=3, seed=4)
        assert generate_events(spec) == generate_events(spec)

    def test_infeasible_schedule(self):
        spec = SynthSpec(n_subjects=2, n_scans=40, n_voxels=10, n_conditions=4, seed=2)
        with pytest.raises(DrslError, match="every condition must appear at least twice"):
            generate_events(dataclasses.replace(spec, block_scans=4, rest_scans=4))


class TestNonlinearity:
    def test_identity_untouched(self):
        x = np.random.default_rng(0).standard_normal((10, 4))
        out = apply_nonlinearity(x, Nonlinearity.IDENTITY, np.random.default_rng(1))
        np.testing.assert_array_equal(out, x)

    def test_tanh_warp_zero_maps_to_zero(self):
        x = np.zeros((6, 3))
        x[0, :] = 1.0  # keep columns non-constant so rescaling is defined
        out = apply_nonlinearity(x, Nonlinearity.TANH_WARP, np.random.default_rng(1))
        np.testing.assert_array_equal(out[1:], 0.0)

    def test_quadratic_mix_is_deterministic_given_rng(self):
        x = np.random.default_rng(0).standard_normal((10, 4))
        a = apply_nonlinearity(x, Nonlinearity.QUADRATIC_MIX, np.random.default_rng(7))
        b = apply_nonlinearity(x, Nonlinearity.QUADRATIC_MIX, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_default_quadratic_gain_is_point_three(self):
        x = np.random.default_rng(0).standard_normal((10, 4))
        default = apply_nonlinearity(x, Nonlinearity.QUADRATIC_MIX, np.random.default_rng(7))
        mix = np.random.default_rng(7).standard_normal((4, 4)) / 2.0
        np.testing.assert_array_equal(default, x + 0.3 * (x @ mix.T) * x)

    def test_quadratic_gain_scales_the_warp(self):
        x = np.random.default_rng(0).standard_normal((10, 4))
        base = apply_nonlinearity(x, Nonlinearity.QUADRATIC_MIX, np.random.default_rng(7), 0.3)
        strong = apply_nonlinearity(x, Nonlinearity.QUADRATIC_MIX, np.random.default_rng(7), 1.2)
        np.testing.assert_allclose(strong - x, 4.0 * (base - x), atol=1e-12)

    def test_spec_gain_reaches_the_data(self):
        kw = dict(
            n_subjects=2, n_scans=100, n_voxels=10, n_conditions=2,
            nonlinearity="quadratic_mix", seed=5,
        )
        default = generate_dataset(SynthSpec(**kw))
        explicit = generate_dataset(SynthSpec(quadratic_gain=0.3, **kw))
        strong = generate_dataset(SynthSpec(quadratic_gain=1.0, **kw))
        for a, b, c in zip(default.subjects, explicit.subjects, strong.subjects):
            np.testing.assert_array_equal(a.responses, b.responses)
            assert np.abs(a.responses - c.responses).max() > 0.01

    def test_quadratic_mix_changes_data(self):
        x = np.random.default_rng(0).standard_normal((10, 4))
        out = apply_nonlinearity(x, Nonlinearity.QUADRATIC_MIX, np.random.default_rng(7))
        assert np.abs(out - x).max() > 0.01


class TestGenerateSubject:
    def test_high_snr_identity_glm_recovers_truth(self):
        spec = SynthSpec(
            n_subjects=2, n_scans=200, n_voxels=30, n_conditions=3, snr=1e9, seed=6
        )
        ds = generate_dataset(spec)
        b_hat = fit_glm(ds.subjects[0], ds.designs[0]).values
        for k in range(3):
            assert pearson_corr(b_hat[k], ds.ground_truth.values[k]) > 0.999

    def test_snr_one_noise_calibration(self):
        # rebuild the clean/noise split and compare per-column std ratios
        from drsl.synth import _mean_adjustment

        spec = SynthSpec(
            n_subjects=2, n_scans=400, n_voxels=25, n_conditions=3, snr=1.0, seed=8
        )
        ds = generate_dataset(spec)
        design = ds.designs[0]
        clean = design.values @ (_mean_adjustment(design) @ ds.ground_truth.values)
        noise_rng = np.random.default_rng([spec.seed, 12, 0])
        sig = clean.std(axis=0, ddof=1)
        noise = noise_rng.standard_normal(clean.shape) * (sig / spec.snr)
        ratio = clean.std(axis=0, ddof=1) / noise.std(axis=0, ddof=1)
        assert np.all(np.abs(ratio - 1.0) < 0.1)

    def test_output_standardized(self):
        spec = SynthSpec(n_subjects=2, n_scans=150, n_voxels=12, n_conditions=3, seed=2)
        ds = generate_dataset(spec)
        x = ds.subjects[0].responses
        np.testing.assert_allclose(x.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(x.var(axis=0, ddof=1), 1.0, atol=1e-6)

    def test_pipeline_passes_validate_pair(self):
        spec = SynthSpec(
            n_subjects=3,
            n_scans=120,
            n_voxels=15,
            n_conditions=3,
            nonlinearity=Nonlinearity.QUADRATIC_MIX,
            seed=3,
        )
        ds = generate_dataset(spec)
        for data, design in ds.pairs:
            validate_pair(data, design)

    def test_pure_function_of_inputs(self):
        spec = SynthSpec(n_subjects=2, n_scans=100, n_voxels=10, n_conditions=2, seed=5)
        ds1 = generate_dataset(spec)
        ds2 = generate_dataset(spec)
        for a, b in zip(ds1.subjects, ds2.subjects):
            np.testing.assert_array_equal(a.responses, b.responses)

    def test_subjects_differ_from_each_other(self):
        spec = SynthSpec(n_subjects=2, n_scans=100, n_voxels=10, n_conditions=2, seed=5)
        ds = generate_dataset(spec)
        assert np.abs(ds.subjects[0].responses - ds.subjects[1].responses).max() > 0.01


class TestGroundTruthGeometry:
    def test_glm_between_class_correlation_tracks_truth(self):
        spec = SynthSpec(
            n_subjects=4, n_scans=300, n_voxels=50, n_conditions=4, snr=5.0, seed=14
        )
        ds = generate_dataset(spec)
        fits = [fit_glm(data, design).values for data, design in ds.pairs]
        rho_glm = between_class_correlation(np.mean(fits, axis=0))
        rho_true = between_class_correlation(ds.ground_truth)
        assert abs(rho_glm - rho_true) < 0.05
