"""Tests of the benchmark itself: every correctness check passes on good
outputs and fails on a deliberately corrupted one, the trace reaches calls
made inside the package and across threads, and BENCHMARK.json names the
metrics the benchmark prints.

    python3 -m unittest discover -s perf -p 'test_*.py'

The workloads run here on small inputs, so the file takes seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import unittest
from types import SimpleNamespace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from drsl import evaluation, kernel_net, optimizer  # noqa: E402
from drsl.data_model import FitConfig  # noqa: E402
from drsl.synth import SynthSpec, generate_dataset  # noqa: E402


def _report(accuracies, scans, n_classes=2):
    confusions, scored = [], []
    for acc, idx in zip(accuracies, scans):
        idx = np.asarray(idx)
        right = round(acc * idx.size)
        conf = np.zeros((n_classes, n_classes), dtype=np.int64)
        conf[0, 0] = right
        conf[0, 1] = idx.size - right
        confusions.append(conf)
        scored.append(idx)
    return SimpleNamespace(accuracies=tuple(accuracies), confusions=tuple(confusions),
                           scored_scans=tuple(scored))


class CvChecks(unittest.TestCase):
    T = 20

    def good(self):
        scans = [np.arange(10, 20), np.arange(12, 20)]
        return {"drsl": _report([0.9, 0.875], scans), "lrsl": _report([0.7, 0.75], scans)}

    def test_good_reports_pass(self):
        self.assertEqual(checks.check_cv(self.good(), self.T), [])

    def test_drsl_not_ahead_of_lrsl_fails(self):
        reports = self.good()
        reports["lrsl"] = _report([0.9, 0.875], reports["lrsl"].scored_scans)
        self.assertIn("not 0.05 above", " ".join(checks.check_cv(reports, self.T)))

    def test_scan_from_first_half_fails(self):
        reports = self.good()
        scans = [np.arange(9, 19), np.arange(12, 20)]
        reports["drsl"] = _report([0.9, 0.875], scans)
        self.assertIn("leave [10, 20)", " ".join(checks.check_cv(reports, self.T)))

    def test_accuracy_off_confusion_fails(self):
        reports = self.good()
        r = reports["drsl"]
        reports["drsl"] = SimpleNamespace(accuracies=(0.8, 0.875), confusions=r.confusions,
                                          scored_scans=r.scored_scans)
        self.assertIn("trace/scans", " ".join(checks.check_cv(reports, self.T)))


def _small_dataset(seed=3, snr=2.0):
    return generate_dataset(SynthSpec(n_subjects=3, n_scans=120, n_voxels=10,
                                      n_conditions=3, snr=snr, seed=seed))


class GroupFitChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        ds = _small_dataset()
        cls.inputs = {"dataset": ds, "config": FitConfig(
            layer_sizes=(10, 8, 6, 5), m1=2, m2=20, batch_size=30, seed=1)}
        cls.round = workloads.PaperFit().run_round(cls.inputs, "")

    def problems(self, **changes):
        rnd = workloads.Round(outputs={**self.round.outputs, **changes}, seconds={})
        return " ".join(workloads.PaperFit().check(self.inputs, rnd))

    def test_good_fit_passes(self):
        self.assertEqual(self.problems(), "")

    def test_non_finite_fails(self):
        params = [p.copy() for p in self.round.outputs["params"]]
        params[0][0, 0] = np.nan
        self.assertIn("not finite", self.problems(params=params))

    def test_group_b_off_mean_fails(self):
        b = self.round.outputs["B"].copy()
        b[0, 0] += 1e-6
        self.assertIn("not the mean", self.problems(B=b))

    def test_unstandardized_mapping_fails(self):
        mapped = list(self.round.outputs["mapped"])
        mapped[1] = mapped[1] * 1.01
        self.assertIn("variance 1", self.problems(mapped=mapped))

    def test_wrong_rho_and_mse_fail(self):
        out = self.round.outputs
        self.assertIn("rho", self.problems(rho=out["rho"] + 1e-6))
        self.assertIn("mse", self.problems(mse=out["mse"] * (1 + 1e-6)))

    def test_collapsed_b_fails(self):
        out = self.round.outputs
        subjects = [0.01 * b for b in out["B_subjects"]]
        self.assertIn("collapsed", self.problems(
            B_subjects=subjects, B=np.mean(subjects, axis=0)))


class TsvChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
        cls.workdir = tempfile.mkdtemp(prefix="test-", dir=os.path.join(HERE, "work"))
        cls.inputs = {"dataset": _small_dataset(snr=20.0), "seed": 2}
        cls.round = workloads.TsvLinear().run_round(cls.inputs, cls.workdir)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir)

    def problems(self):
        return " ".join(workloads.TsvLinear().check(self.inputs, self.round))

    def rewrite(self, relative, change):
        """Apply ``change`` to one output matrix; return a restore function."""
        path = os.path.join(self.workdir, relative)
        with open(path) as fh:
            original = fh.read()
        values = change(checks.read_matrix(path))
        with open(path, "w") as fh:
            fh.write("".join("\t".join(f"{v:.17g}" for v in row) + "\n" for row in values))

        def restore():
            with open(path, "w") as fh:
                fh.write(original)

        return restore

    def corrupted(self, relative, change) -> str:
        restore = self.rewrite(relative, change)
        try:
            return self.problems()
        finally:
            restore()

    def test_good_outputs_pass(self):
        self.assertEqual(self.round.failed, 0)
        self.assertEqual(self.problems(), "")

    def test_readback_off_by_one_ulp_fails(self):
        def nudge(x):
            x[3, 4] = np.nextafter(x[3, 4], np.inf)
            return x
        self.assertIn("bit for bit", self.corrupted("dataset/sub-02_bold.tsv", nudge))

    def test_glm_off_least_squares_fails(self):
        problems = self.corrupted("glm/signatures.tsv", lambda b: b * (1 + 1e-6))
        self.assertIn("not the mean of the least-squares", problems)

    def test_glm_rho_off_truth_fails(self):
        def correlate(b):
            return b + 5.0 * b[0]
        self.assertIn("ground truth", self.corrupted("glm/signatures.tsv", correlate))

    def test_lasso_off_kkt_fails(self):
        def nudge(b):
            b[np.unravel_index(np.argmax(np.abs(b)), b.shape)] *= 1.001
            return b
        self.assertIn("KKT", self.corrupted("lasso/sub-01_signatures.tsv", nudge))

    def test_lrsl_far_from_optimum_fails(self):
        problems = ""
        ids = [s.subject_id for s in self.inputs["dataset"].subjects]
        restores = [self.rewrite(f"lrsl/sub-{sid}_signatures.tsv", lambda b: 0.3 * b)
                    for sid in ids]
        try:
            problems = self.problems()
        finally:
            for restore in restores:
                restore()
        self.assertIn("objective drop", problems)


class Determinism(unittest.TestCase):
    def test_changed_output_changes_digest_and_fails_the_run(self):
        scans = [np.arange(10, 20)]
        good = workloads.Round(outputs={"drsl": _report([0.9], scans)}, seconds={})
        bad = workloads.Round(outputs={"drsl": _report([0.8], scans)}, seconds={})
        digests = [("a", workloads.DeskCv().digest(good)), ("b", workloads.DeskCv().digest(bad))]
        self.assertEqual(run.digest_problems(digests[:1] * 2), [])
        self.assertTrue(run.digest_problems(digests))


class Trace(unittest.TestCase):
    def fit(self, threads: str):
        ds = _small_dataset()
        config = FitConfig(layer_sizes=(10, 8, 6, 5), m1=2, m2=5, batch_size=30, seed=1)
        saved = os.environ.get("DRSL_THREADS")
        os.environ["DRSL_THREADS"] = threads
        t = tracer.Tracer()
        t.install()
        try:
            evaluation.fit_method(ds.pairs, "drsl", config)
        finally:
            t.uninstall()
            if saved is None:
                del os.environ["DRSL_THREADS"]
            else:
                os.environ["DRSL_THREADS"] = saved
        return t.metrics(rounds=1)

    def test_calls_inside_the_package_are_traced_and_unwrapped_after(self):
        original = kernel_net.forward
        m = self.fit("1")
        # 3 subjects x 2 outer x 5 steps, plus one mapping pass per subject
        self.assertEqual(m["kernel_net.forward.calls"], 33)
        self.assertEqual(m["optimizer.fit.calls"], 1)
        self.assertEqual(m["optimizer.fit_subject.calls"], 6)
        self.assertEqual(m["data_model.NetworkParameters.calls"], 3 + 30)
        self.assertEqual(m["optimizer.inner_steps"], 30)
        self.assertIs(optimizer.forward, original)
        self.assertIs(evaluation.fit, optimizer.fit)
        self.assertFalse(hasattr(optimizer.fit, "__wrapped__"))

    def test_worker_thread_spans_count_as_children_of_fit(self):
        m = self.fit("2")
        self.assertEqual(m["optimizer.fit_subject.calls"], 6)
        self.assertGreater(m["optimizer.fit.busy_over_wall"], 0.5)
        total = sum(v for k, v in m.items() if k.endswith(".self_ms"))
        fit_share = m["optimizer.fit.self_ms"] / total
        self.assertLess(fit_share, 0.5)

    def test_self_time_subtracts_the_union_of_children(self):
        self.assertEqual(tracer._covered(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0), (8.0, 12.0)]), 6.0)
        self.assertEqual(tracer._covered(0.0, 10.0, []), 0.0)


class BenchmarkJson(unittest.TestCase):
    def test_names_match_what_the_benchmark_prints(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual(list(workloads.WORKLOADS), list(run.WORKLOAD_NAMES))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, tracer.metric_units())


if __name__ == "__main__":
    unittest.main()
