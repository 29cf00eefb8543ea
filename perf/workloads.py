"""The benchmark's workloads.

A workload makes its inputs from a seed (``setup``), runs one round of
operations through the public functions of drsl's modules (``run_round``),
and checks the outputs of a round in which no operation failed against the
independent computations of :mod:`checks`. Every call goes through the
module attribute at call time, so a trace installed by :mod:`tracer` sees
it.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

import checks
from drsl import cli, dataset_io, evaluation, synth
from drsl.data_model import FitConfig
from drsl.errors import DrslError


@dataclass
class Round:
    """One round's outputs, the wall time of each operation, and failures."""

    outputs: dict
    seconds: dict
    failed: int = 0


def _timed(rnd: Round, op: str, call):
    start = time.perf_counter()
    try:
        result = call()
    except DrslError as exc:
        print(f"{op} failed: {exc}", file=sys.stderr)
        rnd.failed += 1
        return None
    finally:
        rnd.seconds[op] = time.perf_counter() - start
    return result


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class DeskCv:
    """Criterion-6 problem: one-subject-out CV of drsl and lrsl.

    4 subjects x 480 scans x 24 voxels, quadratic warp at gain 1.0,
    correlated signatures at rho 0.9, layers 24-96-96-12, batch 240, one
    outer iteration of 100 inner steps per fit and per adaptation.
    """

    name = "desk-cv"
    ops = ("cv_s.drsl", "cv_s.lrsl")

    def setup(self, seed: int):
        spec = synth.SynthSpec(
            n_subjects=4, n_scans=480, n_voxels=24, n_conditions=4, snr=2.0,
            nonlinearity="quadratic_mix", signature_style="correlated", rho=0.9,
            seed=seed, tr=0.5, block_scans=8, rest_scans=24, quadratic_gain=1.0,
        )
        return {
            "dataset": synth.generate_dataset(spec),
            "drsl": FitConfig(
                layer_sizes=(24, 96, 96, 12), activation="tanh", init="paper_normal",
                alpha=1.0, eta=3e-3, m1=1, m2=100, batch_size=240, seed=seed,
            ),
            "lrsl": FitConfig(alpha=1.0, eta=1e-3, m1=1, m2=100, batch_size=240, seed=seed),
        }

    def run_round(self, inputs, workdir: str) -> Round:
        rnd = Round(outputs={}, seconds={})
        pairs = inputs["dataset"].pairs
        for method in ("drsl", "lrsl"):
            rnd.outputs[method] = _timed(rnd, f"cv_s.{method}", lambda: (
                evaluation.cross_validate(pairs, method, inputs[method])))
        return rnd

    def check(self, inputs, rnd: Round) -> list[str]:
        return checks.check_cv(rnd.outputs, inputs["dataset"].spec.n_scans)

    def digest(self, rnd: Round) -> str:
        arrays = []
        for method in sorted(rnd.outputs):
            report = rnd.outputs[method]
            arrays += [np.array(report.accuracies), *report.confusions, *report.scored_scans]
        return _digest(arrays)


class PaperFit:
    """ROADMAP paper shape: a drsl group fit with its rho and MSE.

    4 subjects x 300 scans x 1000 voxels, default layers 1000-1000-700-500
    (2.05 M parameters per subject), sigmoid, batch 50, two outer
    iterations of 10 inner steps, so theta carries over once.
    """

    name = "paper-fit"
    ops = ("fit_s.drsl",)

    def setup(self, seed: int):
        spec = synth.SynthSpec(n_subjects=4, n_scans=300, n_voxels=1000, seed=seed)
        return {
            "dataset": synth.generate_dataset(spec),
            "config": FitConfig(m1=2, m2=10, batch_size=50, seed=seed),
        }

    def run_round(self, inputs, workdir: str) -> Round:
        rnd = Round(outputs={}, seconds={})
        pairs = inputs["dataset"].pairs
        designs = [design for _, design in pairs]

        def fit_and_score():
            fit = evaluation.fit_method(pairs, "drsl", inputs["config"])
            rho = evaluation.between_class_correlation(fit.signatures)
            mse = evaluation.group_mse(fit.mapped_responses, fit.subject_signatures, designs)
            return fit, rho, mse

        result = _timed(rnd, "fit_s.drsl", fit_and_score)
        if result is not None:
            fit, rho, mse = result
            rnd.outputs = {
                "B": fit.signatures.values,
                "B_subjects": [s.values for s in fit.subject_signatures],
                "mapped": list(fit.mapped_responses),
                "params": [a for sub in fit.group.subject_fits
                           for layer in sub.params.layers for a in layer],
                "rho": rho,
                "mse": mse,
            }
        return rnd

    def check(self, inputs, rnd: Round) -> list[str]:
        designs = [d.values for d in inputs["dataset"].designs]
        return checks.check_group_fit(rnd.outputs, designs, inputs["config"].alpha)

    def digest(self, rnd: Round) -> str:
        out = rnd.outputs
        return _digest([out["B"], *out["B_subjects"], *out["mapped"], *out["params"],
                        np.array([out["rho"], out["mse"]])])


class TsvLinear:
    """TSV path: write a linear dataset, then `drsl fit` glm, lasso and lrsl.

    4 subjects x 300 scans x 1000 voxels, identity response model. Each
    command reads the TSV files; no kernel network runs.
    """

    name = "tsv-linear"
    ops = ("write_s", "cmd_s.glm", "cmd_s.lasso", "cmd_s.lrsl")
    commands = {"glm": (), "lasso": (), "lrsl": ("--m1", "2")}
    # the CLI defaults the commands run with
    lasso_penalty = 0.9
    alpha = 10.0

    def setup(self, seed: int):
        spec = synth.SynthSpec(n_subjects=4, n_scans=300, n_voxels=1000, seed=seed)
        return {"dataset": synth.generate_dataset(spec), "seed": seed}

    def run_round(self, inputs, workdir: str) -> Round:
        rnd = Round(outputs={}, seconds={})
        ds = inputs["dataset"]
        data_dir = os.path.join(workdir, "dataset")
        pairs = [(subject, ds.events) for subject in ds.subjects]
        _timed(rnd, "write_s", lambda: dataset_io.write_dataset(data_dir, pairs))
        rnd.outputs["dataset"] = data_dir
        for method, extra in self.commands.items():
            out_dir = os.path.join(workdir, method)
            argv = ["fit", "--dataset", data_dir, "--method", method, "--out", out_dir,
                    "--seed", str(inputs["seed"]), *extra]
            with contextlib.redirect_stdout(sys.stderr):
                code = _timed(rnd, f"cmd_s.{method}", lambda: cli.run_cli(argv))
            if code == 0:
                rnd.outputs[method] = out_dir
            elif code is not None:  # None: _timed has counted the failure
                print(f"drsl {' '.join(argv)} exited with {code}", file=sys.stderr)
                rnd.failed += 1
        return rnd

    def check(self, inputs, rnd: Round) -> list[str]:
        ds = inputs["dataset"]
        ids = [s.subject_id for s in ds.subjects]
        events = [(e.onset, e.duration, e.condition) for e in ds.events.events]
        problems = checks.check_readback(
            rnd.outputs["dataset"], [(s.subject_id, s.responses) for s in ds.subjects],
            events, ds.events.tr)
        # the read-back check above makes these the arrays the commands read
        x_std = [checks.standardize(s.responses) for s in ds.subjects]
        designs = [d.values for d in ds.designs]
        out = rnd.outputs
        return (problems
                + checks.check_glm(out["glm"], ids, x_std, designs, ds.ground_truth.values)
                + checks.check_lasso(out["lasso"], ids, x_std, designs, self.lasso_penalty)
                + checks.check_lrsl(out["lrsl"], ids, x_std, designs, self.alpha))

    def digest(self, rnd: Round) -> str:
        h = hashlib.sha256()
        for key in sorted(rnd.outputs):
            top = rnd.outputs[key]
            for name in sorted(os.listdir(top)):
                if name in ("runtime.csv", "run.json"):
                    continue
                h.update(name.encode())
                with open(os.path.join(top, name), "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (DeskCv(), PaperFit(), TsvLinear())}
