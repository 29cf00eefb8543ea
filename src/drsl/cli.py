"""Command-line surface.

Subcommands: ``synth`` (write a synthetic dataset), ``fit`` (fit one method
and emit signatures plus result tables), ``eval`` (recompute tables from a
fit output), ``cv`` (one-subject-out classification), ``gradcheck``
(finite-difference suites), ``iters`` (MSE against total iteration
count).

Exit codes: 0 success, 1 validation/compute failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .data_model import FitConfig, NetworkParameters, standardize_columns
from .dataset_io import (
    ACCURACY_HEADER,
    CORRELATION_HEADER,
    MSE_HEADER,
    RUNTIME_HEADER,
    fmt,
    read_dataset,
    read_matrix_tsv,
    write_csv,
    write_dataset,
    write_matrix_tsv,
)
from .errors import DrslError, ParseError
from .evaluation import (
    METHODS,
    between_class_correlation,
    cross_validate,
    fit_method,
    group_mse,
)
from .kernel_net import init_params
from .optimizer import TRAIN_DTYPE, _batch_gradient, _kkt_violation, signature_step
from .synth import SynthSpec, generate_dataset


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=10.0, help="regularizer scale (default 10)")
    parser.add_argument("--eta", type=float, default=1e-3, help="learning rate (default 1e-3)")
    parser.add_argument("--m2", type=int, default=100, help="inner iterations (default 100)")
    parser.add_argument("--batch", type=int, default=50, help="batch size (default 50)")
    parser.add_argument(
        "--layers",
        default=None,
        help="comma-separated hidden+output widths, e.g. 32,16,8 (input width "
        "is taken from the data; default derives from the voxel count)",
    )
    parser.add_argument(
        "--activation", choices=["sigmoid", "tanh", "relu"], default="sigmoid"
    )
    parser.add_argument(
        "--init", choices=["scaled_normal", "paper_normal"], default="scaled_normal"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lasso-alpha", type=float, default=0.9)
    parser.add_argument("--lasso-iters", type=int, default=500)


def _int_list(flag: str, text: str) -> list[int]:
    try:
        return [int(s) for s in str(text).split(",") if s]
    except ValueError:
        raise DrslError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _config_from_args(args, v_org: int | None) -> FitConfig:
    """The one map from the config flags to a run's settings."""
    layer_sizes = None
    if args.layers:
        widths = _int_list("--layers", args.layers)
        if v_org is None:
            raise DrslError("--layers needs a dataset to infer the input width")
        layer_sizes = (v_org, *widths)
    return FitConfig(
        alpha=args.alpha,
        eta=args.eta,
        # iters has no --m1: it sets m1 per schedule entry
        m1=getattr(args, "m1", FitConfig.m1),
        m2=args.m2,
        batch_size=args.batch,
        layer_sizes=layer_sizes,
        activation=args.activation,
        init=args.init,
        seed=args.seed,
        lasso_alpha=args.lasso_alpha,
        lasso_iterations=args.lasso_iters,
    )


def _write_run(out: str, args, **phase_s: float) -> None:
    """runtime.csv and run.json, the flags as given with the dataset's absolute path."""
    rows = [f"{args.method},{phase},{fmt(s * 1e3)}" for phase, s in phase_s.items()]
    write_csv(os.path.join(out, "runtime.csv"), RUNTIME_HEADER, rows)
    echo = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    echo.update(dataset=os.path.abspath(args.dataset), version=__version__)
    with open(os.path.join(out, "run.json"), "w") as fh:
        json.dump(echo, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _load_standardized(path: str):
    pairs = read_dataset(path)
    return [(standardize_columns(data), design) for data, design in pairs]


def _write_fit_tables(out: str, method: str, rho: float, iterations: int, mse: float) -> None:
    """correlation.csv and mse.csv of one fit, as ``fit`` and ``eval`` write them."""
    row = f"{method},{fmt(rho)},{fmt(0.0)}"
    write_csv(os.path.join(out, "correlation.csv"), CORRELATION_HEADER, [row])
    write_csv(os.path.join(out, "mse.csv"), MSE_HEADER, [f"{iterations},{fmt(mse)}"])


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        n_subjects=args.subjects,
        n_scans=args.scans,
        n_voxels=args.voxels,
        n_conditions=args.conditions,
        tr=args.tr,
        snr=args.snr,
        nonlinearity=args.nonlinearity,
        signature_style=args.signature_style,
        rho=args.rho,
        seed=args.seed,
    )
    dataset = generate_dataset(spec)
    write_dataset(args.out, [(subj, dataset.events) for subj in dataset.subjects])
    write_matrix_tsv(
        os.path.join(args.out, "ground_truth_signatures.tsv"),
        dataset.ground_truth.values,
    )
    print(f"wrote {spec.n_subjects} subjects to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    out = args.out or os.path.join(args.dataset, f"results-{args.method}")
    t0 = time.perf_counter()
    datasets = _load_standardized(args.dataset)
    t1 = time.perf_counter()
    config = _config_from_args(args, datasets[0][0].n_voxels)
    method_fit = fit_method(datasets, args.method, config)
    t2 = time.perf_counter()
    rho = between_class_correlation(method_fit.signatures)
    designs = [design for _, design in datasets]
    mse = group_mse(method_fit.mapped_responses, method_fit.subject_signatures, designs)
    t3 = time.perf_counter()

    os.makedirs(out, exist_ok=True)
    write_matrix_tsv(os.path.join(out, "signatures.tsv"), method_fit.signatures.values)
    for (data, _), sig, mapped in zip(
        datasets, method_fit.subject_signatures, method_fit.mapped_responses
    ):
        prefix = os.path.join(out, f"sub-{data.subject_id}")
        write_matrix_tsv(f"{prefix}_signatures.tsv", sig.values)
        if args.method == "drsl":
            write_matrix_tsv(f"{prefix}_mapped.tsv", mapped)
        else:  # an earlier drsl fit's mapped responses are not this fit's
            with contextlib.suppress(FileNotFoundError):
                os.remove(f"{prefix}_mapped.tsv")
    _write_fit_tables(out, args.method, rho, _total_iterations(vars(args)), mse)
    _write_run(out, args, load=t1 - t0, fit=t2 - t1, eval=t3 - t2)
    print(f"method={args.method} rho_max={rho:.6f} mse={mse:.6f} -> {out}")
    return 0


def _total_iterations(echo: dict) -> int:
    """The iteration count mse.csv reports, from a fit's flags or its run.json."""
    if echo["method"] == "drsl":
        return echo["m1"] * echo["m2"]
    if echo["method"] == "lasso":
        return echo["lasso_iters"]
    return 0


_RUN_KEYS = ("dataset", "method", "m1", "m2", "lasso_iters")


def _read_run_json(path: str) -> dict:
    try:
        with open(path) as fh:
            echo = json.load(fh)
    except ValueError as exc:
        raise ParseError(f"run.json is not JSON: {exc}") from None
    missing = [k for k in _RUN_KEYS if k not in echo] if isinstance(echo, dict) else _RUN_KEYS
    if missing:
        raise ParseError(f"run.json lacks {', '.join(missing)}")
    if not isinstance(echo["dataset"], str):
        raise ParseError(f"run.json: dataset must be a path, got {echo['dataset']!r}")
    if echo["method"] not in METHODS:
        raise ParseError(f"run.json: method must be one of {METHODS}, got {echo['method']!r}")
    for key in ("m1", "m2", "lasso_iters"):
        if type(echo[key]) is not int or echo[key] < 0:  # a bool is an int to isinstance
            raise ParseError(f"run.json: {key} must be an integer >= 0, got {echo[key]!r}")
    return echo


def _cmd_eval(args) -> int:
    echo = _read_run_json(os.path.join(args.fit_output, "run.json"))
    out = args.out or args.fit_output
    datasets = _load_standardized(echo["dataset"])
    designs = [design for _, design in datasets]
    signatures = read_matrix_tsv(os.path.join(args.fit_output, "signatures.tsv"))
    rho = between_class_correlation(signatures)
    # only drsl signatures model mapped responses; mapped files beside
    # another method's fit are not that fit's
    mapped = echo["method"] == "drsl"
    subject_sigs, responses = [], []
    for data, _ in datasets:
        prefix = os.path.join(args.fit_output, f"sub-{data.subject_id}")
        subject_sigs.append(read_matrix_tsv(f"{prefix}_signatures.tsv"))
        responses.append(read_matrix_tsv(f"{prefix}_mapped.tsv") if mapped else data.responses)
    mse = group_mse(responses, subject_sigs, designs)
    os.makedirs(out, exist_ok=True)
    _write_fit_tables(out, echo["method"], rho, _total_iterations(echo), mse)
    print(f"method={echo['method']} rho_max={rho:.6f} mse={mse:.6f} -> {out}")
    return 0


def _cmd_cv(args) -> int:
    out = args.out or os.path.join(args.dataset, f"cv-{args.method}")
    t0 = time.perf_counter()
    datasets = _load_standardized(args.dataset)
    t1 = time.perf_counter()
    config = _config_from_args(args, datasets[0][0].n_voxels)
    report = cross_validate(datasets, args.method, config)
    t2 = time.perf_counter()
    os.makedirs(out, exist_ok=True)
    rows = [
        f"{args.method},{fold},{fmt(acc)}" for fold, acc in enumerate(report.accuracies)
    ]
    write_csv(os.path.join(out, "accuracy.csv"), ACCURACY_HEADER, rows)
    conf_rows = [
        f"{args.method},{fold},{true_k},{pred_k},{confusion[true_k, pred_k]}"
        for fold, confusion in enumerate(report.confusions)
        for true_k, pred_k in np.ndindex(confusion.shape)
    ]
    write_csv(
        os.path.join(out, "confusion.csv"), "method,fold,true,predicted,count", conf_rows
    )
    _write_run(out, args, load=t1 - t0, cv=t2 - t1)
    print(
        f"method={args.method} folds={report.n_folds} "
        f"accuracy={report.mean_accuracy:.4f}+/-{report.std_accuracy:.4f} -> {out}"
    )
    return 0


def _cmd_gradcheck(args) -> int:
    """Check the batch gradient every training step takes, and the B solve.

    The gradient is :func:`drsl.optimizer._batch_gradient`'s, standardization
    included: in float64 against central differences of its unweighted data
    term, and in float32 against float64 at the same theta (the batch is
    rounded to float32 first, so both dtypes see one input).
    """
    if args.seed < 0:
        raise DrslError(f"seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    sizes = (6, 5, 4, 3)
    worst_fd = worst_f32 = 0.0
    h = 1e-6
    for activation in ("sigmoid", "tanh", "relu"):
        params = init_params(sizes, "scaled_normal", rng=rng)
        x = rng.standard_normal((9, sizes[0])).astype(TRAIN_DTYPE)
        d = rng.standard_normal((9, 2))
        b = rng.standard_normal((2, sizes[-1]))
        x64 = x.astype(np.float64)
        theta = params.astype(np.float64)
        grads, scratch = NetworkParameters(None, sizes), NetworkParameters(None, sizes)
        _batch_gradient(theta, x64, d, b, activation, 1.0, grads)
        for i, value in enumerate(theta.flat.copy()):
            theta.flat[i] = value + h
            plus = _batch_gradient(theta, x64, d, b, activation, 1.0, scratch)
            theta.flat[i] = value - h
            minus = _batch_gradient(theta, x64, d, b, activation, 1.0, scratch)
            theta.flat[i] = value
            fd = (plus - minus) / (2 * h)
            worst_fd = max(worst_fd, abs(grads.flat[i] - fd) / max(1.0, abs(fd)))
        grads32 = NetworkParameters(None, sizes, TRAIN_DTYPE)
        _batch_gradient(params, x, d, b, activation, 1.0, grads32)
        err = np.max(np.abs(grads32.flat - grads.flat)) / np.max(np.abs(grads.flat))
        worst_f32 = max(worst_f32, float(err))
    worst_b = 0.0
    for _ in range(10):
        b = rng.standard_normal((3, 5))
        d = rng.standard_normal((8, 3))
        f = rng.standard_normal((8, 5))
        for alpha in (1.0, 10.0):
            worst_b = max(worst_b, _kkt_violation(signature_step(b, d, f, alpha), d, f, alpha))
    print(f"float64 batch gradient, max relative error: {worst_fd:.3e} (threshold 1e-5)")
    print(f"float32 batch gradient, error / max|g|:     {worst_f32:.3e} (threshold 1e-3)")
    print(f"B solve, max KKT violation:                 {worst_b:.3e} (threshold 1e-6)")
    ok = worst_fd < 1e-5 and worst_f32 < 1e-3 and worst_b < 1e-6
    if not ok:
        print("gradcheck FAILED", file=sys.stderr)
    return 0 if ok else 1


def _cmd_iters(args) -> int:
    schedule = _int_list("--schedule", args.schedule)
    if not schedule:
        raise DrslError("empty --schedule")
    if min(schedule) < 1:
        raise DrslError(f"--schedule entries must be >= 1, got {min(schedule)}")
    if args.m2 < 1:
        raise DrslError(f"--m2 must be >= 1 for iters, got {args.m2}")
    datasets = _load_standardized(args.dataset)
    designs = [design for _, design in datasets]
    config = _config_from_args(args, datasets[0][0].n_voxels)
    rows = []
    for total in schedule:
        m2 = min(args.m2, total)
        m1 = -(-total // m2)  # ceil division
        method_fit = fit_method(datasets, "drsl", dataclasses.replace(config, m1=m1, m2=m2))
        mse = group_mse(
            method_fit.mapped_responses, method_fit.subject_signatures, designs
        )
        rows.append(f"{m1 * m2},{fmt(mse)}")
        print(f"iterations={m1 * m2} mse={mse:.6f}")
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "mse.csv"), MSE_HEADER, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drsl",
        description="Deep representational similarity learning and linear baselines",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with known signatures")
    p.add_argument("--subjects", type=int, default=4)
    p.add_argument("--scans", type=int, default=200)
    p.add_argument("--voxels", type=int, default=40)
    p.add_argument("--conditions", type=int, default=4)
    p.add_argument("--tr", type=float, default=2.0)
    p.add_argument("--snr", type=float, default=2.0, help="signal/noise std ratio")
    p.add_argument(
        "--nonlinearity",
        choices=["identity", "tanh_warp", "quadratic_mix"],
        default="identity",
    )
    p.add_argument(
        "--signature-style", choices=["orthogonal", "correlated"], default="orthogonal"
    )
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit one method and write signatures + tables")
    p.add_argument("--dataset", required=True)
    p.add_argument("--method", choices=list(METHODS), required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--m1", type=int, default=10, help="outer iterations (default 10)")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("eval", help="recompute correlation/MSE tables from a fit output")
    p.add_argument("--fit-output", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("cv", help="one-subject-out cross-validated classification")
    p.add_argument("--dataset", required=True)
    p.add_argument("--method", choices=list(METHODS), required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--m1", type=int, default=10, help="outer iterations (default 10)")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("gradcheck", help="check the training gradient and the B solve")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("iters", help="drsl MSE against total iteration count")
    p.add_argument("--dataset", required=True)
    p.add_argument("--schedule", default="100,500,1000")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_iters)

    return parser


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DrslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
