"""Correctness checks made apart from the program.

Every check takes a workload's outputs, as plain numbers, arrays and files,
and returns a list of problems, empty when the output is right. This module
imports numpy and nothing from ``drsl``: each expected value is recomputed
here from the inputs, or taken from a property the method must have, so a
fault in the program cannot pass through its own code.
"""

from __future__ import annotations

import math
import os

import numpy as np

# desk-cv: the deep model must beat its linear ablation by this much mean
# accuracy, the criterion-6 margin.
CV_MARGIN = 0.05
# paper-fit: a subject's ||B|| below this share of the ridge solution for its
# own mapped responses counts as collapsed (B -> 0 while f stays standardized).
MIN_B_OVER_RIDGE = 0.25
# tsv-linear: GLM between-class correlation may sit this far from the truth.
GLM_RHO_TOLERANCE = 0.05
# tsv-linear: lrsl must reach this share of the objective drop from B = 0
# that the exact optimum reaches.
MIN_LRSL_DROP = 0.8


def standardize(x: np.ndarray) -> np.ndarray:
    """Columns to mean 0 and sample variance 1; constant columns to 0."""
    x = np.asarray(x, dtype=np.float64)
    std = x.std(axis=0, ddof=1)
    out = (x - x.mean(axis=0)) / np.where(std > 0, std, 1.0)
    out[:, x.max(axis=0) == x.min(axis=0)] = 0.0
    return out


def max_row_correlation(b: np.ndarray) -> float:
    """Largest absolute Pearson correlation between two rows of ``b``."""
    c = np.corrcoef(np.asarray(b, dtype=np.float64))
    return float(np.max(np.abs(c[~np.eye(c.shape[0], dtype=bool)])))


def _close(a, b, rtol: float) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    scale = max(float(np.max(np.abs(b), initial=0.0)), 1e-300)
    return bool(np.max(np.abs(a - b), initial=0.0) <= rtol * scale)


def check_cv(reports: dict, n_scans: int) -> list[str]:
    """desk-cv: scoring protocol of each report, and drsl beating lrsl.

    ``reports`` maps "drsl" and "lrsl" to objects with ``accuracies``,
    ``confusions`` and ``scored_scans``, one entry per fold.
    """
    problems = []
    for method, report in reports.items():
        folds = len(report.accuracies)
        if not folds or len(report.confusions) != folds or len(report.scored_scans) != folds:
            problems.append(f"{method}: {folds} accuracies, {len(report.confusions)} "
                            f"confusions, {len(report.scored_scans)} scored-scan lists")
            continue
        for fold, (acc, conf, idx) in enumerate(
            zip(report.accuracies, report.confusions, report.scored_scans)
        ):
            idx = np.asarray(idx)
            conf = np.asarray(conf)
            where = f"{method} fold {fold}"
            if idx.size == 0:
                problems.append(f"{where}: no scored scans")
                continue
            if idx.min() < n_scans // 2 or idx.max() >= n_scans:
                problems.append(
                    f"{where}: scored scans {idx.min()}..{idx.max()} leave "
                    f"[{n_scans // 2}, {n_scans})"
                )
            if np.unique(idx).size != idx.size:
                problems.append(f"{where}: a scan is scored twice")
            if int(conf.sum()) != idx.size:
                problems.append(f"{where}: confusion counts {int(conf.sum())} "
                                f"for {idx.size} scored scans")
            expected = float(np.trace(conf)) / idx.size
            if not math.isclose(acc, expected, rel_tol=1e-12, abs_tol=1e-15):
                problems.append(f"{where}: accuracy {acc!r} != trace/scans {expected!r}")
    deep = float(np.mean(reports["drsl"].accuracies))
    linear = float(np.mean(reports["lrsl"].accuracies))
    if not deep >= linear + CV_MARGIN:
        problems.append(f"drsl accuracy {deep:.4f} is not {CV_MARGIN} above lrsl {linear:.4f}")
    return problems


def check_group_fit(out: dict, designs: list, alpha: float) -> list[str]:
    """paper-fit: a drsl group fit with its between-class correlation and MSE.

    ``out`` holds ``B`` (group signatures), ``B_subjects``, ``mapped``
    (each subject's standardized kernel outputs), ``params`` (every weight
    and bias array), ``rho`` and ``mse``.
    """
    problems = []
    arrays = [out["B"], *out["B_subjects"], *out["mapped"], *out["params"]]
    if not all(np.all(np.isfinite(a)) for a in arrays) or not (
        math.isfinite(out["rho"]) and math.isfinite(out["mse"])
    ):
        return ["an output is not finite"]
    mean_b = np.mean(np.stack(out["B_subjects"]), axis=0)
    if not _close(out["B"], mean_b, 1e-12):
        problems.append("group B is not the mean of the subject B's")
    # the program divides by sqrt(variance + 1e-8), so a feature of raw
    # variance v reads 1 - 1e-8 / v: 1e-3 admits v down to 1e-5
    for s, f in enumerate(out["mapped"]):
        mean_dev = float(np.max(np.abs(f.mean(axis=0))))
        var_dev = float(np.max(np.abs(f.var(axis=0) - 1.0)))
        if mean_dev > 1e-9 or var_dev > 1e-3:
            problems.append(f"subject {s}: mapped columns off mean 0 / variance 1 "
                            f"by {mean_dev:.2e} / {var_dev:.2e}")
    rho = max_row_correlation(out["B"])
    if not math.isclose(out["rho"], rho, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"rho {out['rho']!r}, recomputed {rho!r}")
    sq = sum(float(np.sum((f - d @ b) ** 2))
             for f, d, b in zip(out["mapped"], designs, out["B_subjects"]))
    mse = sq / sum(f.size for f in out["mapped"])
    if not math.isclose(out["mse"], mse, rel_tol=1e-9):
        problems.append(f"mse {out['mse']!r}, recomputed {mse!r}")
    for s, (f, d, b) in enumerate(zip(out["mapped"], designs, out["B_subjects"])):
        ridge = np.linalg.solve(d.T @ d + 10.0 * alpha * np.eye(d.shape[1]), d.T @ f)
        ratio = float(np.linalg.norm(b) / np.linalg.norm(ridge))
        if not ratio >= MIN_B_OVER_RIDGE:
            problems.append(f"subject {s}: ||B|| is {ratio:.3f} of the ridge solution "
                            "(collapsed)")
    return problems


def read_matrix(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter="\t", dtype=np.float64, ndmin=2)


def check_readback(dataset_dir: str, subjects: list, events: list, tr: float) -> list[str]:
    """tsv-linear: the written TSV files hold exactly the arrays given.

    ``subjects`` is a list of (subject id, responses); ``events`` a list of
    (onset, duration, condition) shared by every subject.
    """
    problems = []
    with open(os.path.join(dataset_dir, "manifest.txt")) as fh:
        manifest = dict(line.rstrip("\n").split("\t", 1) for line in fh if line.strip())
    ids = [sid for sid, _ in subjects]
    if manifest.get("subjects", "").split(",") != ids or float(manifest.get("tr", "nan")) != tr:
        problems.append(f"manifest {manifest} does not match subjects {ids}, tr {tr}")
    for sid, responses in subjects:
        bold = read_matrix(os.path.join(dataset_dir, f"sub-{sid}_bold.tsv"))
        if bold.shape != responses.shape or not np.array_equal(bold, responses):
            problems.append(f"sub-{sid}_bold.tsv does not read back bit for bit")
        with open(os.path.join(dataset_dir, f"sub-{sid}_events.tsv")) as fh:
            rows = [line.rstrip("\n").split("\t") for line in fh][1:]
        got = [(float(o), float(d), c) for o, d, c in rows]
        if got != list(events):
            problems.append(f"sub-{sid}_events.tsv does not read back")
    return problems


def check_glm(out_dir: str, ids: list, x_std: list, designs: list, b_true) -> list[str]:
    """tsv-linear: GLM signature files against per-subject least squares."""
    problems = []
    fits = [np.linalg.lstsq(d, x, rcond=None)[0] for x, d in zip(x_std, designs)]
    for sid, b in zip(ids, fits):
        got = read_matrix(os.path.join(out_dir, f"sub-{sid}_signatures.tsv"))
        if not _close(got, b, 1e-9):
            problems.append(f"glm sub-{sid}_signatures.tsv differs from least squares")
    group = read_matrix(os.path.join(out_dir, "signatures.tsv"))
    if not _close(group, np.mean(fits, axis=0), 1e-9):
        problems.append("glm signatures.tsv is not the mean of the least-squares fits")
    rho = max_row_correlation(group)
    rho_true = max_row_correlation(b_true)
    if not abs(rho - rho_true) <= GLM_RHO_TOLERANCE:
        problems.append(f"glm rho {rho:.4f} is not within {GLM_RHO_TOLERANCE} of the "
                        f"ground truth {rho_true:.4f}")
    with open(os.path.join(out_dir, "correlation.csv")) as fh:
        written = float(fh.read().splitlines()[1].split(",")[1])
    if not math.isclose(written, rho, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"glm correlation.csv says rho {written!r}, recomputed {rho!r}")
    return problems


def check_lasso(out_dir: str, ids: list, x_std: list, designs: list, penalty: float) -> list[str]:
    """tsv-linear: each LASSO subject fit meets the KKT conditions of
    ||X - D B||^2 + penalty * |B|_1."""
    problems = []
    for sid, x, d in zip(ids, x_std, designs):
        b = read_matrix(os.path.join(out_dir, f"sub-{sid}_signatures.tsv"))
        if b.shape != (d.shape[1], x.shape[1]):
            problems.append(f"lasso sub-{sid}: shape {b.shape}")
            continue
        grad = -2.0 * d.T @ (x - d @ b)
        active = b != 0
        tol = 1e-6 * penalty
        on = np.abs(grad[active] + penalty * np.sign(b[active]))
        off = np.abs(grad[~active]) - penalty
        worst = max(float(np.max(on, initial=0.0)), float(np.max(off, initial=-np.inf)))
        if not worst <= tol:
            problems.append(f"lasso sub-{sid}: KKT violated by {worst:.3e}")
    return problems


def elastic_objective(x, d, b, alpha: float) -> float:
    """Full-run subject objective ||X - D B||^2 + alpha |B|_1 + 10 alpha ||B||^2."""
    r = x - d @ b
    return float(np.sum(r * r) + alpha * np.sum(np.abs(b)) + 10.0 * alpha * np.sum(b * b))


def elastic_optimum(x, d, alpha: float, iterations: int = 500) -> np.ndarray:
    """Minimizer of :func:`elastic_objective` by accelerated proximal gradient."""
    gram = d.T @ d
    cross = d.T @ x
    step = 1.0 / (2.0 * float(np.linalg.eigvalsh(gram)[-1]) + 20.0 * alpha)
    b = np.zeros_like(cross)
    y, t = b, 1.0
    for _ in range(iterations):
        moved = y - step * (2.0 * (gram @ y - cross) + 20.0 * alpha * y)
        nxt = np.sign(moved) * np.maximum(np.abs(moved) - step * alpha, 0.0)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = nxt + ((t - 1.0) / t_next) * (nxt - b)
        b, t = nxt, t_next
    return b


def lrsl_drop(out_dir: str, ids: list, x_std: list, designs: list, alpha: float) -> float:
    """Share of the optimum's objective drop from B = 0 that lrsl reaches,
    summed over the subjects' full runs."""
    reached = best = 0.0
    for sid, x, d in zip(ids, x_std, designs):
        b = read_matrix(os.path.join(out_dir, f"sub-{sid}_signatures.tsv"))
        start = elastic_objective(x, d, np.zeros_like(b), alpha)
        reached += start - elastic_objective(x, d, b, alpha)
        best += start - elastic_objective(x, d, elastic_optimum(x, d, alpha), alpha)
    return reached / best


def check_lrsl(out_dir: str, ids: list, x_std: list, designs: list, alpha: float) -> list[str]:
    """tsv-linear: lrsl reaches most of the optimum's objective drop."""
    share = lrsl_drop(out_dir, ids, x_std, designs, alpha)
    if not share >= MIN_LRSL_DROP:
        return [f"lrsl reaches {share:.3f} of the optimum's objective drop "
                f"(needs {MIN_LRSL_DROP})"]
    return []
