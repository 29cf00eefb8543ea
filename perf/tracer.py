"""Per-layer trace of drsl, recorded from outside the program.

:class:`Tracer` wraps the public functions listed in :data:`TRACED` and
rebinds each wrapper in every ``drsl`` module that imported the name, so
calls made inside the package (``optimizer`` calling ``forward``,
``evaluation`` calling ``fit``) pass through it too. Every call becomes a
span: name, start, end and parent. Each thread keeps its own stack of open
spans. A span that opens on an empty stack in a worker thread (the subject
pool of ``optimizer.fit``) takes as parent the innermost open span of the
main thread, which is the call that is waiting for it.

A span's self time is its duration minus the part of its interval that its
children cover, so a parent waiting on several worker threads is charged
only for the gaps between them. Self times are summed over threads.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time

# module -> public functions traced; "NetworkParameters" is timed through
# its constructor.
TRACED = {
    "kernel_net": (
        "forward",
        "backprop_output_grad",
        "standardize_outputs",
        "standardize_backward",
        "fold_output_standardization",
        "init_params",
    ),
    "optimizer": (
        "fit",
        "fit_subject",
        "fit_kernel_params",
        "adam_step",
        "signature_step",
        "objective",
        "sample_batch",
    ),
    "data_model": ("NetworkParameters", "standardize_columns"),
    "baselines": ("fit_glm", "fit_lasso"),
    "evaluation": (
        "fit_method",
        "cross_validate",
        "predict",
        "build_hyperplanes",
        "pooled_residual_scale",
        "between_class_correlation",
        "group_mse",
    ),
    "dataset_io": ("read_dataset", "write_dataset", "write_results"),
    "design": ("build_design_matrix",),
    "synth": ("generate_dataset",),
    "cli": ("run_cli",),
}

# metrics computed from the arguments of traced calls: name -> unit
COMPUTED = {
    "kernel_net.gflop": "GFLOP",
    "optimizer.adam_step.mb_moved": "MB",
    "dataset_io.mb_read": "MB",
    "dataset_io.mb_written": "MB",
    "optimizer.inner_steps": "count",
    "optimizer.fit.busy_over_wall": "ratio",
}

_RESULT_FILES = ("correlation.csv", "accuracy.csv", "mse.csv", "runtime.csv")


def span_names() -> list[str]:
    return [f"{module}.{name}" for module, names in TRACED.items() for name in names]


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for key in span_names():
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_ms"] = "ms"
    units.update(COMPUTED)
    units["trace.overhead_pct"] = "%"
    return units


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _layer_products(params) -> int:
    sizes = params.layer_sizes
    return sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))


def _forward_flop(args, kwargs, result) -> tuple[str, float]:
    batch = _arg(args, kwargs, 1, "batch")
    return "kernel_net.gflop", 2e-9 * len(batch) * _layer_products(_arg(args, kwargs, 0, "params"))


def _backprop_flop(args, kwargs, result) -> tuple[str, float]:
    # delta^T h for every layer, delta W for every layer but the first
    params = _arg(args, kwargs, 0, "params")
    n = len(_arg(args, kwargs, 2, "grad_output"))
    sizes = params.layer_sizes
    first = sizes[0] * sizes[1]
    return "kernel_net.gflop", 2e-9 * n * (2 * _layer_products(params) - first)


def _adam_bytes(args, kwargs, result) -> tuple[str, float]:
    # computed lower bound: read theta, gradient and both moments, write
    # theta and both moments, 8 bytes each
    params = _arg(args, kwargs, 2, "params")
    n = sum(w.size + b.size for w, b in params.layers)
    return "optimizer.adam_step.mb_moved", 7 * 8 * n / 1e6


def _inner_steps(args, kwargs, result) -> tuple[str, float]:
    return "optimizer.inner_steps", _arg(args, kwargs, 3, "config").m2


def _dataset_bytes(path: str) -> int:
    total = 0
    for entry in os.scandir(path):
        name = entry.name
        if name == "manifest.txt" or (
            name.startswith("sub-") and name.endswith(("_bold.tsv", "_events.tsv"))
        ):
            total += entry.stat().st_size
    return total


def _read_bytes(args, kwargs, result) -> tuple[str, float]:
    return "dataset_io.mb_read", _dataset_bytes(_arg(args, kwargs, 0, "path")) / 1e6


def _write_bytes(args, kwargs, result) -> tuple[str, float]:
    return "dataset_io.mb_written", _dataset_bytes(_arg(args, kwargs, 0, "path")) / 1e6


def _results_bytes(args, kwargs, result) -> tuple[str, float]:
    path = _arg(args, kwargs, 1, "path")
    size = sum(os.path.getsize(os.path.join(path, name)) for name in _RESULT_FILES)
    return "dataset_io.mb_written", size / 1e6


_COUNTERS = {
    "kernel_net.forward": _forward_flop,
    "kernel_net.backprop_output_grad": _backprop_flop,
    "optimizer.adam_step": _adam_bytes,
    "optimizer.fit_subject": _inner_steps,
    "optimizer.fit_kernel_params": _inner_steps,
    "dataset_io.read_dataset": _read_bytes,
    "dataset_io.write_dataset": _write_bytes,
    "dataset_io.write_results": _results_bytes,
}


class Tracer:
    """Records spans of the traced drsl functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = {name: 0.0 for name in COMPUTED}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, func):
        counter = _COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = -1
            with self._lock:
                index = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = self.spans[index]
                span[1], span[2] = start, end
            if counter is not None:
                key, amount = counter(args, kwargs, result)
                with self._lock:
                    self.counts[key] += amount
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function and rebind it wherever drsl imported it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "drsl" or n.startswith("drsl.")]
        for module_name, names in TRACED.items():
            home = importlib.import_module(f"drsl.{module_name}")
            for name in names:
                original = getattr(home, name)
                key = f"{module_name}.{name}"
                if isinstance(original, type):
                    init = original.__init__
                    self._patch(original, "__init__", self._wrap(key, init))
                    continue
                wrapper = self._wrap(key, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer calls, self time and computed counts, per round."""
        calls = {key: 0 for key in span_names()}
        self_s = {key: 0.0 for key in span_names()}
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        busy = wall = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - _covered(start, end, children.get(index, ()))
            parent_name = self.spans[parent][0] if parent >= 0 else None
            if name == "optimizer.fit_subject" and parent_name == "optimizer.fit":
                busy += end - start
            elif name == "optimizer.fit":
                wall += end - start
        out = {}
        for key in span_names():
            out[f"{key}.calls"] = calls[key] / rounds
            out[f"{key}.self_ms"] = 1e3 * self_s[key] / rounds
        for key, value in self.counts.items():
            out[key] = value / rounds
        out["optimizer.fit.busy_over_wall"] = busy / wall if wall > 0 else 0.0
        return out


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
