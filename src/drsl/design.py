"""Design-matrix construction: condition onsets convolved with an HRF.

The HRF is the canonical double-gamma form, h(t) = pdf_gamma(t; 6, 1) -
(1/6) * pdf_gamma(t; 16, 1), sampled at TR resolution over a fixed 32 s
support. Boxcars have unit amplitude regardless of duration and there is no
microtime upsampling, so every column is checkable against a direct
discrete convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import DesignMatrix
from .errors import DrslError

HRF_LENGTH_S = 32.0


@dataclass(frozen=True)
class Event:
    """One stimulus presentation: onset and duration in seconds."""

    onset: float
    duration: float
    condition: str

    def __post_init__(self):
        if not self.onset >= 0:
            raise DrslError(f"event onset must be >= 0, got {self.onset}")
        if not self.duration >= 0:
            raise DrslError(f"event duration must be >= 0, got {self.duration}")


@dataclass(frozen=True)
class EventTable:
    """Event list plus the scan grid it lives on.

    ``conditions`` defaults to the sorted unique names found in the rows;
    an explicit list may widen it (a listed condition with no events yields
    an all-zero design column).
    """

    events: tuple[Event, ...]
    tr: float
    n_scans: int
    conditions: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.tr > 0:
            raise DrslError(f"tr must be > 0, got {self.tr}")
        if not self.n_scans >= 1:
            raise DrslError(f"n_scans must be >= 1, got {self.n_scans}")
        events = tuple(self.events)
        total = self.n_scans * self.tr
        for ev in events:
            if ev.onset + ev.duration > total + 1e-9:
                raise DrslError(
                    f"event at {ev.onset}s (+{ev.duration}s) exceeds the "
                    f"{total}s scan window"
                )
        seen = sorted({ev.condition for ev in events})
        conds = tuple(self.conditions) if self.conditions else tuple(seen)
        if not set(seen) <= set(conds):
            raise DrslError(
                f"events name conditions {seen} outside the declared set {conds}"
            )
        if not conds:
            raise DrslError("event table has no conditions")
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "conditions", tuple(sorted(conds)))


def _gamma_pdf(t: np.ndarray, shape: float) -> np.ndarray:
    # unit-scale gamma density; zero at t <= 0 for shape > 1
    out = np.zeros_like(t)
    pos = t > 0
    x = t[pos]
    out[pos] = np.exp((shape - 1.0) * np.log(x) - x - math.lgamma(shape))
    return out


def canonical_hrf(tr: float) -> np.ndarray:
    """Read-only double-gamma samples at t = 0, tr, 2*tr, ...

    There are ceil(HRF_LENGTH_S / tr) samples and h(0) = 0 exactly.
    """
    if not tr > 0:
        raise DrslError(f"tr must be > 0, got {tr}")
    if not tr <= HRF_LENGTH_S:
        raise DrslError(f"tr must be <= the {HRF_LENGTH_S} s HRF support, got {tr}")
    t = np.arange(math.ceil(HRF_LENGTH_S / tr), dtype=np.float64) * tr
    samples = _gamma_pdf(t, 6.0) - (1.0 / 6.0) * _gamma_pdf(t, 16.0)
    samples.setflags(write=False)
    return samples


def boxcar_signal(events: EventTable, condition: str) -> np.ndarray:
    """Unit boxcar sampled on the scan grid; impulses get one sample.

    A scan at time i*tr is active when onset <= i*tr < onset + duration.
    Zero-duration events mark the scan containing the onset. Overlapping
    events of the same condition add.
    """
    if condition not in events.conditions:
        raise DrslError(f"{condition!r} not in {events.conditions}")
    t = np.arange(events.n_scans, dtype=np.float64) * events.tr
    out = np.zeros(events.n_scans)
    eps = 1e-9
    for ev in events.events:
        if ev.condition != condition:
            continue
        if ev.duration == 0:
            idx = int(math.floor(ev.onset / events.tr + eps))
            if idx < events.n_scans:
                out[idx] += 1.0
        else:
            mask = (t >= ev.onset - eps) & (t < ev.onset + ev.duration - eps)
            out[mask] += 1.0
    return out


def build_design_column(events: EventTable, condition: str, hrf: np.ndarray) -> np.ndarray:
    """Discrete convolution of the condition's boxcar with the HRF samples, length T."""
    box = boxcar_signal(events, condition)
    return np.convolve(box, hrf)[: events.n_scans]


def build_design_matrix(events: EventTable, hrf: np.ndarray) -> DesignMatrix:
    """Stack per-condition columns, ordered by sorted condition name."""
    cols = [build_design_column(events, c, hrf) for c in events.conditions]
    return DesignMatrix(conditions=events.conditions, values=np.column_stack(cols))
