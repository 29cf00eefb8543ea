"""On-disk dataset layout and result tables.

A dataset directory holds ``manifest.txt`` (tab-separated key/value lines:
tr, n_scans, conditions, subjects) plus per-subject ``sub-<id>_bold.tsv``
(T x V floats, no header) and ``sub-<id>_events.tsv`` (header
``onset<TAB>duration<TAB>condition``). Floats are written with 17
significant digits so a round trip reproduces every 64-bit value exactly;
TSV keeps fixtures diffable and checkable by any external tool.

:func:`write_matrix_tsv` writes the bytes of ``"%.17g"`` on each value
without formatting most values one by one. Where ``"%.17g"`` prints fixed
notation, 1e-4 <= |x| < 1e17, array arithmetic gets each value's decimal
exponent and 17 digits exactly: Dekker's error-free two-product gives
|x| times a power of ten as the sum of two float64s, which is then rounded
half to even, as the correctly rounded conversion does. Zeros, inf, NaN
and every other value are formatted by ``"%.17g"`` itself.

Beside each bold TSV, :func:`write_dataset` leaves a binary copy of the
matrix the TSV parses to, ``sub-<id>_bold.<sha256 of the TSV's bytes>.npy``,
the hash taken of the bytes as they are written.
Only a dataset that :func:`write_dataset` wrote, with its TSV unedited
since, is read from the copy; a dataset written by another tool has no
copy, and its read lists the directory once per subject and parses the
TSV, with no hash. The TSV stays authoritative: where a subject has a
copy, a read hashes the TSV and loads the copy of that name when it
exists and is readable, and parses the TSV otherwise, so an edited TSV is
parsed again and deleting the copies is always safe. Reads write nothing.

Results are long-format CSVs with fixed headers, ready for plotting.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass

import numpy as np

from .data_model import DesignMatrix, FitConfig, SubjectData
from .design import Event, EventTable, build_design_matrix, canonical_hrf
from .errors import DrslError, ParseError

MANIFEST_NAME = "manifest.txt"
EVENTS_HEADER = "onset\tduration\tcondition"

CORRELATION_HEADER = "method,rho_max,rho_std_over_seeds"
ACCURACY_HEADER = "method,fold,accuracy"
MSE_HEADER = "iterations,mse"
RUNTIME_HEADER = "method,phase,ms"


def fmt(x: float) -> str:
    """Decimal with 17 significant digits; exact for float64 round trips."""
    return f"{float(x):.17g}"


def _bold_name(subject_id: str) -> str:
    return f"sub-{subject_id}_bold.tsv"


def _events_name(subject_id: str) -> str:
    return f"sub-{subject_id}_events.tsv"


def _bold_copy_name(subject_id: str, digest: str) -> str:
    return f"sub-{subject_id}_bold.{digest}.npy"


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _bold_copies(path: str, subject_id: str) -> list[str]:
    """Names of the subject's bold copies in ``path``, whatever hash they carry."""
    copy = re.compile(re.escape(f"sub-{subject_id}_bold.") + r"[0-9a-f]{64}\.npy")
    return [name for name in os.listdir(path) if copy.fullmatch(name)]


def _check_subject_ids(subjects) -> None:
    """Reject a subject list that ``manifest.txt`` cannot hold or name files by.

    An id must be non-empty, with no ',', tab, newline or path separator,
    and appear once: a repeated id would be fitted, written and, in
    cross-validation, held out and trained on as two subjects.
    """
    seen = set()
    for sid in subjects:
        if not sid or any(c in sid for c in (",", "\t", "\n", "\r", "/", os.sep)):
            raise ParseError(
                f"{MANIFEST_NAME}: subject {sid!r}: an id must be non-empty, with no ',', "
                "tab, newline or path separator"
            )
        if sid in seen:
            raise ParseError(f"{MANIFEST_NAME}: subject {sid!r} appears twice")
        seen.add(sid)


def write_dataset(path: str, pairs: list[tuple[SubjectData, EventTable]]) -> None:
    """Write subjects, their event tables and the bold copies under ``path``.

    A subject list that would not read back as written (a repeated or
    unwritable id, or voxel counts that differ) raises ParseError before
    any file is written. Rewriting a subject replaces its bold copy.
    """
    if not pairs:
        raise DrslError("nothing to write: no subjects")
    tr = pairs[0][1].tr
    n_scans = pairs[0][1].n_scans
    conditions = pairs[0][1].conditions
    first = pairs[0][0]
    _check_subject_ids(data.subject_id for data, _ in pairs)
    for data, events in pairs:
        sid = data.subject_id
        if data.n_voxels != first.n_voxels:
            raise ParseError(
                f"subject {sid!r} has {data.n_voxels} voxels, "
                f"subject {first.subject_id!r} has {first.n_voxels}"
            )
        if events.tr != tr or events.n_scans != n_scans or events.conditions != conditions:
            raise ParseError(
                f"subject {data.subject_id!r} disagrees with the shared scan grid"
            )
        if data.n_scans != n_scans:
            raise ParseError(
                f"subject {data.subject_id!r} has {data.n_scans} scans, manifest says {n_scans}"
            )
    os.makedirs(path, exist_ok=True)
    manifest = [
        f"tr\t{fmt(tr)}",
        f"n_scans\t{n_scans}",
        f"conditions\t{','.join(conditions)}",
        f"subjects\t{','.join(data.subject_id for data, _ in pairs)}",
    ]
    with open(os.path.join(path, MANIFEST_NAME), "w", newline="") as fh:
        fh.write("\n".join(manifest) + "\n")
    for data, events in pairs:
        bold = os.path.join(path, _bold_name(data.subject_id))
        for name in _bold_copies(path, data.subject_id):
            os.remove(os.path.join(path, name))
        digest = write_matrix_tsv(bold, data.responses)
        # the copy holds what the TSV parses to, a C-ordered array
        copy = os.path.join(path, _bold_copy_name(data.subject_id, digest))
        with open(copy, "wb") as fh:
            np.save(fh, np.ascontiguousarray(data.responses), allow_pickle=False)
        with open(os.path.join(path, _events_name(data.subject_id)), "w", newline="") as fh:
            fh.write(EVENTS_HEADER + "\n")
            for ev in events.events:
                fh.write(f"{fmt(ev.onset)}\t{fmt(ev.duration)}\t{ev.condition}\n")


def _read_manifest(path: str) -> dict:
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise ParseError(f"no {MANIFEST_NAME} in {path}")
    entries = {}
    with open(manifest_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ParseError(f"{MANIFEST_NAME} line {lineno}: expected key<TAB>value")
            key, value = line.split("\t", 1)
            entries[key] = value
    for key in ("tr", "n_scans", "conditions", "subjects"):
        if key not in entries:
            raise ParseError(f"{MANIFEST_NAME}: missing key {key!r}")
    try:
        tr = float(entries["tr"])
        n_scans = int(entries["n_scans"])
    except ValueError as exc:
        raise ParseError(f"{MANIFEST_NAME}: bad numeric value ({exc})") from exc
    conditions = tuple(c for c in entries["conditions"].split(",") if c)
    subjects = tuple(s for s in entries["subjects"].split(",") if s)
    if not conditions or not subjects:
        raise ParseError(f"{MANIFEST_NAME}: empty conditions or subjects list")
    _check_subject_ids(subjects)
    return {"tr": tr, "n_scans": n_scans, "conditions": conditions, "subjects": subjects}


# The matrix writer formats _BLOCK values at a time, in whole rows, so
# that its temporaries stay small.
_BLOCK = 16384
_POW10 = 10.0 ** np.arange(23)  # 10**s is exact in float64 for s <= 22


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of float64 ``a`` into hi + lo, 26 significant bits each."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)
# the ASCII text "0000" to "9999" as one uint32 each, its trailing zeros,
# and for each record length 0..24 a mask of that many bytes as 3 words
_GROUP_TEXT = np.frombuffer(b"".join(b"%04d" % i for i in range(10_000)), np.uint32)
_GROUP_ZEROS = np.array([4 - len(f"{i:04d}".rstrip("0")) for i in range(10_000)])
_KEEP = np.tril(np.full((25, 24), 0xFF, np.uint8), -1).view(np.uint64)


def _scaled(a: np.ndarray, exp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(p, err)`` with ``p + err == a * 10**(16 - exp)`` exactly (Dekker's two-product)."""
    s = 16 - exp
    p = a * _POW10[s]
    a_hi, a_lo = _split(a)
    q_hi, q_lo = _POW10_HI[s], _POW10_LO[s]
    return p, ((a_hi * q_hi - p) + a_hi * q_lo + a_lo * q_hi) + a_lo * q_lo


def _fixed_notation(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(fast, X, N)`` for magnitudes ``a``: |x| to 17 digits is N * 10**(X - 16).

    ``fast`` marks the values ``"%.17g"`` writes in fixed notation, 1e-4 <=
    |x| < 1e17, whose decimal exponent X and 17 significant digits N are
    found exactly: N is the exact product |x| * 10**(16 - X), in [1e16,
    1e17), rounded half to even. X comes from log10, and a value stays
    fast only if its product lies in [1e16, 1e17) and N is below 10**17,
    so that both are right; log10 can round across a power of ten within
    a few ulps of it.
    """
    fast = (a >= 1e-4) & (a < 1e17)  # NaN fails both
    a = np.where(fast, a, 1.0)
    exp = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    p, err = _scaled(a, exp)
    # p >= 1e16 is an even integer, so rounding err half to even rounds N so too
    digits = p.astype(np.int64) + np.rint(err).astype(np.int64)
    fast &= ((p > 1e16) | ((p == 1e16) & (err >= 0))) & (digits < 10**17)
    return fast, exp, digits


def _digit_text(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 ASCII digits of each N, one row each, and N's trailing zeros."""
    groups = np.empty((5, digits.size), np.intp)  # N's first digit, then four 4-digit groups
    high8 = digits // 10**8
    groups[0], rest = np.divmod(high8, 10**8)
    groups[1], groups[2] = np.divmod(rest, 10**4)
    groups[3], groups[4] = np.divmod(digits - high8 * 10**8, 10**4)
    zeros = _GROUP_ZEROS[groups[4]]
    for k in (3, 2, 1):
        more = np.flatnonzero(zeros == 4 * (4 - k))
        zeros[more] += _GROUP_ZEROS[groups[k, more]]
    # less the first group's padding "000"
    text = np.ascontiguousarray(np.take(_GROUP_TEXT, groups).T).view(np.uint8)[:, 3:]
    return text, zeros


def _format_block(block: np.ndarray) -> bytes:
    """The lines ``"%.17g"`` writes for the rows of the float64 matrix ``block``.

    Values in fixed notation (see :func:`_fixed_notation`) are sorted by
    (X, sign), and each run of one layout is written with slice copies:
    the sign, then X + 1 digits, the point and 16 - X digits for X >= 0,
    or "0.", -X - 1 zeros and 17 digits for X < 0, with the trailing zeros
    stripped, and the point too when nothing follows it. Zeros, inf, NaN
    and every other value are formatted by ``"%.17g"`` itself.
    """
    values = block.ravel()
    n, n_cols = values.size, block.shape[1]
    if not n:
        return b"\n" * len(block)
    fast, exp, digits = _fixed_notation(np.abs(values))
    key = (2 * (exp + 4) + np.signbit(values)).astype(np.int8)
    key[~fast] = -1
    order = np.argsort(key, kind="stable")
    key = key[order]
    text, zeros = _digit_text(digits[order])

    buf = np.zeros((n, 24), np.uint8)
    length = np.zeros(n, np.intp)
    starts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1), n]
    for lo, hi in zip(starts[:-1], starts[1:]):
        if key[lo] < 0:
            continue
        exp10, neg = divmod(int(key[lo]) - 8, 2)
        rows, tail = slice(lo, hi), zeros[lo:hi]
        if neg:
            buf[rows, 0] = ord("-")
        if exp10 >= 0:
            point = neg + exp10 + 1
            buf[rows, neg:point] = text[rows, : exp10 + 1]
            buf[rows, point] = ord(".")
            buf[rows, point + 1 : neg + 18] = text[rows, exp10 + 1 :]
            fraction = np.maximum(16 - exp10 - tail, 0)
            length[rows] = point + np.where(fraction > 0, fraction + 1, 0)
        else:
            start = neg + 1 - exp10
            buf[rows, neg:start] = ord("0")
            buf[rows, neg + 1] = ord(".")
            buf[rows, start : start + 17] = text[rows]
            length[rows] = start + 17 - tail
    # NUL from each record's length on
    buf.view(np.uint64)[...] &= np.take(_KEEP, length, axis=0)
    records = np.empty(n, "S24")
    records[order] = buf.view("S24")[:, 0]
    fields = records.tolist()
    for i, x in zip(np.flatnonzero(~fast), values[~fast].tolist()):
        fields[i] = b"%.17g" % x
    lines = [b"\t".join(fields[r * n_cols : (r + 1) * n_cols]) for r in range(len(block))]
    return b"\n".join(lines) + b"\n"


def write_matrix_tsv(path: str, values: np.ndarray) -> str:
    """One row per line, tab-separated, no header; 17 digits, as :func:`fmt`.

    ``values`` is a 2-d matrix. The bytes are those of ``"%.17g"`` on each
    value cast to float64, made a block of rows at a time by
    :func:`_format_block` without formatting most values one by one.
    Returns the SHA-256 hex digest of the bytes written.
    """
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-d array, got {matrix.ndim}-d")
    step = max(1, _BLOCK // max(1, matrix.shape[1]))
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for top in range(0, matrix.shape[0], step):
            text = _format_block(matrix[top : top + step])
            fh.write(text)
            digest.update(text)
    return digest.hexdigest()


def read_matrix_tsv(path: str) -> np.ndarray:
    """Read a file written by :func:`write_matrix_tsv`; blank lines are skipped.

    A row of another width or a field that is not a number raises
    ParseError naming the file, the line and, for a bad field, the column.
    """
    name = os.path.basename(path)
    if not os.path.isfile(path):
        raise ParseError(f"missing {name}")
    try:
        return np.loadtxt(path, delimiter="\t", ndmin=2, comments=None)
    except ValueError as exc:
        raise _locate_parse_error(path, name, exc) from None


def _locate_parse_error(path: str, name: str, exc: ValueError) -> ParseError:
    """Re-scan a file that np.loadtxt rejected, to name the line and column."""
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                return ParseError(
                    f"{name} line {lineno}: expected {width} columns, found {len(fields)}"
                )
            for column, field in enumerate(fields, start=1):
                try:
                    float(field)
                except ValueError:
                    return ParseError(
                        f"{name} line {lineno} column {column}: not a number: {field!r}"
                    )
    # a spelling Python's float() accepts but np.loadtxt does not, such as 1_0
    return ParseError(f"{name}: {exc}")


def _load_copy(path: str) -> np.ndarray | None:
    """The float64 matrix saved at ``path``, or None if it is missing or unreadable."""
    try:
        bold = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if isinstance(bold, np.ndarray) and bold.dtype == np.float64 and bold.ndim == 2:
        return bold
    return None


def _read_bold(path: str, subject_id: str, n_scans: int) -> np.ndarray:
    """The bold matrix: the copy named by the TSV's hash if readable, else the parse.

    The TSV is hashed only when the subject has some copy, so a dataset
    that no :func:`write_dataset` wrote pays no hash.
    """
    name = _bold_name(subject_id)
    full = os.path.join(path, name)
    bold = None
    if os.path.isfile(full) and _bold_copies(path, subject_id):
        bold = _load_copy(os.path.join(path, _bold_copy_name(subject_id, _sha256(full))))
    if bold is None:
        bold = read_matrix_tsv(full)
    if bold.shape[0] != n_scans:
        raise ParseError(f"{name} has {bold.shape[0]} rows, manifest says {n_scans}")
    return bold


def _read_events(
    path: str, name: str, tr: float, n_scans: int, conditions: tuple[str, ...]
) -> EventTable:
    full = os.path.join(path, name)
    if not os.path.isfile(full):
        raise ParseError(f"missing {name}")
    events = []
    with open(full) as fh:
        header = fh.readline().rstrip("\n")
        if header != EVENTS_HEADER:
            raise ParseError(f"{name} line 1: expected header {EVENTS_HEADER!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(f"{name} line {lineno}: expected 3 columns")
            try:
                onset = float(fields[0])
                duration = float(fields[1])
            except ValueError:
                raise ParseError(f"{name} line {lineno}: bad number") from None
            condition = fields[2]
            if not onset >= 0:
                raise ParseError(f"{name} line {lineno}: onset must be >= 0, got {onset}")
            if not duration >= 0:
                raise ParseError(f"{name} line {lineno}: duration must be >= 0, got {duration}")
            if onset + duration > n_scans * tr + 1e-9:
                raise ParseError(
                    f"{name} line {lineno}: event ends at {onset + duration}s, "
                    f"after the {n_scans * tr}s scan window"
                )
            if condition not in conditions:
                raise ParseError(
                    f"{name} line {lineno}: condition {condition!r} not in manifest"
                )
            events.append(Event(onset=onset, duration=duration, condition=condition))
    return EventTable(
        events=tuple(events), tr=tr, n_scans=n_scans, conditions=conditions
    )


def read_dataset(path: str) -> list[tuple[SubjectData, DesignMatrix]]:
    """Load every subject and build its design matrix from the event files."""
    manifest = _read_manifest(path)
    hrf = canonical_hrf(manifest["tr"])
    out = []
    n_voxels = None
    for sid in manifest["subjects"]:
        bold = _read_bold(path, sid, manifest["n_scans"])
        if n_voxels is None:
            n_voxels = bold.shape[1]
        elif bold.shape[1] != n_voxels:
            raise ParseError(
                f"{_bold_name(sid)} has {bold.shape[1]} columns, other subjects have {n_voxels}"
            )
        events = _read_events(
            path, _events_name(sid), manifest["tr"], manifest["n_scans"], manifest["conditions"]
        )
        design = build_design_matrix(events, hrf)
        out.append((SubjectData(subject_id=sid, responses=bold), design))
    return out


@dataclass(frozen=True)
class RunResult:
    """The numbers one fit reports, checked to be finite."""

    method: str
    config: FitConfig
    rho_max: float
    rho_std_over_seeds: float = 0.0
    mse_by_iterations: tuple[tuple[int, float], ...] = ()
    phase_ms: tuple[tuple[str, float], ...] = ()
    version: str = "0.0.0"

    def __post_init__(self):
        values = [self.rho_max, self.rho_std_over_seeds]
        values += [m for _, m in self.mse_by_iterations]
        values += [ms for _, ms in self.phase_ms]
        if not np.all(np.isfinite(values)):
            raise DrslError("run result contains non-finite numbers")


def write_results(result: RunResult, path: str) -> None:
    """Write correlation/mse/runtime CSVs under ``path``."""
    os.makedirs(path, exist_ok=True)
    row = f"{result.method},{fmt(result.rho_max)},{fmt(result.rho_std_over_seeds)}"
    write_csv(os.path.join(path, "correlation.csv"), CORRELATION_HEADER, [row])
    rows = [f"{iterations},{fmt(mse)}" for iterations, mse in result.mse_by_iterations]
    write_csv(os.path.join(path, "mse.csv"), MSE_HEADER, rows)
    rows = [f"{result.method},{phase},{fmt(ms)}" for phase, ms in result.phase_ms]
    write_csv(os.path.join(path, "runtime.csv"), RUNTIME_HEADER, rows)


def write_csv(path: str, header: str, rows: list[str]) -> None:
    """Write a result table: ``header``, then ``rows``, one line each."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([header, *rows]) + "\n")
