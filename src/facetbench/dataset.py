"""Immutable DMU datasets: CSV ingestion, validation, serialization.

The canonical file format is UTF-8 CSV with a header row of the form

    dmu,in:<name>,...,out:<name>,...

Columns may appear in any order; roles come from the ``in:``/``out:``
prefixes and the single unprefixed column holds DMU names.  Values are
parsed as C-locale decimal literals (``parse_float``) and stored at full
double precision.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError


def parse_float(text: str) -> float:
    """Parse a C-locale decimal literal: ``[+-]?(d+[.d*]|.d+)([eE][+-]?d+)?``
    over ASCII digits, or nan/inf/infinity in any case and with a sign.

    That is ``float()``'s grammar without what it adds beyond C: digit
    separators (``1_0``), non-ASCII digits and surrounding whitespace.
    Raises ValueError.
    """
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"not a decimal number: {text!r}")
    return float(text)


def read_text(path: str | Path, newline: str | None = None) -> str:
    """The whole of a UTF-8 text file, read with ``open``'s ``newline``;
    a leading byte-order mark, as some spreadsheet exports write, is
    dropped.

    Every input file goes through here, so a path that cannot be read as
    text (missing, a directory, unreadable, not UTF-8) raises DataError.
    """
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            text = fh.read()
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    # dropped here, not by the utf-8-sig codec, which measurably raised the
    # peak RSS of a coverage run (by about 0.2 MB)
    return text[1:] if text.startswith("\ufeff") else text


def write_text(path: str | Path, text: str) -> None:
    """Write text to path as UTF-8.  Every output file goes through here,
    so a path that cannot be written raises DataError."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def json_text(payload) -> str:
    """The JSON output format of every command: sorted keys, two-space
    indent and a final newline, so equal payloads give equal bytes."""
    import json  # here, not at the top: loading a dataset needs no JSON

    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class Violation:
    """One broken dataset invariant, with enough context to locate it."""

    rule: str
    dmu: str | None = None
    dimension: str | None = None
    message: str = ""

    def __str__(self) -> str:
        where = ", ".join(p for p in (self.dmu, self.dimension) if p)
        return f"{self.rule}({where}): {self.message}" if where else f"{self.rule}: {self.message}"


@dataclass(frozen=True)
class Dataset:
    """Named DMUs with an m-input by n and s-output by n data block.

    Column j of both matrices belongs to DMU ``names[j]``.  Arrays are
    frozen after construction; all reads are safe to share across threads.
    """

    names: tuple[str, ...]
    inputs: np.ndarray
    outputs: np.ndarray
    input_labels: tuple[str, ...] = ()
    output_labels: tuple[str, ...] = ()

    def __post_init__(self):
        inputs = np.ascontiguousarray(np.asarray(self.inputs, dtype=float))
        outputs = np.ascontiguousarray(np.asarray(self.outputs, dtype=float))
        if inputs.ndim != 2 or outputs.ndim != 2:
            raise DataError("inputs and outputs must be 2-D matrices (dims x DMUs)")
        n = len(self.names)
        if inputs.shape[1] != n or outputs.shape[1] != n:
            raise DataError(
                f"column counts {inputs.shape[1]}/{outputs.shape[1]} do not match {n} DMU names"
            )
        object.__setattr__(self, "names", tuple(self.names))
        if not self.input_labels:
            object.__setattr__(self, "input_labels", tuple(f"x{i+1}" for i in range(inputs.shape[0])))
        if not self.output_labels:
            object.__setattr__(self, "output_labels", tuple(f"y{r+1}" for r in range(outputs.shape[0])))
        if len(self.input_labels) != inputs.shape[0] or len(self.output_labels) != outputs.shape[0]:
            raise DataError("label counts do not match matrix row counts")
        inputs.flags.writeable = False
        outputs.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return self.inputs.shape[0]

    @property
    def s(self) -> int:
        return self.outputs.shape[0]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DataError(f"unknown DMU name: {name!r}") from None


# An LP solves output r's normalized slack t_r/y_r in units of P_r, the
# power of two that its row and column equilibration divide by (the
# largest power of two <= max(1, max_j y_rj)), with the weight
# P_r/(s*y_r).  That weight overflows at 2**1024; the objective term is the
# weight times the solved slack t_r/P_r, so the rule gives each factor half
# the exponent range: P_r/(s*y_r) <= 2**RANGE_BITS.
RANGE_BITS = 512


def output_floors(outputs: np.ndarray) -> np.ndarray:
    """The smallest output value of each row of ``outputs`` (s x n) that the
    dynamic-range rule accepts: ``P_r / (s * 2**RANGE_BITS)``."""
    top = outputs.max(axis=1, initial=1.0, where=np.isfinite(outputs))
    return np.ldexp(1.0, np.frexp(top)[1] - 1 - RANGE_BITS) / outputs.shape[0]


def validate_dataset(ds: Dataset) -> list[Violation]:
    """Check every dataset invariant; an empty list means all hold.

    Violations are data, not failures: this never raises.
    """
    out: list[Violation] = []
    seen: dict[str, int] = {}
    for j, name in enumerate(ds.names):
        if not name:
            out.append(Violation("empty-name", dmu=f"#{j}", message="DMU name is empty"))
        if name in seen:
            out.append(Violation("duplicate-name", dmu=name, message=f"also used at row {seen[name] + 1}"))
        else:
            seen[name] = j
    for i in range(ds.m):
        for j in range(ds.n):
            v = ds.inputs[i, j]
            if not np.isfinite(v) or v <= 0.0:
                out.append(Violation(
                    "nonpositive-input", dmu=ds.names[j], dimension=ds.input_labels[i],
                    message=f"input value {v!r} must be strictly positive",
                ))
    floors = output_floors(ds.outputs)
    for r in range(ds.s):
        for j in range(ds.n):
            v = ds.outputs[r, j]
            if not np.isfinite(v) or v <= 0.0:
                out.append(Violation(
                    "nonpositive-output", dmu=ds.names[j], dimension=ds.output_labels[r],
                    message=f"output value {v!r} must be strictly positive (efficiency ratios divide by it)",
                ))
            elif v < floors[r]:
                out.append(Violation(
                    "output-range", dmu=ds.names[j], dimension=ds.output_labels[r],
                    message=f"output value {float(v)!r} is below {float(floors[r])!r}, 2**-{RANGE_BITS}/s "
                            "of its column's scale: the measures' weights 1/(s*y) would overflow",
                ))
    if ds.m < 1:
        out.append(Violation("no-inputs", message="at least one input dimension required"))
    if ds.s < 1:
        out.append(Violation("no-outputs", message="at least one output dimension required"))
    need = ds.s + ds.m - 1
    if ds.n < need:
        out.append(Violation(
            "too-few-dmus",
            message=f"too few DMUs for any FDEF: n={ds.n} < s+m-1={need}",
        ))
    return out


def _split_header(header: list[str]) -> tuple[int, list[tuple[int, str]], list[tuple[int, str]]]:
    """Return (name column, [(col, label)] inputs, [(col, label)] outputs)."""
    name_col = None
    ins: list[tuple[int, str]] = []
    outs: list[tuple[int, str]] = []
    for k, raw in enumerate(header):
        col = raw.strip()
        if col.lower().startswith("in:"):
            ins.append((k, col[3:].strip()))
        elif col.lower().startswith("out:"):
            outs.append((k, col[4:].strip()))
        elif name_col is not None:
            raise DataError(f"duplicate name column: {header[name_col]!r} and {col!r}")
        else:
            name_col = k
    if name_col is None:
        raise DataError("header has no name column (exactly one column without an in:/out: prefix)")
    if not ins:
        raise DataError("header declares no input columns (prefix in:)")
    if not outs:
        raise DataError("header declares no output columns (prefix out:)")
    for cols in (ins, outs):
        labels = [lb for _, lb in cols]
        if len(set(labels)) != len(labels):
            raise DataError(f"duplicate column labels in header: {sorted(labels)}")
    return name_col, ins, outs


def parse_dataset(path: str | Path) -> Dataset:
    """Parse a CSV into a Dataset without enforcing the value invariants.

    Structural problems (bad header, non-numeric cells, duplicate names,
    no data rows) raise DataError; value-level invariants are left for
    validate_dataset so that a diagnosis run can report them all.
    """
    path = Path(path)
    text = read_text(path, newline="")
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise DataError(f"{path}: malformed CSV: {exc}") from None
    rows = [row for row in rows if row and any(c.strip() for c in row)]
    if not rows:
        raise DataError(f"{path}: no data rows (file is empty)")
    name_col, ins, outs = _split_header(rows[0])
    body = rows[1:]
    if not body:
        raise DataError(f"{path}: no data rows")
    names: list[str] = []
    X = np.empty((len(ins), len(body)))
    Y = np.empty((len(outs), len(body)))
    for j, row in enumerate(body):
        if len(row) != len(rows[0]):
            raise DataError(f"{path}: row {j + 2} has {len(row)} cells, header has {len(rows[0])}")
        name = row[name_col].strip()
        if name in names:
            raise DataError(f"{path}: duplicate DMU name {name!r} at row {j + 2}")
        names.append(name)
        for dest, cols in ((X, ins), (Y, outs)):
            for i, (k, label) in enumerate(cols):
                cell = row[k].strip()
                try:
                    dest[i, j] = parse_float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric cell {cell!r} at row {j + 2}, column {rows[0][k]!r}"
                    ) from None
    return Dataset(
        names=tuple(names), inputs=X, outputs=Y,
        input_labels=tuple(lb for _, lb in ins), output_labels=tuple(lb for _, lb in outs),
    )


def load_dataset(path: str | Path) -> Dataset:
    """Parse and fully validate; any violation is a hard DataError."""
    ds = parse_dataset(path)
    violations = validate_dataset(ds)
    if violations:
        listing = "; ".join(str(v) for v in violations)
        raise DataError(f"{path}: invalid dataset: {listing}")
    return ds


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write the canonical CSV form (name column first, inputs, outputs).

    Values are written with repr-level precision so that a reload
    reproduces the dataset bit for bit.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["dmu"] + [f"in:{lb}" for lb in ds.input_labels] + [f"out:{lb}" for lb in ds.output_labels])
        for j, name in enumerate(ds.names):
            w.writerow(
                [name]
                + [repr(float(v)) for v in ds.inputs[:, j]]
                + [repr(float(v)) for v in ds.outputs[:, j]]
            )
