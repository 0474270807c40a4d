"""Deterministic artifact writing and seeded substreams.

All output files are written to a temporary sibling and renamed into place
so interrupted runs never leave partial artifacts.  Floats are rendered by
repr (shortest round-trip form) in JSON and by %.17g in CSV so that equal
inputs give byte-identical files.

CSVs are written from columns, in batches of rows.  A float64 ndarray
column is rendered by :func:`_format_floats`, which gives exactly the bytes
of ``'%.17g' % x`` for every cell; a NumPy ``S`` (bytes) column, or a
:class:`Lookup` that yields one per batch, is written as it is; any other
column goes cell by cell through :func:`_format_cell`.

Why the float kernel is exact.  For finite nonzero x with decimal exponent
E (corrected so that |x| * 10**(16-E) lies in [1e16, 1e17)), '%.17g' prints
the integer N nearest to y* = |x| * 10**(16-E), ties to even.  The kernel
computes y in ``np.longdouble`` from a table of 10**k (k in [-310, 345])
parsed from the strings "1e<k>", each within half an ulp.  With a 64-bit
significand, u = 2**-64, the table entry and the product each err by at
most u relative, so |y - y*| <= 2u * 1e17 < 0.0109.  Hence N = round(y) is
the correctly rounded 17-digit significand whenever frac(y) is at least
``_BAND`` = 0.0125 away from 1/2 and N is not 1e17.  Every other cell is
undecided: it goes, with zeros and non-finite cells, to Python's own
'%.17g' (one ``%`` per batch), which rounds exact ties to even.  That is
2-3% of the cells of a typical column.

Platform note: the bound needs a long double with at least a 64-bit
significand (x86-64 extended precision, IEEE quad).  Where
``np.longdouble`` is plain double (MSVC, Apple arm64) every cell takes
Python's formatter, so the bytes are the same everywhere and only the time
differs.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import tempfile
import zlib
from typing import Optional, Sequence

import numpy as np

__all__ = ["atomic_write_text", "Lookup", "write_csv", "dump_json",
           "write_json", "substream"]


@contextlib.contextmanager
def _atomic_open(path: str):
    """Binary handle on a same-directory temp file, renamed onto ``path``
    when the block completes and deleted when it raises.

    ``mkstemp`` creates the file as 0600; it gets the mode a plain ``open``
    would have given it (0666 less the umask) before the rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str):
    """Write text to ``path`` as UTF-8 via a same-directory temp file."""
    with _atomic_open(path) as fh:
        fh.write(text.encode())


def _format_cell(x) -> str:
    if type(x) is float:
        return "%.17g" % x
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    if isinstance(x, (complex, np.complexfloating)):
        # split into two cells upstream instead; keep a readable fallback
        return "%.17g%+.17gj" % (x.real, x.imag)
    raise TypeError(f"cannot format {type(x).__name__} for CSV")


# ---------------------------------------------------------------------------
# %.17g of a float64 array
# ---------------------------------------------------------------------------

_POW_LO, _POW_HI = -310, 345    # the 10**k table covers 16 - E, E +- 1
_E_MIN, _E_MAX = -324, 308      # decimal exponents of nonzero doubles
_BAND = 0.0125                  # undecided half-width around frac(y) = 1/2
_WIDTH = 24                     # longest cell: -1.2345678901234567e-308
_KERNEL_MIN = 256               # fewer cells are faster in Python alone

# byte columns of a cell's source row: three NULs (so that the digit groups
# start 4-aligned), the 17 digits, then constants; a layout is a list of
# these positions, padded to _WIDTH with position 0, a NUL
_DIGIT = 3
_TAIL = b".-e+0123456789\0\0"
_DOT, _MINUS, _E, _PLUS, _CHAR0 = (_DIGIT + 17 + _TAIL.index(c)
                                   for c in b".-e+0")
_SOURCE = _DIGIT + 17 + len(_TAIL)


def _has_extended() -> bool:
    """Whether ``np.longdouble`` carries the 64-bit significand the error
    bound assumes."""
    return np.finfo(np.longdouble).nmant >= 63


@functools.cache
def _tables():
    """10**k in long double, 4-digit ASCII groups as uint32, and the
    significant digits of each group (its length without trailing zeros)."""
    pow10 = np.array([np.longdouble(f"1e{k}")
                      for k in range(_POW_LO, _POW_HI + 1)])
    groups = [f"{i:04d}" for i in range(10_000)]
    quads = np.frombuffer("".join(groups).encode(), dtype=np.uint32)
    sig = np.array([len(g.rstrip("0")) for g in groups], dtype=np.int64)
    return pow10, quads, sig


def _layout(exponent: int, negative: bool, digits: int) -> list:
    """Source positions of '%.17g' for a 17-digit significand with decimal
    exponent ``exponent`` and ``digits`` significant digits."""
    sign = [_MINUS] if negative else []
    body = [_DIGIT + i for i in range(digits)]
    if -4 <= exponent < 17:
        if exponent < 0:
            return sign + [_CHAR0, _DOT] + [_CHAR0] * (-exponent - 1) + body
        whole = [_DIGIT + i for i in range(exponent + 1)]
        frac = body[exponent + 1:]
        return sign + whole + ([_DOT] + frac if frac else [])
    mantissa = body[:1] + ([_DOT] + body[1:] if digits > 1 else [])
    power = [_CHAR0 + int(c) for c in "%02d" % abs(exponent)]
    return (sign + mantissa + [_E, _MINUS if exponent < 0 else _PLUS]
            + power)


class _Layouts:
    """Layout rows keyed by (exponent, sign, significant digits), each
    exponent's 34 rows built the first time a cell needs them."""

    def __init__(self):
        self.rows = np.zeros((_E_MAX - _E_MIN + 1, 2, 18, _WIDTH), np.uint8)
        self.built = np.zeros(_E_MAX - _E_MIN + 1, dtype=bool)

    def lookup(self, exponent, negative, digits) -> np.ndarray:
        at = exponent - _E_MIN
        if not self.built[at].all():
            for k in set(at[~self.built[at]].tolist()):
                for neg in (0, 1):
                    for s in range(1, 18):
                        row = _layout(k + _E_MIN, neg, s)
                        self.rows[k, neg, s, :len(row)] = row
                self.built[k] = True
        key = (at * 2 + negative) * 18 + digits
        return np.take(self.rows.reshape(-1, _WIDTH), key, axis=0)


@functools.cache
def _layouts() -> _Layouts:
    return _Layouts()


class _FloatBuffers:
    """Per-batch buffers of :func:`_format_floats` for batches of up to
    ``size`` cells, made once per CSV and reused for every batch."""

    def __init__(self, size: int):
        self.source = np.zeros((size, _SOURCE), dtype=np.uint8)
        self.source[:, _DIGIT + 17:] = np.frombuffer(_TAIL, np.uint8)
        self.index = np.empty((size, _WIDTH), dtype=np.intp)
        self.cells = np.empty((size, _WIDTH), dtype=np.uint8)
        self.offsets = np.arange(size)[:, None] * _SOURCE


def _format_floats(x: np.ndarray, buffers: Optional[_FloatBuffers] = None):
    """'%.17g' of every cell of the float64 array ``x``, as ``S24`` bytes.

    The result is a view of ``buffers.cells``, valid until the next call
    with the same buffers."""
    if buffers is None:
        buffers = _FloatBuffers(x.size)
    cells = buffers.cells[:x.size]
    undecided = np.arange(x.size)
    if x.size >= _KERNEL_MIN and _has_extended():
        undecided = _decide(x, buffers)
    if undecided.size:
        text = ("%.17g\0" * undecided.size) % tuple(x[undecided].tolist())
        cells[undecided] = np.array(
            text.split("\0")[:-1], dtype=f"S{_WIDTH}"
        ).view(np.uint8).reshape(-1, _WIDTH)
    return cells.view(f"S{_WIDTH}").ravel()


def _decide(x: np.ndarray, buffers: _FloatBuffers) -> np.ndarray:
    """Fill the cells of ``x`` whose rounding the error bound decides;
    return the indices of the others."""
    pow10, quads, sig = _tables()
    a = np.abs(x)
    sure = np.isfinite(a) & (a != 0.0)
    a[~sure] = 1.0
    exponent = np.floor(np.log10(a)).astype(np.int64)
    a = a.astype(np.longdouble)
    y = a * pow10[16 - exponent - _POW_LO]
    n = y.astype(np.int64)
    # log10 can round across a power of ten: move E by one there
    step = (n >= 10**17).astype(np.int64) - (n < 10**16)
    moved = np.flatnonzero(step)
    if moved.size:
        exponent[moved] += step[moved]
        y[moved] = a[moved] * pow10[16 - exponent[moved] - _POW_LO]
        n[moved] = y[moved].astype(np.int64)
    # y - n is exact, and a multiple of ulp(y) >= 2**-10 below 1
    frac = (y - n).astype(np.float64)
    n += frac > 0.5
    sure &= np.abs(frac - 0.5) >= _BAND
    sure &= (n >= 10**16) & (n < 10**17)
    n[~sure] = 10**16

    # the 17 digits: a lead digit and four groups of four
    high = n // 10**8
    low = n - high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    g = [high // 10**4, None, low // 10**4, None]
    g[1] = high - g[0] * 10**4
    g[3] = low - g[2] * 10**4
    source = buffers.source[:x.size]
    source[:, _DIGIT] = lead + ord("0")
    words = source.view(np.uint32)         # the groups start 4-aligned
    for j in range(4):
        words[:, 1 + j] = quads[g[j]]
    # significant digits: the last nonzero group sets them
    digits = 13 + sig[g[3]]
    zero = np.flatnonzero(g[3] == 0)
    for j in (2, 1, 0):
        digits[zero] = 1 + 4 * j + sig[g[j][zero]]
        zero = zero[g[j][zero] == 0]

    rows = _layouts().lookup(exponent, np.signbit(x).view(np.uint8), digits)
    index = buffers.index[:x.size]
    np.add(buffers.offsets[:x.size], rows, out=index)
    np.take(source.ravel(), index, out=buffers.cells[:x.size])
    return np.flatnonzero(~sure)


class Lookup:
    """The column ``table[codes]``, for a small bytes ``table``: looked up
    one CSV batch at a time, so no bytes column as long as ``codes`` is
    ever built."""

    def __init__(self, table: np.ndarray, codes: np.ndarray):
        self.table, self.codes = table, codes

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, rows):
        return self.table[self.codes[rows]]


# rows formatted per batch: bounds the batch's cells and text, and keeps its
# NumPy temporaries small enough to reuse freed heap
_BATCH = 2048


def _join_rows(cells: list) -> bytes:
    """CSV lines from one batch of each column's NUL-padded ``S`` cells.

    Each row is laid out with every cell in a slot of its column's width
    followed by the separator; dropping the NUL padding leaves the line."""
    widths = [c.itemsize for c in cells]
    table = np.empty((len(cells[0]), sum(widths) + len(widths)), np.uint8)
    end = 0
    for c, w in zip(cells, widths):
        table[:, end:end + w] = c.view(np.uint8).reshape(-1, w)
        table[:, end + w] = ord(",")
        end += w + 1
    table[:, -1] = ord("\n")
    return table[table != 0].tobytes()


def write_csv(path: str, header: Sequence[str], columns: Sequence):
    """Write ``columns`` (equal-length sequences, one per header name) to
    ``path`` as CSV, atomically, in batches of ``_BATCH`` rows.

    Text cells must not contain NUL: each row is assembled in a NUL-padded
    table.  An ``S`` column's cells are taken as they are, so they must be
    the bytes the file should hold.
    """
    columns = list(columns)
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header names for "
                         f"{len(columns)} columns")
    sizes = {len(c) for c in columns}
    if len(sizes) > 1:
        raise ValueError(f"columns of unequal length: {sorted(sizes)}")
    rows = sizes.pop() if sizes else 0
    buffers = _FloatBuffers(min(rows, _BATCH))
    with _atomic_open(path) as fh:
        fh.write((",".join(header) + "\n").encode())
        for lo in range(0, rows, _BATCH):
            cells = []
            for col in columns:
                part = col[lo:lo + _BATCH]
                if isinstance(part, np.ndarray) and part.dtype == np.float64:
                    # the buffers are reused by the next float column
                    cells.append(_format_floats(part, buffers).copy())
                elif isinstance(part, np.ndarray) and part.dtype.kind == "S":
                    cells.append(np.ascontiguousarray(part))
                else:
                    cells.append(np.array(
                        [_format_cell(c).encode() for c in part], dtype=bytes))
            fh.write(_join_rows(cells))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def dump_json(obj) -> str:
    """Canonical JSON text: sorted keys, repr floats, trailing newline."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def write_json(path: str, obj):
    atomic_write_text(path, dump_json(obj))


def substream(seed: int, label: str) -> np.random.Generator:
    """Named RNG substream, stable across runs and interpreter versions."""
    tag = zlib.crc32(label.encode())
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))
