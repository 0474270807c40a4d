"""Deterministic artifact writing and seeded substreams.

All output files are written to a temporary sibling and renamed into place
so interrupted runs never leave partial artifacts.  Floats are rendered by
repr (shortest round-trip form) in JSON and by %.17g in CSV so that equal
inputs give byte-identical files.

CSVs are written from a stream of column batches, each cut into slices of
about ``_CELLS`` float cells (2560 rows of the scan's four float columns).
The float64 array columns of a slice are stacked into one buffer and
rendered in one call, with exactly the bytes of ``'%.17g' % x`` for every
cell; a NumPy ``S`` (bytes) column is written as it is; no other column
is taken.

Why the float kernel is exact.  For finite nonzero x with decimal exponent
E (corrected so that |x| * 10**(16-E) lies in [1e16, 1e17)), '%.17g' prints
the integer N nearest to y* = |x| * 10**(16-E), ties to even.  The kernel
forms y* in float64 double-double arithmetic (Dekker 1971).  A table holds
10**k for k in [-280, 280] as hi + lo, hi correctly rounded and lo =
fl(10**k - hi), so hi + lo is within 2**-106 hi of 10**k.  Dekker's
TwoProduct gives a * hi = p + e exactly, p = fl(a * hi), from Veltkamp's
halves of a and of hi; p >= 2**53 is an integer.  Then r = fl(e + fl(a *
lo)), N = p + floor(r) before rounding, and frac = r - floor(r).  With p <
2**57, |e| <= 8 and |a * lo| < 16, the two roundings in r err by at most
2**-50 and 2**-49, the table's remainder by a * 2**-106 hi < 2**-49, and
frac's subtraction by 2**-53: in all below 5e-15.  Hence N = round(p + r)
is the correctly rounded 17-digit significand whenever frac is at least
``_BAND`` = 2**-40 away from 1/2 and N is not 1e17.  Every other cell is
undecided: it goes to Python's own '%.17g' (one ``%`` per slice, for all
its float columns), which rounds exact ties to even.  So do non-finite
cells and cells with E outside [-263, 295], where 16 - E +- 1 leaves the
table.  A zero has no E: the kernel writes it as the digit 0 in the
form of E = 0, ``0`` or ``-0``.  Of a typical column, no cell is left.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import tempfile
import zlib
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = ["atomic_write_text", "write_csv", "dump_json", "write_json",
           "substream"]


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


# ---------------------------------------------------------------------------
# %.17g of a float64 array
# ---------------------------------------------------------------------------

_POW_LO, _POW_HI = -280, 280    # the 10**k table covers 16 - E, E +- 1
_E_LO, _E_HI = 17 + _POW_LO, 15 + _POW_HI   # the E the kernel decides
_E_MIN, _E_MAX = -324, 308      # decimal exponents of nonzero doubles
_SPLIT = 2.0**27 + 1            # Veltkamp's split of a 53-bit significand
_BAND = 2.0**-40                # undecided half-width around frac(y) = 1/2
_WIDTH = 24                     # longest cell: -1.2345678901234567e-308
_KERNEL_MIN = 256               # shorter batches are faster in Python alone
# float cells formatted per slice: bounds the slice's cells, text and NumPy
# temporaries, and spreads the kernel's fixed cost over every float column
_CELLS = 5 * 2048
_GATHER = 1024                  # rows of one gather block and of its lines

# byte columns of a cell's source row: three NULs (so that the digit groups
# start 4-aligned), the 17 digits, then constants; a layout is a list of
# these positions, padded to _WIDTH with position 0, a NUL
_DIGIT = 3
_TAIL = b".-e+0123456789\0\0"
_DOT, _MINUS, _E, _PLUS, _CHAR0 = (_DIGIT + 17 + _TAIL.index(c)
                                   for c in b".-e+0")
_SOURCE = _DIGIT + 17 + len(_TAIL)


def _power(k: int):
    """10**k as hi + lo: hi correctly rounded, lo = fl(10**k - hi); both
    from integers, whose true division rounds correctly."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den
    m, q = hi.as_integer_ratio()
    return hi, (num * q - m * den) / (den * q)


@functools.cache
def _tables():
    """10**k for k in [_POW_LO, _POW_HI] as the rows hi, lo and hi's
    Veltkamp halves; the bounds [low, high) of the |x| whose E lies in
    [_E_LO, _E_HI], the first doubles at or above 10**_E_LO and
    10**(_E_HI + 1); 4-digit ASCII groups as uint32, and the significant
    digits of each group (its length without trailing zeros)."""
    hi, lo = np.array([_power(k) for k in range(_POW_LO, _POW_HI + 1)]).T
    c = hi * _SPLIT
    head = c - (c - hi)
    pow10 = np.stack([hi, lo, head, hi - head])
    bounds = [h if rest <= 0 else np.nextafter(h, np.inf)
              for h, rest in map(_power, (_E_LO, _E_HI + 1))]
    groups = [f"{i:04d}" for i in range(10_000)]
    quads = np.frombuffer("".join(groups).encode(), dtype=np.uint32)
    sig = np.array([len(g.rstrip("0")) for g in groups], dtype=np.uint8)
    return pow10, bounds, quads, sig


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

    def table(self, at) -> np.ndarray:
        """The layout rows, one per key, with those of every exponent
        ``at + _E_MIN`` built."""
        if not self.built[at].all():
            for k in set(at[~self.built[at]].tolist()):
                for neg in (0, 1):
                    for s in range(1, 18):
                        row = _layout(k + _E_MIN, neg, s)
                        self.rows[k, neg, s, :len(row)] = row
                self.built[k] = True
        return self.rows.reshape(-1, _WIDTH)


@functools.cache
def _layouts() -> _Layouts:
    return _Layouts()


class _FloatBuffers:
    """Buffers of :func:`_format_floats` for up to ``size`` cells, made once
    per CSV and reused for every slice: the stacked float columns, the
    double-double product's six temporaries, the cells' digits and text,
    and one gather block's source rows, layout rows and intp index."""

    def __init__(self, size: int):
        self.values = np.empty(size)
        self.product = np.empty((6, size))
        # word 0 holds three NULs and the lead digit, words 1-4 the groups
        self.digits = np.zeros((5, size), dtype=np.uint32)
        self.cells = np.empty((size, _WIDTH), dtype=np.uint8)
        block = min(size, _GATHER)
        self.source = np.empty((block, _SOURCE), dtype=np.uint8)
        self.source[:, _DIGIT + 17:] = np.frombuffer(_TAIL, np.uint8)
        self.rows = np.empty((block, _WIDTH), dtype=np.uint8)
        self.index = np.empty((block, _WIDTH), dtype=np.intp)
        self.offsets = np.arange(block)[:, None] * _SOURCE


def _format_floats(x: np.ndarray, buffers: Optional[_FloatBuffers] = None):
    """'%.17g' of every cell of the float64 array ``x``, as ``S24`` bytes:
    the kernel's cells, and Python's for the cells it leaves undecided.

    The result is a view of ``buffers.cells``, valid until the next call
    with the same buffers."""
    if buffers is None:
        buffers = _FloatBuffers(x.size)
    cells = buffers.cells[:x.size]
    undecided = _decide(x, buffers)
    if undecided.size:
        cells[undecided] = _python_floats(x[undecided])
    return cells.view(f"S{_WIDTH}").ravel()


def _python_floats(x: np.ndarray) -> np.ndarray:
    """Python's '%.17g' of every cell of ``x`` as uint8 rows of _WIDTH."""
    text = ("%.17g\0" * x.size) % tuple(x.tolist())
    return np.array(text.split("\0")[:-1], dtype=f"S{_WIDTH}").view(
        np.uint8).reshape(-1, _WIDTH)


def _two_product(a: np.ndarray, at: np.ndarray, t: np.ndarray):
    """Dekker's TwoProduct of ``a`` and hi, the high part of the table's
    10**k at ``at``: p = fl(a * hi) into t[0] and a * hi - p, exactly, into
    t[5], from the Veltkamp halves of a and of hi; t[1:5] are scratch."""
    hi, _, hi_head, hi_tail = _tables()[0]
    np.take(hi, at, out=t[0], mode="clip")
    t[0] *= a
    np.multiply(a, _SPLIT, out=t[1])
    np.subtract(t[1], a, out=t[2])
    t[1] -= t[2]                            # a's head
    np.subtract(a, t[1], out=t[2])          # a's tail
    np.take(hi_head, at, out=t[3], mode="clip")
    np.take(hi_tail, at, out=t[4], mode="clip")
    np.multiply(t[1], t[3], out=t[5])
    t[5] -= t[0]
    t[1] *= t[4]
    t[5] += t[1]
    t[3] *= t[2]
    t[5] += t[3]
    t[2] *= t[4]
    t[5] += t[2]


def _scaled(a: np.ndarray, at: np.ndarray, t: np.ndarray, n: np.ndarray):
    """a * 10**k, k = ``at`` + _POW_LO, as n + frac: the integer n into
    ``n``, and frac, in [0, 1) and within 5e-15, into t[5]; ``at`` is
    overwritten."""
    _two_product(a, at, t)
    np.take(_tables()[0][1], at, out=t[1], mode="clip")
    t[1] *= a
    t[5] += t[1]                            # r = e + fl(a * lo)
    np.floor(t[5], out=t[1])
    t[5] -= t[1]
    np.copyto(n, t[0], casting="unsafe")    # p is an integer below 2**57
    np.copyto(at, t[1], casting="unsafe")
    n += at


def _decide(x: np.ndarray, buffers: _FloatBuffers) -> np.ndarray:
    """Fill the cells of ``x`` whose rounding the error bound decides;
    return the indices of the others.

    Its temporaries are the six float64 rows of ``buffers.product``, and
    one float64, three int64 and two bool arrays of ``x.size``, written in
    place and reused as their values die (``take`` with ``mode="clip"``
    fills ``out`` without a copy; every index is in range)."""
    _, (low, high), quads, sig = _tables()
    size = x.size
    a = np.abs(x)
    # non-finite cells and E outside [_E_LO, _E_HI] go to Python; a zero
    # stands in as 1 and is decided, its digits set to 0 below
    sure = a >= low
    sure &= a < high
    zero = a == 0.0
    np.putmask(a, ~sure, 1.0)
    sure |= zero
    key, n, rest = np.empty((3, size), dtype=np.int64)
    e = rest.view(np.float64)               # E as a float, until it is key
    np.log10(a, out=e)
    np.floor(e, out=e)
    np.copyto(key, e, casting="unsafe")
    np.subtract(16 - _POW_LO, key, out=rest)
    t = buffers.product[:, :size]
    _scaled(a, rest, t, n)
    frac = t[5]
    # log10 can round across a power of ten: move E by one there
    moved = np.flatnonzero((n < 10**16) | (n >= 10**17))
    if moved.size:
        key[moved] += np.where(n[moved] < 10**16, -1, 1)
        part, whole = np.empty((6, moved.size)), np.empty_like(n[moved])
        _scaled(a[moved], 16 - _POW_LO - key[moved], part, whole)
        n[moved], frac[moved] = whole, part[5]
    n += frac > 0.5
    frac -= 0.5
    np.abs(frac, out=frac)
    sure &= frac >= _BAND
    sure &= n >= 10**16
    sure &= n < 10**17
    np.putmask(n, ~sure, 10**16)
    np.putmask(n, zero, 0)                  # 0 or -0, in the form of E = 0

    # each cell's layout key, ((E - _E_MIN) * 2 + sign) * 18 + digits,
    # built in place of E; the digits are added below
    key -= _E_MIN
    table = _layouts().table(key)
    key *= 2
    key += np.signbit(x)
    key *= 18

    # the 17 digits: four groups of four from the right, then the lead
    # digit; the last nonzero group sets the significant digits, 1 + 4j +
    # its own for group j, and each group that is zero hands them down
    digits = buffers.digits[:, :size]
    group = a.view(np.int64)
    for j in (3, 2, 1, 0):
        np.floor_divide(n, 10**4, out=rest)
        np.multiply(rest, 10**4, out=group)
        np.subtract(n, group, out=group)
        n, rest = rest, n
        np.take(quads, group, out=digits[1 + j], mode="clip")
        if j == 3:
            key += 13
            key += sig[group]
            tail = np.flatnonzero(group == 0)
        else:
            key[tail] += sig[group[tail]].astype(np.int64) - 4
            tail = tail[group[tail] == 0]
    n += ord("0")
    digits[0].view(np.uint8).reshape(size, 4)[:, _DIGIT] = n

    # block by block: the source rows (the digits as laid out in memory,
    # then the constants), each cell's layout row, and the gather
    source, rows, index = buffers.source, buffers.rows, buffers.index
    words = source.view(np.uint32)          # the groups start 4-aligned
    for lo in range(0, size, len(index)):
        m = min(len(index), size - lo)
        words[:m, :5] = digits[:, lo:lo + m].T
        np.take(table, key[lo:lo + m], axis=0, out=rows[:m], mode="clip")
        np.add(buffers.offsets[:m], rows[:m], out=index[:m])
        np.take(source[:m].ravel(), index[:m], mode="clip",
                out=buffers.cells[lo:lo + m])
    return np.flatnonzero(~sure)


def _join_rows(cells: list) -> np.ndarray:
    """CSV lines, as uint8, from runs of adjacent columns' NUL-padded cells.

    Each entry of ``cells`` is a uint8 array (rows, columns, width) of
    adjacent columns of one width.  Each row is laid out with every cell in
    a slot of its column's width followed by the separator; dropping the
    NUL padding leaves the line."""
    width = sum(m * (w + 1) for _, m, w in (c.shape for c in cells))
    table = np.full((len(cells[0]), width), ord(","), np.uint8)
    end = 0
    for c in cells:
        rows, m, w = c.shape
        slots = table[:, end:end + m * (w + 1)]
        slots.shape = (rows, m, w + 1)          # a view, never a copy
        slots[:, :, :w] = c
        end += m * (w + 1)
    table[:, -1] = ord("\n")
    return table[table != 0]


def _is_floats(column) -> bool:
    return column.dtype == np.float64


def _slice_rows(floats: int) -> int:
    """Rows per slice of a batch with ``floats`` float64 array columns."""
    return max(1, _CELLS // max(1, floats))


def _pieces(header: Sequence[str], batches: Iterable):
    """Each batch's columns, checked, in slices of about ``_CELLS`` float
    cells, with whether the batch has the ``_KERNEL_MIN`` rows that the
    float kernel takes."""
    for columns in batches:
        columns = list(columns)
        if len(header) != len(columns):
            raise ValueError(f"{len(header)} header names for "
                             f"{len(columns)} columns")
        for c in columns:
            if not (isinstance(c, np.ndarray)
                    and (_is_floats(c) or c.dtype.kind == "S")):
                kind = getattr(c, "dtype", type(c).__name__)
                raise TypeError(f"cannot format {kind} column for CSV: need "
                                f"a float64 or S array")
        sizes = {len(c) for c in columns}
        if len(sizes) > 1:
            raise ValueError(f"columns of unequal length: {sorted(sizes)}")
        rows = sizes.pop() if sizes else 0
        step = _slice_rows(sum(map(_is_floats, columns)))
        for lo in range(0, rows, step):
            yield [col[lo:lo + step] for col in columns], rows >= _KERNEL_MIN


def write_csv(path: str, header: Sequence[str], batches: Iterable):
    """Write the rows of ``batches`` to ``path`` as CSV, atomically.

    Each batch is a list of equal-length columns, one per header name; its
    rows follow the previous batch's.  A column is a float64 array, written
    as '%.17g', or an ``S`` array, whose cells are the bytes the file
    should hold and must not contain NUL (rows are assembled in a
    NUL-padded table); any other column raises TypeError.  A batch is
    formatted in slices of about ``_CELLS`` float cells, all its float
    columns in one call, so a stream is written in memory bounded by one
    slice.  A batch of fewer than ``_KERNEL_MIN`` rows takes Python's
    formatter, every slice of a longer one the float kernel.
    """
    buffers = _FloatBuffers(0)
    with _atomic_open(path) as fh:
        fh.write((",".join(header) + "\n").encode())
        for parts, kernel in _pieces(header, batches):
            rows = len(parts[0])
            floats = [part for part in parts if _is_floats(part)]
            if floats:
                size = rows * len(floats)
                if len(buffers.values) < size:
                    buffers = _FloatBuffers(size)
                # the float columns stacked, then formatted in one call
                values = buffers.values[:size].reshape(len(floats), rows)
                for row, part in zip(values, floats):
                    row[:] = part
                text = (_format_floats(values.ravel(), buffers) if kernel
                        else _python_floats(values.ravel()))
                text = text.view(np.uint8).reshape(len(floats), rows, _WIDTH)
                text = text.transpose(1, 0, 2)
            # runs of adjacent float columns join as one block of cells, and
            # an S column's NUL-padded cells join as they are
            cells, at = [], 0
            for is_float, run in itertools.groupby(parts, _is_floats):
                if is_float:
                    end = at + len(list(run))
                    cells.append(text[:, at:end])
                    at = end
                else:
                    cells.extend(np.ascontiguousarray(c).view(np.uint8)
                                 .reshape(rows, 1, -1) for c in run)
            # the lines of one gather block at a time, so the table is small
            for lo in range(0, rows, _GATHER):
                fh.write(_join_rows([c[lo:lo + _GATHER] for c in cells]))


def _default(obj):
    """What json cannot write itself: NumPy scalars and arrays as Python
    values, complex numbers as {"re", "im"}."""
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                    f"serializable")


def dump_json(obj) -> str:
    """Canonical JSON text: sorted keys, repr floats, trailing newline."""
    return json.dumps(obj, default=_default, sort_keys=True, indent=2) + "\n"


def write_json(path: str, obj):
    atomic_write_text(path, dump_json(obj))


def substream(seed: int, label: str) -> np.random.Generator:
    """Named RNG substream, stable across runs and interpreter versions."""
    tag = zlib.crc32(label.encode())
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))
