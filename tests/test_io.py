"""Artifact writers."""

import hashlib
import itertools
import json
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spectral_forge import cli, io
from spectral_forge.io import _slice_rows, dump_json, write_csv, write_json
from spectral_forge.model import GroupUnionSpec
from spectral_forge.scanner import _circle_kernel, scan_unit_circle


def _theta_verdict(n, bad_at):
    """theta and verdict columns of n rows, as two batches cut at
    ``bad_at``: the second's verdicts are an object array, which no
    formatter accepts."""
    columns = [np.arange(n) / 7, np.array([b"ok"] * n)]
    bad = [columns[0][bad_at:], columns[1][bad_at:].astype(object)]
    return [[c[:bad_at] for c in columns], bad]


@pytest.mark.parametrize("existing", [None, b"theta,verdict\n0,old\n"])
def test_write_csv_leaves_no_partial_file_when_rows_fail(tmp_path, existing):
    target = tmp_path / "scan.csv"
    if existing is not None:
        target.write_bytes(existing)
    # enough rows that the stream has reached the temp file before failing
    with pytest.raises(TypeError, match="cannot format object"):
        write_csv(str(target), ["theta", "verdict"],
                  _theta_verdict(20_000, 15_000))
    assert os.listdir(tmp_path) == ([] if existing is None else ["scan.csv"])
    if existing is not None:
        assert target.read_bytes() == existing


def test_write_csv_formats_cells_by_type(tmp_path):
    # a float64 column renders as %.17g and an S column as its bytes
    target = tmp_path / "out.csv"
    write_csv(str(target), ["a", "b", "c"],
              [[np.array([0.1, 1e-300, -0.0]), np.array([b"x", b"", b"true"]),
                np.array([3.0, 0.0, 1e17])]])
    assert target.read_text() == (
        "a,b,c\n"
        "0.10000000000000001,x,3\n"
        "1e-300,,0\n"
        "-0,true,1e+17\n")


@pytest.mark.parametrize("existing", [None, b"a,b\n0,old\n"],
                         ids=["new", "existing"])
@pytest.mark.parametrize("column", [
    [0.5, 1.5], np.array([1, 2]), np.array([b"x", 1.5], dtype=object)],
    ids=["list", "int64", "object"])
def test_write_csv_refuses_other_columns(tmp_path, existing, column):
    # two column kinds, float64 and S arrays: anything else is refused
    # before a row is written, and an existing file stays as it was
    target = tmp_path / "out.csv"
    if existing is not None:
        target.write_bytes(existing)
    with pytest.raises(TypeError, match="need a float64 or S array"):
        write_csv(str(target), ["a", "b"], [[np.zeros(2), column]])
    assert os.listdir(tmp_path) == ([] if existing is None else ["out.csv"])
    if existing is not None:
        assert target.read_bytes() == existing


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_artifacts_follow_the_umask(tmp_path, umask, mode):
    # a plain open() would give 0666 less the umask; mkstemp alone gives 0600
    old = os.umask(umask)
    try:
        write_csv(str(tmp_path / "a.csv"), ["x"], [[np.array([1.0])]])
        write_json(str(tmp_path / "a.json"), {"x": 1.0})
    finally:
        os.umask(old)
    for name in ("a.csv", "a.json"):
        assert os.stat(tmp_path / name).st_mode & 0o777 == mode


def _walked(obj):
    """JSON values by a walk of the whole tree, as dump_json made them
    before it handed json a ``default`` hook: the reference."""
    if isinstance(obj, dict):
        return {str(k): _walked(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_walked(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.ndarray):
        return [_walked(v) for v in obj.tolist()]
    return obj


def test_dump_json_writes_numpy_and_complex_values_as_the_walk_did():
    obj = {"b": [np.bool_(True), np.int64(-3), np.float32(0.1),
                 np.float64(0.1), 2.5, None, "s", True],
           "a": {"c": np.array([[1.0, -0.0], [np.inf, np.nan]]),
                 "z": np.array([1 + 2j, -0.0 - 1j]), "x": 1 + 0.5j,
                 "y": np.complex64(0.5 - 1j), "t": (1, np.uint8(7)),
                 "flags": np.array([True, False])}}
    assert dump_json(obj) == \
        json.dumps(_walked(obj), sort_keys=True, indent=2) + "\n"
    with pytest.raises(TypeError, match="Fraction"):
        dump_json({"angle": Fraction(1, 3)})


# rows per slice of a batch with five float64 columns; a test that cuts
# across slices gives its batch five float columns
_ROWS = _slice_rows(5)


def _five_floats(columns):
    """``columns`` and after them enough float64 columns for five in all."""
    n = len(columns[0])
    floats = sum(c.dtype == np.float64 for c in columns)
    return list(columns) + [np.arange(n) * (k + 0.5) / 3
                            for k in range(5 - floats)]


def _cell(x) -> str:
    """A reference cell: '%.17g' of a float, bytes as they are."""
    if isinstance(x, str):
        return x
    return x.decode() if isinstance(x, bytes) else "%.17g" % x


def _general_path(header, columns):
    """The reference formatter applied to every row: the reference bytes."""
    return "".join(",".join(map(_cell, row)) + "\n"
                   for row in [header, *zip(*columns)])


def _write(tmp_path, header, columns):
    target = tmp_path / "out.csv"
    write_csv(str(target), header, [columns])
    return target.read_text()


def _assert_same_text(got, expected):
    """``got == expected`` for two CSV texts, reported by their sha256
    digests and the first line that differs: an assert of the strings
    themselves makes pytest diff 10^4-10^5 lines, which runs for minutes."""
    digests = [hashlib.sha256(t.encode()).hexdigest() for t in (got, expected)]
    if digests[0] != digests[1]:
        lines = itertools.zip_longest(got.splitlines(True),
                                      expected.splitlines(True))
        at, (line, want) = next((i, pair) for i, pair in enumerate(lines, 1)
                                if pair[0] != pair[1])
        pytest.fail(f"sha256 {digests[0][:16]} != {digests[1][:16]}: line "
                    f"{at} is {line!r}, expected {want!r}")


def test_write_csv_formats_plain_batches_without_the_cell_formatter(
        tmp_path, monkeypatch):
    # float64 array columns take the array kernel, both columns of a slice
    # in one call, the three-row last slice too
    n = 2 * _slice_rows(2) + 3
    columns = [np.arange(n) / 7, -np.arange(n) / 3]
    expected = _general_path(["a", "b"], columns)
    sizes = _formatted_sizes(monkeypatch)
    _assert_same_text(_write(tmp_path, ["a", "b"], columns), expected)
    assert sizes == [2 * _slice_rows(2), 2 * _slice_rows(2), 2 * 3]


def test_write_csv_takes_bytes_columns_as_they_are(tmp_path):
    # a NumPy S column is written as its bytes, and an empty cell stays
    # empty
    n = 2 * _slice_rows(1) + 3
    labels = np.array([b"CertifiedResolvent", b"SingularCandidate",
                       b""])[np.arange(n) % 3]
    columns = [np.arange(n) / 7, labels]
    expected = _general_path(["a", "v"],
                             [columns[0], [c.decode() for c in labels]])
    _assert_same_text(_write(tmp_path, ["a", "v"], columns), expected)
    # a strided S column too
    lines = expected.splitlines(True)
    _assert_same_text(
        _write(tmp_path, ["a", "v"], [columns[0][::2], labels[::2]]),
        "".join(lines[i] for i in [0, *range(1, n + 1, 2)]))


@pytest.mark.parametrize("at", [0, 1, 2 * _ROWS - 1, 2 * _ROWS,
                                2 * _ROWS + 1, 4 * _ROWS + 5])
@pytest.mark.parametrize("column,cell", [
    (0, 3), (0, True), (0, np.float64(0.1)), (0, np.int64(-7)),
    (1, 5), (1, np.str_("y")), (1, 2.5), (1, False)],
    ids=["float-int", "float-bool", "float-float64", "float-int64",
         "str-int", "str-np_str", "str-float", "str-bool"])
def test_write_csv_mixed_batches_match_the_cell_formatter(tmp_path, at,
                                                          column, cell):
    # one cell of another type, mid-file or at a slice boundary, makes its
    # column a list: the batch is refused and no file is left; as its own
    # array kind the column writes the reference bytes
    n = 4 * _ROWS + 10
    columns = _five_floats([np.arange(n) / 3,
                            np.array([b"r%d" % i for i in range(n)])])
    header = list("abcdefg")[:len(columns)]
    mixed = list(columns)
    mixed[column] = list(columns[column])
    mixed[column][at] = cell
    with pytest.raises(TypeError, match="cannot format list column"):
        _write(tmp_path, header, mixed)
    assert os.listdir(tmp_path) == []
    _assert_same_text(_write(tmp_path, header, columns),
                      _general_path(header, columns))


@pytest.mark.parametrize("edges", [
    [], [0, 1], [1, 2, 3], [7], [_ROWS - 1], [_ROWS + 1, 2 * _ROWS + 1],
    [300, 3000]], ids=lambda e: "-".join(map(str, e)) or "one")
def test_write_csv_batches_follow_each_other_row_for_row(tmp_path, edges):
    # a stream of batches cut anywhere, also into empty and one-row batches
    # or a small batch before a large one, writes the bytes of one batch
    n = 3 * _ROWS + 5
    labels = np.array([b"ab", b"c", b""])[np.arange(n) % 3]
    columns = _five_floats([np.arange(n) / 7, labels,
                            np.array([b"r%d" % i for i in range(n)])])
    header = list("abcdefg")
    cuts = [0, *edges, n]
    batches = [[col[lo:hi] for col in columns]
               for lo, hi in zip(cuts, cuts[1:])]
    target = tmp_path / "out.csv"
    write_csv(str(target), header, iter(batches))
    _assert_same_text(target.read_bytes().decode(),
                      _write(tmp_path, header, columns))


def test_write_csv_bad_later_batch_leaves_no_file(tmp_path):
    good = [np.zeros(2 * _slice_rows(2)), np.zeros(2 * _slice_rows(2))]
    with pytest.raises(ValueError, match="2 header names for 1 columns"):
        write_csv(str(tmp_path / "out.csv"), ["a", "b"],
                  [good, good, [np.zeros(3)]])
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("at", [0, 2 * _ROWS - 1, 2 * _ROWS + 2])
def test_write_csv_ragged_columns_leave_no_file(tmp_path, at):
    # a column of another length must not shift the cells of its rows
    n = 2 * _ROWS + 5
    with pytest.raises(ValueError, match="unequal length"):
        write_csv(str(tmp_path / "out.csv"), ["a", "b"],
                  [[np.arange(n, dtype=float), -np.arange(at, dtype=float)]])
    assert os.listdir(tmp_path) == []


def test_write_csv_header_must_name_every_column(tmp_path):
    with pytest.raises(ValueError, match="1 header names for 2 columns"):
        write_csv(str(tmp_path / "out.csv"), ["a"],
                  [[np.zeros(3), np.zeros(3)]])
    assert os.listdir(tmp_path) == []


def test_write_csv_special_floats_match_the_cell_formatter(tmp_path,
                                                          monkeypatch):
    # repeated so that the batch is large enough for the array kernel
    specials = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"),
                1e-300, 5e-324, -5e-324, 1.7976931348623157e308, 0.1] * 30
    columns = [np.array(specials), np.array([b"s"] * len(specials))]
    text = _write(tmp_path, ["x", "s"], columns)
    _assert_same_text(text, _general_path(["x", "s"], columns))
    # the same batch on Python's formatter alone
    monkeypatch.setattr(io, "_KERNEL_MIN", len(specials) + 1)
    _assert_same_text(text, _write(tmp_path, ["x", "s"], columns))
    assert text.splitlines()[1:4] == ["-0,s", "0,s", "nan,s"]


@pytest.mark.parametrize("batches", [
    [[np.zeros(0), np.zeros(0, dtype="S1")]],
    iter([iter([np.zeros(0), np.zeros(0)])]), []],
    ids=["list", "iterator", "no-batch"])
def test_write_csv_without_rows_writes_the_header_only(tmp_path, batches):
    target = tmp_path / "out.csv"
    write_csv(str(target), ["theta", "verdict"], batches)
    assert target.read_text() == "theta,verdict\n"


@pytest.mark.parametrize("n", [5, 2 * _ROWS, 2 * _ROWS + 1, 6 * _ROWS - 7])
def test_write_csv_failure_mid_batch_leaves_no_file(tmp_path, n):
    # the refused batch follows n - 1 rows written inside the first slice,
    # at the end of one, or after it
    target = tmp_path / "scan.csv"
    with pytest.raises(TypeError, match="cannot format object"):
        write_csv(str(target), list("tvabcd"),
                  map(_five_floats, _theta_verdict(6 * _ROWS + 10, n - 1)))
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# the %.17g array kernel against Python's formatter
# ---------------------------------------------------------------------------

def _python_cells(x):
    return ("%.17g\0" * x.size % tuple(x.tolist())).encode().split(b"\0")[:-1]


def _mismatches(x):
    """Indices where the array kernel and '%.17g' disagree."""
    # in slices, which bounds the kernel's buffers
    got = [c for lo in range(0, x.size, 16384)
           for c in io._format_floats(x[lo:lo + 16384]).tolist()]
    return [i for i, (g, w) in enumerate(zip(got, _python_cells(x)))
            if g != w]


def _ties(rng, odd: bool, count: int):
    """Doubles whose exact decimal value has 18 significant digits ending
    in 5, so that '%.17g' rounds a tie; the 17th digit is odd or even."""
    out = []
    for k in range(3, 9):
        # an integer of 18 - k digits plus j / 2^k has k decimals, the last
        # a 5; the integer stays below 2^(53-k), so the sum is exact
        top = min(10 ** (18 - k), 2 ** (53 - k))
        whole = rng.integers(10 ** (17 - k), top, count)
        j = rng.integers(0, 2 ** (k - 1), count) * 2 + 1
        x = whole + j / 2.0 ** k
        digit = (j * 10 ** k // 2 ** k) // 10 % 2
        out.append(x[digit == odd])
    x = np.concatenate(out)
    return np.concatenate([x, -x])


def _edge_cells(rng, count: int):
    """Cells with E at each edge of the kernel's range and one step beyond,
    mantissas in [1.5, 9.5) so that rounding keeps E, and the range's
    bounds and their predecessors."""
    low, high = io._tables()[1]
    return np.concatenate([
        s * (1.5 + 8.0 * rng.random(count)) * float(f"1e{k}")
        for k in (io._E_LO - 1, io._E_LO, io._E_HI, io._E_HI + 1)
        for s in (1, -1)] + [np.array(
            [low, np.nextafter(low, 0), high, np.nextafter(high, 0)])])


def _oracle_columns():
    rng = np.random.default_rng(20261018)
    pows = [float(f"1e{k}") for k in range(-323, 309)]
    yield "bits", rng.integers(0, 2**64, 500_000, dtype=np.uint64).view(
        np.float64)
    yield "subnormal", rng.integers(1, 2**52, 2000, dtype=np.uint64).view(
        np.float64)
    yield "uniform", rng.random(200_000)
    yield "normal", (rng.standard_normal(200_000)
                     * 10.0 ** rng.integers(-300, 300, 200_000))
    yield "powers and specials", np.concatenate([
        s * np.array([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])
        for p in pows for s in (1, -1)] + [np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
             np.finfo(float).max, -np.finfo(float).max])])
    yield "carries", np.array([float(f"9.99999999999999999e{k}")
                               for k in range(-324, 308)]
                              + [float(f"9.9999999999999999e{k}")
                                 for k in range(-324, 308)])
    yield "ties", np.concatenate([_ties(rng, True, 1500),
                                  _ties(rng, False, 1500)])
    # E = -5 / -4 and 16 / 17, where '%.17g' switches between the fixed and
    # the exponent form, and integer-valued cells
    yield "form switch", np.concatenate([
        s * (1.0 + 9.0 * rng.random(5000)) * 10.0 ** k
        for k in (-5, -4, 16, 17) for s in (1, -1)])
    yield "integers", np.concatenate([
        [1.0, 500.0, 1e16, -1.0, -500.0, -1e16],
        np.arange(1.0, 20_001.0), 500.0 * np.arange(1.0, 2001.0),
        rng.integers(0, 2**53, 20_000).astype(float)])
    # evolve.csv's t column, at its defaults and at --t 500 --samples 2001
    yield "evolve t", np.concatenate([np.linspace(0.0, 10.0, 51),
                                      np.linspace(0.0, 500.0, 2001)])
    # the edge exponents of the 10**k table and one beyond each, which
    # Python formats
    yield "table edges", _edge_cells(rng, 2000)
    # the scan's float columns, and the kernel's 1 / gap at the same points
    # (1 to 2e4, and inf where the gap is 0)
    for orders, depth, grid in (((2, 3), 40, 3600), ((4, 6), 60, 20011)):
        spec = GroupUnionSpec(orders)
        rep = scan_unit_circle(spec, grid, 0.05, depth)
        for c in rep.chunks:
            for col in (c.thetas, c.lams.real, c.lams.imag, c.den_lower):
                yield "scan", col
            with np.errstate(divide="ignore"):
                yield "scan", 1.0 / _circle_kernel(spec, c.lams, depth).gap


def test_format_floats_matches_python_on_a_million_values():
    total = 0
    for name, x in _oracle_columns():
        assert _mismatches(x) == [], name
        total += x.size
    assert total >= 1_000_000


def test_ties_need_the_undecided_band(monkeypatch):
    # negative control: exact ties round half to even; with no band the
    # kernel rounds them half down itself, which is wrong for an odd digit
    rng = np.random.default_rng(7)
    odd, even = _ties(rng, True, 1500), _ties(rng, False, 1500)
    assert odd.size > 4000 and even.size > 4000
    assert _mismatches(odd) == [] and _mismatches(even) == []
    monkeypatch.setattr(io, "_BAND", 0.0)
    assert len(_mismatches(odd)) == odd.size
    assert _mismatches(even) == []


def test_the_product_needs_its_error_term(monkeypatch):
    # negative control: with TwoProduct's exact error e dropped, r keeps
    # only fl(a * lo), up to 8 off, and the oracle fails
    two_product = io._two_product

    def without_error(a, at, t):
        two_product(a, at, t)
        t[5] = 0.0

    monkeypatch.setattr(io, "_two_product", without_error)
    failed = {name for name, x in _oracle_columns() if _mismatches(x)}
    assert {"bits", "uniform", "normal", "scan", "integers"} <= failed


def _exact(v) -> Fraction:
    return Fraction(*float(v).as_integer_ratio())


def _significant_bits(v) -> int:
    m = abs(float(v).as_integer_ratio()[0])
    return (m // (m & -m)).bit_length() if m else 0


def test_powers_of_ten_are_double_doubles_exact_to_half_an_ulp_of_lo():
    # hi is 10**k correctly rounded: no neighbouring double is nearer;
    # lo is the remainder 10**k - hi to half an ulp; hi's Veltkamp halves
    # add up to hi and have 26 significant bits each, so that their
    # products with a's halves are exact
    pow10 = io._tables()[0]
    assert pow10.shape == (4, io._POW_HI - io._POW_LO + 1) == (4, 561)
    bad = []
    for k, (hi, lo, head, tail) in zip(range(io._POW_LO, io._POW_HI + 1),
                                       pow10.T):
        exact = Fraction(10) ** k
        err = abs(_exact(hi) - exact)
        if any(abs(_exact(np.nextafter(hi, to)) - exact) < err
               for to in (0.0, np.inf)):
            bad.append((k, "hi"))
        rest = exact - _exact(hi) - _exact(lo)
        if abs(rest) > abs(_exact(np.spacing(lo))) / 2:
            bad.append((k, "lo"))
        if (_exact(head) + _exact(tail) != _exact(hi)
                or max(map(_significant_bits, (head, tail))) > 26):
            bad.append((k, "halves"))
    assert bad == []
    # the table's exact powers carry no remainder
    assert all(pow10[1, -io._POW_LO + k] == 0.0 for k in range(23))


def test_the_range_bounds_are_the_first_doubles_of_their_decades():
    low, high = io._tables()[1]
    for bound, k in ((low, io._E_LO), (high, io._E_HI + 1)):
        assert _exact(bound) >= Fraction(10) ** k
        assert _exact(np.nextafter(bound, 0)) < Fraction(10) ** k


def test_cells_beyond_the_table_go_to_python():
    # E one step outside [_E_LO, _E_HI] leaves 16 - E +- 1 outside the
    # table: those cells, and only those, are undecided, and still match
    x = _edge_cells(np.random.default_rng(11), 1000)
    assert _mismatches(x) == []
    undecided = io._decide(x, io._FloatBuffers(x.size))
    low, high = io._tables()[1]
    beyond = np.flatnonzero((np.abs(x) < low) | (np.abs(x) >= high))
    assert beyond.size == 4 * 1000 + 2
    assert undecided.tolist() == beyond.tolist()


def test_python_formatter_covers_every_cell_without_the_kernel(
        tmp_path, monkeypatch):
    # with the threshold above the batch's rows, every cell takes Python's
    # formatter
    x = np.tile([0.1, -2.5e-300, 123456789.0, np.nan], io._KERNEL_MIN)
    monkeypatch.setattr(io, "_decide", None)        # must not be reached
    monkeypatch.setattr(io, "_KERNEL_MIN", x.size + 1)
    write_csv(str(tmp_path / "x.csv"), ["x"], [[x]])
    assert (tmp_path / "x.csv").read_bytes() == \
        b"x\n" + b"".join(b"%s\n" % c for c in _python_cells(x))


def _decided_sizes(monkeypatch):
    """Spy on _decide: the cell count of each call."""
    sizes = []
    decide = io._decide
    monkeypatch.setattr(io, "_decide",
                        lambda x, b: sizes.append(x.size) or decide(x, b))
    return sizes


def test_small_batches_skip_the_kernel(tmp_path, monkeypatch):
    # below _KERNEL_MIN rows the kernel's fixed cost exceeds Python's; the
    # choice is the batch's, so with 100 float columns, 102 rows a slice,
    # a batch of _KERNEL_MIN rows sends every slice to the kernel, the
    # 52-row last one too, and one row fewer sends none
    assert _slice_rows(100) == 102
    header = [f"c{k}" for k in range(100)]
    sizes = _decided_sizes(monkeypatch)
    for rows, decided in ((io._KERNEL_MIN - 1, []),
                          (io._KERNEL_MIN, [100 * 102, 100 * 102, 100 * 52])):
        columns = [np.arange(rows) * (k + 1) / 7 for k in range(100)]
        _assert_same_text(_write(tmp_path, header, columns),
                          _general_path(header, columns))
        assert sizes == decided


def test_scan_csv_leaves_few_cells_to_python(tmp_path, monkeypatch):
    # a silent fall onto Python's formatter would show here: every float
    # cell of the default scan must reach the kernel, and the kernel
    # decides every one of them, the zeros included
    seen = []
    decide = io._decide

    def spy(x, buffers):
        undecided = decide(x, buffers)
        seen.append((x.size, undecided.tolist(), int((x == 0.0).sum())))
        return undecided

    monkeypatch.setattr(io, "_decide", spy)
    assert cli.main(["scan-circle", "--out", str(tmp_path)]) == 0
    # one call per CSV slice for all four float columns, not one per column
    assert [size for size, _, _ in seen] == [4 * 2560, 4 * (3600 - 2560)]
    assert [undecided for _, undecided, _ in seen] == [[], []]
    # the zero cells, counted from the file's four float columns
    rows = (tmp_path / "scan_circle.csv").read_text().splitlines()[1:]
    zeros = sum(cell in ("0", "-0") for row in rows
                for k, cell in enumerate(row.split(",")) if k != 3)
    assert 0 < sum(count for _, _, count in seen) == zeros


def _signed_zero_column():
    """A float64 column of 4 * _KERNEL_MIN rows: +0.0 and -0.0 among
    normal, subnormal and non-finite cells."""
    rng = np.random.default_rng(37)
    cells = np.concatenate([
        [0.0, -0.0] * 300,
        rng.standard_normal(200) * 10.0 ** rng.integers(-30, 30, 200),
        rng.integers(1, 2**52, 100, dtype=np.uint64).view(np.float64),
        -rng.integers(1, 2**52, 100, dtype=np.uint64).view(np.float64),
        [np.nan, np.inf, -np.inf, 5e-324, -5e-324] * 20])
    column = np.resize(rng.permutation(cells), 4 * io._KERNEL_MIN)
    assert np.signbit(column[column == 0.0]).sum() >= 100
    return column


def _python_spy(monkeypatch):
    """Spy on the Python fallback: the cells of each call."""
    seen = []
    python_floats = io._python_floats

    def spy(x):
        seen.append(x.copy())
        return python_floats(x)

    monkeypatch.setattr(io, "_python_floats", spy)
    return seen


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "python"])
def test_signed_zeros_format_as_percent_g(tmp_path, monkeypatch, kernel):
    # the kernel writes 0 and -0 itself: Python's formatter sees no zero,
    # but still every non-finite cell; without the kernel, every cell
    x = _signed_zero_column()
    seen = _python_spy(monkeypatch)
    if not kernel:
        monkeypatch.setattr(io, "_KERNEL_MIN", x.size + 1)
    write_csv(str(tmp_path / "x.csv"), ["x"], [[x]])
    assert (tmp_path / "x.csv").read_bytes() == \
        b"x\n" + b"".join(b"%s\n" % c for c in _python_cells(x))
    fallback = np.concatenate(seen)
    if kernel:
        assert not (fallback == 0.0).any()
        assert (~np.isfinite(fallback)).sum() == (~np.isfinite(x)).sum()
    else:
        assert fallback.view(np.uint64).tolist() == \
            x.view(np.uint64).tolist()


def test_a_kernel_that_drops_the_sign_of_zero_fails(monkeypatch):
    # negative control: a kernel that writes 0 for -0.0 as well
    x = _signed_zero_column()
    decide = io._decide
    monkeypatch.setattr(io, "_decide",
                        lambda y, b: decide(np.where(y == 0.0, 0.0, y), b))
    minus_zero = np.flatnonzero((x == 0.0) & np.signbit(x))
    assert _mismatches(x) == minus_zero.tolist()


# ---------------------------------------------------------------------------
# one formatting pass per slice
# ---------------------------------------------------------------------------

def test_the_cell_budget_sets_the_rows_per_slice():
    # scan-circle's four float columns get 2560-row slices; evolve.csv's
    # eleven get 930 rows, and --trace-blocks 200 (203 columns) 50
    assert io._CELLS == 5 * 2048
    assert [_slice_rows(k) for k in (0, 1, 2, 4, 5, 11, 203, 20_000)] == \
        [10240, 10240, 5120, 2560, 2048, 930, 50, 1]


def _formatted_sizes(monkeypatch):
    """Spy on _format_floats: the cell count of each call."""
    sizes = []
    format_floats = io._format_floats

    def spy(x, buffers=None):
        sizes.append(x.size)
        return format_floats(x, buffers)

    monkeypatch.setattr(io, "_format_floats", spy)
    return sizes


def _evolve_batch(samples, blocks):
    """The columns of evolve.csv: t, mass and head, then one zero-stride
    column per traced block, as cmd_evolve passes them."""
    t = np.linspace(0.0, 500.0, samples)
    return [t, 1.0 + np.sin(t) * 1e-13, np.exp(-t / 70.0)] + [
        np.broadcast_to(2.0 * np.pi * np.exp(-k / 3.0) / 7.0, t.shape)
        for k in range(1, blocks + 1)]


def test_fused_writer_matches_the_cell_formatter_on_an_evolve_batch(
        tmp_path, monkeypatch):
    columns = _evolve_batch(2001, 8)
    header = ["t", "mass", "head"] + [f"block_mass_{k}" for k in range(1, 9)]
    expected = _general_path(header, columns)
    sizes = _formatted_sizes(monkeypatch)
    _assert_same_text(_write(tmp_path, header, columns), expected)
    # every float column of a slice in one call, 930 rows a slice
    assert sizes == [11 * 930, 11 * 930, 11 * 141]


def test_fused_writer_takes_strided_views(tmp_path):
    # lams.real and lams.imag of a complex array have a 16-byte stride
    theta = np.arange(3 * _ROWS + 17) / 997.0
    lams = np.exp(1j * theta)
    columns = [theta, lams.real, lams.imag, lams[::-1].imag]
    assert not lams.real.flags.c_contiguous
    header = ["theta", "re", "im", "rev"]
    _assert_same_text(_write(tmp_path, header, columns),
                      _general_path(header, columns))


def test_fused_writer_keeps_the_column_order_around_other_columns(tmp_path):
    # float columns on both sides of S and list columns, and runs of them
    n = 2 * _ROWS + 9
    labels = np.array([b"CertifiedResolvent", b"", b"x"])[np.arange(n) % 3]
    columns = [np.arange(n) / 7, labels, -np.arange(n) / 3,
               np.arange(n) * 1e-300,
               np.array([b"r%d" % i for i in range(n)]),
               np.sqrt(np.arange(n)), labels]
    header = list("abcdefg")
    _assert_same_text(_write(tmp_path, header, columns),
                      _general_path(header, columns))


@pytest.mark.parametrize("floats", [1, 5, 11])
@pytest.mark.parametrize("side", [-1, 1])
def test_cuts_next_to_a_budgeted_slice_write_the_same_bytes(tmp_path, floats,
                                                            side):
    # a batch cut one row before or after a full slice, so that the next
    # slice starts one row early or late, writes the bytes of one batch
    rows = _slice_rows(floats)
    n = 2 * rows + 7
    columns = [np.arange(n) * (k + 1) / 7 for k in range(floats)]
    columns.insert(1, np.array([b"ab", b"c"])[np.arange(n) % 2])
    header = [f"c{k}" for k in range(len(columns))]
    cut = rows + side
    target = tmp_path / "cut.csv"
    write_csv(str(target), header,
              [[c[:cut] for c in columns], [c[cut:] for c in columns]])
    _assert_same_text(target.read_text(), _general_path(header, columns))


def test_short_columns_take_python_formatter_whatever_their_cells(
        monkeypatch, tmp_path):
    # eigs.csv at N = 40: 201 rows of three float columns stay on Python's
    # formatter, though the slice holds more than _KERNEL_MIN cells
    n = io._KERNEL_MIN - 55
    columns = [np.arange(n) / 7, -np.arange(n) / 3, np.array([b"k"] * n),
               np.arange(n) * 1e-17]
    monkeypatch.setattr(io, "_decide", None)        # must not be reached
    header = ["re", "im", "kind", "residual"]
    _assert_same_text(_write(tmp_path, header, columns),
                      _general_path(header, columns))


def _scan_batch(points):
    """The five columns of one scan chunk of ``points`` rows."""
    theta = 2.0 * np.pi * np.arange(points) / points
    lams = np.exp(1j * theta)
    verdicts = np.array([b"CertifiedResolvent", b"SingularCandidate",
                         b"TailInvalid"])[np.arange(points) % 3]
    return [theta, lams.real, lams.imag, verdicts, np.abs(np.sin(theta))]


# transient peak allowed to one CSV: about 250 bytes per float cell of a
# slice (stacked values, source rows, cells, the kernel's temporaries)
_PEAK = 250 * 5 * 2048


def _write_peak(tmp_path, columns):
    tracemalloc.start()
    try:
        write_csv(str(tmp_path / "peak.csv"),
                  [f"c{k}" for k in range(len(columns))], [columns])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", ["evolve-203", "scan-chunk"])
@pytest.mark.parametrize("budget", ["budgeted", "whole-batch"])
def test_write_csv_peak_memory_is_bounded_by_the_cell_budget(
        tmp_path, monkeypatch, shape, budget):
    # negative control: without the cell budget the whole batch goes into
    # one formatting call, and the peak grows with the batch
    columns = (_evolve_batch(2001, 200) if shape == "evolve-203"
               else _scan_batch(8192))
    _write_peak(tmp_path, columns)          # tables and layouts built once
    if budget == "whole-batch":
        monkeypatch.setattr(io, "_CELLS", 10**9)
    peak = _write_peak(tmp_path, columns)
    assert (peak <= _PEAK) == (budget == "budgeted")
