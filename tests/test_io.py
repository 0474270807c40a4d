"""Artifact writers."""

import os
from fractions import Fraction

import numpy as np
import pytest

from spectral_forge import cli, io
from spectral_forge.io import _BATCH, _format_cell, write_csv, write_json
from spectral_forge.model import GroupUnionSpec, WeightSeq
from spectral_forge.scanner import scan_unit_circle


def _theta_verdict(n, bad_at):
    """theta and verdict columns of n rows; the verdict at ``bad_at`` is a
    cell no formatter accepts."""
    verdicts = ["ok"] * n
    verdicts[bad_at] = object()
    return [np.arange(n) / 7, verdicts]


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
    # a float64 array and NumPy float64 cells render to the same %.17g bytes
    target = tmp_path / "out.csv"
    write_csv(str(target), ["a", "b", "c", "d", "e"],
              [np.array([0.1, 1e-300]), [np.float64(0.1), np.float64(-0.0)],
               [3, np.int64(0)], [True, np.bool_(False)], ["x", ""]])
    assert target.read_text() == (
        "a,b,c,d,e\n"
        "0.10000000000000001,0.10000000000000001,3,true,x\n"
        "1e-300,-0,0,false,\n")


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_artifacts_follow_the_umask(tmp_path, umask, mode):
    # a plain open() would give 0666 less the umask; mkstemp alone gives 0600
    old = os.umask(umask)
    try:
        write_csv(str(tmp_path / "a.csv"), ["x"], [np.array([1.0])])
        write_json(str(tmp_path / "a.json"), {"x": 1.0})
    finally:
        os.umask(old)
    for name in ("a.csv", "a.json"):
        assert os.stat(tmp_path / name).st_mode & 0o777 == mode


def _general_path(header, columns):
    """The per-cell formatter applied to every row: the reference bytes."""
    return "".join(",".join(map(_format_cell, row)) + "\n"
                   for row in [header, *zip(*columns)])


def _write(tmp_path, header, columns):
    target = tmp_path / "out.csv"
    write_csv(str(target), header, columns)
    return target.read_text()


def test_write_csv_formats_plain_batches_without_the_cell_formatter(
        tmp_path, monkeypatch):
    # float64 array columns take the array kernel, never the cell formatter
    n = 2 * _BATCH + 3
    columns = [np.arange(n) / 7, -np.arange(n) / 3]
    expected = _general_path(["a", "b"], columns)
    calls = []
    monkeypatch.setattr(io, "_format_cell",
                        lambda x: calls.append(x) or _format_cell(x))
    assert _write(tmp_path, ["a", "b"], columns) == expected
    assert calls == []


def test_write_csv_takes_bytes_columns_as_they_are(tmp_path, monkeypatch):
    # a NumPy S column is written as its bytes; no cell reaches the cell
    # formatter, and an empty cell stays empty; ``Lookup`` hands the writer
    # such a column one batch at a time
    n = 2 * _BATCH + 3
    labels = np.array([b"CertifiedResolvent", b"SingularCandidate",
                       b""])[np.arange(n) % 3]
    columns = [np.arange(n) / 7, labels]
    expected = _general_path(["a", "v"],
                             [columns[0], [c.decode() for c in labels]])
    monkeypatch.setattr(io, "_format_cell", None)       # must not be reached
    assert _write(tmp_path, ["a", "v"], columns) == expected
    # a strided S column too
    assert _write(tmp_path, ["a", "v"], [columns[0][::2], labels[::2]]) == \
        "".join(expected.splitlines(True)[i] for i in
                [0, *range(1, n + 1, 2)])
    # and the same column as codes into a table, looked up per batch
    table = np.array([b"CertifiedResolvent", b"SingularCandidate", b""])
    lookup = io.Lookup(table, np.arange(n) % 3)
    assert len(lookup) == n
    assert _write(tmp_path, ["a", "v"], [columns[0], lookup]) == expected


@pytest.mark.parametrize("at", [0, 1, 2 * _BATCH - 1, 2 * _BATCH,
                                2 * _BATCH + 1, 4 * _BATCH + 5])
@pytest.mark.parametrize("column,cell", [
    (0, 3), (0, True), (0, np.float64(0.1)), (0, np.int64(-7)),
    (1, 5), (1, np.str_("y")), (1, 2.5), (1, False)],
    ids=["float-int", "float-bool", "float-float64", "float-int64",
         "str-int", "str-np_str", "str-float", "str-bool"])
def test_write_csv_mixed_batches_match_the_cell_formatter(tmp_path, at,
                                                          column, cell):
    # one cell of another type, mid-file or at a batch boundary, makes its
    # column a list for the cell formatter; the float64 array column next
    # to it takes the kernel; every batch renders the same bytes
    n = 4 * _BATCH + 10
    columns = [np.arange(n) / 3, ["r%d" % i for i in range(n)]]
    columns[column] = list(columns[column])
    columns[column][at] = cell
    assert _write(tmp_path, ["a", "b"], columns) == \
        _general_path(["a", "b"], columns)


@pytest.mark.parametrize("at", [0, 2 * _BATCH - 1, 2 * _BATCH + 2])
def test_write_csv_ragged_columns_leave_no_file(tmp_path, at):
    # a column of another length must not shift the cells of its rows
    n = 2 * _BATCH + 5
    with pytest.raises(ValueError, match="unequal length"):
        write_csv(str(tmp_path / "out.csv"), ["a", "b"],
                  [np.arange(n, dtype=float), -np.arange(at, dtype=float)])
    assert os.listdir(tmp_path) == []


def test_write_csv_header_must_name_every_column(tmp_path):
    with pytest.raises(ValueError, match="1 header names for 2 columns"):
        write_csv(str(tmp_path / "out.csv"), ["a"],
                  [np.zeros(3), np.zeros(3)])
    assert os.listdir(tmp_path) == []


def test_write_csv_special_floats_match_the_cell_formatter(tmp_path):
    # repeated so that the batch is large enough for the array kernel
    specials = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"),
                1e-300, 5e-324, -5e-324, 1.7976931348623157e308, 0.1] * 30
    fast = [np.array(specials), ["s"] * len(specials)]
    # the same values as np.float64 cells take the cell formatter
    general = [[np.float64(x) for x in specials], ["s"] * len(specials)]
    text = _write(tmp_path, ["x", "s"], fast)
    assert text == _general_path(["x", "s"], fast)
    assert text == _write(tmp_path, ["x", "s"], general)
    assert text.splitlines()[1:4] == ["-0,s", "0,s", "nan,s"]


@pytest.mark.parametrize("columns", [
    [[], []], iter([np.zeros(0), np.zeros(0)])], ids=["list", "iterator"])
def test_write_csv_without_rows_writes_the_header_only(tmp_path, columns):
    assert _write(tmp_path, ["theta", "verdict"], columns) == \
        "theta,verdict\n"


@pytest.mark.parametrize("n", [5, 2 * _BATCH, 2 * _BATCH + 1,
                               6 * _BATCH - 7])
def test_write_csv_failure_mid_batch_leaves_no_file(tmp_path, n):
    # the bad cell sits inside the first, at the end of, or after a batch
    target = tmp_path / "scan.csv"
    with pytest.raises(TypeError, match="cannot format object"):
        write_csv(str(target), ["theta", "verdict"],
                  _theta_verdict(6 * _BATCH + 10, n - 1))
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
    for orders, depth, grid in (((2, 3), 40, 3600), ((4, 6), 60, 20011)):
        spec = GroupUnionSpec(orders)
        rep = scan_unit_circle(spec, WeightSeq.dyadic_single(spec.d), grid,
                               0.05, depth, with_certificates=False)
        for col in (rep.thetas, rep.lams.real, rep.lams.imag, rep.den_lower,
                    rep.block_bounds):
            yield "scan", col


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
    if not io._has_extended():
        pytest.skip("every cell takes Python's formatter here")
    monkeypatch.setattr(io, "_BAND", 0.0)
    assert len(_mismatches(odd)) == odd.size
    assert _mismatches(even) == []


def test_powers_of_ten_are_within_half_an_ulp():
    if not io._has_extended():
        pytest.skip("the table is used only with extended precision")
    pow10 = io._tables()[0]
    assert pow10.size == io._POW_HI - io._POW_LO + 1 == 656
    far = []
    for k, v in zip(range(io._POW_LO, io._POW_HI + 1), pow10):
        err = abs(Fraction(*v.as_integer_ratio()) - Fraction(10) ** k)
        if err > Fraction(*np.spacing(v).as_integer_ratio()) / 2:
            far.append(k)
    assert far == []


def test_python_formatter_covers_every_cell_without_extended_precision(
        monkeypatch):
    x = np.tile([0.1, -2.5e-300, 123456789.0, np.nan], io._KERNEL_MIN)
    monkeypatch.setattr(io, "_decide", None)        # must not be reached
    monkeypatch.setattr(io, "_has_extended", lambda: False)
    assert io._format_floats(x).tolist() == _python_cells(x)


def test_small_batches_skip_the_kernel(monkeypatch):
    # below _KERNEL_MIN cells the kernel's fixed cost exceeds Python's
    x = np.arange(io._KERNEL_MIN) / 7
    decided = []
    decide = io._decide
    monkeypatch.setattr(io, "_decide",
                        lambda x, b: decided.append(x.size) or decide(x, b))
    assert io._format_floats(x[1:]).tolist() == _python_cells(x[1:])
    assert io._format_floats(x).tolist() == _python_cells(x)
    assert decided == [io._KERNEL_MIN]


def test_scan_csv_leaves_few_cells_to_python(tmp_path, monkeypatch):
    # a silent fall onto Python's formatter would show here: every float
    # cell of the default scan must reach the kernel, and about 2.5% of
    # them sit in the band around 1/2 (plus the zeros)
    if np.finfo(np.longdouble).nmant < 63:
        pytest.skip("long double has no 64-bit significand here")
    seen = []
    decide = io._decide

    def spy(x, buffers):
        undecided = decide(x, buffers)
        seen.append((x.size, undecided.size))
        return undecided

    monkeypatch.setattr(io, "_decide", spy)
    assert cli.main(["scan-circle", "--out", str(tmp_path)]) == 0
    cells, undecided = map(sum, zip(*seen))
    assert cells == 5 * 3600
    assert 0 < undecided <= 0.03 * cells
