"""Artifact writers."""

import os

import numpy as np
import pytest

from spectral_forge import io
from spectral_forge.io import _BATCH, _format_cell, write_csv, write_json


def _rows_then_fail(n):
    for i in range(n):
        yield (float(i), "ok")
    raise RuntimeError("row source failed")


@pytest.mark.parametrize("existing", [None, b"theta,verdict\n0,old\n"])
def test_write_csv_leaves_no_partial_file_when_rows_fail(tmp_path, existing):
    target = tmp_path / "scan.csv"
    if existing is not None:
        target.write_bytes(existing)
    # enough rows that the stream has reached the temp file before failing
    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(str(target), ["theta", "verdict"], _rows_then_fail(20_000))
    assert os.listdir(tmp_path) == ([] if existing is None else ["scan.csv"])
    if existing is not None:
        assert target.read_bytes() == existing


def test_write_csv_formats_cells_by_type(tmp_path):
    # a Python float and a NumPy float64 render to the same %.17g bytes
    target = tmp_path / "out.csv"
    write_csv(str(target), ["a", "b", "c", "d", "e"],
              [(0.1, np.float64(0.1), 3, True, "x"),
               (1e-300, np.float64(-0.0), np.int64(0), np.bool_(False), "")])
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
        write_csv(str(tmp_path / "a.csv"), ["x"], [(1.0,)])
        write_json(str(tmp_path / "a.json"), {"x": 1.0})
    finally:
        os.umask(old)
    for name in ("a.csv", "a.json"):
        assert os.stat(tmp_path / name).st_mode & 0o777 == mode


def _general_path(header, rows):
    """The per-cell formatter applied to every row: the reference bytes."""
    return "".join(",".join(map(_format_cell, row)) + "\n"
                   for row in [header, *rows])


def _write(tmp_path, header, rows):
    target = tmp_path / "out.csv"
    write_csv(str(target), header, rows)
    return target.read_text()


def test_write_csv_formats_plain_batches_without_the_cell_formatter(
        tmp_path, monkeypatch):
    # rows of exact floats and strs take the one-format-per-batch path
    rows = [(i / 7, "x%d" % i) for i in range(2 * _BATCH + 3)]
    expected = _general_path(["a", "b"], rows)
    calls = []
    monkeypatch.setattr(io, "_format_cell",
                        lambda x: calls.append(x) or _format_cell(x))
    assert _write(tmp_path, ["a", "b"], iter(rows)) == expected
    assert calls == []


@pytest.mark.parametrize("at", [0, 1, _BATCH - 1, _BATCH, _BATCH + 1,
                                2 * _BATCH + 5])
@pytest.mark.parametrize("column,cell", [
    (0, 3), (0, True), (0, np.float64(0.1)), (0, np.int64(-7)),
    (1, 5), (1, np.str_("y")), (1, 2.5), (1, False)],
    ids=["float-int", "float-bool", "float-float64", "float-int64",
         "str-int", "str-np_str", "str-float", "str-bool"])
def test_write_csv_mixed_batches_match_the_cell_formatter(tmp_path, at,
                                                          column, cell):
    # one cell of another type, mid-file or at a batch boundary, sends its
    # batch to the general path; every batch renders the same bytes
    rows = [[i / 3, "r%d" % i] for i in range(2 * _BATCH + 10)]
    rows[at][column] = cell
    assert _write(tmp_path, ["a", "b"], rows) == \
        _general_path(["a", "b"], rows)


@pytest.mark.parametrize("at", [0, _BATCH - 1, _BATCH + 2])
def test_write_csv_ragged_rows_match_the_cell_formatter(tmp_path, at):
    # a row of another width must not shift the cells of its batch
    rows = [(float(i), float(-i)) for i in range(_BATCH + 5)]
    rows[at] = (1.5,)
    rows[at + 1] = (2.5, 3.5, 4.5)
    assert _write(tmp_path, ["a", "b"], rows) == \
        _general_path(["a", "b"], rows)


def test_write_csv_special_floats_match_the_cell_formatter(tmp_path):
    specials = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"),
                1e-300, 5e-324, -5e-324, 1.7976931348623157e308, 0.1]
    fast = [(x, "s") for x in specials]
    # the same values as np.float64 take the general path
    general = [(np.float64(x), "s") for x in specials]
    text = _write(tmp_path, ["x", "s"], fast)
    assert text == _general_path(["x", "s"], fast)
    assert text == _write(tmp_path, ["x", "s"], general)
    assert text.splitlines()[1:4] == ["-0,s", "0,s", "nan,s"]


@pytest.mark.parametrize("rows", [[], iter(())], ids=["list", "iterator"])
def test_write_csv_without_rows_writes_the_header_only(tmp_path, rows):
    assert _write(tmp_path, ["theta", "verdict"], rows) == "theta,verdict\n"


@pytest.mark.parametrize("n", [5, _BATCH, _BATCH + 1, 3 * _BATCH - 7])
def test_write_csv_failure_mid_batch_leaves_no_file(tmp_path, n):
    # the row source fails inside the first, at the end of, or after a batch
    target = tmp_path / "scan.csv"
    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(str(target), ["theta", "verdict"], _rows_then_fail(n))
    assert os.listdir(tmp_path) == []
