"""Artifact writers."""

import os

import numpy as np
import pytest

from spectral_forge.io import write_csv, write_json


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
