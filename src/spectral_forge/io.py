"""Deterministic artifact writing and seeded substreams.

All output files are written to a temporary sibling and renamed into place
so interrupted runs never leave partial artifacts.  Floats are rendered by
repr (shortest round-trip form) in JSON and by %.17g in CSV so that equal
inputs give byte-identical files.  CSV rows are read and formatted in
batches: a batch whose cells are all exact ``float`` or ``str``, with every
row typed like the first, is rendered by one ``%`` on the row format
repeated per row; any other batch goes through the per-cell formatter.
Both give the same bytes.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import zlib
from itertools import chain, islice
from typing import Iterable, Sequence

import numpy as np

__all__ = ["atomic_write_text", "write_csv", "dump_json", "write_json",
           "substream"]


@contextlib.contextmanager
def _atomic_open(path: str):
    """Text handle on a same-directory temp file, renamed onto ``path`` when
    the block completes and deleted when it raises.

    ``mkstemp`` creates the file as 0600; it gets the mode a plain ``open``
    would have given it (0666 less the umask) before the rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
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
    """Write text to ``path`` via a same-directory temp file and rename."""
    with _atomic_open(path) as fh:
        fh.write(text)


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


# rows read and formatted per batch: bounds the batch's cells and text
_BATCH = 4096

# the fast path's directive per exact cell type; each renders as _format_cell
_DIRECTIVE = {float: "%.17g", str: "%s"}


def _format_rows(batch: list) -> str:
    """CSV text of ``batch``, one line per row."""
    kinds = list(map(type, batch[0]))
    cells = tuple(chain.from_iterable(batch))
    if (all(k in _DIRECTIVE for k in kinds)
            and set(map(len, batch)) == {len(kinds)}
            and list(map(type, cells)) == kinds * len(batch)):
        line = ",".join(_DIRECTIVE[k] for k in kinds) + "\n"
        return (line * len(batch)) % cells
    return "".join(",".join(map(_format_cell, row)) + "\n" for row in batch)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]):
    """Stream ``rows`` into ``path`` in batches of ``_BATCH``, atomically."""
    rows = iter(rows)
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for batch in iter(lambda: list(islice(rows, _BATCH)), []):
            fh.write(_format_rows(batch))


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
