"""Unit-circle scan and peripheral residual certificates."""

import inspect
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spectral_forge import cli, model, scanner
from spectral_forge.errors import NotInTargetSet
from spectral_forge.model import (GroupUnionSpec, dyadic_weights,
                                  union_points, union_values)
from spectral_forge.resolvent import (CERTIFIED, SINGULAR, TAIL_INVALID,
                                      VERDICTS, _S_GAP_GUARD,
                                      coupling_series_batch, verdict_counts)
from spectral_forge.scanner import residual_certificate, scan_unit_circle

SINGULAR_CODE = VERDICTS.index(SINGULAR)
TAIL_INVALID_CODE = VERDICTS.index(TAIL_INVALID)


# ---------------------------------------------------------------------------
# residual certificates
# ---------------------------------------------------------------------------

def test_certificate_residual_closed_form():
    spec = GroupUnionSpec((2, 3))
    n = 5
    q = 2.0 ** -n / spec.d
    # away from 1 the Fourier vector sums to exactly zero: residual q_n
    c = residual_certificate(spec, Fraction(1, 3), block_index=n)
    assert c.identity == "2^-5 * (1 + 0)/5"
    assert c.expected == q
    assert c.residual == pytest.approx(q, rel=1e-12)
    # at 1 the inner product is exactly 1: residual 2 q_n
    c1 = residual_certificate(spec, Fraction(0), block_index=n)
    assert c1.identity == "2^-5 * (1 + 1)/5"
    assert c1.expected == 2.0 * q
    assert c1.residual == pytest.approx(2.0 * q, rel=1e-12)
    assert c.matches and c1.matches


def test_certificate_vector_is_normalised_eigenvector_of_block(
        monkeypatch):
    # the vector handed to the forward map: z in block 4 alone, l1 norm 1,
    # and P z = u z for u = -1, the first sub-block's eigenvalue
    spec = GroupUnionSpec((2, 3))
    seen = []
    monkeypatch.setattr(scanner, "apply_operator",
                        lambda s, x: seen.append(x.copy())
                        or model.apply_operator(s, x))
    c = residual_certificate(spec, Fraction(1, 2), 4)
    assert c.mode == 2 and c.matches
    (x,) = seen
    assert x.shape == (1 + 4 * spec.d,) and not x[:-spec.d].any()
    z = x[-spec.d:]
    assert np.abs(z).sum() == pytest.approx(1.0)
    assert not z[2:].any()
    assert np.allclose(spec.permute(z), -z, atol=1e-14)


def test_certificate_rejects_off_target_points():
    spec = GroupUnionSpec((2, 3))
    with pytest.raises(NotInTargetSet):
        residual_certificate(spec, Fraction(1, 5))


def test_certificate_takes_fraction_targets_modulo_one():
    spec = GroupUnionSpec((2, 3))
    assert residual_certificate(spec, Fraction(4, 3), 8).target == \
        Fraction(1, 3)
    with pytest.raises(NotInTargetSet,
                       match="angle 6/5 not in the target set"):
        residual_certificate(spec, Fraction(6, 5))


def test_certificate_residual_shrinks_with_depth():
    spec = GroupUnionSpec((3,))
    res = [residual_certificate(spec, Fraction(1, 3), n).residual
           for n in (5, 10, 20, 30)]
    assert all(a > b for a, b in zip(res, res[1:]))
    assert res[-1] == pytest.approx(2.0 ** -30 / 3, rel=1e-9)


@pytest.mark.parametrize("orders", [(1,), (2,), (3,), (2, 3), (4, 6),
                                    (5, 7)],
                         ids=["1", "2", "3", "2,3", "4,6", "5,7"])
def test_certificate_gate_holds_down_to_the_slop(orders):
    # every resolved block passes the two-sided check, with the rounding
    # error far inside it; from the first block where the tolerance reaches
    # half the residual on, the record states the identity alone
    spec = GroupUnionSpec(orders)
    qs = dyadic_weights(60, spec.d)
    for angle in union_points(spec):
        inner = int(angle == 0)
        certs = [residual_certificate(spec, angle, n) for n in range(1, 61)]
        depth = sum(c.resolved for c in certs)
        assert all(c.resolved for c in certs[:depth])
        for n, c in enumerate(certs[:depth], 1):
            closed = qs[n - 1] * (1.0 + inner)
            assert c.expected == closed
            assert abs(c.residual - closed) <= 4 * np.finfo(float).eps
            assert 0.0 < c.margin <= c.tolerance < closed / 2
            assert c.matches
        for n, c in enumerate(certs[depth:], depth + 1):
            assert (c.expected, c.residual, c.tolerance) == (None,) * 3
            assert c.identity == f"2^-{n} * (1 + {inner})/{spec.d}"
            assert c.matches
        assert 40 <= depth < 60


@pytest.mark.parametrize("block", [30, 38, 40, 44])
def test_certificate_gate_rejects_a_zero_residual(monkeypatch, block):
    # negative control: an operator that maps z to lam * z leaves residual 0,
    # which must fail at every block the gate admits, not only at shallow
    # ones (an absolute 1e-12 check accepted it from block 38 on)
    spec = GroupUnionSpec((2, 3))
    lam = np.exp(2j * np.pi / 3)
    monkeypatch.setattr(scanner, "apply_operator",
                        lambda spec, vec: lam * vec)
    c = residual_certificate(spec, Fraction(1, 3), block)
    assert c.residual == 0.0
    assert c.matches is False


# ---------------------------------------------------------------------------
# the scan
# ---------------------------------------------------------------------------

def _whole(report):
    """The scan's chunks joined into whole-grid columns."""
    return scanner.ScanChunk(*map(np.concatenate, zip(*report.chunks)))


def test_scan_small_grid_single_group():
    spec = GroupUnionSpec((1,))
    rep = _whole(scan_unit_circle(spec, grid_size=8,
                                  exclusion_radius=0.05))
    counts = verdict_counts(rep.codes)
    assert counts[CERTIFIED] == 7
    assert counts[TAIL_INVALID] == 1          # the excluded point lam = 1
    assert len(rep.thetas) == 8
    assert rep.excluded[0]
    assert not rep.excluded[3]


def test_scan_matches_pointwise_certification():
    # every scan point is the kernel's answer to a batch of one, bit for bit
    spec = GroupUnionSpec((2, 3))
    rep = _whole(scan_unit_circle(spec, grid_size=180,
                                  exclusion_radius=0.05))
    for i in range(len(rep.thetas)):
        ref = scanner._circle_kernel(spec, [rep.lams[i]], 40, 0.05)
        assert rep.codes[i] == ref.verdict[0]
        assert rep.den_lower[i] == ref.den_lower[0]
        assert rep.excluded[i] == ref.excluded[0]


def test_scan_withholds_certification_on_exclusion_arcs():
    spec = GroupUnionSpec((2, 3))
    rep = _whole(scan_unit_circle(spec, grid_size=720,
                                  exclusion_radius=0.1))
    assert np.isin(rep.codes[rep.excluded],
                   [SINGULAR_CODE, TAIL_INVALID_CODE]).all()
    dist = np.abs(rep.lams[:, None] - union_values(spec)).min(axis=1)
    assert (dist[~rep.excluded] > 0.1 - 1e-9).all()


def test_scan_verdicts_conjugation_symmetric():
    # the construction has real coefficients, so theta and 1-theta agree
    spec = GroupUnionSpec((2, 3))
    rep = _whole(scan_unit_circle(spec, grid_size=360))
    n = len(rep.thetas)
    for i in range(1, n // 2):
        assert rep.codes[i] == rep.codes[n - i]
        assert rep.den_lower[i] == pytest.approx(rep.den_lower[n - i],
                                                 rel=1e-12, abs=1e-15)


def test_scan_metadata():
    spec = GroupUnionSpec((2,))
    rep = scan_unit_circle(spec, grid_size=90, depth=25)
    assert rep.metadata["depth"] == 25
    assert rep.metadata["orders"] == [2]


def test_scan_default_certificates_cover_target_set():
    spec = GroupUnionSpec((2, 3))
    rep = scan_unit_circle(spec, grid_size=12)
    assert [c.target for c in rep.certificates] == union_points(spec)
    # deep default block: residuals at the 1e-10 scale
    for c in rep.certificates:
        assert c.residual <= 2.0 * 2.0 ** -30 / spec.d + 1e-14


def test_scan_certifies_no_point_before_the_stream_is_read(monkeypatch):
    # the certificates are built at once; the grid only as it is iterated
    spec = GroupUnionSpec((2, 3))
    calls = []
    kernel = scanner._circle_kernel
    monkeypatch.setattr(scanner, "_circle_kernel",
                        lambda *a: calls.append(len(a[1])) or kernel(*a))
    monkeypatch.setattr(scanner, "_CHUNK", 5)
    rep = scan_unit_circle(spec, grid_size=12)
    assert len(rep.certificates) == 4 and calls == []
    chunks = list(rep.chunks)
    assert [len(c.thetas) for c in chunks] == calls == [5, 5, 2]
    # each chunk is its own arrays, whole after the next one is made
    assert np.concatenate([c.thetas for c in chunks]).tolist() == \
        (np.arange(12) / 12).tolist()


def _scan_circle(tmp_path, name, grid, *flags):
    """Exit code, CSV bytes and JSON summary of one ``scan-circle`` run."""
    out = tmp_path / name
    rc = cli.main(["scan-circle", "--grid", str(grid), "--out", str(out),
                   *flags])
    return (rc, (out / "scan_circle.csv").read_bytes(),
            json.loads((out / "scan_circle.json").read_text()))


def test_scan_csv_rows_shape_and_determinism(tmp_path):
    _, csv1, _ = _scan_circle(tmp_path, "a", 60)
    _, csv2, _ = _scan_circle(tmp_path, "b", 60)
    assert csv1 == csv2
    rows = csv1.decode().splitlines()[1:]
    assert len(rows) == 60
    assert {len(r.split(",")) for r in rows} == {5}


# chunk 2560 is the CSV slice; a chunk of 3000 ends inside a CSV slice; the
# grids 295, 4097, 5121, 6001 and 16385 leave one point in the last chunk
@pytest.mark.parametrize("chunk,grid", [
    (1, 300), (7, 300), (7, 295), (2048, 4097), (2560, 5121), (3000, 6001),
    (scanner._CHUNK, 2 * scanner._CHUNK + 1),
    (scanner._CHUNK, 2 * scanner._CHUNK + 301)])
def test_scan_does_not_depend_on_the_chunk_size(chunk, grid, tmp_path,
                                                monkeypatch):
    # the streamed command writes the bytes and folds the counts and the
    # rim flag of one chunk over the whole grid; at depth 1 and narrow arcs
    # the rim holds withheld points, so the flag is false
    for depth, exclusion in (("40", "0.05"), ("1", "0.01")):
        flags = ("--orders", "4,6", "--depth", depth, "--exclusion",
                 exclusion)
        monkeypatch.setattr(scanner, "_CHUNK", grid)
        ref = _scan_circle(tmp_path, f"ref{depth}", grid, *flags)
        monkeypatch.setattr(scanner, "_CHUNK", chunk)
        got = _scan_circle(tmp_path, f"got{depth}", grid, *flags)
        assert got[:2] == ref[:2]
        for key in ("counts", "all_nonexcluded_certified"):
            assert got[2][key] == ref[2][key], key
        assert got[2] == ref[2]
    assert ref[0] == 1 and not ref[2]["all_nonexcluded_certified"]


def _scan_circle_peak(tmp_path, grid) -> int:
    """Peak traced heap of one in-process ``scan-circle`` run."""
    tracemalloc.start()
    try:
        assert cli.main(["scan-circle", "--grid", str(grid),
                         "--out", str(tmp_path)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_circle_memory_does_not_grow_with_the_grid(tmp_path,
                                                        monkeypatch):
    # scan and CSV together: a column spanning the grid (34 bytes a point
    # over the five per-point columns) adds 1.1 MB at 16 times the grid
    monkeypatch.setattr(scanner, "_CHUNK", 512)
    _scan_circle_peak(tmp_path, 2048)               # one-time tables
    small = _scan_circle_peak(tmp_path, 2048)
    large = _scan_circle_peak(tmp_path, 16 * 2048)
    assert large <= small + 256_000, (small, large)


def test_kernel_memory_does_not_grow_with_depth():
    # the series runs over n on chunk-length buffers, so the peak is
    # O(chunk); chunk x (depth + 1) complex temporaries would take 262 MB
    # at depth 1000
    spec = GroupUnionSpec((2, 3))
    lams = np.exp(2j * np.pi * (np.arange(scanner._CHUNK) + 0.5)
                  / scanner._CHUNK)
    scanner._circle_kernel(spec, lams, 40, 0.05)        # one-time setup
    peaks = []
    for depth in (40, 1000):
        tracemalloc.start()
        try:
            scanner._circle_kernel(spec, lams, depth, 0.05)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 64_000, peaks


def test_kernel_calls_the_series_through_its_traced_name(monkeypatch):
    # the benchmark wraps ``scanner.coupling_series_batch`` and reads its
    # ``lams`` and ``depth`` arguments; a rename would zero that metric
    params = inspect.signature(scanner.coupling_series_batch).parameters
    assert {"lams", "depth"} <= set(params)
    calls = []

    def spy(*args, **kwargs):
        bound = inspect.signature(coupling_series_batch).bind(*args, **kwargs)
        calls.append((len(bound.arguments["lams"]), bound.arguments["depth"]))
        return coupling_series_batch(*args, **kwargs)

    monkeypatch.setattr(scanner, "coupling_series_batch", spy)
    spec = GroupUnionSpec((2, 3))
    rep = scan_unit_circle(spec, grid_size=100, depth=30)
    assert calls == []
    for _ in rep.chunks:
        pass
    assert calls == [(100, 30)]


# ---------------------------------------------------------------------------
# the two nearest roots
# ---------------------------------------------------------------------------

def _column_loop(to_root):
    """The two nearest roots as one pass over the columns found them: the
    minimum, its column and the runner-up's, each the earliest among
    exact ties."""
    near = to_root[:, 0].copy()
    first = np.zeros(len(to_root), dtype=np.intp)
    runner_up = np.full(len(to_root), np.inf)
    second = np.zeros(len(to_root), dtype=np.intp)
    for k in range(1, to_root.shape[1]):
        col = to_root[:, k]
        closer = col < near
        beats = ~closer & (col < runner_up)
        np.copyto(runner_up, near, where=closer)
        np.copyto(second, first, where=closer)
        np.copyto(runner_up, col, where=beats)
        np.copyto(second, k, where=beats)
        np.copyto(near, col, where=closer)
        np.copyto(first, k, where=closer)
    return near, first, second


def _last_among_ties(to_root):
    """Negative control: the two nearest, each the last among ties."""
    last = to_root.shape[1] - 1
    near, first, second = scanner._two_nearest(to_root[:, ::-1].copy())
    return near, last - first, last - second


def _nearest_inputs(orders):
    """|lam - zeta| at lam = 0, where roots tie, and on a seeded grid of
    points on and off the circle."""
    zeta = union_values(GroupUnionSpec(orders))
    rng = np.random.default_rng(20261022)
    lam = np.r_[0.0, np.exp(2j * np.pi * rng.random(2048))
                * rng.uniform(0.5, 1.5, 2048)]
    return np.abs(lam[:, None] - zeta[None, :])


@pytest.mark.parametrize("orders", [(1,), (2, 3), (96, 97), (360,)],
                         ids=lambda o: "-".join(map(str, o)))
def test_two_nearest_matches_the_column_loop(orders):
    to_root = _nearest_inputs(orders)
    want = _column_loop(to_root)
    got = scanner._two_nearest(to_root.copy())
    assert got[0].view(np.uint64).tolist() == want[0].view(np.uint64).tolist()
    assert got[1].tolist() == want[1].tolist()
    assert got[2].tolist() == want[2].tolist()
    if len(orders) > 1 or orders[0] > 1:
        assert got[2][0] != got[1][0]       # lam = 0 ties several roots


@pytest.mark.parametrize("orders", [(2, 3), (96, 97), (360,)],
                         ids=lambda o: "-".join(map(str, o)))
def test_the_column_loop_comparison_sees_the_tie_rule(orders):
    # negative control: keeping the last index among ties moves the
    # columns at lam = 0, and only the columns
    to_root = _nearest_inputs(orders)
    want = _column_loop(to_root)
    near, first, second = _last_among_ties(to_root)
    assert near.tolist() == want[0].tolist()
    assert (first[0], second[0]) != (want[1][0], want[2][0])


# ---------------------------------------------------------------------------
# the kernel against the full distance matrix
# ---------------------------------------------------------------------------

def _full_matrix_kernel(spec, lams, depth, exclusion_radius, rings):
    """The kernel with the gap taken over every ring point (1 - q) zeta at
    once, for ``rings`` = the q of each ring; the reference arithmetic.

    Each ring distance is sqrt((r - c)^2 + s^2) with c + i s = lam conj(zeta)
    taken in real arithmetic for every root."""
    lam = np.asarray(lams, dtype=complex)
    zeta = union_values(spec)
    den, den_radius, valid = coupling_series_batch(spec.d, lam, depth)
    with np.errstate(invalid="ignore"):
        low = np.fmax(0.0, np.abs(den) - den_radius)
    c = (lam.real[:, None] * zeta.real[None, :]
         + lam.imag[:, None] * zeta.imag[None, :])
    s = (lam.imag[:, None] * zeta.real[None, :]
         - lam.real[:, None] * zeta.imag[None, :])
    per_block = np.full(lam.shape, np.inf)
    for r in 1.0 - rings:
        ring = np.sqrt((r - c) * (r - c) + s * s)
        per_block = np.minimum(per_block, ring.min(axis=1))
    qs = dyadic_weights(depth + 1, spec.d)
    near = np.min(np.abs(lam[:, None] - zeta[None, :]), axis=1)
    limit = near - qs[-1]
    gap = np.maximum(0.0, np.minimum.reduce([np.abs(lam), per_block, limit]))
    out = near <= exclusion_radius
    withheld = (gap <= _S_GAP_GUARD) | (low <= 0.0) | out
    verdict = np.zeros(lam.shape, dtype=np.uint8)
    verdict[valid & withheld] = SINGULAR_CODE
    verdict[~valid] = TAIL_INVALID_CODE
    low[~valid] = 0.0
    return scanner._CircleBatch(den, den_radius, low, gap, near, out, valid,
                                verdict)


def _oracle_points(spec, depth):
    """Circle grid, root midpoints on and off the circle and on rings,
    random points off the circle, tiny |lam| and lam = 0; and, on the rays
    of the roots 1 and -1 (where Re(lam conj(zeta)) is exactly c), points
    with c on every radius, halfway between neighbouring radii, below the
    first, above 1 and in the cluster of radii that round to 1."""
    rng = np.random.default_rng(depth)
    angles = np.array([float(a) for a in union_points(spec)] + [1.0])
    mid = np.exp(1j * np.pi * (angles[:-1] + angles[1:]))
    qs = dyadic_weights(depth + 1, spec.d)
    radii = 1.0 - np.array([0.0, 0.5, 0.1, -0.2, qs[0], qs[1], qs[depth - 1]])
    tiny = np.array([1e-6, 3e-9, 1e-300, 5e-324]) * \
        np.exp(2j * np.pi * rng.random(4))
    rings = np.unique(1.0 - qs[:-1])
    one = np.nextafter(1.0, 0.0)
    cs = np.concatenate([
        rings, (rings[:-1] + rings[1:]) / 2.0,
        [0.5 * rings[0], 1.0, 1.0 + 1e-3, 2.0, one, one - 2.0 ** -52,
         1.0 - qs[-1]]])
    on_rays = (cs[:, None] + 1j * np.array([0.0, 1e-9, 1e-3, 0.2])[None, :])
    return np.concatenate([
        np.exp(2j * np.pi * np.arange(720) / 720),
        (radii[:, None] * mid[None, :]).ravel(),
        rng.uniform(0.0, 2.0, 600) * np.exp(2j * np.pi * rng.random(600)),
        tiny, tiny * 1e-6, [0.0], on_rays.ravel(), -cs])


def _mismatched_fields(got, ref):
    """Names of the fields that differ in any bit (NaN and -0 included)."""
    def bits(a):
        a = np.ascontiguousarray(a)
        return a.view(np.uint8) if a.dtype.kind in "fc" else a
    return [name for name in scanner._CircleBatch._fields
            if not np.array_equal(bits(getattr(got, name)),
                                  bits(getattr(ref, name)))]


_KERNEL_ORDERS = [(1,), (2, 3), (4, 6), (5, 7), (2, 3, 5)]
_KERNEL_IDS = ["1", "2,3", "4,6", "5,7", "2,3,5"]


# |lam| near 5e-324 overflows the series quotient; both sides see it
@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("depth", [1, 20, 60, 200])
@pytest.mark.parametrize("orders", _KERNEL_ORDERS, ids=_KERNEL_IDS)
def test_kernel_matches_the_full_distance_matrix(orders, depth):
    # the two nearest roots give every field of the full |lam - (1-q) zeta|
    # minimum, bit for bit; at depth 200 most 1 - q_n round to 1, so each
    # of the kernel's distinct radii stands in for many blocks
    spec = GroupUnionSpec(orders)
    lams = _oracle_points(spec, depth)
    ref = _full_matrix_kernel(spec, lams, depth, 0.05,
                              dyadic_weights(depth, spec.d))
    assert _mismatched_fields(
        scanner._circle_kernel(spec, lams, depth, 0.05), ref) == []


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("depth", [1, 20, 60, 200])
@pytest.mark.parametrize("orders", _KERNEL_ORDERS, ids=_KERNEL_IDS)
def test_kernel_oracle_catches_shifted_rings(orders, depth):
    # negative control: a kernel whose rings run over q_2..q_{depth+1}
    # differs from the reference in its gap on these points
    spec = GroupUnionSpec(orders)
    lams = _oracle_points(spec, depth)
    ref = _full_matrix_kernel(spec, lams, depth, 0.05,
                              dyadic_weights(depth, spec.d))
    shifted = _full_matrix_kernel(spec, lams, depth, 0.05,
                                  dyadic_weights(depth + 1, spec.d)[1:])
    assert "gap" in _mismatched_fields(shifted, ref)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("depth", [20, 60, 200])
@pytest.mark.parametrize("orders", _KERNEL_ORDERS, ids=_KERNEL_IDS)
def test_kernel_oracle_catches_a_shifted_bracket(orders, depth, monkeypatch):
    # negative control: a radius lookup one index too high brackets c
    # between the two radii above it, and misses the nearer one below c
    # (at depth 1 there is one radius and nothing to shift)
    spec = GroupUnionSpec(orders)
    lams = _oracle_points(spec, depth)
    ref = _full_matrix_kernel(spec, lams, depth, 0.05,
                              dyadic_weights(depth, spec.d))
    search = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda a, v: search(a, v) + 1)
    got = scanner._circle_kernel(spec, lams, depth, 0.05)
    assert "gap" in _mismatched_fields(got, ref)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("size", [1e-310, 5e-324])
def test_kernel_is_silent_at_subnormal_lambda(size):
    # the series quotient overflows below |lam| ~ 1e-308; the kernel must
    # not warn, and the gap |lam| still withholds the certificate
    spec = GroupUnionSpec((2, 3))
    lam = size * np.exp(0.3j)
    k = scanner._circle_kernel(spec, [lam], 40, 0.05)
    assert k.verdict[0] == SINGULAR_CODE
    assert k.gap[0] == abs(lam)
