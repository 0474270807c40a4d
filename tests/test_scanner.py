"""Unit-circle scan and peripheral residual certificates."""

import inspect
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spectral_forge import scanner
from spectral_forge.errors import (BlockTooDeep, NotInTargetSet,
                                   SpectralForgeError)
from spectral_forge.io import Lookup, write_csv
from spectral_forge.model import (GroupUnionSpec, WeightSeq, union_points,
                                  union_values)
from spectral_forge.resolvent import (CERTIFIED, SINGULAR, TAIL_INVALID,
                                      _S_GAP_GUARD, coupling_series_batch)
from spectral_forge.scanner import (VERDICTS, residual_certificate,
                                    scan_unit_circle)

SINGULAR_CODE = VERDICTS.index(SINGULAR)
TAIL_INVALID_CODE = VERDICTS.index(TAIL_INVALID)


def _setup(orders):
    spec = GroupUnionSpec(orders)
    return spec, WeightSeq.dyadic_single(spec.d)


# ---------------------------------------------------------------------------
# residual certificates
# ---------------------------------------------------------------------------

def test_certificate_residual_closed_form():
    spec, w = _setup((2, 3))
    n = 5
    q = w.value(n)
    # away from 1 the Fourier vector sums to zero: residual q_n exactly
    c = residual_certificate(spec, w, Fraction(1, 3), block_index=n)
    assert c.inner_abs < 1e-15
    assert c.residual == pytest.approx(q, rel=1e-12)
    # at 1 the inner product is 1: residual 2 q_n
    c1 = residual_certificate(spec, w, Fraction(0), block_index=n)
    assert c1.inner_abs == pytest.approx(1.0, abs=1e-15)
    assert c1.residual == pytest.approx(2.0 * q, rel=1e-12)


def test_certificate_accepts_complex_targets():
    spec, w = _setup((2, 3))
    c = residual_certificate(spec, w, complex(np.exp(2j * np.pi / 3)), 8)
    assert c.angle == Fraction(1, 3)
    assert c.block_index == 8
    assert abs(c.value - np.exp(2j * np.pi / 3)) < 1e-12


def test_certificate_vector_is_normalised_eigenvector_of_block():
    spec, w = _setup((2, 3))
    c = residual_certificate(spec, w, Fraction(1, 2), 4)
    assert np.abs(c.vector).sum() == pytest.approx(1.0)
    pv = spec.permute(c.vector)
    assert np.allclose(pv, c.value * c.vector, atol=1e-14)


def test_certificate_rejects_off_target_points():
    spec, w = _setup((2, 3))
    with pytest.raises(NotInTargetSet):
        residual_certificate(spec, w, Fraction(1, 5))
    with pytest.raises(NotInTargetSet):
        residual_certificate(spec, w, 0.99 + 0.1j)


def test_certificate_takes_fraction_targets_modulo_one():
    spec, w = _setup((2, 3))
    assert residual_certificate(spec, w, Fraction(4, 3), 8).angle == \
        Fraction(1, 3)
    with pytest.raises(NotInTargetSet,
                       match="angle 6/5 not in the target set"):
        residual_certificate(spec, w, Fraction(6, 5))


def test_certificate_residual_shrinks_with_depth():
    spec, w = _setup((3,))
    res = [residual_certificate(spec, w, Fraction(1, 3), n).residual
           for n in (5, 10, 20, 30)]
    assert all(a > b for a, b in zip(res, res[1:]))
    assert res[-1] == pytest.approx(2.0 ** -30 / 3, rel=1e-9)


@pytest.mark.parametrize("orders", [(1,), (2,), (3,), (2, 3), (4, 6),
                                    (5, 7)],
                         ids=["1", "2", "3", "2,3", "4,6", "5,7"])
def test_certificate_gate_holds_down_to_the_slop(orders):
    # every block with q_n above the slop passes the two-sided check, with
    # the rounding error far inside it; deeper blocks are refused by type
    spec, w = _setup(orders)
    deepest = max(n for n in range(1, 61) if w.value(n) > scanner.CERT_SLOP)
    for angle in union_points(spec):
        for n in range(1, deepest + 1):
            c = residual_certificate(spec, w, angle, n)
            closed = w.value(n) * (1.0 + c.inner_abs)
            assert abs(c.residual - closed) <= 4 * np.finfo(float).eps
        with pytest.raises(BlockTooDeep):
            residual_certificate(spec, w, angle, deepest + 1)


@pytest.mark.parametrize("block", [30, 38, 40, 44])
def test_certificate_gate_rejects_a_zero_residual(monkeypatch, block):
    # negative control: an operator that maps z to lam * z leaves residual 0,
    # which must fail at every block the gate admits, not only at shallow
    # ones (an absolute 1e-12 check accepted it from block 38 on)
    spec, w = _setup((2, 3))
    lam = np.exp(2j * np.pi / 3)
    monkeypatch.setattr(scanner, "apply_operator",
                        lambda spec, w, vec: lam * vec)
    with pytest.raises(SpectralForgeError, match="does not match") as info:
        residual_certificate(spec, w, Fraction(1, 3), block)
    assert not isinstance(info.value, BlockTooDeep)


# ---------------------------------------------------------------------------
# the scan
# ---------------------------------------------------------------------------

def test_scan_small_grid_single_group():
    spec, w = _setup((1,))
    rep = scan_unit_circle(spec, w, grid_size=8, exclusion_radius=0.05)
    counts = rep.counts()
    assert counts[CERTIFIED] == 7
    assert counts[TAIL_INVALID] == 1          # the excluded point lam = 1
    assert len(rep) == 8
    assert rep.excluded[0]
    assert not rep.excluded[3]


def test_scan_matches_pointwise_certification():
    # every scan point is the kernel's answer to a batch of one, bit for bit
    spec, w = _setup((2, 3))
    rep = scan_unit_circle(spec, w, grid_size=180, exclusion_radius=0.05,
                           with_certificates=False)
    for i in range(len(rep)):
        ref = scanner._circle_kernel(spec, w, [rep.lams[i]], 40, 0.05)
        assert rep.codes[i] == ref.verdict[0]
        assert rep.den_lower[i] == ref.den_lower[0]
        assert rep.block_bounds[i] == ref.block_bound[0]
        assert rep.dist[i] == ref.dist[0]
        assert rep.excluded[i] == ref.excluded[0]


def test_scan_withholds_certification_on_exclusion_arcs():
    spec, w = _setup((2, 3))
    rep = scan_unit_circle(spec, w, grid_size=720, exclusion_radius=0.1,
                           with_certificates=False)
    assert np.isin(rep.codes[rep.excluded],
                   [SINGULAR_CODE, TAIL_INVALID_CODE]).all()
    assert (rep.dist[~rep.excluded] > 0.1 - 1e-9).all()


def test_scan_verdicts_conjugation_symmetric():
    # the construction has real coefficients, so theta and 1-theta agree
    spec, w = _setup((2, 3))
    rep = scan_unit_circle(spec, w, grid_size=360,
                           with_certificates=False)
    n = len(rep)
    for i in range(1, n // 2):
        assert rep.codes[i] == rep.codes[n - i]
        assert rep.den_lower[i] == pytest.approx(rep.den_lower[n - i],
                                                 rel=1e-12, abs=1e-15)


def test_scan_empirical_bound_and_metadata():
    spec, w = _setup((2,))
    rep = scan_unit_circle(spec, w, grid_size=90, depth=25,
                           with_certificates=False)
    assert np.isfinite(rep.empirical_m)
    assert rep.empirical_m >= 1.0      # resolvent norms near the rim are >= 1
    assert rep.metadata["depth"] == 25
    assert rep.metadata["orders"] == [2]


def test_scan_csv_rows_shape_and_determinism(tmp_path):
    spec, w = _setup((2, 3))
    _, csv1 = _scan_and_csv(spec, w, 60, tmp_path / "a.csv")
    _, csv2 = _scan_and_csv(spec, w, 60, tmp_path / "b.csv")
    assert csv1 == csv2
    rows = csv1.decode().splitlines()[1:]
    assert len(rows) == 60
    assert {len(r.split(",")) for r in rows} == {6}


def test_scan_default_certificates_cover_target_set():
    spec, w = _setup((2, 3))
    rep = scan_unit_circle(spec, w, grid_size=12)
    assert [c.angle for c in rep.certificates] == union_points(spec)
    # deep default block: residuals at the 1e-10 scale
    for c in rep.certificates:
        assert c.residual <= 2.0 * w.value(30) + 1e-14


_ARRAYS = ("thetas", "lams", "codes", "den_lower", "block_bounds", "dist",
           "excluded")


def _scan_and_csv(spec, w, grid, path):
    rep = scan_unit_circle(spec, w, grid_size=grid, with_certificates=False)
    write_csv(str(path), ["theta", "re", "im", "verdict", "low", "bound"],
              [rep.thetas, rep.lams.real, rep.lams.imag,
               Lookup(np.array(VERDICTS, dtype=bytes), rep.codes),
               rep.den_lower, rep.block_bounds])
    return rep, path.read_bytes()


@pytest.mark.parametrize("chunk,grid", [
    (1, 300), (7, 300), (scanner._CHUNK, 2 * scanner._CHUNK + 301)])
def test_scan_does_not_depend_on_the_chunk_size(chunk, grid, tmp_path,
                                                monkeypatch):
    spec, w = _setup((4, 6))
    # one chunk over the whole grid is the unchunked arithmetic
    monkeypatch.setattr(scanner, "_CHUNK", grid)
    ref, ref_csv = _scan_and_csv(spec, w, grid, tmp_path / "ref.csv")
    monkeypatch.setattr(scanner, "_CHUNK", chunk)
    rep, rep_csv = _scan_and_csv(spec, w, grid, tmp_path / "rep.csv")
    for name in _ARRAYS:
        np.testing.assert_array_equal(getattr(rep, name), getattr(ref, name))
    assert rep.empirical_m == ref.empirical_m
    assert rep_csv == ref_csv


def test_scan_memory_stays_bounded_by_one_chunk():
    # the unchunked scan held grid x depth*|U| complex distances: 187 MB here
    spec, w = _setup((2, 3))
    tracemalloc.start()
    try:
        rep = scan_unit_circle(spec, w, grid_size=50_000,
                               with_certificates=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    # the verdict column is one uint8 code a point, not a label reference
    assert rep.codes.dtype == np.uint8


def test_kernel_memory_does_not_grow_with_depth():
    # the series runs over n on chunk-length buffers, so the peak is
    # O(chunk); chunk x (depth + 1) complex temporaries would take 262 MB
    # at depth 1000
    spec, w = _setup((2, 3))
    lams = np.exp(2j * np.pi * (np.arange(scanner._CHUNK) + 0.5)
                  / scanner._CHUNK)
    scanner._circle_kernel(spec, w, lams, 40, 0.05)     # one-time setup
    peaks = []
    for depth in (40, 1000):
        tracemalloc.start()
        try:
            scanner._circle_kernel(spec, w, lams, depth, 0.05)
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
    spec, w = _setup((2, 3))
    scan_unit_circle(spec, w, grid_size=100, depth=30,
                     with_certificates=False)
    assert calls == [(100, 30)]


# ---------------------------------------------------------------------------
# the kernel against the full distance matrix
# ---------------------------------------------------------------------------

def _full_matrix_kernel(spec, w, lams, depth, exclusion_radius, rings):
    """The kernel with the gap taken over every ring point (1 - q) zeta at
    once and the block bound over every q, for ``rings`` = the q of each
    ring; the reference arithmetic.

    Each ring distance is sqrt((r - c)^2 + s^2) with c + i s = lam conj(zeta)
    taken in real arithmetic for every root, and each block term is
    S_m(|lam| / r) r^(m-1) / max(|lam^m - r^m|, 1e-300), with S_m by
    Horner's rule and the powers of r by repeated multiplication."""
    lam = np.asarray(lams, dtype=complex)
    zeta = union_values(spec)
    den, den_radius, valid = coupling_series_batch(w, lam, depth)
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
    near = np.min(np.abs(lam[:, None] - zeta[None, :]), axis=1)
    limit = near - w.value(depth + 1)
    gap = np.maximum(0.0, np.minimum.reduce([np.abs(lam), per_block, limit]))
    bounds = np.zeros(lam.shape)
    for q in w.values(depth):
        r = 1.0 - q
        a = np.abs(lam) * (1.0 / r)
        for m in set(spec.orders):
            power = lam
            for _ in range(m - 1):
                power = power * lam
            r_m = r_m1 = 1.0
            for _ in range(m):
                r_m1, r_m = r_m, r_m * r
            dist = np.sqrt((power.real - r_m) * (power.real - r_m)
                           + power.imag * power.imag)
            total = np.ones(lam.shape)
            for _ in range(m - 1):
                total = total * a + 1.0
            bounds = np.maximum(
                bounds, total * r_m1 / np.maximum(dist, 1e-300))
    out = near <= exclusion_radius
    withheld = (gap <= _S_GAP_GUARD) | (low <= 0.0) | out
    verdict = np.zeros(lam.shape, dtype=np.uint8)
    verdict[valid & withheld] = SINGULAR_CODE
    verdict[~valid] = TAIL_INVALID_CODE
    low[~valid] = 0.0
    return scanner._CircleBatch(den, den_radius, low, gap, bounds, near, out,
                                valid, verdict)


def _oracle_points(spec, w, depth):
    """Circle grid, root midpoints on and off the circle and on rings,
    random points off the circle, tiny |lam| and lam = 0; and, on the rays
    of the roots 1 and -1 (where Re(lam conj(zeta)) is exactly c), points
    with c on every radius, halfway between neighbouring radii, below the
    first, above 1 and in the cluster of radii that round to 1."""
    rng = np.random.default_rng(depth)
    angles = np.array([float(a) for a in union_points(spec)] + [1.0])
    mid = np.exp(1j * np.pi * (angles[:-1] + angles[1:]))
    radii = 1.0 - np.array([0.0, 0.5, 0.1, -0.2, w.value(1), w.value(2),
                            w.value(depth)])
    tiny = np.array([1e-6, 3e-9, 1e-300, 5e-324]) * \
        np.exp(2j * np.pi * rng.random(4))
    rings = np.unique(1.0 - w.values(depth))
    one = np.nextafter(1.0, 0.0)
    cs = np.concatenate([
        rings, (rings[:-1] + rings[1:]) / 2.0,
        [0.5 * rings[0], 1.0, 1.0 + 1e-3, 2.0, one, one - 2.0 ** -52,
         1.0 - w.value(depth + 1)]])
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
    # minimum, bit for bit; at depth 200 most 1 - q_n round to 1, so the
    # kernel's one pass per distinct radius stands in for many blocks
    spec, w = _setup(orders)
    lams = _oracle_points(spec, w, depth)
    ref = _full_matrix_kernel(spec, w, lams, depth, 0.05, w.values(depth))
    assert _mismatched_fields(
        scanner._circle_kernel(spec, w, lams, depth, 0.05), ref) == []


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("depth", [1, 20, 60, 200])
@pytest.mark.parametrize("orders", _KERNEL_ORDERS, ids=_KERNEL_IDS)
def test_kernel_oracle_catches_shifted_rings(orders, depth):
    # negative control: a kernel whose rings run over q_2..q_{depth+1}
    # differs from the reference in its gap on these points
    spec, w = _setup(orders)
    lams = _oracle_points(spec, w, depth)
    ref = _full_matrix_kernel(spec, w, lams, depth, 0.05, w.values(depth))
    shifted = _full_matrix_kernel(spec, w, lams, depth, 0.05,
                                  w.values(depth + 1)[1:])
    assert "gap" in _mismatched_fields(shifted, ref)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("depth", [20, 60, 200])
@pytest.mark.parametrize("orders", _KERNEL_ORDERS, ids=_KERNEL_IDS)
def test_kernel_oracle_catches_a_shifted_bracket(orders, depth, monkeypatch):
    # negative control: a radius lookup one index too high brackets c
    # between the two radii above it, and misses the nearer one below c
    # (at depth 1 there is one radius and nothing to shift)
    spec, w = _setup(orders)
    lams = _oracle_points(spec, w, depth)
    ref = _full_matrix_kernel(spec, w, lams, depth, 0.05, w.values(depth))
    search = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda a, v: search(a, v) + 1)
    got = scanner._circle_kernel(spec, w, lams, depth, 0.05)
    assert "gap" in _mismatched_fields(got, ref)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("size", [1e-310, 5e-324])
def test_kernel_is_silent_at_subnormal_lambda(size):
    # the series quotient overflows below |lam| ~ 1e-308; the kernel must
    # not warn, and the gap |lam| still withholds the certificate
    spec, w = _setup((2, 3))
    lam = size * np.exp(0.3j)
    k = scanner._circle_kernel(spec, w, [lam], 40, 0.05)
    assert k.verdict[0] == SINGULAR_CODE
    assert k.gap[0] == abs(lam)
