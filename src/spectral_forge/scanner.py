"""Unit-circle scanning and approximate-eigenvector certificates.

The scan walks a uniform angular grid in fixed-size chunks, evaluates the
certified rank-one denominator at every point, measures the distance to the
block-diagonal spectrum, and issues one verdict per point.  Only the
per-point columns span the whole grid, so memory grows linearly in the grid
size with a constant set by one chunk.  Points inside the exclusion
arcs around the prescribed peripheral set never receive a resolvent
certificate, whatever the denominator says there: floating-point scanning
needs a buffer, so certification is withheld on the arcs (the certified
lower bound is still recorded).

For each peripheral point the complementary certificate is an explicit
finite vector living in a single deep block whose image under the operator
misses the eigenvalue equation by exactly q_n * (1 + |<1, z>|).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, NamedTuple

import numpy as np

from .errors import BlockTooDeep, NotInTargetSet, SpectralForgeError
from .model import (GroupUnionSpec, WeightSeq, apply_operator, union_points,
                    union_values)
from .resolvent import (CERTIFIED, SINGULAR, TAIL_INVALID,
                        coupling_series_batch, _MAX_TERMS, _S_GAP_GUARD)

__all__ = [
    "CERT_SLOP",
    "EigCertificate",
    "certificate_matches",
    "residual_certificate",
    "ScanReport",
    "VERDICTS",
    "scan_unit_circle",
    "verdict_counts",
]

# the verdicts in the order of their uint8 codes (``ScanReport.codes``)
VERDICTS = (CERTIFIED, SINGULAR, TAIL_INVALID)

# grid points per scan chunk: bounds the (chunk x |U|) root distances; every
# other kernel buffer is one chunk long
_CHUNK = 8192

# absolute rounding slop of a certificate residual against its closed form;
# the worst error measured over orders (1,), (2,), (3,), (2,3), (4,6), (5,7),
# every target point and blocks 1-60 is 2.75 eps = 6.1e-16
CERT_SLOP = 1e-14


# ---------------------------------------------------------------------------
# approximate eigenvector certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigCertificate:
    """Residual certificate for one peripheral point.

    ``vector`` is the l1-normalised discrete Fourier eigenvector of the
    first cyclic sub-block whose spectrum contains the point, embedded in
    block ``block_index``.  ``residual`` is ||(T - lam) z||_1 computed by
    the forward map; it equals q_n * (1 + inner_abs) exactly.
    """

    angle: Fraction
    value: complex
    block_index: int
    vector: np.ndarray
    inner_abs: float
    residual: float


def certificate_matches(residual: float, q: float, inner_abs: float) -> bool:
    """True when a certificate residual equals its closed form
    q_n * (1 + |<1, z>|) up to ``CERT_SLOP``."""
    return abs(residual - q * (1.0 + inner_abs)) <= CERT_SLOP


def residual_certificate(spec: GroupUnionSpec, w: WeightSeq,
                         target, block_index: int = 30) -> EigCertificate:
    """Build the deep-block certificate for one point of the target set.

    ``target`` may be an exact angle (Fraction of a full turn) or a complex
    number that matches a target point to 1e-9.  Raises NotInTargetSet
    otherwise, BlockTooDeep when q_n <= CERT_SLOP (the residual check could
    not fail there), and SpectralForgeError when the residual misses its
    closed form by more than CERT_SLOP.
    """
    if isinstance(target, Fraction):
        angle = target % 1
    else:
        lam_t = complex(target)
        vals = union_values(spec)
        k = int(np.argmin(np.abs(vals - lam_t)))
        if abs(vals[k] - lam_t) > 1e-9:
            raise NotInTargetSet(f"{lam_t} is not a target point")
        angle = union_points(spec)[k]
    # first cyclic sub-block containing the point in its spectrum; the
    # target set is exactly the angles some sub-block carries
    for off, m in zip(spec.offsets, spec.orders):
        if (angle * m).denominator == 1:
            break
    else:
        raise NotInTargetSet(f"angle {target} not in the target set")
    if block_index < 1:
        raise ValueError("block_index must be >= 1")
    q = w.value(block_index)
    if q <= CERT_SLOP:
        raise BlockTooDeep(
            f"q_{block_index} = {q:.3e} is within the {CERT_SLOP:g} rounding "
            f"slop of 0, so the residual check could not fail")

    lam = complex(np.exp(2j * np.pi * float(angle)))

    z = np.zeros(spec.d, dtype=complex)
    zeta = np.exp(2j * np.pi * float(angle))
    for i in range(m):
        z[off + i] = zeta ** (-i) / m
    inner = abs(z.sum())

    x = np.zeros(1 + block_index * spec.d, dtype=complex)
    x[-spec.d:] = z
    r = apply_operator(spec, w, x) - lam * x
    # the l1 norm, each block's sum first: the order the artifacts pin
    resid = float(abs(r[0])
                  + np.abs(r[1:]).reshape(-1, spec.d).sum(axis=1).sum())
    if not certificate_matches(resid, q, inner):
        raise SpectralForgeError(
            f"certificate residual {resid} does not match closed form "
            f"{q * (1.0 + inner)}")
    return EigCertificate(angle, lam, block_index, z, inner, resid)


# ---------------------------------------------------------------------------
# the scan
# ---------------------------------------------------------------------------

@dataclass
class ScanReport:
    thetas: np.ndarray
    lams: np.ndarray
    codes: np.ndarray            # uint8 index of each point's verdict
    den_lower: np.ndarray
    block_bounds: np.ndarray
    dist: np.ndarray
    excluded: np.ndarray
    empirical_m: float
    certificates: List[EigCertificate]
    metadata: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.thetas)

    def counts(self) -> dict:
        return verdict_counts(self.codes)


def verdict_counts(codes: np.ndarray) -> dict:
    """Points per verdict, for verdict codes as ``ScanReport.codes`` holds
    them, keyed in the order of ``VERDICTS``."""
    return dict(zip(VERDICTS, np.bincount(codes, minlength=3).tolist()))


class _CircleBatch(NamedTuple):
    """Per-point output of :func:`_circle_kernel`, one array per field."""

    den: np.ndarray          # centre of the disk of 1 - <q, R(lam,S) q>/lam
    den_radius: np.ndarray   # its certified radius
    den_lower: np.ndarray    # certified lower bound of |den|, 0 if invalid
    gap: np.ndarray          # certified lower bound of dist(lam, sigma(S))
    block_bound: np.ndarray  # largest observed block-resolvent l1 norm
    dist: np.ndarray         # distance to the peripheral set
    excluded: np.ndarray     # dist <= exclusion_radius
    valid: np.ndarray        # the tail guard holds (at n = 1, so at every n)
    verdict: np.ndarray      # uint8 index into VERDICTS


def _circle_kernel(spec: GroupUnionSpec, w: WeightSeq, lams, depth: int,
                   exclusion_radius: float = 0.0) -> _CircleBatch:
    """Certify every spectral parameter in ``lams``, on the circle or off it.

    TailInvalid: the series has no valid tail bound (lam on or next to the
    distinguished direction through 1).  SingularCandidate: lam lies on an
    exclusion arc, its certified gap to sigma(S) collapses (always at
    lam = 0) or its denominator disk contains 0; never a claim of spectrum
    membership.  CertifiedResolvent: lam is rigorously in the resolvent set.
    The denominator disk and the tail guard are ``coupling_series_batch``'s.

    sigma(S) is {0}, every r * zeta with r = 1 - q_n, and the peripheral
    set; the gap checks n <= depth explicitly and covers n > depth by
    |lam - zeta| - q_{depth+1}.  |lam - r zeta|^2 = |lam|^2 + r^2 -
    2 r Re(lam conj(zeta)) orders the roots by angle for every r > 0, so the
    nearest ring point lies on the ray of lam's nearest root; the runner-up
    covers rounding near-ties at midpoints.  With c + i s = lam conj(zeta)
    for those two roots, the ring distance is sqrt(t^2 + s^2), where t is
    the smallest |r - c| over the distinct radii.  fl(r - c) is monotone in
    r, so one of the two radii bracketing c attains that minimum
    (``searchsorted``), and since fl(t^2), fl(t^2 + s^2) and sqrt are
    monotone in |t|, the result is bit for bit the minimum of the same
    expression over every radius.

    The block bound is the measured stand-in for the uniform bound the
    compactness argument provides; reported, never asserted.  It is the
    largest sum_{j<m} |mu|^j / (r |mu^m - 1|), mu = lam / r, over the radii
    r and the orders m, evaluated as the equal
    S_m(|lam| / r) r^(m-1) / |lam^m - r^m| with S_m(a) = sum_{j<m} a^j.
    lam^m is formed once per point by repeated multiplication; per distinct
    radius only real arithmetic runs: a = |lam| * (1/r), S_m(a) by one
    Horner chain over the sorted orders (no 0/0 at a = 1 and no
    cancellation near it, unlike (a^m - 1) / (a - 1); Higham 2002, ch. 5),
    and |lam^m - r^m| from the real and imaginary parts.  Each result
    depends on its own point alone, so a scalar query is a batch of one.
    """
    lam = np.asarray(lams, dtype=complex)
    zeta = union_values(spec)
    radii = np.unique(1.0 - w.values(depth))    # ascending, each once
    q_limit = w.value(depth + 1)

    den, den_radius, valid = coupling_series_batch(w, lam, depth)
    rho = np.abs(lam)
    # fmax: the undefined disk at lam = 0 (and at subnormal |lam|, where
    # the radius is inf) gets the lower bound 0; the gap |lam| decides there
    with np.errstate(invalid="ignore"):
        low = np.fmax(0.0, np.abs(den) - den_radius)

    # the two nearest roots in one pass over the columns; ``near`` is their
    # exact minimum.  At lam = 0 every root ties, but there the gap is 0
    to_root = np.abs(lam[:, None] - zeta[None, :])
    near = to_root[:, 0].copy()
    first = np.zeros(lam.shape, dtype=np.intp)
    runner_up = np.full(lam.shape, np.inf)
    second = np.zeros(lam.shape, dtype=np.intp)
    for k in range(1, zeta.size):
        col = to_root[:, k]
        closer = col < near
        beats = ~closer & (col < runner_up)
        np.copyto(runner_up, near, where=closer)
        np.copyto(second, first, where=closer)
        np.copyto(runner_up, col, where=beats)
        np.copyto(second, k, where=beats)
        np.copyto(near, col, where=closer)
        np.copyto(first, k, where=closer)

    # the ring term of the gap, in closed form per root (with one root,
    # ``second`` is that root again)
    per_block = np.full(lam.shape, np.inf)
    for root in (first, second):
        re, im = zeta.real[root], zeta.imag[root]
        c = lam.real * re + lam.imag * im
        s = lam.imag * re - lam.real * im
        above = np.minimum(np.searchsorted(radii, c), radii.size - 1)
        below = np.maximum(above - 1, 0)
        t = np.minimum(np.abs(radii[below] - c), np.abs(radii[above] - c))
        np.minimum(per_block, np.sqrt(t * t + s * s), out=per_block)
    limit = near - q_limit
    gap = np.maximum(0.0, np.minimum.reduce([rho, per_block, limit]))

    # lam^m for each order, with the real part and the squared imaginary
    # part kept.  Each product goes to the other buffer: NumPy computes a
    # one-element product in place without the fused multiply-add of its
    # vector loop, so a batch of one would not match the scan
    orders = sorted(set(spec.orders))
    parts = []
    power, spare = lam.copy(), np.empty_like(lam)
    for m in range(1, orders[-1] + 1):
        if m > 1:
            np.multiply(power, lam, out=spare)
            power, spare = spare, power
        if m in orders:
            parts.append((m, power.real.copy(), power.imag * power.imag))

    # one pass per distinct radius: blocks whose radius rounds to the same
    # float (n >~ 51 at d = 5) have the same block bound, and max does not
    # depend on the order
    bounds = np.zeros(lam.shape)
    a, acc, dist, ratio = (np.empty(lam.shape) for _ in range(4))
    for r in radii.tolist():
        rpow = [1.0]
        for _ in range(orders[-1]):
            rpow.append(rpow[-1] * r)
        np.multiply(rho, 1.0 / r, out=a)
        acc.fill(1.0)
        terms = 1
        for m, re, im2 in parts:
            # S_{j+1} = S_j a + 1, continued from the previous order
            for _ in range(m - terms):
                np.multiply(acc, a, out=acc)
                np.add(acc, 1.0, out=acc)
            terms = m
            # |lam^m - r^m|, floored so that a hit on sigma(S) stays finite
            np.subtract(re, rpow[m], out=dist)
            np.multiply(dist, dist, out=dist)
            np.add(dist, im2, out=dist)
            np.sqrt(dist, out=dist)
            np.maximum(dist, 1e-300, out=dist)
            np.multiply(acc, rpow[m - 1], out=ratio)
            np.divide(ratio, dist, out=ratio)
            np.maximum(bounds, ratio, out=bounds)

    # certification is withheld on the exclusion arcs
    out = near <= exclusion_radius
    withheld = (gap <= _S_GAP_GUARD) | (low <= 0.0) | out
    verdict = withheld.astype(np.uint8)      # CERTIFIED 0, SINGULAR 1
    verdict[~valid] = 2                      # TAIL_INVALID
    low[~valid] = 0.0
    return _CircleBatch(den, den_radius, low, gap, bounds, near, out, valid,
                        verdict)


def scan_unit_circle(spec: GroupUnionSpec, w: WeightSeq,
                     grid_size: int = 3600, exclusion_radius: float = 0.05,
                     depth: int = 40, cert_block: int = 30,
                     with_certificates: bool = True) -> ScanReport:
    """Classify every grid point exp(2*pi*i*j/grid_size).

    The grid is processed in chunks of ``_CHUNK`` points, each certified by
    :func:`_circle_kernel`.  Every per-point result depends on that point
    alone, so the output does not depend on the chunk size, and memory
    beyond the per-point columns stays bounded by one chunk.  The result is
    deterministic for fixed inputs; conjugation symmetry of the
    construction is a test-side invariant, not enforced here.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be positive")
    thetas = np.arange(grid_size) / grid_size
    lams = np.exp(2j * np.pi * thetas)

    den_lower = np.empty(grid_size)
    block_bounds = np.empty(grid_size)
    dist = np.empty(grid_size)
    excluded = np.empty(grid_size, dtype=bool)
    codes = np.empty(grid_size, dtype=np.uint8)
    for s in range(0, grid_size, _CHUNK):
        part = slice(s, s + _CHUNK)
        k = _circle_kernel(spec, w, lams[part], depth, exclusion_radius)
        den_lower[part] = k.den_lower
        block_bounds[part] = k.block_bound
        dist[part] = k.dist
        excluded[part] = k.excluded
        codes[part] = k.verdict

    on_rim = ~excluded & np.isfinite(block_bounds)
    empirical_m = float(block_bounds[on_rim].max()) if on_rim.any() else 0.0

    certificates = []
    if with_certificates:
        certificates = [residual_certificate(spec, w, a, cert_block)
                        for a in union_points(spec)]

    return ScanReport(
        thetas, lams, codes, den_lower, block_bounds, dist,
        excluded, empirical_m, certificates,
        metadata={
            "orders": list(spec.orders),
            "grid_size": grid_size,
            "exclusion_radius": exclusion_radius,
            "depth": depth,
            "series_terms": min(depth, _MAX_TERMS),
            "cert_block": cert_block,
        })
