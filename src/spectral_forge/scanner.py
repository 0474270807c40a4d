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

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, NamedTuple

import numpy as np

from .errors import BlockTooDeep, NotInTargetSet, SpectralForgeError
from .model import (BlockVector, GroupUnionSpec, WeightSeq, apply_operator,
                    norm1, union_points, union_values)
from .resolvent import (CERTIFIED, SINGULAR, TAIL_INVALID,
                        coupling_series_batch, _S_GAP_GUARD)

__all__ = [
    "CERT_SLOP",
    "EigCertificate",
    "certificate_matches",
    "residual_certificate",
    "ScanPoint",
    "ScanReport",
    "scan_unit_circle",
]

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

    vec = BlockVector(spec.d, 0j, {block_index: z})
    image = apply_operator(spec, w, vec)
    resid = norm1(image - lam * vec).value.real
    if not certificate_matches(resid, q, inner):
        raise SpectralForgeError(
            f"certificate residual {resid} does not match closed form "
            f"{q * (1.0 + inner)}")
    return EigCertificate(angle, lam, block_index, z, inner, resid)


# ---------------------------------------------------------------------------
# the scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanPoint:
    theta: float
    lam: complex
    verdict: str
    denominator_abs_lower: float
    block_bound: float
    dist_to_target: float
    excluded: bool


@dataclass
class ScanReport:
    thetas: np.ndarray
    lams: np.ndarray
    verdicts: List[str]
    den_lower: np.ndarray
    block_bounds: np.ndarray
    dist: np.ndarray
    excluded: np.ndarray
    empirical_m: float
    certificates: List[EigCertificate]
    metadata: dict = field(default_factory=dict)

    def point(self, i: int) -> ScanPoint:
        return ScanPoint(float(self.thetas[i]), complex(self.lams[i]),
                         self.verdicts[i], float(self.den_lower[i]),
                         float(self.block_bounds[i]), float(self.dist[i]),
                         bool(self.excluded[i]))

    def __len__(self):
        return len(self.thetas)

    def counts(self) -> dict:
        out = dict.fromkeys((CERTIFIED, SINGULAR, TAIL_INVALID), 0)
        out.update(Counter(self.verdicts))
        return out


class _CircleBatch(NamedTuple):
    """Per-point output of :func:`_circle_kernel`, one array per field."""

    den: np.ndarray          # centre of the disk of 1 - <q, R(lam,S) q>/lam
    den_radius: np.ndarray   # its certified radius
    den_lower: np.ndarray    # certified lower bound of |den|, 0 if invalid
    gap: np.ndarray          # certified lower bound of dist(lam, sigma(S))
    block_bound: np.ndarray  # largest observed block-resolvent l1 norm
    dist: np.ndarray         # distance to the peripheral set
    excluded: np.ndarray     # dist <= exclusion_radius
    valid: np.ndarray        # the tail guard holds for every n <= depth + 1
    verdict: np.ndarray      # CERTIFIED, SINGULAR or TAIL_INVALID


def _circle_kernel(spec: GroupUnionSpec, w: WeightSeq, lams, depth: int,
                   exclusion_radius: float = 0.0) -> _CircleBatch:
    """Certify every spectral parameter in ``lams``, on the circle or off it.

    TailInvalid: the series has no valid tail bound (lam on or next to the
    distinguished direction through 1).  SingularCandidate: lam lies on an
    exclusion arc, its certified gap to sigma(S) collapses (always at
    lam = 0) or its denominator disk contains 0; never a claim of spectrum
    membership.  CertifiedResolvent: lam is rigorously in the resolvent set.

    sigma(S) is {0}, every (1-q_n) * zeta and the peripheral set; the gap
    checks n <= depth explicitly and covers n > depth by
    |lam - zeta| - q_{depth+1}.  The block bound is the measured stand-in
    for the uniform bound the compactness argument provides; reported,
    never asserted.  It is the largest
    sum_{j<m} |mu|^j / (r |mu^m - 1|), mu = lam / r, over the ring radii
    r = 1 - q_n, n <= depth, and the orders m.  One pass per distinct radius
    computes both the ring distances and the block bound on chunk-length
    arrays, with mu^m by repeated multiplication and the sum by Horner's
    rule (Higham 2002, ch. 5).  Each result depends on its own point alone,
    so a scalar query is a batch of one.
    """
    lam = np.asarray(lams, dtype=complex)
    zeta = union_values(spec)
    qs = w.values(depth)
    q_limit = w.value(depth + 1)

    values, radius, valid = coupling_series_batch(spec, w, lam, depth)
    # |lam| below ~1e-308 overflows the quotient; the gap |lam| decides there
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = 1.0 - values / lam
        den_radius = radius / np.abs(lam)
        # fmax: the undefined disk at lam = 0 gets the lower bound 0
        low = np.fmax(0.0, np.abs(den) - den_radius)

    to_root = np.abs(lam[:, None] - zeta[None, :])
    near = np.min(to_root, axis=1)
    # |lam - r zeta|^2 = |lam|^2 + r^2 - 2 r |lam| cos(lam, zeta) orders the
    # roots by angle for every r > 0, so each ring's nearest point lies on
    # the ray of lam's nearest root; the runner-up covers rounding near-ties
    # at midpoints.  At lam = 0 every root ties, but there the gap is 0.
    pair = zeta[np.argsort(to_root, axis=1)[:, :2].T]   # 2 x chunk, or 1 x

    # one pass per distinct ring radius r = 1 - q_n: blocks whose radius
    # rounds to the same float (n >~ 51 at d = 5) have the same ring and the
    # same block bound, and min and max do not depend on the order
    per_block = np.full(lam.shape, np.inf)
    bounds = np.zeros(lam.shape)
    mu, power, spare = (np.empty(lam.shape, dtype=complex) for _ in range(3))
    dist, absmu, det, acc = (np.empty(lam.shape) for _ in range(4))
    for r in np.unique(1.0 - qs):
        for z in pair:
            np.subtract(lam, np.multiply(r, z, out=spare), out=spare)
            np.minimum(per_block, np.abs(spare, out=dist), out=per_block)
        np.divide(lam, r, out=mu)
        np.abs(mu, out=absmu)
        for m in set(spec.orders):
            # |mu^m - 1| with mu^m by repeated multiplication, floored so
            # that a hit on sigma(S) (mu^m = 1 exactly) stays finite.  Each
            # product goes to the other buffer: NumPy computes a one-element
            # product in place without the fused multiply-add of its vector
            # loop, so a batch of one would not match the scan
            np.copyto(power, mu)
            for _ in range(m - 1):
                np.multiply(power, mu, out=spare)
                power, spare = spare, power
            np.subtract(power, 1.0, out=power)
            np.maximum(np.abs(power, out=det), 1e-300, out=det)
            # sum_{j<m} |mu|^j by Horner's rule: no 0/0 at |mu| = 1 and no
            # cancellation near it, unlike (|mu|^m - 1) / (|mu| - 1)
            acc.fill(1.0)
            for _ in range(m - 1):
                np.multiply(acc, absmu, out=acc)
                np.add(acc, 1.0, out=acc)
            np.divide(acc, det, out=acc)
            np.maximum(bounds, np.divide(acc, r, out=acc), out=bounds)
    limit = near - q_limit
    gap = np.maximum(0.0, np.minimum.reduce([np.abs(lam), per_block, limit]))

    # certification is withheld on the exclusion arcs
    out = near <= exclusion_radius
    withheld = (gap <= _S_GAP_GUARD) | (low <= 0.0) | out
    # slice assignment shares one str; np.full would copy it per point
    verdict = np.empty(lam.shape, dtype=object)
    verdict[:] = CERTIFIED
    verdict[valid & withheld] = SINGULAR
    verdict[~valid] = TAIL_INVALID
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
    verdicts = np.empty(grid_size, dtype=object)
    for s in range(0, grid_size, _CHUNK):
        part = slice(s, s + _CHUNK)
        k = _circle_kernel(spec, w, lams[part], depth, exclusion_radius)
        den_lower[part] = k.den_lower
        block_bounds[part] = k.block_bound
        dist[part] = k.dist
        excluded[part] = k.excluded
        verdicts[part] = k.verdict

    on_rim = ~excluded & np.isfinite(block_bounds)
    empirical_m = float(block_bounds[on_rim].max()) if on_rim.any() else 0.0

    certificates = []
    if with_certificates:
        certificates = [residual_certificate(spec, w, a, cert_block)
                        for a in union_points(spec)]

    return ScanReport(
        thetas, lams, verdicts.tolist(), den_lower, block_bounds, dist,
        excluded, empirical_m, certificates,
        metadata={
            "orders": list(spec.orders),
            "grid_size": grid_size,
            "exclusion_radius": exclusion_radius,
            "depth": depth,
            "cert_block": cert_block,
        })
