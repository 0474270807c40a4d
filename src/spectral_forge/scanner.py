"""Unit-circle scanning and approximate-eigenvector certificates.

The scan walks a uniform angular grid in fixed-size chunks, evaluates the
certified rank-one denominator at every point, measures the distance to the
block-diagonal spectrum, and issues one verdict per point.  The chunks
are yielded one at a time, so memory is set by one chunk, not by the grid
size.  Points inside the exclusion arcs around the prescribed peripheral
set never receive a resolvent certificate, whatever the denominator says
there: floating-point scanning needs a buffer, so certification is withheld
on the arcs (the certified lower bound is still recorded).

For each peripheral point u the complementary certificate is a vector in
one block n with residual exactly 2^-n (1 + [u = 1]) / d, at any n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, List, NamedTuple

import numpy as np

from .errors import NotInTargetSet
from .model import (DEFAULT_DEPTH, GroupUnionSpec, apply_operator,
                    dyadic_weights, union_points, union_values)
from .resolvent import (UNIT_ROUNDOFF, Certificate, certify,
                        coupling_series_batch, gamma, series_terms,
                        verdict_codes)

__all__ = [
    "residual_certificate",
    "ScanChunk",
    "ScanReport",
    "scan_unit_circle",
]

# grid points per scan chunk: bounds the (chunk x |U|) root distances; every
# other kernel buffer is one chunk long
_CHUNK = 8192


# ---------------------------------------------------------------------------
# approximate eigenvector certificates
# ---------------------------------------------------------------------------

def residual_certificate(spec: GroupUnionSpec, target: Fraction,
                         block_index: int = 30) -> Certificate:
    """The certificate that lam = e^(2 pi i target) of the target set (else
    NotInTargetSet) is an approximate eigenvalue of T: z_i = lam^-i / m on
    the first cyclic sub-block, of order m, that carries lam, in block n of
    x, gives (T - lam) x the head q_n <1, z> = q_n [lam = 1] and the block
    part -q_n lam z, so ||(T - lam) x||_1 = rho = 2^-n (1 + [lam = 1]) / d.

    Cross-check: each root comes from its turn reduced exactly into
    [-1/2, 1/2], and glibc's cos, sin and hypot err by at most one ulp.
    With u = 2^-53 and Higham's gamma_k, a root misses by e = pi gamma_3 +
    sqrt(2) u, so ||z^ - z||_1 <= E = e + gamma_2 (1 + e), and ||T|| = 1
    puts the exact norm of (T - lam^) x^ within D = 2 E + e (1 + E) of rho.
    ``apply_operator`` adds a = (2 u + sqrt(2) gamma_2 (1 + e)) (1 + E) in
    its products (Higham 2002, lemma 3.5), gamma_(d+2) of block n's norm
    in its sum and gamma_(d+4) q_n ||z^|| in the head: |residual - rho| <=
    (1 + gamma_(d+3)) (D + a) + (1 + E) gamma_(2d+8) rho, and expected is
    within u rho of rho.  D + a = 41.4 u < rho / 2 down to block 44 at
    d = 5, lam != 1, where the residual misses rho by 0.9 u.
    """
    angle = target % 1
    for off, m in zip(spec.offsets, spec.orders):
        if m % angle.denominator == 0:
            break
    else:
        raise NotInTargetSet(f"angle {target} not in the target set")
    if block_index < 1:
        raise ValueError("block_index must be >= 1")
    inner = int(angle == 0)          # <1, z>, exactly
    d, b = spec.d, angle.denominator
    e = math.pi * gamma(3) + math.sqrt(2.0) * UNIT_ROUNDOFF
    err_z = e + gamma(2) * (1.0 + e)                          # E
    slack = 2.0 * err_z + e * (1.0 + err_z) + (1.0 + err_z) * (  # D + a
        2.0 * UNIT_ROUNDOFF + math.sqrt(2.0) * gamma(2) * (1.0 + e))

    def residual() -> float:
        # turns (1 - i) * angle, i <= m, reduced into [-1/2, 1/2): lam, then z
        t = ((1 - np.arange(m + 1)) * angle.numerator + b // 2) % b - b // 2
        roots = np.exp(2j * np.pi * (t / b))
        x = np.zeros(1 + block_index * d, dtype=complex)
        x[-d:][off:off + m] = roots[1:] / m
        r = apply_operator(spec, x) - roots[0] * x
        return abs(r[0]) + np.abs(r[1:]).reshape(-1, d).sum(axis=1).sum()

    return certify(angle, m, block_index, (1 + inner) / d,
                   f"(1 + {inner})/{d}", m % b == 0,
                   (1.0 + gamma(d + 3)) * slack,
                   (1.0 + err_z) * gamma(2 * d + 9), residual)


# ---------------------------------------------------------------------------
# the scan
# ---------------------------------------------------------------------------

class ScanChunk(NamedTuple):
    """One chunk's per-point columns, each the chunk's own array."""

    thetas: np.ndarray
    lams: np.ndarray
    codes: np.ndarray            # uint8 index of each point's verdict
    den_lower: np.ndarray
    excluded: np.ndarray


class ScanReport(NamedTuple):
    certificates: List[Certificate]
    metadata: dict
    chunks: Iterator[ScanChunk]  # one pass over the grid, chunk by chunk


class _CircleBatch(NamedTuple):
    """Per-point output of :func:`_circle_kernel`, one array per field."""

    den: np.ndarray          # centre of the disk of 1 - <q, R(lam,S) q>/lam
    den_radius: np.ndarray   # its certified radius
    den_lower: np.ndarray    # certified lower bound of |den|, 0 if invalid
    gap: np.ndarray          # certified lower bound of dist(lam, sigma(S))
    dist: np.ndarray         # distance to the peripheral set
    excluded: np.ndarray     # dist <= exclusion_radius
    valid: np.ndarray        # the tail guard holds (at n = 1, so at every n)
    verdict: np.ndarray      # uint8 index into resolvent.VERDICTS


def _two_nearest(to_root: np.ndarray):
    """Per row of ``to_root``, its smallest entry and the columns of its two
    smallest, each the earliest among exact ties (with one column, the
    second is the first again); ``to_root`` is overwritten."""
    first = to_root.argmin(axis=1)
    rows = np.arange(len(to_root))
    near = to_root[rows, first]
    to_root[rows, first] = np.inf
    return near, first, to_root.argmin(axis=1)


def _circle_kernel(spec: GroupUnionSpec, lams, depth: int,
                   exclusion_radius: float = 0.0) -> _CircleBatch:
    """Certify every spectral parameter in ``lams``, on the circle or off it.

    Verdicts are ``resolvent.verdict_codes``'s, withheld on the exclusion
    arcs: TailInvalid next to the distinguished direction through 1, and
    SingularCandidate at lam = 0, where the gap to sigma(S) collapses.  The
    denominator disk and the tail guard are ``coupling_series_batch``'s.

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
    expression over every radius.  Each result depends on its own point
    alone, so a scalar query is a batch of one.
    """
    lam = np.asarray(lams, dtype=complex)
    zeta = union_values(spec)
    qs = dyadic_weights(depth + 1, spec.d)
    radii = np.unique(1.0 - qs[:-1])      # ascending, each once
    q_limit = qs[-1]

    den, den_radius, valid = coupling_series_batch(spec.d, lam, depth)
    # fmax: the undefined disk at lam = 0 (and at subnormal |lam|, where
    # the radius is inf) gets the lower bound 0; the gap |lam| decides there
    with np.errstate(invalid="ignore"):
        low = np.fmax(0.0, np.abs(den) - den_radius)

    # at lam = 0 every root ties, but there the gap is 0
    near, first, second = _two_nearest(np.abs(lam[:, None] - zeta[None, :]))

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
    gap = np.maximum(0.0, np.minimum.reduce([np.abs(lam), per_block, limit]))

    # certification is withheld on the exclusion arcs
    out = near <= exclusion_radius
    verdict = verdict_codes(gap, low, valid, out)
    low[~valid] = 0.0
    return _CircleBatch(den, den_radius, low, gap, near, out, valid, verdict)


def scan_unit_circle(spec: GroupUnionSpec, grid_size: int = 3600,
                     exclusion_radius: float = 0.05,
                     depth: int = DEFAULT_DEPTH,
                     cert_block: int = 30) -> ScanReport:
    """Classify every grid point exp(2*pi*i*j/grid_size), as a stream.

    The residual certificates come first; the grid is certified only as
    ``chunks`` is read, ``_CHUNK`` points at a time by
    :func:`_circle_kernel`, and each chunk is yielded as its own arrays.
    Each result depends on its point alone, so the output does not depend
    on the chunk size, and memory is bounded by one chunk at any grid
    size.  Conjugation symmetry of the construction is a test-side
    invariant, not enforced.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be positive")
    certificates = [residual_certificate(spec, a, cert_block)
                    for a in union_points(spec)]

    def chunks():
        for start in range(0, grid_size, _CHUNK):
            thetas = np.arange(start, min(start + _CHUNK, grid_size)) \
                / grid_size
            lams = np.exp(2j * np.pi * thetas)
            k = _circle_kernel(spec, lams, depth, exclusion_radius)
            yield ScanChunk(thetas, lams, k.verdict, k.den_lower, k.excluded)

    return ScanReport(certificates, {
        "orders": list(spec.orders), "grid_size": grid_size,
        "exclusion_radius": exclusion_radius, "depth": depth,
        "series_terms": series_terms(depth), "cert_block": cert_block,
    }, chunks())
