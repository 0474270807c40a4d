"""Closed-form resolvents and rank-one update machinery.

Everything here works at a fixed spectral parameter.  The block-diagonal
part S = diag(0, (1-q_1)P, (1-q_2)P, ...) has an explicit resolvent built
from the circulant inverse of ``mu*I - C_m``; the coupled operator
T = S + (e x q) + (q x e) is reached through two Sherman-Morrison steps
whose scalar denominator ``1 - <q, R(lam,S) q>/lam`` rests on the coupling
series, evaluated over an array of parameters as a partial sum with an
exact dyadic tail bound.

Whether a point lies in the resolvent set of T is decided by the scanner's
certification kernel, which combines that series with the gap to the
spectrum of S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (SingularBlock, SingularUpdate, SpectralForgeError,
                     TailInvalid)
from .model import (BlockVector, CertifiedComplex, GroupUnionSpec, TailProfile,
                    WeightSeq, basis_head, apply_operator, norm1, pair_head,
                    pair_weights, weight_vector)

__all__ = [
    "CyclicResolvent",
    "cyclic_shift_resolvent",
    "resolvent_diag",
    "coupling_series_batch",
    "RankOneUpdate",
    "sherman_morrison_resolvent",
    "resolvent_full",
    "CERTIFIED", "SINGULAR", "TAIL_INVALID",
]

# verdict labels used by the scanners and the CLI
CERTIFIED = "CertifiedResolvent"
SINGULAR = "SingularCandidate"
TAIL_INVALID = "TailInvalid"

# guard for the strict circles inequality |lam - 1 + q| > q * (1 + GUARD)
_TAIL_GUARD = 1e-9
# a block resolvent within this distance of an eigenvalue is refused
_BLOCK_GUARD = 1e-14
# certified gap to the block-diagonal spectrum below which no certificate
# is issued
_S_GAP_GUARD = 1e-9


# ---------------------------------------------------------------------------
# cyclic blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CyclicResolvent:
    """Coefficients of (mu*I - C_m)^-1 = sum_j c_j C_m^j.

    C_m is the forward cyclic shift on C^m; the inverse is the circulant
    with c_j = mu^(m-1-j) / (mu^m - 1).
    """

    size: int
    mu: complex
    coeffs: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        out = np.zeros_like(x)
        for j, c in enumerate(self.coeffs):
            out += c * np.roll(x, j)
        return out

    def matrix(self) -> np.ndarray:
        m = self.size
        out = np.zeros((m, m), dtype=complex)
        for j, c in enumerate(self.coeffs):
            for i in range(m):
                out[(i + j) % m, i] += c
        return out

    def norm1(self) -> float:
        """l1 operator norm: every column carries each c_j once."""
        return float(np.abs(self.coeffs).sum())


def cyclic_shift_resolvent(m: int, mu: complex,
                           guard: float = _BLOCK_GUARD) -> CyclicResolvent:
    """Resolvent coefficients of the size-m cyclic shift at mu.

    Raises SingularBlock when mu^m is within ``guard`` of 1, i.e. mu is
    numerically an m-th root of unity.
    """
    mu = complex(mu)
    det = mu ** m - 1.0
    if abs(det) <= guard:
        raise SingularBlock(f"mu={mu} is within {guard} of a {m}-th root of unity")
    coeffs = np.array([mu ** (m - 1 - j) for j in range(m)]) / det
    return CyclicResolvent(m, mu, coeffs)


# ---------------------------------------------------------------------------
# block-diagonal resolvent
# ---------------------------------------------------------------------------

def resolvent_diag(spec: GroupUnionSpec, w: WeightSeq, lam: complex,
                   f: BlockVector) -> BlockVector:
    """Apply R(lam, S) to f, where S = diag(0, (1-q_n) P, ...).

    Head: f_0 / lam.  Block n: (1-q_n)^-1 R(mu_n, P) f_n with
    mu_n = lam / (1-q_n), evaluated per cyclic sub-block.  A closed-form
    tail ``c_n 1`` maps to ``c_n/(lam-1+q_n) 1``; its remainder bound uses
    inf_{n>N} |lam-1+q_n| >= |lam-1| - q_{N+1} and becomes finite once the
    cutoff is deep enough.

    This is the action formula; whether lam lies in the resolvent set of S
    globally is a separate question answered by the scanner's kernel.
    """
    lam = complex(lam)
    if abs(lam) <= _BLOCK_GUARD:
        raise SingularBlock("head coordinate: lam is numerically 0")

    blocks = {}
    for n, x in f.blocks.items():
        q = w.value(n)
        mu = lam / (1.0 - q)
        y = np.empty(spec.d, dtype=complex)
        xa = np.asarray(x, dtype=complex)
        for off, m in zip(spec.offsets, spec.orders):
            res = cyclic_shift_resolvent(m, mu)
            y[off:off + m] = res.apply(xa[off:off + m])
        blocks[n] = y / (1.0 - q)

    tail = None
    if f.tail is not None:
        c, r, start = f.tail.coeff, f.tail.remainder, f.tail.start

        def coeff(n, c=c):
            q = w.value(n)
            den = lam - 1.0 + q
            if abs(den) <= _BLOCK_GUARD:
                raise SingularBlock(f"tail block {n}: lam-1+q_n ~ 0")
            return c(n) / den

        def rem(N, r=r):
            gap = abs(lam - 1.0) - w.value(N + 1)
            if gap <= 0.0:
                return math.inf
            return r(N) / gap

        tail = TailProfile(start, coeff, rem)
    return BlockVector(spec.d, f.head / lam, blocks, tail)


# ---------------------------------------------------------------------------
# certified coupling series
# ---------------------------------------------------------------------------

def coupling_series_batch(spec: GroupUnionSpec, w: WeightSeq,
                          lams: np.ndarray, depth: int = 40):
    """Certified <q, R(lam, S) q> = sum_n d q_n^2 / (lam - 1 + q_n) over an
    array of parameters.

    Sums n <= depth and bounds the tail by the exact remaining mass
    tail_mass(depth), valid because q_n / |lam - 1 + q_n| < 1 for every
    tail index.  Returns ``(values, radius, valid)`` where ``valid`` flags
    the points whose guard inequality holds for every n <= depth + 1; the
    endpoint check extends to the whole tail by convexity of the violation
    set in q (lam = 1 and pole-adjacent parameters fail it).  Values at
    invalid points are still returned (they may be finite) but carry no
    certificate.
    """
    lams = np.asarray(lams, dtype=complex)
    qs = w.values(depth + 1)
    dens = lams[:, None] - 1.0 + qs[None, :]
    with np.errstate(all="ignore"):
        valid = (np.abs(dens) > qs[None, :] * (1.0 + _TAIL_GUARD)).all(axis=1)
        terms = spec.d * qs[None, :depth] ** 2 / dens[:, :depth]
        values = terms.sum(axis=1)
    return values, w.tail_mass(depth), valid


# ---------------------------------------------------------------------------
# rank-one updates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankOneUpdate:
    """The perturbation (phi x w): f -> <phi, f> * w.

    ``pair(phi, f)`` evaluates the (bilinear) functional and may return a
    plain complex or a CertifiedComplex when the evaluation itself is a
    certified sum.
    """

    w: object
    phi: object
    pair: Callable


def sherman_morrison_resolvent(apply_ra: Callable, upd: RankOneUpdate,
                               gamma: Optional[CertifiedComplex] = None):
    """Resolvent action of A + (phi x w) from the resolvent action of A.

    R(lam, A + phi x w) f = R f + (1 - gamma)^-1 <phi, R f> R w with
    gamma = <phi, R w>.  ``gamma`` may be passed in when a sharper certified
    value is available than the generic pairing produces.  Raises
    SingularUpdate when the certified disk of gamma contains 1.
    """
    rw = apply_ra(upd.w)
    if gamma is None:
        gamma = upd.pair(upd.phi, rw)
    if not isinstance(gamma, CertifiedComplex):
        gamma = CertifiedComplex(complex(gamma))
    if gamma.contains(1.0):
        radius_dominated = abs(gamma.value - 1.0) > 1e-12 * max(
            1.0, abs(gamma.value))
        raise SingularUpdate(gamma, radius_dominated)
    factor = 1.0 / (1.0 - gamma.value)

    def action(f):
        rf = apply_ra(f)
        inner = upd.pair(upd.phi, rf)
        if isinstance(inner, CertifiedComplex):
            inner = inner.value
        return rf + (factor * inner) * rw

    return action


# ---------------------------------------------------------------------------
# full resolvent of the coupled operator
# ---------------------------------------------------------------------------

def resolvent_full(spec: GroupUnionSpec, w: WeightSeq, lam: complex,
                   f: BlockVector, depth: int = 40,
                   rtol: float = 1e-9) -> BlockVector:
    """Apply R(lam, T) to a finite-support vector.

    Composes the block-diagonal resolvent with the two rank-one update
    steps (head functional with vanishing gamma, then weight functional
    with gamma = series/lam) and verifies the result a posteriori:
    || (lam - T) g - f || <= rtol * ||f|| on the truncated representation,
    doubling the working depth up to 60 before giving up.
    """
    if not f.is_finite:
        raise TailInvalid("resolvent_full requires a finite-support vector")
    lam = complex(lam)
    nf = norm1(f).value.real
    if nf == 0.0:
        return BlockVector(spec.d)

    last_err = None
    d_work = depth
    while True:
        result = _resolvent_full_once(spec, w, lam, f, d_work)
        g, dropped = result.truncate(max(d_work, f.support_max + 10))
        resid_vec = lam * g - apply_operator(spec, w, g) - f
        resid = norm1(resid_vec, accuracy=min(1e-14, 0.01 * rtol * nf))
        budget = rtol * nf + (abs(lam) + 1.0) * dropped
        if resid.abs_upper() <= budget:
            return result
        last_err = resid.abs_upper()
        if d_work >= 60:
            raise SpectralForgeError(
                f"resolvent residual {last_err:.3e} exceeds {budget:.3e} "
                f"at depth {d_work}")
        d_work = min(2 * d_work, 60)


def _resolvent_full_once(spec, w, lam, f, depth):
    e = basis_head(spec)
    q = weight_vector(spec, w)

    def apply_r1(vec):
        return resolvent_diag(spec, w, lam, vec)

    # step 1: add (e x q); gamma_1 = <e, R(lam,S) q> = 0 because q has no head
    upd1 = RankOneUpdate(w=q, phi=e, pair=lambda _phi, vec: pair_head(vec))
    step1 = sherman_morrison_resolvent(apply_r1, upd1,
                                       gamma=CertifiedComplex(0j))

    # step 2: add (q x e); gamma_2 = series / lam, certified
    values, radius, valid = coupling_series_batch(spec, w, [lam], depth)
    if not valid[0]:
        raise TailInvalid(f"lam = {lam}: |lam-1+q_n| <= q_n*(1+guard) for "
                          f"some n <= {depth + 1}")
    gamma2 = CertifiedComplex(complex(values[0]), radius) \
        / CertifiedComplex(lam)
    upd2 = RankOneUpdate(
        w=e, phi=q,
        pair=lambda _phi, vec: pair_weights(spec, w, vec, depth))
    step2 = sherman_morrison_resolvent(step1, upd2, gamma=gamma2)
    return step2(f)
