"""Closed-form resolvents and rank-one update machinery.

Everything here works at a fixed spectral parameter.  The block-diagonal
part S = diag(0, (1-q_1)P, (1-q_2)P, ...) has an explicit resolvent built
from the circulant inverse of ``mu*I - C_m``; the coupled operator
T = S + (e x q) + (q x e) is reached through two Sherman-Morrison steps
whose scalar denominator ``1 - <q, R(lam,S) q>/lam`` is certified over an
array of parameters by ``coupling_series_batch``, the one primitive that
also certifies the semigroup's denominator on the imaginary axis.

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
# terms of the coupling series summed at most; the rest weighs 2^-300
_MAX_TERMS = 300
# |lam|^2 outside this range gets no denominator disk (radius inf)
_LAM2_MIN, _LAM2_MAX = 2.0 ** -200, 2.0 ** 200
_UNIT_ROUNDOFF = 2.0 ** -53
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

def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u) for the unit roundoff u."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def coupling_series_batch(w: WeightSeq, lams, depth: int):
    """Certified rank-one denominator D(lam) = 1 - lam^-1 sum_n t_n, with
    t_n = 2^-n q_n / a_n and a_n = lam - 1 + q_n, over an array of lam.

    sum_n t_n is <q, R(lam, S) q> for the discrete operator and h(beta) for
    the semigroup at lam = 1 + i beta, so D serves both constructions.
    Returns ``(den, radius, valid)``: the centre of D (complex), a radius
    with |D - den| <= radius, and ``valid``, the tail guard
    |a_1| > q_1 (1 + 1e-9).  The disks |lam - 1 + q| <= q (1 + g) grow and
    nest as q grows, so the guard at n = 1 gives |a_n| > q_n for every n;
    on the axis |q_n + i beta| >= q_n holds for every real beta, and the
    guard need not be consulted.  The radius holds wherever |a_n| >= q_n
    for every n, i.e. |t_n| <= 2^-n: at every valid point and on the whole
    axis.

    The loop sums N = min(depth, 300) terms, n = 1..N in order, in real
    arithmetic: with x = Re lam - 1, y = Im lam and c = 2^-n q_n (exact),
    s = (x + q)^2 + y^2, Re t = (x + q) c / s and Im t = -y c / s, so that
    a_n = q_n gives t_n = 2^-n exactly (D(1) = 2^-depth for depth <= 53).
    With u = 2^-53 and gamma_k = k u / (1 - k u) (Higham 2002, *Accuracy
    and Stability of Numerical Algorithms*, ch. 3-4):

    - the float q_n is q_n (1 + theta_2), and fl(fl(x) + q_n) misses Re a_n
      by at most gamma_5 |a_n|, as |Re lam - 1| <= |a_n| + q_n <= 2 |a_n|;
      so c over the computed a_n is within gamma_7 |t_n| of t_n;
    - each part of the term takes four more roundings (theta_4), so each
      computed term is within gamma_11 |t_n| of t_n;
    - the recursive sum: the k-th addition errs by at most
      min(u |partial sum|, |computed t_k|) per part, the partial sums stay
      below M = 1 + 2^-40 and |computed t_k| <= 2^-k (1 + gamma_11), so the
      additions k = 2..N err by at most (min(N, 54) - 1) u M;
    - the terms n > N, the tail included, weigh at most 2^-N, which is
      ``tail_mass(depth)`` whenever depth <= 300;
    - the division by lam, as S conj(lam) / |lam|^2, errs by at most
      sqrt(2) gamma_5 |S| / |lam|;
    - the subtraction from 1 errs by at most
      u (1 + M (1 + sqrt(2) gamma_5) / |lam|).

    Hence |den - D| <= (2^-N + C_N) / |lam| + u, with C_N =
    (min(N, 54) - 1) u M + gamma_11 + sqrt(2) gamma_5 M (1 + u) + u M,
    about 58 u at N = 40 and 72 u from N = 54 on.  The radius evaluates
    that bound in floats, C_N included, and multiplies it by
    1 + 2^-48 = 1 + 32 u, which covers the roundings of that evaluation
    (12 u at most) with over 16 u of the radius, at least 16 u^2, to spare.
    The spare also covers every underflow: for n <= 300, d < 2^64 and
    |lam|^2 in [2^-200, 2^200] they move D by less than 2^-200 in all.
    Outside that range of |lam| the radius is inf.
    """
    lam = np.asarray(lams, dtype=complex)
    n_sum = min(depth, _MAX_TERMS)
    x = lam.real - 1.0
    y = np.ascontiguousarray(lam.imag)
    yy = y * y
    re, im = np.zeros(lam.shape), np.zeros(lam.shape)
    ar, s, t = (np.empty(lam.shape) for _ in range(3))
    q1 = w.value(1)
    with np.errstate(all="ignore"):
        valid = (x + q1) ** 2 + yy > (q1 * (1.0 + _TAIL_GUARD)) ** 2
        for n, q in enumerate(w.values(n_sum).tolist(), 1):
            c = math.ldexp(q, -n)
            np.add(x, q, out=ar)
            np.multiply(ar, ar, out=s)
            np.add(s, yy, out=s)
            np.multiply(ar, c, out=t)
            np.divide(t, s, out=t)
            np.add(re, t, out=re)
            np.multiply(y, c, out=t)
            np.divide(t, s, out=t)
            np.subtract(im, t, out=im)
        lr = lam.real
        lam2 = lr * lr + yy
        den = np.empty(lam.shape, dtype=complex)
        den.real = 1.0 - (re * lr + im * y) / lam2
        den.imag = -((im * lr - re * y) / lam2)
        m_sum = 1.0 + 2.0 ** -40                         # M
        div = math.sqrt(2.0) * _gamma(5)
        c_n = ((min(n_sum, 54) - 1) * _UNIT_ROUNDOFF * m_sum + _gamma(11)
               + div * m_sum * (1.0 + _UNIT_ROUNDOFF)
               + _UNIT_ROUNDOFF * m_sum)
        radius = ((w.tail_mass(n_sum) + c_n) / np.abs(lam)
                  + _UNIT_ROUNDOFF) * (1.0 + 2.0 ** -48)
    radius[~((lam2 >= _LAM2_MIN) & (lam2 <= _LAM2_MAX))] = np.inf
    return den, radius, valid


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

    # step 2: add (q x e); gamma_2 = series / lam = 1 - D, certified
    den, radius, valid = coupling_series_batch(w, [lam], depth)
    if not valid[0]:
        raise TailInvalid(f"lam = {lam}: |lam-1+q_1| <= q_1*(1+guard)")
    gamma2 = 1.0 - CertifiedComplex(complex(den[0]), float(radius[0]))
    upd2 = RankOneUpdate(
        w=e, phi=q,
        pair=lambda _phi, vec: pair_weights(spec, w, vec, depth))
    step2 = sherman_morrison_resolvent(step1, upd2, gamma=gamma2)
    return step2(f)
