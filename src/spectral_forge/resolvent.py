"""The certified rank-one denominator and the verdict labels.

The block-diagonal part S = diag(0, (1-q_1)P, (1-q_2)P, ...) has an explicit
resolvent, and the coupled operator T = S + (e x q) + (q x e) is reached from
it through two rank-one updates.  The first has a vanishing pairing, since q
has no head; the second has the scalar denominator
``D(lam) = 1 - <q, R(lam,S) q>/lam``, which ``coupling_series_batch``
certifies over an array of parameters.  The same primitive certifies the
semigroup's denominator on the imaginary axis.

Both scans take each point's verdict from ``verdict_codes``, which combines
that series with the gap to the spectrum of S that the scan measures.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "coupling_series_batch", "series_terms", "UNIT_ROUNDOFF", "gamma",
    "CERTIFIED", "SINGULAR", "TAIL_INVALID", "VERDICTS", "VERDICT_LABELS",
    "verdict_codes", "verdict_counts",
]

# verdict labels used by the scanners and the CLI
CERTIFIED = "CertifiedResolvent"
SINGULAR = "SingularCandidate"
TAIL_INVALID = "TailInvalid"
# the verdicts in the order of their uint8 codes, as str and as bytes
VERDICTS = (CERTIFIED, SINGULAR, TAIL_INVALID)
VERDICT_LABELS = np.array(VERDICTS, dtype=bytes)

# guard for the strict circles inequality |lam - 1 + q| > q * (1 + GUARD)
_TAIL_GUARD = 1e-9
# terms of the coupling series summed at most; the rest weighs 2^-300
_MAX_TERMS = 300
# |lam|^2 outside this range gets no denominator disk (radius inf)
_LAM2_MIN, _LAM2_MAX = 2.0 ** -200, 2.0 ** 200
UNIT_ROUNDOFF = 2.0 ** -53
# certified gap to the block-diagonal spectrum below which no certificate
# is issued
_S_GAP_GUARD = 1e-9


def verdict_codes(gap, den_lower, valid, withheld) -> np.ndarray:
    """Each point's uint8 index into ``VERDICTS``: TailInvalid where the
    tail guard ``valid`` fails, else SingularCandidate where the
    certificate is ``withheld``, the certified gap to sigma(S) is at most
    1e-9 or the denominator's certified lower bound is not positive (never
    a claim of spectrum membership), else CertifiedResolvent."""
    singular = (gap <= _S_GAP_GUARD) | (den_lower <= 0.0) | withheld
    return np.where(valid, singular.astype(np.uint8),
                    np.uint8(VERDICTS.index(TAIL_INVALID)))


def verdict_counts(codes: np.ndarray) -> dict:
    """Points per verdict, for uint8 indices into ``VERDICTS``, keyed in
    the order of ``VERDICTS``."""
    return dict(zip(VERDICTS, np.bincount(codes, minlength=3).tolist()))


# ---------------------------------------------------------------------------
# certified coupling series
# ---------------------------------------------------------------------------

def gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u) for the unit roundoff u: the
    relative error bound of k successive roundings."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def series_terms(depth: int) -> int:
    """Terms of the coupling series summed at ``depth``; the rest is tail."""
    return min(depth, _MAX_TERMS)


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
    n_sum = series_terms(depth)
    x = lam.real - 1.0
    y = np.ascontiguousarray(lam.imag)
    re, im = np.zeros(lam.shape), np.zeros(lam.shape)
    ar, s, t = (np.empty(lam.shape) for _ in range(3))
    q1 = w.value(1)
    with np.errstate(all="ignore"):
        yy = y * y
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
        div = math.sqrt(2.0) * gamma(5)
        c_n = ((min(n_sum, 54) - 1) * UNIT_ROUNDOFF * m_sum + gamma(11)
               + div * m_sum * (1.0 + UNIT_ROUNDOFF)
               + UNIT_ROUNDOFF * m_sum)
        radius = ((w.tail_mass(n_sum) + c_n) / np.abs(lam)
                  + UNIT_ROUNDOFF) * (1.0 + 2.0 ** -48)
    radius[~((lam2 >= _LAM2_MIN) & (lam2 <= _LAM2_MAX))] = np.inf
    return den, radius, valid
