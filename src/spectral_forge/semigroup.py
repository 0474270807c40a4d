"""Continuous-time analogue: rotation blocks coupled through the head.

The generator acts on C x (L^1 of the circle)^N as

    A = B + (e x q) + (q x e),
    B = diag(-1, w_1 D - q_1, w_2 D - q_2, ...),

where D differentiates (multiplication by i*k on Fourier mode k) and the
speed schedule (w_n) enumerates the rationals in [1, 2] so that every value
recurs infinitely often.  A state is the head plus flat arrays of (block,
mode, coefficient) entries; the mass functional is f_0 + sum_n 2*pi*f_{n,0}
and the weights q_n = 2^-n / (2*pi), ``model.dyadic_weights`` with the unit
2*pi, make the coupling vector q a unit mass.

Purely imaginary spectral parameters are probed through the certified
denominator 1 - h(beta)/(i*beta+1) with h(beta) = sum_n 2*pi*q_n^2 /
(i*beta + q_n), which is the discrete operator's denominator at
lam = 1 + i*beta and comes from the same primitive,
``resolvent.coupling_series_batch`` with the unit 2*pi; approximate point
spectrum on the axis is exhibited by single-Fourier-mode states whose
residual equals q_n exactly.  Orbits are sampled by stepping the
head/mode-0 chain from one time to the next with a memoised matrix
exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import BlockIndexOverflow, ExponentialUnresolved
from .model import dyadic_weights
from .resolvent import (CERTIFIED, UNIT_ROUNDOFF, VERDICTS,
                        coupling_series_batch, gamma, series_terms,
                        verdict_codes, verdict_counts)

__all__ = [
    "TWO_PI",
    "RationalSchedule",
    "GeneratorSpec",
    "SemigroupState",
    "apply_generator",
    "ModeCertificate",
    "mode_certificate",
    "AxisReport",
    "scan_imaginary_axis",
    "chain_generator",
    "expm",
    "evolve",
]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# rational speed schedule
# ---------------------------------------------------------------------------

def _totients(n: int) -> list:
    """phi(0), ..., phi(n), by the sieve phi(m) = m prod_{p | m} (1 - 1/p)."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:                            # p is prime
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    return phi


def _totient_sum_floor(n: int) -> int:
    """A lower bound on phi(1) + ... + phi(n), with no table: the ordered
    pairs in [1, n]^2 are 2 (phi(1) + ... + phi(n)) - 1 coprime ones and at
    most sum_p (n/p)^2 < 0.4523 n^2 that share a prime p (P(2) = 0.45225)."""
    return (5477 * n * n // 10000 + 1) // 2


def _block(i: int, m: int) -> int:
    """Block index of base index i at occurrence m, on anti-diagonal i + m."""
    return (i + m - 2) * (i + m - 1) // 2 + i


# the largest block index an int64 state entry holds
MAX_BLOCK = 2 ** 63 - 1


class RationalSchedule:
    """Enumeration of Q cap [1,2] with every value recurring infinitely often.

    The base list orders the rationals by denominator, then numerator, in
    lowest terms: 1, 2, 3/2, 4/3, 5/3, 5/4, 7/4, ...  Denominator 1 holds
    two of them and every s >= 2 holds phi(s), so p/s sits at 1 + sum_{t<s}
    phi(t) plus the count of p' in (s, p] coprime to s.  The schedule pairs
    base index i with occurrence m along anti-diagonals, so w_n sweeps
    1, 1, 2, 1, 2, 3/2, 1, ...
    """

    def base_rational(self, i: int) -> Fraction:
        """i-th rational of the base enumeration (1-indexed)."""
        if i < 1:
            raise ValueError("base index starts at 1")
        n = 1                       # enough denominators to reach i
        while 1 + sum(phi := _totients(n)) < i:
            n *= 2
        s, start = 1, 1             # start: 1 + sum_{t<s} phi(t)
        while start + phi[s] < i:
            start, s = start + phi[s], s + 1
        rank, j = i - start, 0      # the rank-th j coprime to s: p = s + j
        while rank:
            j += 1
            rank -= math.gcd(j, s) == 1
        return Fraction(s + j, s)

    def base_index(self, r) -> int:
        """Position of r in the base enumeration (lowest terms compared)."""
        r = Fraction(r)
        if not 1 <= r <= 2:
            raise ValueError(f"{r} is outside [1, 2]")
        s = r.denominator
        return 1 + sum(_totients(s - 1)) + sum(
            math.gcd(j, s) == 1 for j in range(1, r.numerator - s + 1))

    def omega(self, n: int) -> Fraction:
        """Speed of block n (exact rational)."""
        if n < 1:
            raise ValueError("blocks are indexed from 1")
        m = (1 + math.isqrt(8 * n - 7)) // 2      # anti-diagonal m + 1
        return self.base_rational(n - m * (m - 1) // 2)

    def index_of(self, r, occurrence: int = 1) -> int:
        """Block index of the ``occurrence``-th appearance of speed r.

        Past ``MAX_BLOCK`` it raises ``BlockIndexOverflow``, decided on a
        lower bound of r's base index before any totient table is sized
        by r's denominator, then on the exact index."""
        if occurrence < 1:
            raise ValueError("occurrence starts at 1")
        r = Fraction(r)
        i = 1 + _totient_sum_floor(r.denominator - 1)
        exact = _block(i, 1) <= MAX_BLOCK
        if exact:
            i = self.base_index(r)
        n = _block(i, occurrence)
        if n > MAX_BLOCK:
            raise BlockIndexOverflow(
                f"occurrence {occurrence} of speed {r} lies at block index "
                f"{'' if exact else 'at least '}{n}, past 2^63 - 1",
                _block(i, 1) <= MAX_BLOCK)
        return n


# ---------------------------------------------------------------------------
# generator spec and states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSpec:
    """The generator at truncation depth ``depth``: the dyadic weights
    q_n = 2^-n / (2 pi) and the one rational speed schedule are fixed."""

    depth: int = 40
    schedule: ClassVar[RationalSchedule] = RationalSchedule()

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    def omega_float(self, n: int, k: int = 1) -> float:
        # one rounding of the exact rational product, so that
        # float(w_n * k) == float(r) whenever w_n * k == r exactly
        return float(self.schedule.omega(n) * k)


@dataclass(frozen=True, eq=False)
class SemigroupState:
    """Head coordinate plus flat Fourier entries: coefficient c[j] of mode
    k[j] in block n[j].  On an orbit, ``head`` and ``c`` carry a leading
    time axis.  Entries may repeat an (n, k) pair; they then add up."""

    head: complex = 0j
    n: np.ndarray = ()
    k: np.ndarray = ()
    c: np.ndarray = ()

    def __post_init__(self):
        for name, dtype in (("n", int), ("k", int), ("c", complex)):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=dtype))
        if not self.n.shape == self.k.shape == self.c.shape[-1:]:
            raise ValueError("n, k and the last axis of c differ in shape")
        if self.n.size and self.n.min() < 1:
            raise ValueError("blocks are indexed from 1")

    @classmethod
    def single_mode(cls, n: int, k: int, coeff: complex) -> "SemigroupState":
        return cls(0j, [n], [k], [coeff])

    def coeff(self, n: int, k: int):
        """The (n, k) coefficient: the sum of its entries, 0 without any."""
        return self.c[..., (self.n == n) & (self.k == k)].sum(axis=-1)

    def mass(self):
        """Pairing with the invariant functional (1, 1, 1, ...)."""
        return self.head + TWO_PI * sum(self.c[..., j]
                                        for j in np.flatnonzero(self.k == 0))

    def norm1(self):
        """|head| + 2 pi sum |c| once equal (n, k) entries are merged: the
        L1 norm where every block holds one mode, an upper bound on it by
        the triangle inequality where a block holds several."""
        slot = {}
        inv = [slot.setdefault(key, len(slot))
               for key in zip(self.n.tolist(), self.k.tolist())]
        merged = np.zeros(self.c.shape[:-1] + (len(slot),), dtype=complex)
        np.add.at(merged.T, inv, self.c.T)
        return np.abs(self.head) + TWO_PI * np.abs(merged).sum(axis=-1)


# ---------------------------------------------------------------------------
# generator action
# ---------------------------------------------------------------------------

def _rates(g: GeneratorSpec, n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Per-entry multipliers i w_n k - q_n of the block part of A."""
    return np.array([1j * g.omega_float(a, b) - 2.0 ** -a / TWO_PI
                     for a, b in zip(n.tolist(), k.tolist())], dtype=complex)


def apply_generator(g: GeneratorSpec, f: SemigroupState,
                    lam: complex = 0.0) -> SemigroupState:
    """(A - lam) f for a state without a time axis, with
    A f = B f + f_0 * q + <q, f> * e.

    The head-driven coupling term f_0 * q has unbounded support; it is
    truncated at the spec depth, which perturbs the mass balance by at most
    |f_0| * 2^-depth (9.1e-13 at the default depth).  Its entries are
    appended, not merged, to those of B f.
    """
    rate = _rates(g, f.n, f.k)
    pairing = -TWO_PI * np.sum(rate.real[f.k == 0] * f.c[f.k == 0])
    n, k, c = f.n, f.k, (rate - lam) * f.c
    if f.head != 0:
        feed = np.arange(1, g.depth + 1)
        n, k = np.concatenate([n, feed]), np.concatenate([k, 0 * feed])
        c = np.concatenate([c, f.head * dyadic_weights(g.depth, TWO_PI)])
    return SemigroupState((-1.0 - lam) * f.head + pairing, n, k, c)


# ---------------------------------------------------------------------------
# approximate eigenvalue certificates on the axis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeCertificate:
    """Single-mode state z with ||(A - i*r) z|| = q_n in exact arithmetic.

    For rational r in [1,2] the mode is k=1 at speed w_n = r; for larger r
    the mode index is the largest integer below r, putting the required
    speed r/k back inside (1, 3/2].  ``matches`` records the absolute
    1e-12 check of the evaluated residual against q_n.  In floats that
    equality holds only while q_n is a normal number: where q_n is
    subnormal the residual loses digits (r = 17/6, block 1035: 2.3e-11
    relative off q_n), and where q_n is 0.0 the residual is 0.0 as well,
    so the absolute check cannot fail there (r = 15/7, block 1830).
    """

    r: Fraction
    omega: Fraction
    k: int
    block_index: int
    q_n: float
    residual: float
    matches: bool


def mode_certificate(g: GeneratorSpec, r, occurrence: int = 1) -> ModeCertificate:
    r = Fraction(r)
    if r < 1:
        raise ValueError(f"speed target {r} must be >= 1")
    if r <= 2:
        k, omega = 1, r
    else:
        k = (r.numerator - 1) // r.denominator     # largest integer < r
        omega = r / k
    n = g.schedule.index_of(omega, occurrence)
    q = 2.0 ** -n / TWO_PI
    z = SemigroupState.single_mode(n, k, 1.0 / TWO_PI)
    resid = float(apply_generator(g, z, 1j * float(r)).norm1())
    return ModeCertificate(r, omega, k, n, q, resid,
                           abs(resid - q) <= 1e-12)


# ---------------------------------------------------------------------------
# axis scan
# ---------------------------------------------------------------------------

@dataclass
class AxisReport:
    """Per-beta columns of an axis scan: ``codes`` and ``expected``, the
    codes if no denominator disk held 0, index ``resolvent.VERDICTS``."""

    betas: np.ndarray
    codes: np.ndarray
    expected: np.ndarray
    denominator_abs_lower: np.ndarray
    depth: int
    series_terms: int

    def counts(self) -> dict:
        """The nonzero verdict counts, keyed in the order of
        ``resolvent.VERDICTS``."""
        return {k: v for k, v in verdict_counts(self.codes).items() if v}


def scan_imaginary_axis(g: GeneratorSpec, betas) -> AxisReport:
    """Classify i*beta for each requested beta, in one call of
    ``coupling_series_batch`` at lam = 1 + i*beta.

    A point is certified only when the denominator disk excludes zero and
    i*beta keeps a positive distance to the closure of the block spectra,
    which on the axis means 0 < |beta| < 1 with margin min(|beta|, 1-|beta|).
    beta = 0 (denominator exactly the tail mass, disk touching zero) and
    |beta| >= 1 come out as SingularCandidate; membership in the spectrum
    is never asserted by the scan itself.  The series' tail guard is not
    consulted: |i*beta + q_n| >= q_n bounds the tail for every real beta,
    while the guard's strict margin would refuse |beta| below about
    4.5e-5 q_n.
    """
    beta = np.fromiter(betas, dtype=float)
    if not np.all(np.isfinite(beta)):
        raise ValueError("betas must be finite")
    den, rad, _ = coupling_series_batch(TWO_PI, 1.0 + 1j * beta, g.depth)
    low = np.fmax(0.0, np.abs(den) - rad)
    gap = np.minimum(np.abs(beta), 1.0 - np.abs(beta))
    codes = verdict_codes(gap, low, True, False)
    expected = verdict_codes(gap, np.inf, True, False)
    certified = codes == VERDICTS.index(CERTIFIED)
    return AxisReport(beta, codes, expected, np.where(certified, low, 0.0),
                      g.depth, series_terms(g.depth))


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------

def chain_generator(g: GeneratorSpec, n_blocks: int) -> np.ndarray:
    """Generator of the closed head/mode-0 subsystem, size n_blocks + 1."""
    qs = dyadic_weights(n_blocks, TWO_PI)
    m = np.zeros((n_blocks + 1, n_blocks + 1))
    m[0, 0] = -1.0
    m[0, 1:] = TWO_PI * qs
    m[1:, 0] = qs
    m[1:, 1:][np.diag_indices(n_blocks)] = -qs
    return m


def _taylor_tail(tau: float, theta: float, k: int) -> float:
    """Bound on the 1-norm of sum_{j>k} X^j/j! for X >= 0 with ||X||_1 =
    theta < 1, given a bound tau on ||X^k/k!||_1: each further term is at
    most theta/(k+1) times the one before, so the tail is at most a
    geometric series."""
    return tau * theta / (k + 1.0 - theta)


# the most Taylor terms any input needs: the first K whose tail bound at
# theta = 1/2 is at most u (the bound grows with theta)
_TAYLOR_MAX = next(k for k in range(1, 64)
                   if _taylor_tail(0.5 ** k / math.factorial(k), 0.5, k)
                   <= UNIT_ROUNDOFF)


def _taylor_degree(theta: float) -> int:
    """The first K whose remainder bound, from ||X^K/K!||_1 <= theta^K/K!,
    is at most the unit roundoff."""
    tau = 1.0
    for k in range(1, _TAYLOR_MAX):
        tau *= theta / k
        if _taylor_tail(tau, theta, k) <= UNIT_ROUNDOFF:
            return k
    return _TAYLOR_MAX


def expm(a: np.ndarray) -> np.ndarray:
    """e^A for an essentially nonnegative (Metzler) real matrix A, by
    uniformisation, Taylor series and scaling and squaring, in numpy alone.

    Method.  With alpha = max(0, -min_i a_ii), B = A + alpha I >= 0 and
    e^A = e^-alpha e^B.  Let s >= 0 be the smallest integer with
    max(||B||_1, alpha) < 2^(s-1), read off binary exponents (no power 2^s
    is ever formed), X = B / 2^s and y = alpha / 2^s, so that
    theta = ||X||_1 < 1/2 and y < 1/2.  Every Taylor term X^k/k! is >= 0
    with 1-norm at most tau_k = theta^k/k!, and each later term is at most
    theta/(k+1) times the one before, so the terms after the k-th sum to
    at most

        rho_k = tau_k theta / (k + 1 - theta).

    The sum S of the terms k = 1..K, K the first with rho_K <= u = 2^-53,
    and T = I + S therefore satisfy

        T <= e^X <= T + R,   R >= 0,   ||R||_1 <= u,

    and as rho_K grows with theta, K <= 14 for every input
    (``_TAYLOR_MAX``).  S is evaluated by Horner's rule in the form
    G_K = X/K, G_k = (X + X G_(k+1))/k, S = G_1, so no level adds the
    identity.  The shift is folded in before the squarings: E_0 = e^-y T
    is formed as I + (c S + (c - 1) I) with c = e^-y and c - 1 from
    ``expm1``, so that the entries near 1 are rounded once; each iterate
    E_j = E_(j-1)^2 then approximates e^(A/2^(s-j)), none carries a factor
    e^alpha, and E_s is returned.  The result is entrywise nonnegative by
    construction: off the diagonal it is made of sums and products of
    nonnegative numbers, and E_0's diagonal is at least c > 1/2.

    Error.  Every rounding is componentwise relative: u on the shifted
    diagonal, gamma_(n+3) for each Horner level (a product, a sum and a
    quotient of nonnegative numbers), so gamma_(K(n+3)) on S, 3u more for
    the fold off the diagonal and 5u on it (expm1 to within 2u; the one
    subtraction, c S_ii + (c - 1), stays below 2/3 of E_0's entry), and
    gamma_n on each squaring of an n x n matrix; gamma_k = k u / (1 - k u).  With m = 2^s, delta = gamma_(14(n+3)+5) + gamma_n
    and F = e^-y T, the computed result E satisfies
    |E - F^m| <= (exp(m delta) - 1) F^m componentwise, while
    0 <= e^A - F^m = Delta = sum_i e^(iA/m) (e^-y R) F^(m-1-i).  Hence

        |E - e^A| <= (exp(m delta) - 1) e^A + Delta.

    In a monotone norm in which every e^(tA), t >= 0, is a contraction,
    ||Delta|| <= m kappa u, with kappa bounding that norm of R by its
    1-norm.  For the chain generator M of ``chain_generator`` the mass
    weights w = (1, 2 pi, ..., 2 pi) give w^T M <= 0, so the weighted norm
    ||W P W^-1||_1 with W = diag(w) serves, kappa = 2 pi, and entrywise

        |E - e^(hM)|_ij <= (exp(m delta) - 1) e^(hM)_ij
                           + (w_j / w_i) 2 pi m u.

    The analysis assumes no underflow.  The bound is void once
    exp(m delta) - 1 exceeds 1, i.e. once the squarings may have amplified
    the roundings past the size of the result itself; expm then raises
    ``ExponentialUnresolved`` instead of squaring.  It raises
    ``ValueError`` for a matrix that is not square, real and finite with
    nonnegative off-diagonal entries, and ``OverflowError`` when e^A
    exceeds the float range.  It terminates for every finite input: at
    most 13 products for the series, and at most 46 squarings (n = 1;
    fewer for larger n) as the refusal comes first.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expm needs a non-empty square matrix, got shape "
                         f"{a.shape}")
    if np.iscomplexobj(a):
        raise ValueError("expm needs a real matrix")
    b = np.array(a, dtype=float, order="C")
    if not np.isfinite(b).all():
        raise ValueError("expm needs a finite matrix")
    n = b.shape[0]
    diag = b.ravel()[::n + 1]                  # a view of the diagonal
    alpha = max(0.0, -float(diag.min()))
    if math.isinf(float(diag.max()) + alpha):
        # a_ii + alpha > 2^1024 needs a_ii > 2^1023: e^a_ii overflows
        raise OverflowError("e^A exceeds the float range")
    diag += alpha
    if float(b.min()) < 0.0:                   # the diagonal is now >= 0
        raise ValueError("expm needs an essentially nonnegative matrix: an "
                         "off-diagonal entry is negative")

    top = max(float(b.max()), alpha)
    s = 0
    if top > 0.0:
        p = math.frexp(top)[1]                 # top < 2^p, so the norm of
        norm = max(float(np.ldexp(b, -p).sum(axis=0).max()),   # b/2^p is
                   math.ldexp(alpha, -p))                       # <= n
        s = max(0, p + math.frexp(norm)[1] + 1)
    delta = gamma(_TAYLOR_MAX * (n + 3) + 5) + gamma(n)
    # exp(2^s delta) - 1 > 1, compared in logarithms so nothing overflows
    if s + math.log2(delta) > math.log2(math.log(2.0)):
        raise ExponentialUnresolved(
            f"e^A needs {s} squarings, after which its rounding bound "
            f"exp(2^{s} * {delta:.2e}) - 1 exceeds the result itself")

    x = np.ldexp(b, -s)
    k_max = _taylor_degree(float(x.sum(axis=0).max()))
    e = x / k_max
    for k in range(k_max - 1, 0, -1):
        e = x @ e
        e += x
        e /= k
    d = math.expm1(-math.ldexp(alpha, -s))
    e += d * e
    diag = e.ravel()[::n + 1]
    diag += d
    diag += 1.0
    if s:
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(s):
                e = e @ e
        if not np.isfinite(e).all():
            raise OverflowError("e^A exceeds the float range")
    return e


def evolve(g: GeneratorSpec, f0: SemigroupState, t) -> SemigroupState:
    """Semigroup orbit e^{tA} f0 at a time t or an ascending array of times.

    Modes k != 0 decay in closed form by exp((i w_n k - q_n) t).  The head
    and the mode-0 coefficients of blocks 1..g.depth form a closed linear
    system with generator M; mode-0 content beyond the chain depth
    evolves by its decoupled decay only, the neglected head feed being
    bounded in mass by 2^-g.depth.  The chain steps from sample to
    sample, v_k = expm(dt_k M) v_{k-1} with dt_k = t_k - t_{k-1} and
    t_0 = 0, one scaling-and-squaring exponential per distinct increment:
    a uniform grid from 0 needs one, its dt_k are exact (Sterbenz) and sum
    to t_k, and expm(dt M), a sum and product of nonnegative matrices, is
    entrywise nonnegative by construction, so a nonnegative chain stays
    nonnegative.  A step too long for expm's error bound raises
    ``ExponentialUnresolved``.
    f0 has no time axis.  The result holds the chain blocks 1..g.depth
    at mode 0, then the entries of f0 that decay in closed form.  An array
    of times gives it a leading time axis; a scalar t, the first row.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    steps = np.diff(ts, prepend=0.0)
    if not (np.all(np.isfinite(ts)) and np.all(steps >= 0.0)):
        raise ValueError("evolution runs forward in time: need finite, "
                         "ascending times >= 0")
    n_chain = g.depth

    chained = (f0.k == 0) & (f0.n <= n_chain)
    v = np.zeros(n_chain + 1, dtype=complex)
    v[0] = f0.head
    np.add.at(v, f0.n[chained], f0.c[chained])
    n, k, c = f0.n[~chained], f0.k[~chained], f0.c[~chained]
    # one row per time: the head, the chain blocks, the closed-form decays
    out = np.empty((ts.size, n_chain + 1 + n.size), dtype=complex)
    chain, decays = out[:, :n_chain + 1], out[:, n_chain + 1:]
    np.multiply(c, np.exp(np.multiply.outer(ts, _rates(g, n, k))), out=decays)

    m = chain_generator(g, n_chain)
    # complex once per increment: a real step times the complex state
    # would be cast to complex again on every product
    step = lru_cache(maxsize=16)(lambda dt: expm(dt * m).astype(complex))
    for i, dt in enumerate(steps.tolist()):
        v = chain[i] = step(dt) @ v
    row = slice(None) if np.ndim(t) else 0
    return SemigroupState(out[row, 0],
                          np.concatenate([np.arange(1, n_chain + 1), n]),
                          np.concatenate([np.zeros(n_chain, int), k]),
                          out[row, 1:])
