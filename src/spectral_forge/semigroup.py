"""Continuous-time analogue: rotation blocks coupled through the head.

The generator acts on C x (L^1 of the circle)^N as

    A = B + (e x q) + (q x e),
    B = diag(-1, w_1 D - q_1, w_2 D - q_2, ...),

where D differentiates (multiplication by i*k on Fourier mode k) and the
speed schedule (w_n) enumerates the rationals in [1, 2] so that every value
recurs infinitely often.  States are stored by Fourier coefficients per
block; the mass functional is f_0 + sum_n 2*pi*f_{n,0} and the weights
q_n = 2^-n / (2*pi) make the coupling vector q a unit mass.

Purely imaginary spectral parameters are probed through the certified
denominator 1 - h(beta)/(i*beta+1) with h(beta) = sum_n 2*pi*q_n^2 /
(i*beta + q_n), which is the discrete operator's denominator at
lam = 1 + i*beta and comes from the same primitive,
``resolvent.coupling_series_batch``; approximate point spectrum on
the axis is exhibited by single-Fourier-mode states whose residual equals
q_n exactly.  Orbits are sampled by stepping the head/mode-0 chain from one
time to the next with a memoised matrix exponential.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Dict, List, Optional

import numpy as np

from .errors import SingularBlock, SpectralForgeError
from .model import WeightSeq
from .resolvent import (CERTIFIED, SINGULAR, _S_GAP_GUARD,
                        coupling_series_batch)

__all__ = [
    "TWO_PI",
    "RationalSchedule",
    "GeneratorSpec",
    "FourierState",
    "apply_block_generator",
    "apply_generator",
    "resolvent_block_generator",
    "ModeCertificate",
    "mode_certificate",
    "AxisReport",
    "scan_imaginary_axis",
    "chain_generator",
    "evolve",
]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# rational speed schedule
# ---------------------------------------------------------------------------

class RationalSchedule:
    """Enumeration of Q cap [1,2] with every value recurring infinitely often.

    The base list orders the rationals by denominator, then numerator, in
    lowest terms: 1, 2, 3/2, 4/3, 5/3, 5/4, 7/4, ...  The schedule pairs
    base index i with occurrence m along anti-diagonals, so w_n sweeps
    1, 1, 2, 1, 2, 3/2, 1, ...
    """

    def __init__(self):
        self._base: List[Fraction] = []
        self._next_den = 1

    def _extend(self, count: int):
        while len(self._base) < count:
            s = self._next_den
            for p in range(s, 2 * s + 1):
                if gcd(p, s) == 1:
                    self._base.append(Fraction(p, s))
            self._next_den += 1

    def base_rational(self, i: int) -> Fraction:
        """i-th rational of the base enumeration (1-indexed)."""
        if i < 1:
            raise ValueError("base index starts at 1")
        self._extend(i)
        return self._base[i - 1]

    def base_index(self, r) -> int:
        """Position of r in the base enumeration (exact rational compare)."""
        r = Fraction(r)
        if not 1 <= r <= 2:
            raise ValueError(f"{r} is outside [1, 2]")
        i = 0
        for s in range(1, r.denominator + 1):
            for p in range(s, 2 * s + 1):
                if gcd(p, s) == 1:
                    i += 1
                    if Fraction(p, s) == r:
                        return i
        raise ValueError(f"{r} not reached")      # pragma: no cover

    @staticmethod
    def _pair_index(i: int, m: int) -> int:
        t = i + m
        return (t - 2) * (t - 1) // 2 + i

    def omega(self, n: int) -> Fraction:
        """Speed of block n (exact rational)."""
        if n < 1:
            raise ValueError("blocks are indexed from 1")
        t = 2
        while (t - 1) * t // 2 < n:
            t += 1
        i = n - (t - 2) * (t - 1) // 2
        return self.base_rational(i)

    def index_of(self, r, occurrence: int = 1) -> int:
        """Block index of the ``occurrence``-th appearance of speed r."""
        if occurrence < 1:
            raise ValueError("occurrence starts at 1")
        return self._pair_index(self.base_index(r), occurrence)


# ---------------------------------------------------------------------------
# generator spec and states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSpec:
    weights: WeightSeq
    schedule: RationalSchedule
    depth: int = 40

    def __post_init__(self):
        if self.weights.kind != "semigroup":
            raise ValueError("GeneratorSpec needs a semigroup weight rule")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    @classmethod
    def default(cls, depth: int = 40) -> "GeneratorSpec":
        return cls(WeightSeq.dyadic_semigroup(), RationalSchedule(), depth)

    def omega_float(self, n: int, k: int = 1) -> float:
        # one rounding of the exact rational product, so that
        # float(w_n * k) == float(r) whenever w_n * k == r exactly
        return float(self.schedule.omega(n) * k)


@dataclass
class FourierState:
    """head coordinate plus per-block Fourier coefficients {n: {k: c}}."""

    head: complex = 0j
    blocks: Dict[int, Dict[int, complex]] = field(default_factory=dict)

    @classmethod
    def head_unit(cls) -> "FourierState":
        return cls(1.0 + 0j)

    @classmethod
    def single_mode(cls, n: int, k: int, coeff: complex) -> "FourierState":
        return cls(0j, {n: {k: complex(coeff)}})

    def copy(self) -> "FourierState":
        return FourierState(self.head,
                            {n: dict(m) for n, m in self.blocks.items()})

    def coeff(self, n: int, k: int) -> complex:
        return self.blocks.get(n, {}).get(k, 0j)

    def set_coeff(self, n: int, k: int, c: complex):
        if c == 0:
            self.blocks.get(n, {}).pop(k, None)
            if n in self.blocks and not self.blocks[n]:
                del self.blocks[n]
            return
        self.blocks.setdefault(n, {})[k] = complex(c)

    def __add__(self, other: "FourierState") -> "FourierState":
        out = self.copy()
        out.head += other.head
        for n, modes in other.blocks.items():
            for k, c in modes.items():
                out.set_coeff(n, k, out.coeff(n, k) + c)
        return out

    def __sub__(self, other: "FourierState") -> "FourierState":
        return self + (-1.0) * other

    def __mul__(self, s) -> "FourierState":
        s = complex(s)
        return FourierState(
            s * self.head,
            {n: {k: s * c for k, c in modes.items()}
             for n, modes in self.blocks.items()})

    __rmul__ = __mul__

    def mass(self) -> complex:
        """Pairing with the invariant functional (1, 1, 1, ...)."""
        return self.head + TWO_PI * sum(m.get(0, 0j)
                                        for m in self.blocks.values())

    def norm1(self, quad_nodes: int = 4096) -> float:
        """|head| plus the L1 norms of the blocks.

        Exact for blocks holding at most one mode; multi-mode blocks are
        integrated by the trapezoidal rule on ``quad_nodes`` points.
        """
        total = abs(self.head)
        for modes in self.blocks.values():
            live = {k: c for k, c in modes.items() if c != 0}
            if not live:
                continue
            if len(live) == 1:
                total += TWO_PI * abs(next(iter(live.values())))
                continue
            theta = np.arange(quad_nodes) * (TWO_PI / quad_nodes)
            vals = np.zeros(quad_nodes, dtype=complex)
            for k, c in live.items():
                vals += c * np.exp(1j * k * theta)
            total += float(np.abs(vals).sum() * (TWO_PI / quad_nodes))
        return total


# ---------------------------------------------------------------------------
# generator and resolvent actions
# ---------------------------------------------------------------------------

def apply_block_generator(g: GeneratorSpec, f: FourierState) -> FourierState:
    """B f: head -> -head, mode (n,k) -> (i w_n k - q_n) times itself."""
    out = FourierState(-f.head)
    for n, modes in f.blocks.items():
        q = g.weights.value(n)
        for k, c in modes.items():
            out.set_coeff(n, k, (1j * g.omega_float(n, k) - q) * c)
    return out


def apply_generator(g: GeneratorSpec, f: FourierState) -> FourierState:
    """A f = B f + f_0 * q + <q, f> * e.

    The head-driven coupling term f_0 * q has unbounded support; it is
    truncated at the spec depth, which perturbs the mass balance by at most
    |f_0| * 2^-depth (9.1e-13 at the default depth).
    """
    out = apply_block_generator(g, f)
    if f.head != 0:
        for n in range(1, g.depth + 1):
            q = g.weights.value(n)
            out.set_coeff(n, 0, out.coeff(n, 0) + f.head * q)
    pairing = TWO_PI * sum(g.weights.value(n) * modes.get(0, 0j)
                           for n, modes in f.blocks.items())
    out.head += pairing
    return out


def resolvent_block_generator(g: GeneratorSpec, beta: float,
                              f: FourierState) -> FourierState:
    """R(i*beta, B) f, componentwise division with a singularity guard."""
    den_head = 1j * beta + 1.0
    out = FourierState(f.head / den_head)
    for n, modes in f.blocks.items():
        q = g.weights.value(n)
        for k, c in modes.items():
            den = 1j * beta + q - 1j * g.omega_float(n, k)
            if abs(den) <= 1e-14:
                raise SingularBlock(
                    f"mode (n={n}, k={k}) is singular at beta={beta}")
            out.set_coeff(n, k, c / den)
    return out


# ---------------------------------------------------------------------------
# approximate eigenvalue certificates on the axis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeCertificate:
    """Single-mode state z with ||(A - i*r) z|| = q_n exactly.

    For rational r in [1,2] the mode is k=1 at speed w_n = r; for larger r
    the mode index is the largest integer below r, putting the required
    speed r/k back inside (1, 3/2].  ``matches`` records the 1e-12 check of
    the evaluated residual against q_n.
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
    if not 1 <= omega <= 2:                        # pragma: no cover
        raise SpectralForgeError(f"derived speed {omega} escaped [1,2]")
    n = g.schedule.index_of(omega, occurrence)
    q = g.weights.value(n)

    z = FourierState.single_mode(n, k, 1.0 / TWO_PI)
    lam = 1j * float(r)
    resid = (apply_generator(g, z) - lam * z).norm1()
    return ModeCertificate(r, omega, k, n, q, resid,
                           abs(resid - q) <= 1e-12)


# ---------------------------------------------------------------------------
# axis scan
# ---------------------------------------------------------------------------

@dataclass
class AxisReport:
    """Per-beta columns of an axis scan at truncation depth ``depth``."""

    betas: np.ndarray
    certified: np.ndarray
    denominator_abs_lower: np.ndarray
    depth: int

    def counts(self) -> dict:
        """Verdict counts, keyed in order of first appearance."""
        n = int(np.count_nonzero(self.certified))
        pairs = [(CERTIFIED, n), (SINGULAR, self.certified.size - n)]
        if not self.certified[:1].all():     # the first point is singular
            pairs.reverse()
        return {k: v for k, v in pairs if v}


def scan_imaginary_axis(g: GeneratorSpec, betas,
                        depth: Optional[int] = None) -> AxisReport:
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
    depth = g.depth if depth is None else depth
    beta = np.fromiter(betas, dtype=float)
    if not np.all(np.isfinite(beta)):
        raise ValueError("betas must be finite")
    den, rad, _ = coupling_series_batch(g.weights, 1.0 + 1j * beta, depth)
    mod = np.abs(den)
    gap = np.minimum(np.abs(beta), 1.0 - np.abs(beta))
    certified = (gap > _S_GAP_GUARD) & (mod > rad)
    return AxisReport(beta, certified, np.where(certified, mod - rad, 0.0),
                      depth)


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------

def chain_generator(g: GeneratorSpec, n_blocks: int) -> np.ndarray:
    """Generator of the closed head/mode-0 subsystem, size n_blocks + 1."""
    qs = g.weights.values(n_blocks)
    m = np.zeros((n_blocks + 1, n_blocks + 1))
    m[0, 0] = -1.0
    m[0, 1:] = TWO_PI * qs
    m[1:, 0] = qs
    m[1:, 1:][np.diag_indices(n_blocks)] = -qs
    return m


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by ``scipy.linalg.expm``; SciPy is imported on the
    first call, so importing the package does not load it."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(a)


def evolve(g: GeneratorSpec, f0: FourierState, t,
           chain_depth: Optional[int] = None) -> FourierState:
    """Semigroup orbit e^{tA} f0 at a time t or an ascending array of times.

    Modes k != 0 decay in closed form by exp((i w_n k - q_n) t).  The head
    and the mode-0 coefficients of blocks 1..chain_depth form a closed
    linear system with generator M; mode-0 content beyond the chain depth
    evolves by its decoupled decay only, the neglected head feed being
    bounded in mass by 2^-chain_depth.  The chain steps from sample to
    sample, v_k = expm(dt_k M) v_{k-1} with dt_k = t_k - t_{k-1} and
    t_0 = 0, one scaling-and-squaring exponential per distinct increment:
    a uniform grid from 0 needs one, its dt_k are exact (Sterbenz) and sum
    to t_k, and expm(dt M) >= 0 keeps a nonnegative chain nonnegative.
    A scalar t gives a state; an array gives one state whose head and
    coefficients are arrays over the times.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    steps = np.diff(ts, prepend=0.0)
    if not (np.all(np.isfinite(ts)) and np.all(steps >= 0.0)):
        raise ValueError("evolution runs forward in time: need finite, "
                         "ascending times >= 0")
    n_chain = g.depth if chain_depth is None else chain_depth

    v = np.zeros(n_chain + 1, dtype=complex)
    v[0] = f0.head
    blocks: Dict[int, Dict[int, np.ndarray]] = {}
    for n, modes in f0.blocks.items():
        for k, c in modes.items():
            if k == 0 and n <= n_chain:
                v[n] += c
                continue
            q = g.weights.value(n)
            rate = (1j * g.omega_float(n, k) - q) if k != 0 else -q
            blocks.setdefault(n, {})[k] = np.array(
                [c * cmath.exp(rate * s) for s in ts.tolist()])

    m = chain_generator(g, n_chain)
    step = lru_cache(maxsize=16)(lambda dt: expm(dt * m))
    chain = np.empty((ts.size, n_chain + 1), dtype=complex)
    for i, dt in enumerate(steps.tolist()):
        v = chain[i] = step(dt) @ v
    for n in range(1, n_chain + 1):
        blocks.setdefault(n, {})[0] = chain[:, n]
    if np.ndim(t) != 0:
        return FourierState(chain[:, 0], blocks)
    out = FourierState(0j)
    out.head += chain[0, 0]
    for n, modes in blocks.items():
        for k, c in modes.items():
            out.set_coeff(n, k, c[0])
    return out
