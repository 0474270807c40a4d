"""Core data model.

The operator studied here acts on the weighted-head sequence space

    E = C  x  (C^d)^N,        ||f|| = |f_0| + sum_n ||f_n||_1,

where d is the total size of a direct sum of cyclic permutation blocks.  A
summable weight sequence (q_n) couples every block to the head coordinate:

    (T f)_0 = sum_n q_n <1, f_n>,
    (T f)_n = (1 - q_n) P f_n + f_0 q_n 1,

with P the block permutation and 1 the all-ones vector.  T is stochastic as
soon as the masses d*q_n sum to one; the default dyadic rule q_n = 2^-n / d
does exactly that, with the exact tail identity sum_{n>N} d*q_n = 2^-N.

This module provides the spec of the permutation part (``GroupUnionSpec``),
the dyadic weights (``WeightSeq``), structured vectors with an optional
closed-form tail (``BlockVector``), certified scalars (``CertifiedComplex``),
the forward map ``apply_operator`` and the certified norm ``norm1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import TailInvalid

__all__ = [
    "GroupUnionSpec",
    "WeightSeq",
    "CertifiedComplex",
    "TailProfile",
    "BlockVector",
    "union_points",
    "union_values",
    "basis_head",
    "weight_vector",
    "apply_operator",
    "norm1",
    "pair_head",
    "pair_weights",
    "stochasticity_check",
]

# Relative float cushion added when propagating certified radii.  Two orders
# of magnitude above one ulp; negligible next to every truncation radius used
# in practice (>= 2^-60).
_RADIUS_SLOP = 4.0 * 2.0 ** -52


# ---------------------------------------------------------------------------
# certified scalars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifiedComplex:
    """A complex value together with a rigorous error radius.

    The pair represents the closed disk ``{z : |z - value| <= radius}``.
    Arithmetic propagates radii conservatively (triangle inequality plus a
    small fixed multiple of machine epsilon for the rounding of the centre).
    """

    value: complex
    radius: float = 0.0

    def __post_init__(self):
        if not (self.radius >= 0.0) or math.isnan(self.radius):
            raise ValueError(f"radius must be non-negative, got {self.radius}")

    # -- basic queries ------------------------------------------------------

    def contains(self, z: complex) -> bool:
        return abs(self.value - z) <= self.radius

    def excludes_zero(self) -> bool:
        return abs(self.value) > self.radius

    def abs_lower(self) -> float:
        """Certified lower bound for |z| over the disk."""
        return max(0.0, abs(self.value) - self.radius)

    def abs_upper(self) -> float:
        return abs(self.value) + self.radius

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "CertifiedComplex":
        if isinstance(other, CertifiedComplex):
            return other
        return CertifiedComplex(complex(other), 0.0)

    def _slopped(self, value: complex, radius: float) -> "CertifiedComplex":
        return CertifiedComplex(value, radius + _RADIUS_SLOP * abs(value))

    def __add__(self, other):
        o = self._coerce(other)
        return self._slopped(self.value + o.value, self.radius + o.radius)

    __radd__ = __add__

    def __neg__(self):
        return CertifiedComplex(-self.value, self.radius)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        rad = (abs(self.value) * o.radius + abs(o.value) * self.radius
               + self.radius * o.radius)
        return self._slopped(self.value * o.value, rad)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        mod = abs(o.value)
        if mod <= o.radius:
            raise ZeroDivisionError(
                f"certified divisor disk contains zero: {o}")
        # |a/b - a0/b0| <= (|b0| ra + |a0| rb) / (|b0| (|b0| - rb))
        rad = ((mod * self.radius + abs(self.value) * o.radius)
               / (mod * (mod - o.radius)))
        return self._slopped(self.value / o.value, rad)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __str__(self):
        return f"{self.value} +/- {self.radius:.3g}"


# ---------------------------------------------------------------------------
# permutation part
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupUnionSpec:
    """Direct sum of cyclic shifts, one per requested order.

    ``orders`` lists the cycle lengths d_k; the permutation P acts on C^d,
    d = sum d_k, as the block-diagonal forward shift e_i -> e_{i+1 mod d_k}.
    Its spectrum is the union of the groups of d_k-th roots of unity, the
    peripheral set prescribed for the coupled operator.
    """

    orders: tuple

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(m) for m in self.orders))
        if not self.orders:
            raise ValueError("orders must be non-empty")
        for m in self.orders:
            if m < 1:
                raise ValueError(f"orders must be >= 1, got {m}")

    @property
    def d(self) -> int:
        return sum(self.orders)

    @property
    def offsets(self) -> tuple:
        """Start index of each cyclic sub-block inside C^d."""
        out, pos = [], 0
        for m in self.orders:
            out.append(pos)
            pos += m
        return tuple(out)

    @property
    def period(self) -> int:
        """lcm of the orders; P**period is the identity."""
        return math.lcm(*self.orders)

    def permute(self, x: np.ndarray) -> np.ndarray:
        """Apply the block permutation P to a length-d vector."""
        x = np.asarray(x)
        out = np.empty_like(x)
        for off, m in zip(self.offsets, self.orders):
            out[off:off + m] = np.roll(x[off:off + m], 1)
        return out

    def permutation_matrix(self) -> np.ndarray:
        p = np.zeros((self.d, self.d))
        for off, m in zip(self.offsets, self.orders):
            for i in range(m):
                p[off + (i + 1) % m, off + i] = 1.0
        return p


def union_points(spec: GroupUnionSpec) -> list:
    """Angles of the prescribed peripheral set, as exact fractions of a turn.

    Returns the deduplicated, sorted list of j/d_k in [0, 1).
    """
    angles = {Fraction(j, m) for m in spec.orders for j in range(m)}
    return sorted(angles)


def union_values(spec: GroupUnionSpec) -> np.ndarray:
    """The peripheral set itself, as complex numbers on the unit circle."""
    return np.array([np.exp(2j * np.pi * float(a)) for a in union_points(spec)])


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSeq:
    """Dyadic coupling weights q_n = 2^-n / unit.

    ``kind`` is "single" (mass unit d, masses d*q_n) or "semigroup" (mass
    unit 2*pi).  The masses unit*q_n = 2^-n satisfy
    sum_{n>N} unit*q_n = 2^-N exactly, also in floating point.
    """

    kind: str
    mass_unit: float

    def __post_init__(self):
        if self.kind not in ("single", "semigroup"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        q1 = self.value(1)
        hi = 0.5 if self.kind == "single" else 1.0
        if not 0.0 < q1 <= hi:
            raise ValueError(f"q_1 = {q1} outside (0, {hi}]")

    @classmethod
    def dyadic_single(cls, d: int) -> "WeightSeq":
        if d < 1:
            raise ValueError("d must be >= 1")
        return cls("single", float(d))

    @classmethod
    def dyadic_semigroup(cls) -> "WeightSeq":
        return cls("semigroup", 2.0 * math.pi)

    def value(self, n: int) -> float:
        """q_n (n >= 1)."""
        if n < 1:
            raise ValueError("weights are indexed from 1")
        return 2.0 ** -n / self.mass_unit

    def mass(self, n: int) -> float:
        """The mass carried by block n: unit * q_n."""
        return self.mass_unit * self.value(n)

    def tail_mass(self, n: int) -> float:
        """Exact value of sum_{m>n} mass(m)."""
        if n < 0:
            raise ValueError("tail index must be >= 0")
        return 2.0 ** -n

    def partial_mass(self, n: int) -> float:
        """sum_{m<=n} mass(m), via the exact tail rule."""
        return self.tail_mass(0) - self.tail_mass(n)

    def values(self, depth: int) -> np.ndarray:
        """q_1 .. q_depth as an array."""
        return np.ldexp(1.0, -np.arange(1, depth + 1)) / self.mass_unit


# ---------------------------------------------------------------------------
# block vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailProfile:
    """Closed-form continuation of a block vector.

    For every n > ``start`` the block equals ``coeff(n) * 1`` (a multiple of
    the all-ones vector; the construction never produces anything else in the
    tail).  ``remainder(N)`` is a rigorous upper bound for the l1 mass
    sum_{n>N} d*|coeff(n)| held beyond cutoff N >= start; it may return
    ``inf`` when no finite bound is available yet at that cutoff.
    """

    start: int
    coeff: Callable[[int], complex]
    remainder: Callable[[int], float]


@dataclass
class BlockVector:
    """Element of the head-plus-blocks space with optional symbolic tail."""

    d: int
    head: complex = 0j
    blocks: dict = field(default_factory=dict)
    tail: Optional[TailProfile] = None

    def __post_init__(self):
        for n, x in self.blocks.items():
            if n < 1:
                raise ValueError("block indices start at 1")
            if np.shape(x) != (self.d,):
                raise ValueError(
                    f"block {n} has shape {np.shape(x)}, expected ({self.d},)")

    # -- accessors ----------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.tail is None

    @property
    def support_max(self) -> int:
        m = max(self.blocks) if self.blocks else 0
        if self.tail is not None:
            m = max(m, self.tail.start)
        return m

    def block(self, n: int) -> np.ndarray:
        """Block n, materialised from the tail rule when necessary."""
        if n in self.blocks:
            return self.blocks[n]
        if self.tail is not None and n > self.tail.start:
            return self.tail.coeff(n) * np.ones(self.d, dtype=complex)
        return np.zeros(self.d, dtype=complex)

    # -- arithmetic (exact on exact inputs) ---------------------------------

    def __add__(self, other: "BlockVector") -> "BlockVector":
        if self.d != other.d:
            raise ValueError("block size mismatch")
        a, b = self, other
        if a.tail is not None and b.tail is not None \
                and a.tail.start != b.tail.start:
            s = max(a.tail.start, b.tail.start)
            a, b = a.materialize(s), b.materialize(s)
        blocks = {n: np.array(x, dtype=complex) for n, x in a.blocks.items()}
        for n, x in b.blocks.items():
            blocks[n] = blocks.get(n, 0) + np.asarray(x, dtype=complex)
        tail = _add_tails(a.tail, b.tail)
        return BlockVector(a.d, a.head + b.head, blocks, tail)

    def __sub__(self, other: "BlockVector") -> "BlockVector":
        return self + (-1.0) * other

    def __mul__(self, s) -> "BlockVector":
        s = complex(s)
        blocks = {n: s * np.asarray(x, dtype=complex)
                  for n, x in self.blocks.items()}
        tail = None
        if self.tail is not None:
            c, r = self.tail.coeff, self.tail.remainder
            tail = TailProfile(self.tail.start,
                               lambda n, c=c, s=s: s * c(n),
                               lambda N, r=r, s=s: abs(s) * r(N))
        return BlockVector(self.d, s * self.head, blocks, tail)

    __rmul__ = __mul__

    # -- tail handling ------------------------------------------------------

    def materialize(self, depth: int) -> "BlockVector":
        """Move tail blocks with index <= depth into explicit storage."""
        if self.tail is None or depth <= self.tail.start:
            return self
        blocks = {n: np.array(x, dtype=complex) for n, x in self.blocks.items()}
        ones = np.ones(self.d, dtype=complex)
        for n in range(self.tail.start + 1, depth + 1):
            add = self.tail.coeff(n) * ones
            blocks[n] = blocks.get(n, 0) + add
        tail = TailProfile(depth, self.tail.coeff, self.tail.remainder)
        return BlockVector(self.d, self.head, blocks, tail)

    def truncate(self, depth: int):
        """Drop the tail beyond ``depth``.

        Returns ``(finite_vector, dropped)`` where ``dropped`` bounds the l1
        mass that was discarded.
        """
        v = self.materialize(depth)
        if v.tail is None:
            return v, 0.0
        dropped = v.tail.remainder(depth)
        return BlockVector(v.d, v.head, v.blocks, None), float(dropped)


def _add_tails(a: Optional[TailProfile], b: Optional[TailProfile]):
    if a is None:
        return b
    if b is None:
        return a
    start = max(a.start, b.start)
    # materialising is the caller's job when starts differ; align lazily here
    ca, cb, ra, rb = a.coeff, b.coeff, a.remainder, b.remainder

    def coeff(n, ca=ca, cb=cb, sa=a.start, sb=b.start):
        out = 0j
        if n > sa:
            out += ca(n)
        if n > sb:
            out += cb(n)
        return out

    def rem(N, ra=ra, rb=rb, sa=a.start, sb=b.start):
        # valid for N >= start >= both starts
        return ra(max(N, sa)) + rb(max(N, sb))

    return TailProfile(start, coeff, rem)


def basis_head(spec: GroupUnionSpec) -> BlockVector:
    """The head unit vector e."""
    return BlockVector(spec.d, 1.0 + 0j)


def weight_vector(spec: GroupUnionSpec, w: WeightSeq) -> BlockVector:
    """The coupling vector q: block n holds q_n * 1, norm exactly one."""
    return BlockVector(
        spec.d, 0j, {},
        TailProfile(0, lambda n: complex(w.value(n)),
                    lambda N: w.tail_mass(N)))


# ---------------------------------------------------------------------------
# forward operator, norms, pairings
# ---------------------------------------------------------------------------

def apply_operator(spec: GroupUnionSpec, w: WeightSeq,
                   f: BlockVector) -> BlockVector:
    """Forward map T f.

    Only finite-support inputs are accepted; composing T with symbolic tails
    is not supported (truncate first).  When ``f.head`` is non-zero the image
    has the closed-form tail ``head * q_n * 1`` with exact remainder
    ``|head| * tail_mass(N)``.
    """
    if w.kind != "single":
        raise ValueError("apply_operator needs a single-operator weight rule")
    if spec.d != f.d:
        raise ValueError("dimension mismatch between spec and vector")
    if not f.is_finite:
        raise TailInvalid("apply_operator requires a finite-support vector")

    head = 0j
    blocks = {}
    nmax = max(f.blocks) if f.blocks else 0
    ones = np.ones(spec.d, dtype=complex)
    for n in range(1, nmax + 1):
        q = w.value(n)
        acc = None
        if n in f.blocks:
            x = np.asarray(f.blocks[n], dtype=complex)
            head += q * x.sum()
            acc = (1.0 - q) * spec.permute(x)
        if f.head != 0:
            add = f.head * q * ones
            acc = add if acc is None else acc + add
        if acc is not None:
            blocks[n] = acc

    tail = None
    if f.head != 0:
        h = complex(f.head)
        tail = TailProfile(nmax,
                           lambda n, h=h: h * w.value(n),
                           lambda N, h=h: abs(h) * w.tail_mass(N))
    return BlockVector(spec.d, head, blocks, tail)


def norm1(f: BlockVector, accuracy: float = 1e-12) -> CertifiedComplex:
    """Certified l1 norm |f_0| + sum_n ||f_n||_1.

    The explicit part is summed exactly; a tail is expanded until its
    remainder bound drops below ``accuracy`` (raises TailInvalid when no
    finite bound can be reached).
    """
    total = abs(f.head)
    for x in f.blocks.values():
        total += float(np.abs(np.asarray(x)).sum())
    radius = 0.0
    if f.tail is not None:
        n = f.tail.start
        rem = f.tail.remainder(n)
        guard = n + 2000
        while not (rem <= accuracy) and n < guard:
            n += 1
            total += abs(f.tail.coeff(n)) * f.d
            rem = f.tail.remainder(n)
        if not (rem <= accuracy):
            raise TailInvalid(
                f"tail remainder still {rem} after expanding to n={n}")
        radius = float(rem)
    return CertifiedComplex(complex(total), radius)


def pair_head(f: BlockVector) -> complex:
    """The head functional <e, f> = f_0 (exact)."""
    return complex(f.head)


def pair_weights(spec: GroupUnionSpec, w: WeightSeq, f: BlockVector,
                 depth: int = 40) -> CertifiedComplex:
    """Certified pairing <q, f> = sum_n q_n <1, f_n>.

    Tail blocks beyond the materialisation depth contribute at most
    q_{depth+1} times their remaining l1 mass.
    """
    g = f.materialize(depth) if f.tail is not None else f
    total = 0j
    for n, x in g.blocks.items():
        total += w.value(n) * complex(np.asarray(x).sum())
    radius = 0.0
    if g.tail is not None:
        cut = max(depth, g.tail.start)
        radius = w.value(cut + 1) * g.tail.remainder(cut)
        if not math.isfinite(radius):
            raise TailInvalid("no finite tail bound for the weight pairing")
    return CertifiedComplex(total, float(radius))


# ---------------------------------------------------------------------------
# stochasticity property check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StochasticityReport:
    trials: int
    max_norm_defect: float      # worst relative | ||Tf|| - ||f|| |
    max_negativity: float       # worst entrywise negativity of T f
    passed: bool


def stochasticity_check(spec: GroupUnionSpec, w: WeightSeq,
                        trials: int = 50, seed: int = 0,
                        rtol: float = 1e-12) -> StochasticityReport:
    """Random-vector check that T preserves mass and positivity.

    Draws non-negative finite-support vectors and verifies entrywise
    T f >= 0 and | ||Tf||_1 - ||f||_1 | <= rtol * ||f||_1 using certified
    norms with accuracy well below the tolerance.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x510C]))
    worst_defect = 0.0
    worst_neg = 0.0
    for _ in range(trials):
        nblocks = int(rng.integers(1, 7))
        idx = rng.choice(np.arange(1, 13), size=nblocks, replace=False)
        blocks = {int(n): rng.random(spec.d) + 0j for n in idx}
        f = BlockVector(spec.d, complex(rng.random()), blocks)
        tf = apply_operator(spec, w, f)

        nf = norm1(f, accuracy=1e-16).value.real
        ntf = norm1(tf, accuracy=1e-16)
        worst_defect = max(worst_defect,
                           abs(ntf.value.real - nf) / nf + ntf.radius / nf)

        neg = min(0.0, min(float(np.min(np.asarray(x).real))
                           for x in tf.blocks.values()))
        neg = min(neg, min(0.0, tf.head.real))
        if tf.tail is not None:
            # tail coefficients are head * q_n >= 0 here; sample a few
            for n in range(tf.tail.start + 1, tf.tail.start + 4):
                neg = min(neg, min(0.0, tf.tail.coeff(n).real))
        worst_neg = min(worst_neg, neg)
    return StochasticityReport(trials, float(worst_defect), float(-worst_neg),
                               worst_defect <= rtol and worst_neg >= -1e-15)
