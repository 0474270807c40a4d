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
the dyadic weights (``WeightSeq``) and the forward map ``apply_operator`` on
finite-support vectors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

__all__ = [
    "GroupUnionSpec",
    "WeightSeq",
    "union_points",
    "union_values",
    "apply_operator",
    "stochasticity_check",
]


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

    @functools.cached_property
    def gather(self) -> np.ndarray:
        """Index of the entry that P moves into each entry:
        (P x)[j] = x[gather[j]], the previous entry of j's cycle."""
        return np.concatenate([off + np.roll(np.arange(m), 1)
                               for off, m in zip(self.offsets, self.orders)])

    def permute(self, x: np.ndarray) -> np.ndarray:
        """Apply the block permutation P along the last axis (length d)."""
        return np.asarray(x)[..., self.gather]


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

    def tail_mass(self, n: int) -> float:
        """Exact value of sum_{m>n} unit * q_m."""
        if n < 0:
            raise ValueError("tail index must be >= 0")
        return 2.0 ** -n

    def partial_mass(self, n: int) -> float:
        """sum_{m<=n} unit * q_m, via the exact tail rule."""
        return self.tail_mass(0) - self.tail_mass(n)

    def values(self, depth: int) -> np.ndarray:
        """q_1 .. q_depth as an array."""
        return np.ldexp(1.0, -np.arange(1, depth + 1)) / self.mass_unit


# ---------------------------------------------------------------------------
# forward operator
# ---------------------------------------------------------------------------

def apply_operator(spec: GroupUnionSpec, w: WeightSeq, x: np.ndarray,
                   weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Forward map T x for a finite-support vector, or for a stack of them
    along a leading axis.

    Each vector is flat, in the layout of ``finite.FiniteSection``: the
    head, then blocks 1..N (N >= 1) of length d each.  The result is T x
    on the same support, i.e. the raw section's matrix times x; past
    block N the image continues in closed form as the tail x[0] * q_n * 1,
    n > N, whose l1 mass is |x[0]| 2^-N.  ``weights``, when given, replaces
    q_1 .. q_N: with a section's renormalised weights the result is that
    section's matrix times x.  Real input gives a real result.
    """
    if w.kind != "single":
        raise ValueError("apply_operator needs a single-operator weight rule")
    x = np.asarray(x)
    x = x.astype(np.result_type(x, float), copy=False)
    n_blocks, partial = divmod(x.shape[-1] - 1, spec.d) if x.ndim else (0, 0)
    if x.ndim not in (1, 2) or n_blocks < 1 or partial:
        raise ValueError(f"expected a head and whole blocks of {spec.d}, "
                         f"got shape {x.shape}")
    q = w.values(n_blocks) if weights is None else np.asarray(weights, float)
    if q.shape != (n_blocks,):
        raise ValueError(f"{q.shape} weights for {n_blocks} blocks")
    q = q[:, None]
    blocks = x[..., 1:].reshape(x.shape[:-1] + (n_blocks, spec.d))
    out = np.empty_like(x)
    # the head pairing sum_n q_n <1, x_n>, summed in block order (cumsum
    # adds one term at a time, as the pinned artifacts were summed)
    out[..., 0] = np.cumsum(q[:, 0] * blocks.sum(axis=-1), axis=-1)[..., -1]
    out[..., 1:] = ((1.0 - q) * spec.permute(blocks)
                    + x[..., :1, None] * q).reshape(x.shape[:-1] + (-1,))
    return out


# ---------------------------------------------------------------------------
# stochasticity property check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StochasticityReport:
    trials: int
    max_norm_defect: float      # worst relative | ||Tf|| - ||f|| |
    max_negativity: float       # worst entrywise negativity of T f


def stochasticity_check(spec: GroupUnionSpec, w: WeightSeq, trials: int = 50,
                        seed: int = 0) -> StochasticityReport:
    """Random-vector measurement of how far T is from preserving mass and
    positivity.

    Draws non-negative vectors on up to 12 blocks.  The l1 norm of T f is
    summed over its support and then over the closed-form tail
    f_0 q_n 1 until the tail's remaining mass |f_0| 2^-n is at most 1e-16;
    that remainder is added to the defect.  The tail's sign is that of
    Re f_0.  The pass/fail comparison is the caller's.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x510C]))
    d = spec.d
    worst_defect = 0.0
    worst_neg = 0.0
    for _ in range(trials):
        nblocks = int(rng.integers(1, 7))
        idx = [int(n) for n in
               rng.choice(np.arange(1, 13), size=nblocks, replace=False)]
        blocks = [rng.random(d) for _ in idx]
        head = complex(rng.random())
        depth = max(idx)
        f = np.zeros(1 + depth * d, dtype=complex)
        f[0] = head
        for n, b in zip(idx, blocks):
            f[1 + (n - 1) * d:1 + n * d] = b
        tf = apply_operator(spec, w, f)

        nf = abs(head)
        for b in blocks:                      # in the order drawn
            nf += float(np.abs(b).sum())
        ntf = abs(tf[0])
        for s in np.abs(tf[1:]).reshape(depth, d).sum(axis=1).tolist():
            ntf += s
        # the tail runs to the first block ``stop`` whose remainder
        # |f_0| 2^-stop is at most 1e-16; halving is exact, so with
        # |f_0| 2^-depth = f 2^e and 1e-16 = g 2^k (f, g in [1/2, 1)) that
        # is e - k blocks further, one more where f > g
        stop, rem = depth, abs(head) * w.tail_mass(depth)
        if rem > 1e-16:
            (f, e), (g, k) = math.frexp(rem), math.frexp(1e-16)
            stop += e - k + (f > g)
            rem = abs(head) * w.tail_mass(stop)
            # added one term at a time after the support mass
            tail = np.abs(head * w.values(stop)[depth:]) * d
            ntf = np.cumsum(np.concatenate(([ntf], tail)))[-1]
        worst_defect = max(worst_defect, abs(ntf - nf) / nf + rem / nf)

        neg = min(0.0, float(np.min(tf[1:].real)))
        neg = min(neg, min(0.0, tf[0].real))
        # the tail's largest coefficient is head * q_{depth+1}
        neg = min(neg, min(0.0, head.real * w.value(depth + 1)))
        worst_neg = min(worst_neg, neg)
    return StochasticityReport(trials, float(worst_defect), float(-worst_neg))
