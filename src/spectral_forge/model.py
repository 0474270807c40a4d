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
the weight rule (``dyadic_weights``, its unit d here and 2 pi for the
semigroup), the default truncation depth (``DEFAULT_DEPTH``) and the
forward map ``apply_operator`` on finite-support vectors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

__all__ = [
    "GroupUnionSpec",
    "DEFAULT_DEPTH",
    "dyadic_weights",
    "union_points",
    "union_values",
    "apply_operator",
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

DEFAULT_DEPTH = 40


def dyadic_weights(depth: int, unit: float) -> np.ndarray:
    """The coupling weights q_1 .. q_depth, q_n = 2^-n / unit.

    The discrete operator's unit is d, the semigroup's 2 pi: the masses
    unit * q_n = 2^-n then satisfy sum_{n>N} unit * q_n = 2^-N exactly,
    also in floating point, and sum_{n<=N} unit * q_n = 1 - 2^-N.  A single
    q_n is the same float as ``2.0 ** -n / unit``.
    """
    return np.ldexp(1.0, -np.arange(1, depth + 1)) / unit


# ---------------------------------------------------------------------------
# forward operator
# ---------------------------------------------------------------------------

def apply_operator(spec: GroupUnionSpec, x: np.ndarray,
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
    x = np.asarray(x)
    x = x.astype(np.result_type(x, float), copy=False)
    n_blocks, partial = divmod(x.shape[-1] - 1, spec.d) if x.ndim else (0, 0)
    if x.ndim not in (1, 2) or n_blocks < 1 or partial:
        raise ValueError(f"expected a head and whole blocks of {spec.d}, "
                         f"got shape {x.shape}")
    q = (dyadic_weights(n_blocks, spec.d) if weights is None
         else np.asarray(weights, float))
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
