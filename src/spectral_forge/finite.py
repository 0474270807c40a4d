"""Finite sections of the coupled operator and their full spectra.

Keeping the head and the first N blocks (dimension 1 + N*d) and
renormalising the weights so the column masses stay exactly one gives a
stochastic matrix T_N whose spectrum splits in closed form:

* block eigenvalues: each block n contributes the spectrum of (1-q_n)P
  restricted to the complement of the single all-ones direction that
  couples to the head.  That multiset is (1-q_n) * (union of the root
  groups minus one copy of 1), so it includes (1-q_n) itself with
  multiplicity (number of cyclic factors - 1).
* secular eigenvalues: the head chain contributes the N+1 roots of
  phi_N(lam) = 1 - (1/lam) sum_{n<=N} d q_n^2 / (lam - 1 + q_n).
  The chain is a real arrowhead matrix with positive off-diagonal
  products d q_n^2, so these roots are real and strictly interlace the
  poles 1 - q_n (Golub 1973; Bunch, Nielsen and Sorensen 1978).  They are
  found by bisection on the interlacing brackets in the distance
  x = 1 - lam (no dense eigensolver anywhere on this path; dense routines
  appear only in independent test oracles and ``verify``).

The determinant factorisation det(lam - T_N) =
lam * prod_n (lam - 1 + q_n) * phi_N(lam) * (block factors) underlies the
cofactor cross-check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import PoleHit, RootCountMismatch
from .model import GroupUnionSpec, WeightSeq, union_points

__all__ = [
    "FiniteOperator",
    "build_finite_section",
    "tarjan_scc",
    "strongly_connected",
    "secular_value",
    "EigRecord",
    "SpectrumResult",
    "finite_spectrum",
    "cofactor_det_batch",
    "factorization_crosscheck",
    "convergence_table",
]


# ---------------------------------------------------------------------------
# building the section
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteOperator:
    """Dense finite section with its construction data."""

    matrix: np.ndarray
    spec: GroupUnionSpec
    weights: WeightSeq
    n_blocks: int
    renormalized: bool
    tilde_q: np.ndarray       # the (possibly renormalised) weights used

    @property
    def dim(self) -> int:
        return 1 + self.n_blocks * self.spec.d

    def column_sums(self) -> np.ndarray:
        return self.matrix.sum(axis=0)


def _section_weights(w: WeightSeq, n_blocks: int,
                     renormalize: bool) -> np.ndarray:
    """q_1 .. q_N, scaled by 1/(1 - tail mass) when renormalising."""
    qs = w.values(n_blocks)
    if renormalize:
        qs = qs / w.partial_mass(n_blocks)
    return qs


def build_finite_section(spec: GroupUnionSpec, w: WeightSeq, n_blocks: int,
                         renormalize: bool = True) -> FiniteOperator:
    """Head plus blocks 1..n_blocks as a dense matrix.

    With ``renormalize`` the weights are scaled by 1/(1 - tail mass) so the
    head column sums to exactly one; block columns always do.  Without it
    the head column sums to the partial mass 1 - 2^-N.
    """
    if n_blocks < 1:
        raise ValueError("need at least one block")
    d = spec.d
    qs = _section_weights(w, n_blocks, renormalize)
    dim = 1 + n_blocks * d
    p = spec.permutation_matrix()
    a = np.zeros((dim, dim))
    for n in range(1, n_blocks + 1):
        q = qs[n - 1]
        sl = slice(1 + (n - 1) * d, 1 + n * d)
        a[sl, 0] = q                    # head feeds every block entry
        a[0, sl] = q                    # blocks feed the head
        a[sl, sl] = (1.0 - q) * p
    return FiniteOperator(a, spec, w, n_blocks, renormalize, qs)


# ---------------------------------------------------------------------------
# strong connectivity (Tarjan, iterative)
# ---------------------------------------------------------------------------

def tarjan_scc(adj: List[List[int]]) -> List[List[int]]:
    """Strongly connected components of a digraph given as adjacency lists."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    comps: List[List[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(adj[v])):
                u = adj[v][k]
                if index[u] == -1:
                    work[-1] = (v, k + 1)
                    work.append((u, 0))
                    advanced = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp.append(u)
                    if u == v:
                        break
                comps.append(comp)
    return comps


def strongly_connected(matrix: np.ndarray, tol: float = 0.0) -> bool:
    """True when the support digraph of ``matrix`` is one strongly
    connected component (entries with absolute value > tol are edges)."""
    m = np.abs(np.asarray(matrix)) > tol
    adj = [list(np.nonzero(m[:, j])[0]) for j in range(m.shape[0])]
    return len(tarjan_scc(adj)) == 1


# ---------------------------------------------------------------------------
# secular function
# ---------------------------------------------------------------------------

_POLE_GUARD = 1e-14


def secular_value(spec: GroupUnionSpec, w: WeightSeq, n_blocks: int,
                  lam: complex, renormalize: bool = True) -> complex:
    """phi_N(lam) = 1 - (1/lam) sum_n d q_n^2 / (lam - 1 + q_n).

    Zeros (with the poles at 0 and 1 - q_n known exactly) enumerate the
    head-chain eigenvalues of the finite section.  Raises PoleHit within
    1e-14 of a pole.
    """
    lam = complex(lam)
    qs = _section_weights(w, n_blocks, renormalize)
    if abs(lam) < _POLE_GUARD:
        raise PoleHit("lam is numerically at the pole 0")
    diffs = lam - (1.0 - qs)
    if np.any(np.abs(diffs) < _POLE_GUARD):
        raise PoleHit("lam is numerically at a chain pole 1 - q_n")
    return complex(1.0 - (spec.d * qs ** 2 / diffs).sum() / lam)


# ---------------------------------------------------------------------------
# interlacing root solve
# ---------------------------------------------------------------------------

def _brackets(d: int, qs: np.ndarray):
    """The N+1 interlacing brackets (lo, hi) in x = 1 - lam, ordered by
    ascending lam.

    The chain's poles sit at x = q_n.  Its largest column sum rho bounds
    |lam|, which closes the two outer brackets at x = 1 +- rho.
    """
    rho = max(qs.sum(), (d * qs + 1.0 - qs).max())
    return np.r_[qs, 1.0 - rho], np.r_[1.0 + rho, qs]


def secular_roots(spec: GroupUnionSpec, w: WeightSeq, n_blocks: int,
                  renormalize: bool = True) -> np.ndarray:
    """All N+1 zeros of the secular function, real and ascending.

    In x = 1 - lam the zeros solve g(x) = 1 - x - sum_n d q_n^2 / (q_n - x),
    which is strictly decreasing between neighbouring poles, so every
    bracket holds exactly one root.  All brackets are bisected at once until
    their ends are neighbouring floats; next to x = 0 a bracket also stops
    once it is narrower than eps times the smallest pole, which keeps the
    bisection out of the subnormals.
    """
    qs = _section_weights(w, n_blocks, renormalize)
    dq2 = spec.d * qs ** 2
    lo, hi = _brackets(spec.d, qs)
    start = lo.copy()
    floor = np.finfo(float).eps * qs.min()
    while True:
        mid = 0.5 * (lo + hi)
        live = np.nonzero((lo < mid) & (mid < hi) & (hi - lo > floor))[0]
        if live.size == 0:
            break
        m = mid[live]
        right = 1.0 - m - (dq2 / (qs - m[:, None])).sum(axis=1) > 0.0
        lo[live[right]] = m[right]
        hi[live[~right]] = m[~right]
    # a lower end that never moved may be a pole: take the upper one
    x = np.where(lo == start, hi, lo)
    return 1.0 - x


# ---------------------------------------------------------------------------
# full spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigRecord:
    value: complex
    kind: str                   # "block" | "secular"
    residual: float
    block_index: Optional[int] = None


@dataclass
class SpectrumResult:
    operator: FiniteOperator
    records: List[EigRecord] = field(default_factory=list)

    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.records])

    def __len__(self):
        return len(self.records)

    def max_residual(self) -> float:
        """Largest residual; NaN when any residual is NaN."""
        return float(np.max([r.residual for r in self.records]))


def _block_eig_vectors(spec: GroupUnionSpec):
    """Per-block eigenpairs of P orthogonal to the coupled direction.

    Yields (zeta, vector) with P v = zeta v and <1, v> = 0: the nontrivial
    Fourier modes of each cyclic factor plus, when there are several
    factors, the differences of their normalised fixed vectors (these carry
    the eigenvalue 1 with multiplicity factors-1).
    """
    d = spec.d
    for off, m in zip(spec.offsets, spec.orders):
        for j in range(1, m):
            zeta = cmath.exp(2j * math.pi * j / m)
            v = np.zeros(d, dtype=complex)
            for i in range(m):
                v[off + i] = zeta ** (-i) / m
            yield zeta, v
    offs, ords = spec.offsets, spec.orders
    for k in range(len(ords) - 1):
        v = np.zeros(d, dtype=complex)
        v[offs[k]:offs[k] + ords[k]] = 1.0 / ords[k]
        v[offs[k + 1]:offs[k + 1] + ords[k + 1]] = -1.0 / ords[k + 1]
        yield 1.0 + 0j, v / np.abs(v).sum()


def _block_residual(a: np.ndarray, n: int, v: np.ndarray,
                    lam: complex) -> float:
    """||a z - lam z||_1 / ||z||_1 for z equal to ``v`` on block n and 0
    elsewhere, from the block's columns of the assembled matrix only."""
    d = len(v)
    block = slice(1 + (n - 1) * d, 1 + n * d)
    r = a[:, block] @ v
    r[block] -= lam * v
    return float(np.abs(r).sum() / np.abs(v).sum())


def finite_spectrum(spec: GroupUnionSpec, w: WeightSeq, n_blocks: int,
                    renormalize: bool = True) -> SpectrumResult:
    """Complete eigenvalue list of the finite section.

    Block eigenvalues come with their closed-form eigenvectors; secular
    roots come from the interlacing solve and are re-expanded into head
    chain eigenvectors via the resolvent profile q_n/(q_n - x), x = 1 - lam.
    Every eigenpair is certified by its residual ||T v - lam v||_1 (v
    normalised) against the assembled matrix; the total count must equal the
    dimension.
    """
    op = build_finite_section(spec, w, n_blocks, renormalize)
    a = op.matrix
    d = spec.d
    qs = op.tilde_q
    records: List[EigRecord] = []

    def residual(vec, lam):
        nv = np.abs(vec).sum()
        return float(np.abs(a @ vec - lam * vec).sum() / nv)

    for n in range(1, n_blocks + 1):
        damp = 1.0 - qs[n - 1]
        for zeta, v in _block_eig_vectors(spec):
            lam = damp * zeta
            records.append(EigRecord(
                lam, "block", _block_residual(a, n, v, lam), n))

    lams = secular_roots(spec, w, n_blocks, renormalize)
    # x = 1 - lam lies strictly inside its bracket, but rounding lam can put
    # the recovered x on a pole; clamping keeps every coefficient finite
    lo, hi = _brackets(d, qs)
    xs = np.clip(1.0 - lams, np.nextafter(lo, hi), np.nextafter(hi, lo))
    for lam, x in zip(lams, xs):
        vec = np.concatenate(([1.0], np.repeat(qs / (qs - x), d)))
        records.append(EigRecord(complex(lam), "secular", residual(vec, lam)))

    if len(records) != op.dim:
        raise RootCountMismatch(
            f"{len(records)} eigenvalues for dimension {op.dim}")
    records.sort(key=lambda r: (round(math.atan2(r.value.imag,
                                                 r.value.real), 12),
                                abs(r.value)))
    return SpectrumResult(op, records)


# ---------------------------------------------------------------------------
# cofactor cross-check
# ---------------------------------------------------------------------------

def cofactor_det_batch(a: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """det(lam*I - a) for every lam, by first-row cofactor expansion.

    The expansion is memoised over column subsets (each subset paired with
    the same number of leading rows), which keeps the classical identity
    but runs in O(2^n * n) instead of factorial time.  The subsets are
    taken one popcount layer at a time: layer r+1 expands along row r, and
    for each column j, in ascending order, every subset of the layer that
    holds j gains the term (-1)^(r + set bits below j) * entry * minor in
    one array operation, so each subset sums its terms in the classical
    order.  Off-diagonal zeros of ``a`` are skipped, since a +-0 term
    leaves a finite sum unchanged.  Only two layers are stored, so memory
    is O(C(n, n/2) * len(lams)).  Intended for the small sections of the
    cross-check; refuses n > 18.
    """
    a = np.asarray(a)
    n = a.shape[0]
    if n > 18:
        raise ValueError("cofactor expansion limited to dimension 18")
    lams = np.asarray(lams, dtype=complex)
    bits = np.zeros(1 << n, dtype=np.int64)   # set bits of every subset
    for k in range(n):
        bits[1 << k:2 << k] = bits[:1 << k] + 1
    rank = np.zeros(1 << n, dtype=np.int64)   # index of a subset in its layer
    prev = np.ones((1, len(lams)), dtype=complex)   # the empty minor
    for r in range(n):
        masks = np.flatnonzero(bits == r + 1)
        rank[masks] = np.arange(len(masks))
        acc = np.zeros((len(masks), len(lams)), dtype=complex)
        for j in range(n):
            if j != r and a[r, j] == 0:
                continue
            pos = np.flatnonzero(masks & (1 << j))
            sub = masks[pos]
            sign = np.where((r + bits[sub & ((1 << j) - 1)]) % 2, -1.0, 1.0)
            if j == r:
                coef = sign[:, None] * (lams - a[r, j])
            else:
                coef = (sign * -a[r, j])[:, None]
            term = prev[rank[sub ^ (1 << j)]]
            np.multiply(coef, term, out=term)
            term += acc[pos]
            acc[pos] = term
        prev = acc
    return prev[0]


@dataclass(frozen=True)
class CrosscheckReport:
    n_blocks: int
    dim: int
    samples: int
    max_rel_error: float
    passed: bool


def factorization_crosscheck(spec: GroupUnionSpec, w: WeightSeq,
                             n_blocks: int, seed: int = 0,
                             tol: float = 1e-8) -> CrosscheckReport:
    """Polynomial identity test: eigenvalue multiset vs characteristic
    polynomial.

    Samples 2 * dim random points in the disk of radius 2 and compares the
    cofactor determinant of (lam - T_N) with the product over the computed
    spectrum.  Agreement at dim+1 or more points pins the monic polynomial,
    so matching at 2*dim points to ``tol`` certifies the multiset.
    """
    result = finite_spectrum(spec, w, n_blocks)
    a = result.operator.matrix
    dim = result.operator.dim
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xFAC7]))
    zs = 2.0 * (rng.random(2 * dim) + 1j * rng.random(2 * dim)) - (1 + 1j)
    lams = 2.0 * zs / np.maximum(1.0, np.abs(zs))   # clamp into |z| <= 2
    dets = cofactor_det_batch(a, lams)
    prods = np.prod(lams[:, None] - result.values()[None, :], axis=1)
    scale = np.maximum(1.0, np.maximum(np.abs(dets), np.abs(prods)))
    err = float(np.max(np.abs(dets - prods) / scale))
    return CrosscheckReport(n_blocks, dim, len(lams), err, err <= tol)


# ---------------------------------------------------------------------------
# convergence of the sections toward the target set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    n_blocks: int
    angle: object               # Fraction of a full turn
    distance: float
    bound: float                # 2 * tilde_q_N
    ok: bool


def convergence_table(spec: GroupUnionSpec, w: WeightSeq,
                      n_max: int) -> List[ConvergenceRow]:
    """dist(u, sigma(T_N)) for every target point u and N <= n_max.

    The bound 2 * tilde_q_N comes from the damped block eigenvalue next to
    u (u != 1) and from the exact secular root at 1.
    """
    rows = []
    for n_blocks in range(1, n_max + 1):
        result = finite_spectrum(spec, w, n_blocks)
        vals = result.values()
        tq = float(result.operator.tilde_q[-1])
        for angle in union_points(spec):
            u = cmath.exp(2j * math.pi * float(angle))
            dist = float(np.min(np.abs(vals - u)))
            bound = 2.0 * tq
            rows.append(ConvergenceRow(n_blocks, angle, dist, bound,
                                       dist <= bound + 1e-12))
    return rows
