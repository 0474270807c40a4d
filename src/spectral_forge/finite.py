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
  appear only in independent test oracles and ``verify``).  One loop,
  ``_bisect``, bisects brackets of any number of sections together:
  ``secular_roots`` hands it every bracket of one section.

The determinant factorisation det(lam - T_N) =
lam * prod_n (lam - 1 + q_n) * phi_N(lam) * (block factors) underlies the
cofactor cross-check.

``convergence_table`` needs only the eigenvalue nearest to each target
point u, for every N up to n_max, so it assembles no section: the block
eigenvalues give each target's nearest block distance in closed form, and
only the brackets whose lam-interval comes that close to some u are
bisected, those of all sections in one loop.  Where no block eigenvalue is
near u, the bracket nearest Re u is bisected first, and its root prunes
the rest.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .errors import PoleHit, RootCountMismatch
from .model import GroupUnionSpec, WeightSeq, union_points

__all__ = [
    "FiniteOperator",
    "build_finite_section",
    "strongly_connected",
    "secular_value",
    "secular_roots",
    "section_limit",
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
# strong connectivity
# ---------------------------------------------------------------------------

def strongly_connected(matrix: np.ndarray, tol: float = 0.0) -> bool:
    """True when the support digraph of ``matrix`` is strongly connected
    (entries with absolute value > tol are edges, column to row): vertex 0
    reaches every vertex both along the edges and against them.  Each
    vertex joins the frontier once, so the search is O(n^2)."""
    m = np.abs(np.asarray(matrix)) > tol
    for edges in (m, m.T):
        seen = np.arange(m.shape[0]) == 0
        frontier = seen.copy()
        while frontier.any():
            frontier = edges[:, frontier].any(axis=1) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


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

_EPS = float(np.finfo(float).eps)


def _brackets(d: int, qs: np.ndarray):
    """The N+1 interlacing brackets (lo, hi) in x = 1 - lam, ordered by
    ascending lam.

    The chain's poles sit at x = q_n.  Its largest column sum rho bounds
    |lam|, which closes the two outer brackets at x = 1 +- rho.
    """
    rho = max(qs.sum(), (d * qs + 1.0 - qs).max())
    return np.r_[qs, 1.0 - rho], np.r_[1.0 + rho, qs]


# cells of one gathered block of secular terms in ``_bisect``
_RUN_CELLS = 1 << 16


def _runs(groups):
    """Consecutive groups (first row, end row, N) as runs (first row, end
    row, width, groups) of at most ``_RUN_CELLS`` cells, rows times the
    largest N, unless one group alone is larger."""
    runs, run = [], []
    for g in groups:
        if run and (g[1] - run[0][0]) * max(g[2], width) > _RUN_CELLS:
            runs.append((run[0][0], run[-1][1], width, run))
            run = []
        width = max(g[2], width) if run else g[2]
        run.append(g)
    return runs + [(run[0][0], run[-1][1], width, run)]


def _bisect(d: int, sections: Sequence[np.ndarray], sec: np.ndarray,
            lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The secular root lam = 1 - x in each bracket (lo, hi), for brackets
    of several sections at once.

    ``sections[k]`` holds the weights q_1 .. q_N of section k and ``sec``
    the section of each bracket, in ascending order.  In x = 1 - lam the
    zeros solve g(x) = 1 - x - sum_n d q_n^2 / (q_n - x), which is strictly
    decreasing between neighbouring poles, so every bracket holds exactly
    one root.  All brackets are bisected together.  A bracket stops when
    its ends are neighbouring floats; next to x = 0 also once it is
    narrower than eps times its section's smallest pole, which keeps the
    bisection out of the subnormals; and as soon as both ends give the same
    lam = 1 - x, because 1 - x rounds monotonically, so every later
    midpoint and the root returned round to that same lam.

    Each midpoint's sum runs over exactly the N terms of its own section:
    the live rows of one section are reduced as one (rows, N) block, and a
    row's sum does not depend on how many rows share the block.  So a root
    does not depend on which other brackets are bisected with it.  (Padding
    shorter sections with zero terms would change NumPy's pairwise
    summation, and with it some roots.)
    """
    sizes = [len(q) for q in sections]
    # padded columns hold 0 / inf = 0 and are never summed
    poles = np.full((len(sections), max(sizes)), np.inf)
    dq2 = np.zeros_like(poles)
    for k, q in enumerate(sections):
        poles[k, :sizes[k]] = q
        dq2[k, :sizes[k]] = d * q ** 2
    start = lo.copy()
    # the live brackets: their indices, ends, floors and sections
    act = np.arange(lo.size)
    a, b, floor, s = lo, hi, _EPS * poles.min(axis=1)[sec], sec
    runs = None
    while True:
        mid = 0.5 * (a + b)
        live = (a < mid) & (mid < b)
        live &= b - a > floor
        live &= 1.0 - a != 1.0 - b
        # the first pass copies the ends, so the updates below never write
        # into lo and hi; the groups change only when a bracket stops
        if runs is None or not live.all():
            lo[act], hi[act] = a, b
            act, a, b, mid, floor, s = (v[live] for v in
                                        (act, a, b, mid, floor, s))
            if act.size == 0:
                break
            cuts = [0, *(np.flatnonzero(s[1:] != s[:-1]) + 1).tolist(),
                    s.size]
            runs = _runs([(i, j, sizes[s[i]]) for i, j in zip(cuts, cuts[1:])])
        total = np.empty_like(mid)
        for i0, j1, width, run in runs:
            # one gathered (rows, width) block per run; a run of one
            # section, as in every ``secular_roots`` call, needs no gather
            r = s[i0] if len(run) == 1 else s[i0:j1]
            terms = dq2[r, :width] / (poles[r, :width] - mid[i0:j1, None])
            for i, j, n in run:
                np.add.reduce(terms[i - i0:j - i0, :n], axis=1,
                              out=total[i:j])
        right = 1.0 - mid - total > 0.0
        np.copyto(a, mid, where=right)
        np.copyto(b, mid, where=~right)
    # a lower end that never moved may be a pole: take the upper one
    x = np.where(lo == start, hi, lo)
    return 1.0 - x


def secular_roots(spec: GroupUnionSpec, w: WeightSeq, n_blocks: int,
                  renormalize: bool = True) -> np.ndarray:
    """All N+1 zeros of the secular function, real and ascending: the
    bisection of every interlacing bracket of the one section."""
    qs = _section_weights(w, n_blocks, renormalize)
    lo, hi = _brackets(spec.d, qs)
    return _bisect(spec.d, [qs], np.zeros(lo.size, dtype=np.intp), lo, hi)


def section_limit(w: WeightSeq, renormalize: bool = True) -> int:
    """Largest section size N whose bisection floor eps * q~_N, with q~_N
    the section's last and smallest weight, is still a normal float."""
    def normal(n):
        q = w.value(n) / w.partial_mass(n) if renormalize else w.value(n)
        return _EPS * q >= np.finfo(float).tiny

    good, bad = 0, 1
    while normal(bad):
        good, bad = bad, 2 * bad
    while bad - good > 1:
        mid = (good + bad) // 2
        good, bad = (mid, bad) if normal(mid) else (good, mid)
    return good


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


def _block_zetas(spec: GroupUnionSpec):
    """Eigenvalues of P on the complement of the coupled direction: the
    nontrivial roots of each cyclic factor, then 1 once for each factor
    after the first."""
    for m in spec.orders:
        for j in range(1, m):
            yield cmath.exp(2j * math.pi * j / m)
    for _ in spec.orders[1:]:
        yield 1.0 + 0j


def _block_eig_vectors(spec: GroupUnionSpec):
    """Per-block eigenpairs of P orthogonal to the coupled direction.

    Yields (zeta, vector) with P v = zeta v and <1, v> = 0, in the order of
    ``_block_zetas``: the nontrivial Fourier modes of each cyclic factor
    plus, when there are several factors, the differences of their
    normalised fixed vectors (these carry the eigenvalue 1 with
    multiplicity factors-1).
    """
    d = spec.d
    offs, ords = spec.offsets, spec.orders
    zetas = _block_zetas(spec)
    for off, m in zip(offs, ords):
        for _ in range(1, m):
            zeta = next(zetas)
            v = np.zeros(d, dtype=complex)
            for i in range(m):
                v[off + i] = zeta ** (-i) / m
            yield zeta, v
    for k in range(len(ords) - 1):
        v = np.zeros(d, dtype=complex)
        v[offs[k]:offs[k] + ords[k]] = 1.0 / ords[k]
        v[offs[k + 1]:offs[k + 1] + ords[k + 1]] = -1.0 / ords[k + 1]
        yield next(zetas), v / np.abs(v).sum()


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

# odd parity of every 9-bit value: two lookups cover any subset of n <= 18
_PARITY9 = np.array([bin(v).count("1") % 2 for v in range(512)], dtype=bool)


def _odd_parity(x: np.ndarray) -> np.ndarray:
    """True where the subset mask x (below 2^18) has an odd number of set
    bits."""
    return _PARITY9[x & 511] ^ _PARITY9[x >> 9]


def cofactor_det_batch(a: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """det(lam*I - a) for every lam, by first-row cofactor expansion.

    The expansion is memoised over column subsets (each subset paired with
    the same number of leading rows), which keeps the classical identity
    but costs at most O(2^n * n) terms instead of factorial time.  The
    subsets are taken one popcount layer at a time: layer r+1 expands along
    row r, and for each column j, in ascending order, every subset of the
    layer that holds j gains the term (-1)^(r + set bits below j) * entry *
    minor in one array operation, so each subset sums its terms in the
    classical order.

    Only structurally nonzero minors are carried: the column subsets that
    rows 0..r can fill with a perfect matching in the pattern of
    lam*I - a, where row r reaches column r and the columns of its nonzero
    off-diagonal entries.  Layer r+1 is every subset of layer r plus one
    column that row r reaches, kept sorted, and each term finds its place
    in it by ``searchsorted``.  Every term left out is +-0 for finite input:
    its entry is an off-diagonal zero, or by induction its smaller minor
    is a subset no matching fills, whose expansion holds only +-0 terms and
    so sums to +0.  A +-0 term leaves a sum that starts at +0 unchanged, so
    the determinants are bit for bit those of the full expansion over all
    2^n subsets.  Only two layers are stored, so memory is O(largest
    reachable layer * len(lams)).  A dense ``a`` still reaches every one of
    the 2^n subsets, so the expansion refuses n > 18 whatever the pattern;
    it is intended for the small sections of the cross-check.
    """
    a = np.asarray(a)
    n = a.shape[0]
    if n > 18:
        raise ValueError("cofactor expansion limited to dimension 18")
    lams = np.asarray(lams, dtype=complex)
    masks = np.zeros(1, dtype=np.int64)             # the empty subset ...
    prev = np.ones((1, len(lams)), dtype=complex)   # ... and its minor
    for r in range(n):
        cols = [j for j in range(n) if j == r or a[r, j] != 0]
        free = [np.flatnonzero((masks & (1 << j)) == 0) for j in cols]
        grown = [masks[f] | (1 << j) for f, j in zip(free, cols)]
        layer = np.unique(np.concatenate(grown))
        acc = np.zeros((len(layer), len(lams)), dtype=complex)
        for j, f, sub in zip(cols, free, grown):
            pos = np.searchsorted(layer, sub)
            odd = _odd_parity(sub & ((1 << j) - 1)) ^ bool(r % 2)
            sign = np.where(odd, -1.0, 1.0)
            if j == r:
                coef = sign[:, None] * (lams - a[r, j])
            else:
                coef = (sign * -a[r, j])[:, None]
            term = prev[f]
            np.multiply(coef, term, out=term)
            term += acc[pos]
            acc[pos] = term
        masks, prev = layer, acc
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
    tolerance: float            # rounding tolerance tau_N of the distance

    @property
    def resolved(self) -> bool:
        """False when rounding alone could move the distance by the whole
        bound, so that the check below could not tell a right distance from
        a wrong one."""
        return self.bound > self.tolerance

    @property
    def ok(self) -> bool:
        return self.distance <= self.bound + self.tolerance


# relative slack on the nearest block distance when pruning brackets
_PRUNE_MARGIN = 2.0 ** -48


def _gaps(a: np.ndarray, b: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Real gap from Re us[k] to each lam-interval [a, b], brackets by
    targets (0 where the interval holds Re u)."""
    re = us.real
    return np.maximum(np.maximum(a[:, None] - re, re - b[:, None]), 0.0)


def _kept_brackets(a: np.ndarray, b: np.ndarray, us: np.ndarray,
                   near: np.ndarray) -> np.ndarray:
    """Brackets whose lam-interval [a, b] may hold a root strictly nearer
    to some target us[k] than ``near[k]``, the distance of an eigenvalue
    already found (a root no nearer leaves the minimum as it is).

    The distance from u to [a, b] is formed with the operations that form a
    root's distance: the real gap from Re u to the nearer end and the
    complex modulus with Im u.
    """
    to_interval = np.abs(_gaps(a, b, us) + 1j * us.imag)
    return (to_interval < near * (1.0 + _PRUNE_MARGIN)).any(axis=1)


def _first_brackets(a: np.ndarray, b: np.ndarray, us: np.ndarray,
                    near: np.ndarray) -> np.ndarray:
    """For each target us[k] whose nearest block eigenvalue, at distance
    ``near[k]``, is farther than both ends of the bracket nearest Re u:
    that bracket, whose root is then nearer than every block eigenvalue.
    Bisected first, it gives the other brackets a tighter distance to be
    pruned with.  The choice moves only the count of brackets bisected,
    never a distance.
    """
    idx = _gaps(a, b, us).argmin(axis=0)
    far = np.maximum(np.abs(a[idx] - us), np.abs(b[idx] - us))
    first = np.zeros(a.size, dtype=bool)
    first[idx[far < near]] = True
    return first


def convergence_table(spec: GroupUnionSpec, w: WeightSeq,
                      n_max: int) -> List[ConvergenceRow]:
    """dist(u, sigma(T_N)) for every target point u and N <= n_max.

    The bound 2 * tilde_q_N comes from the damped block eigenvalue
    (1 - tilde_q_N) u next to u (u != 1) and from the secular root at 1.

    Computed without assembling any section.  The block eigenvalues of T_N
    are (1 - tilde_q_n) zeta, n <= N, in closed form, which gives each
    target's nearest block distance.  The secular roots are real, one in
    each interlacing bracket, and a root in [a, b] is no nearer to u than
    the interval is.  Where no block eigenvalue comes as near to u as the
    far end of the bracket nearest Re u (orders 1 and 2 at u = 1), that
    bracket is bisected first (``_first_brackets``), and its root's distance
    joins the block distances.  Any other bracket is bisected only if its
    interval comes nearer to some target than the nearest distance found so
    far times 1 + 2^-48.  The margin is safe: for any lam in [a, b] the
    rounded lam - Re u is at least the rounded gap, since rounding is
    monotone, so only the complex modulus can make a pruned root's computed
    distance smaller than the interval's; NumPy's modulus is within 2 ulps
    of the exact one (1.9 at most on 80 000 samples against 200-bit
    arithmetic), and 2^-48 = 16 eps covers up to 7 ulps on either side.
    The first brackets of all sections are bisected together
    (``_bisect``), then the kept ones; a root does not depend on its batch,
    so every distance, the minimum over the block eigenvalues and the
    bisected roots, equals bit for bit the minimum over the whole spectrum
    that ``finite_spectrum`` lists.

    Each row carries a tolerance tau_N = (2N + 32) eps, with eps = 2^-52,
    and passes when distance <= bound + tau_N.  tau_N bounds the error of
    the computed distance to the witness eigenvalue v, |v - u| <= tilde_q_N:
    * a block witness: u and zeta are ``cmath.exp`` of an angle formed with
      three roundings (pi, the quotient j/m, the product), each within
      11 eps of the exact point; 1 - tilde_q and the products add 1.5 eps,
      the differences eps, the modulus (2 ulps of a value below 2) 2 eps:
      26.5 eps in all;
    * the secular root at 1: the bisection ends where the computed g
      changes sign, and g falls with slope <= -1, so the root found is
      within delta of the exact one, with delta the error of g near x = 0:
      N positive terms, each at most 2 d q_n and four roundings off, plus
      two subtractions, (N + 5.5) eps; the exact root lies within 1.5 eps
      of x = 0 (d * sum tilde_q_n = 1 up to two roundings per weight), and
      lam = 1 - x rounds once more: (N + 8) eps.
    Both are below tau_N.  A row whose bound is at most tau_N is not
    resolved (``ConvergenceRow.resolved``): rounding alone may then move the
    distance by as much as the bound.  For a resolved row tilde_q_N >
    (N + 16) eps, which also keeps the computed g of the bisection's last
    ends within the bound used above.
    """
    if n_max < 1:
        raise ValueError("need at least one block")
    angles = union_points(spec)
    us = np.array([cmath.exp(2j * math.pi * float(a)) for a in angles])
    zetas = np.array(list(_block_zetas(spec)), dtype=complex)
    q_all = w.values(n_max)
    sections, brackets, nearest = [], [], []
    for n_blocks in range(1, n_max + 1):
        qs = q_all[:n_blocks] / w.partial_mass(n_blocks)
        blocks = ((1.0 - qs)[:, None] * zetas).ravel()
        sections.append(qs)
        brackets.append(_brackets(spec.d, qs))
        nearest.append(np.abs(blocks[:, None] - us).min(axis=0,
                                                        initial=np.inf))
    dist = np.array(nearest)

    def bisect(masks):
        """Bisect the masked brackets of every section together and fold
        their roots' distances into ``dist``."""
        sec = np.concatenate([np.full(m.sum(), k)
                              for k, m in enumerate(masks)])
        ends = [np.concatenate([b[m] for b, m in zip(side, masks)])
                for side in zip(*brackets)]
        roots = _bisect(spec.d, sections, sec, *ends)
        np.minimum.at(dist, sec, np.abs(roots.astype(complex)[:, None] - us))

    first = [_first_brackets(1.0 - b_hi, 1.0 - b_lo, us, near)
             for (b_lo, b_hi), near in zip(brackets, nearest)]
    if any(m.any() for m in first):
        bisect(first)
    bisect([_kept_brackets(1.0 - b_hi, 1.0 - b_lo, us, near) & ~m
            for (b_lo, b_hi), near, m in zip(brackets, dist, first)])

    rows = []
    for n_blocks, qs, row in zip(range(1, n_max + 1), sections,
                                 dist.tolist()):
        bound = 2.0 * float(qs[-1])
        tol = (2 * n_blocks + 32) * _EPS
        rows.extend(ConvergenceRow(n_blocks, angle, distance, bound, tol)
                    for angle, distance in zip(angles, row))
    return rows
