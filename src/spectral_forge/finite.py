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
  x = 1 - lam (no dense eigensolver anywhere on this path).  One loop,
  ``_bisect``, bisects brackets of any number of sections together:
  ``secular_roots`` hands it every bracket of one section.

``finite_spectrum`` assembles no section: the section is its weights
(``FiniteSection``), each eigenpair's residual comes from the one block its
vector touches or from the flat forward map ``model.apply_operator``, and
column sums and connectivity come in closed form and from the sparse
pattern, so ``eigs`` costs O(N d) memory and time per eigenvector.
``verify`` checks the spectrum against the closed form det(lam - T_N) =
lam phi_N(lam) prod_n prod_k (lam^m_k - (1 - q_n)^m_k), m_k the cyclic
orders; the dense section and the cofactor determinant are test oracles.

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

from .errors import RootCountMismatch
from .model import GroupUnionSpec, WeightSeq, apply_operator, union_points

__all__ = [
    "FiniteSection",
    "secular_roots",
    "section_limit",
    "EigRecord",
    "SpectrumResult",
    "finite_spectrum",
    "convergence_table",
]


# ---------------------------------------------------------------------------
# the section
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteSection:
    """Head plus blocks 1..N of the operator, described by its weights and
    never assembled; the layout is that of ``model.apply_operator``."""

    spec: GroupUnionSpec
    weights: WeightSeq
    n_blocks: int
    renormalized: bool
    tilde_q: np.ndarray       # the (possibly renormalised) weights used

    @classmethod
    def of(cls, spec: GroupUnionSpec, w: WeightSeq, n_blocks: int,
           renormalize: bool = True) -> "FiniteSection":
        """The section of ``n_blocks`` blocks, its weights q_1 .. q_N scaled
        by 1/(1 - tail mass) when renormalising."""
        if n_blocks < 1:
            raise ValueError("need at least one block")
        qs = w.values(n_blocks)
        if renormalize:
            qs = qs / w.partial_mass(n_blocks)
        return cls(spec, w, n_blocks, renormalize, qs)

    @property
    def dim(self) -> int:
        return 1 + self.n_blocks * self.spec.d

    def column_sums(self) -> np.ndarray:
        """Column sums in closed form, bit for bit those of the assembled
        matrix: down the head column the q~_n of every block entry add one
        at a time, and block column j of block n holds q~_n in the head row
        and 1 - q~_n in one row of its block."""
        qs = np.repeat(self.tilde_q, self.spec.d)
        return np.r_[np.cumsum(qs)[-1], qs + (1.0 - qs)]

    def strongly_connected(self) -> bool:
        """Strong connectivity of the section's sparse pattern: the head
        and each block entry feed each other where q~_n != 0, and P moves
        each block entry into the next of its cycle where 1 - q~_n != 0.
        Vertex 0 must reach every vertex along the edges and against them;
        each step of the search is one pass over the O(dim) edges, and in
        a coupled section every vertex is one edge from 0 both ways."""
        d, q = self.spec.d, np.repeat(self.tilde_q, self.spec.d)
        first = 1 + d * np.arange(self.n_blocks)[:, None]
        entry = (first + np.arange(d)).ravel()
        source = (first + self.spec.gather).ravel()
        fed, moved = entry[q != 0.0], (1.0 - q) != 0.0
        src = np.r_[np.zeros_like(fed), fed, source[moved]]
        dst = np.r_[fed, np.zeros_like(fed), entry[moved]]
        for a, b in ((src, dst), (dst, src)):
            seen = np.arange(self.dim) == 0
            frontier = seen.copy()
            while frontier.any():
                reached = np.zeros_like(seen)
                reached[b[frontier[a]]] = True
                frontier = reached & ~seen
                seen |= frontier
            if not seen.all():
                return False
        return True


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
    qs = FiniteSection.of(spec, w, n_blocks, renormalize).tilde_q
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
    section: FiniteSection
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

    Returns the eigenvalues zeta, in the order of ``_block_zetas``, and the
    vectors v as the rows of a (count, d) array, with P v = zeta v and
    <1, v> = 0: the nontrivial Fourier modes of each cyclic factor plus,
    when there are several factors, the differences of their normalised
    fixed vectors (these carry the eigenvalue 1 with multiplicity
    factors-1).
    """
    offs, ords = spec.offsets, spec.orders
    zetas = list(_block_zetas(spec))
    vs = np.zeros((len(zetas), spec.d), dtype=complex)
    row = 0
    for off, m in zip(offs, ords):
        for _ in range(1, m):
            for i in range(m):
                vs[row, off + i] = zetas[row] ** (-i) / m
            row += 1
    for k in range(len(ords) - 1):
        v = vs[row]
        v[offs[k]:offs[k] + ords[k]] = 1.0 / ords[k]
        v[offs[k + 1]:offs[k + 1] + ords[k + 1]] = -1.0 / ords[k + 1]
        v /= np.abs(v).sum()
        row += 1
    return np.array(zetas, dtype=complex), vs


# secular eigenvectors per call of the forward map in ``finite_spectrum``;
# each call's buffers are a few times this many rows of the section
_RESIDUAL_ROWS = 32


def finite_spectrum(spec: GroupUnionSpec, w: WeightSeq, n_blocks: int,
                    renormalize: bool = True) -> SpectrumResult:
    """Complete eigenvalue list of the finite section.

    Block eigenvalues come with their closed-form eigenvectors; secular
    roots come from the interlacing solve and are re-expanded into head
    chain eigenvectors via the resolvent profile q_n/(q_n - x), x = 1 - lam.
    Every eigenpair is certified by its residual ||T v - lam v||_1 / ||v||_1,
    and the total count must equal the dimension.  No section is
    assembled, so memory and time are O(N d) per eigenvector:
    * a block eigenvector v on block n alone has image q~_n <1, v> at the
      head and (1 - q~_n) P v on block n, so its residual is
      |q~_n <1, v>| + ||(1 - q~_n) P v - lam v||_1 over ||v||_1, all blocks
      at once;
    * the secular eigenvectors go through ``model.apply_operator`` with
      the section's weights q~, ``_RESIDUAL_ROWS`` of them a call.
    """
    d = spec.d
    section = FiniteSection.of(spec, w, n_blocks, renormalize)
    qs = section.tilde_q

    zetas, vs = _block_eig_vectors(spec)
    damp = (1.0 - qs)[:, None]
    block_lams = damp * zetas
    r = damp[..., None] * spec.permute(vs) - block_lams[..., None] * vs
    head = np.abs(qs[:, None] * vs.sum(axis=1))
    block_res = (head + np.abs(r).sum(axis=2)) / np.abs(vs).sum(axis=1)
    records = [EigRecord(lam, "block", res, n)
               for n, lams, ress in zip(range(1, n_blocks + 1),
                                        block_lams.tolist(),
                                        block_res.tolist())
               for lam, res in zip(lams, ress)]

    lams = secular_roots(spec, w, n_blocks, renormalize)
    # x = 1 - lam lies strictly inside its bracket, but rounding lam can put
    # the recovered x on a pole; clamping keeps every coefficient finite
    lo, hi = _brackets(d, qs)
    xs = np.clip(1.0 - lams, np.nextafter(lo, hi), np.nextafter(hi, lo))
    for i in range(0, lams.size, _RESIDUAL_ROWS):
        lam = lams[i:i + _RESIDUAL_ROWS, None]
        vecs = np.ones((lam.size, section.dim))
        vecs[:, 1:] = np.repeat(qs / (qs - xs[i:i + _RESIDUAL_ROWS, None]),
                                d, axis=1)
        r = apply_operator(spec, w, vecs, qs) - lam * vecs
        res = np.abs(r).sum(axis=1) / np.abs(vecs).sum(axis=1)
        records.extend(EigRecord(complex(v), "secular", e)
                       for v, e in zip(lam[:, 0].tolist(), res.tolist()))

    if len(records) != section.dim:
        raise RootCountMismatch(
            f"{len(records)} eigenvalues for dimension {section.dim}")
    records.sort(key=lambda r: (round(math.atan2(r.value.imag,
                                                 r.value.real), 12),
                                abs(r.value)))
    return SpectrumResult(section, records)


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
