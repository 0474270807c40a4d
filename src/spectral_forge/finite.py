"""Finite sections of the coupled operator and their full spectra.

Keeping the head and the first N blocks (dimension 1 + N*d) and
renormalising the weights q_n = 2^-n / d by the partial mass 1 - 2^-N, so
the column masses stay exactly one, gives a stochastic matrix T_N whose
spectrum splits in closed form:

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
(``FiniteSection.tilde_q``), which ``secular_roots`` and
``finite_spectrum`` take as they are, so a control can hand them other
weights.  Each eigenpair's residual comes from the one block its vector
touches or from the flat forward map ``model.apply_operator``, and column
sums and connectivity come in closed form, so ``eigs`` costs O(N d)
memory and time per eigenvector.
``verify`` checks the spectrum against the closed form det(lam - T_N) =
lam phi_N(lam) prod_n prod_k (lam^m_k - (1 - q_n)^m_k), m_k the cyclic
orders; the dense section and the cofactor determinant are test oracles.

``convergence_table`` needs only the eigenvalue nearest to each target
point u, for every N up to n_max, so it assembles no section: the block
eigenvalues give each target's nearest block distance in closed form.
The secular roots are real and ascending, one per bracket, so the root
nearest u lies in the bracket whose lam-interval holds Re u or in one of
its two neighbours.  Only those are bisected, and only for a target whose
|Im u| is below its nearest block distance, those of all sections in one
loop.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import RootCountMismatch
from .model import (GroupUnionSpec, apply_operator, dyadic_weights,
                    union_points, union_values)

__all__ = [
    "FiniteSection",
    "secular_roots",
    "section_limit",
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
    n_blocks: int
    renormalized: bool
    tilde_q: np.ndarray       # the (possibly renormalised) weights used

    @classmethod
    def of(cls, spec: GroupUnionSpec, n_blocks: int,
           renormalize: bool = True) -> "FiniteSection":
        """The section of ``n_blocks`` blocks, its weights q_1 .. q_N scaled
        by 1/(1 - 2^-N), one over the partial mass, when renormalising."""
        if n_blocks < 1:
            raise ValueError("need at least one block")
        qs = dyadic_weights(n_blocks, spec.d)
        if renormalize:
            qs = qs / (1.0 - 2.0 ** -n_blocks)
        return cls(spec, n_blocks, renormalize, qs)

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
        """Strong connectivity of the section's sparse pattern, in closed
        form: connected exactly when every q~_n is nonzero.

        The head and each entry of block n feed each other, both ways,
        exactly where q~_n != 0; every other edge is P's, from a block
        entry to the next of its cycle inside the same block.  So if every
        q~_n != 0, every vertex is one edge from the head both ways.  If
        some q~_n == 0, no edge enters block n from outside it (P's cycles
        stay inside the block), so the head never reaches it.  q~_n = 1
        removes P's edges from block n but not its head edges."""
        return bool(np.all(self.tilde_q != 0.0))


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


def secular_roots(section: FiniteSection) -> np.ndarray:
    """All N+1 zeros of the section's secular function, real and
    ascending: the bisection of every interlacing bracket."""
    d, qs = section.spec.d, section.tilde_q
    lo, hi = _brackets(d, qs)
    return _bisect(d, [qs], np.zeros(lo.size, dtype=np.intp), lo, hi)


def section_limit(spec: GroupUnionSpec, renormalize: bool = True) -> int:
    """Largest section size N whose bisection floor eps * q~_N, with q~_N
    the section's last and smallest weight, is still a normal float."""
    def normal(n):
        q = FiniteSection.of(spec, n, renormalize).tilde_q[-1]
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
class SpectrumResult:
    """Every eigenvalue of a section, in ascending angle then modulus, with
    the residual ||T v - lam v||_1 / ||v||_1 of its eigenpair and the block
    n >= 1 of a block eigenvalue, 0 for a secular root."""

    section: FiniteSection
    values: np.ndarray          # complex
    residuals: np.ndarray       # float
    blocks: np.ndarray          # int

    def __len__(self):
        return self.values.size

    @property
    def records(self) -> np.recarray:
        """Rows (value, residual, block), for readers taking one at a time."""
        return np.rec.fromarrays([self.values, self.residuals, self.blocks],
                                 names="value,residual,block")

    def max_residual(self) -> float:
        """Largest residual; NaN when any residual is NaN."""
        return float(np.max(self.residuals))

    def peripheral(self) -> np.ndarray:
        """The values of largest modulus, in ``values`` order: the Perron
        root, the largest secular root, alone, since every q~_n > 0 makes the
        section irreducible and a q~_n < 1 aperiodic (cycles of lengths 2 and
        3 through the head, or an order-1 self-loop; Seneta 2006, ch. 1).
        With every q~_n = 1 it has period 2, and -rho, the smallest, joins."""
        roots = np.flatnonzero(self.blocks == 0)
        real = self.values.real[roots]
        ends = [real.argmax()]
        if np.all(self.section.tilde_q == 1.0):
            ends.append(real.argmin())
        return self.values[np.sort(roots[ends])]


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


def finite_spectrum(section: FiniteSection) -> SpectrumResult:
    """Every eigenvalue of the finite section, with its weights
    ``tilde_q``, as the arrays of a ``SpectrumResult``.

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
    spec, qs = section.spec, section.tilde_q
    d = spec.d

    zetas, vs = _block_eig_vectors(spec)
    damp = (1.0 - qs)[:, None]
    block_lams = damp * zetas
    r = damp[..., None] * spec.permute(vs) - block_lams[..., None] * vs
    head = np.abs(qs[:, None] * vs.sum(axis=1))
    block_res = (head + np.abs(r).sum(axis=2)) / np.abs(vs).sum(axis=1)

    lams = secular_roots(section)
    # x = 1 - lam lies strictly inside its bracket, but rounding lam can put
    # the recovered x on a pole; clamping keeps every coefficient finite
    lo, hi = _brackets(d, qs)
    xs = np.clip(1.0 - lams, np.nextafter(lo, hi), np.nextafter(hi, lo))
    secular_res = np.empty_like(lams)
    for i in range(0, lams.size, _RESIDUAL_ROWS):
        lam = lams[i:i + _RESIDUAL_ROWS, None]
        vecs = np.ones((lam.size, section.dim))
        vecs[:, 1:] = np.repeat(qs / (qs - xs[i:i + _RESIDUAL_ROWS, None]),
                                d, axis=1)
        r = apply_operator(spec, vecs, qs) - lam * vecs
        secular_res[i:i + lam.size] = \
            np.abs(r).sum(axis=1) / np.abs(vecs).sum(axis=1)

    values = np.r_[block_lams.ravel(), lams]
    if values.size != section.dim:
        raise RootCountMismatch(
            f"{values.size} eigenvalues for dimension {section.dim}")
    blocks = np.r_[np.repeat(np.arange(1, section.n_blocks + 1), zetas.size),
                   np.zeros(lams.size, dtype=int)]
    # by angle rounded to 12 digits, then modulus, ties in the order above
    # (a stable sort); Python's round and abs, which NumPy's need not match
    keys = [(round(math.atan2(z.imag, z.real), 12), abs(z))
            for z in values.tolist()]
    order = sorted(range(values.size), key=keys.__getitem__)
    return SpectrumResult(section, values[order],
                          np.r_[block_res.ravel(), secular_res][order],
                          blocks[order])


# ---------------------------------------------------------------------------
# convergence of the sections toward the target set
# ---------------------------------------------------------------------------

class ConvergenceTable(NamedTuple):
    """Distances of the sections' spectra to the target set, one row per
    section size N = 1 .. n_max and one column per target angle."""

    angles: list                # each target u, a Fraction of a turn
    distance: np.ndarray        # (n_max, |U|): dist(u, sigma(T_N))
    bound: np.ndarray           # per N: 2 * tilde_q_N
    tolerance: np.ndarray       # per N: rounding tolerance tau_N
    resolved: np.ndarray        # per N: bound > tolerance
    ok: np.ndarray              # per distance: distance <= bound + tolerance


def convergence_table(spec: GroupUnionSpec, n_max: int) -> ConvergenceTable:
    """dist(u, sigma(T_N)) for every target point u and N <= n_max, with
    the bound, tolerance and verdicts of each, as a ``ConvergenceTable``.

    The bound 2 * tilde_q_N comes from the damped block eigenvalue
    (1 - tilde_q_N) u next to u (u != 1) and from the secular root at 1.

    Computed without assembling any section.  The block eigenvalues of T_N
    are (1 - tilde_q_n) zeta, n <= N, in closed form, which gives each
    target's nearest block distance.  The secular roots are real and
    ascending, one in each interlacing bracket (Golub 1973; Bunch, Nielsen
    and Sorensen 1978), so at most three of them can be nearest to u.  Let
    k be the first bracket whose lam-interval ends at or above Re u
    (``np.searchsorted``).  Every root below bracket k - 1 is below the
    root of k - 1, which is below Re u, and every root above bracket k + 1
    is above the root of k + 1, which is at or above Re u.  The computed
    roots keep that order: each lies in its bracket's rounded interval,
    since lam = 1 - x rounds monotonically, and so does the rounded gap
    lam - Re u.  The modulus with the fixed Im u grows with that gap,
    exactly so at u = 1 where Im u = 0, and for a correctly rounded hypot
    elsewhere.  So brackets k - 1, k and k + 1 are bisected, and no other.
    A target whose |Im u| is at least its nearest block distance needs
    none: a root's computed distance is never below |Im u|, so it cannot
    lower the minimum.  (Only targets on the real axis get past that test:
    a non-real u of order m has |Im u| >= sin(2 pi / m) > 1/m, and the
    block eigenvalue (1 - tilde_q_N) u lies within tilde_q_N <= 1/d of it.)
    The brackets of all sections are bisected in one ``_bisect`` call; a
    root does not depend on its batch, so every distance, the minimum over
    the block eigenvalues and the bisected roots, equals bit for bit the
    minimum over the whole spectrum that ``finite_spectrum`` lists.

    Each section N carries a tolerance tau_N = (2N + 32) eps, with eps =
    2^-52, and a distance passes (``ok``) when distance <= bound + tau_N.
    tau_N bounds the error of the computed distance to the witness
    eigenvalue v, |v - u| <= tilde_q_N:
    * a block witness: u and zeta are the complex exponential of an angle
      formed with three roundings (pi, the quotient j/m, the product),
      each within 11 eps of the exact point; 1 - tilde_q and the products
      add 1.5 eps, the differences eps, the modulus (2 ulps of a value
      below 2) 2 eps: 26.5 eps in all;
    * the secular root at 1: the bisection ends where the computed g
      changes sign, and g falls with slope <= -1, so the root found is
      within delta of the exact one, with delta the error of g near x = 0:
      N positive terms, each at most 2 d q_n and four roundings off, plus
      two subtractions, (N + 5.5) eps; the exact root lies within 1.5 eps
      of x = 0 (d * sum tilde_q_n = 1 up to two roundings per weight), and
      lam = 1 - x rounds once more: (N + 8) eps.
    Both are below tau_N.  A section whose bound is at most tau_N is not
    ``resolved``: rounding alone may then move the distance by as much as
    the bound, so the check could not tell a right distance from a wrong
    one.  For a resolved section tilde_q_N > (N + 16) eps, which also keeps
    the computed g of the bisection's last ends within the bound used
    above.
    """
    if n_max < 1:
        raise ValueError("need at least one block")
    angles = union_points(spec)
    us = union_values(spec)
    zetas = np.array(list(_block_zetas(spec)), dtype=complex)
    sections, nearest, picked = [], [], []
    for n_blocks in range(1, n_max + 1):
        qs = FiniteSection.of(spec, n_blocks).tilde_q
        blocks = ((1.0 - qs)[:, None] * zetas).ravel()
        near = np.abs(blocks[:, None] - us).min(axis=0, initial=np.inf)
        lo, hi = _brackets(spec.d, qs)
        # the bracket whose lam-interval holds Re u, and its two neighbours,
        # for the targets a root could still come nearer to than a block
        k = np.searchsorted(1.0 - lo, us.real[np.abs(us.imag) < near])
        pick = np.zeros(lo.size, dtype=bool)
        pick[np.clip(k[:, None] + [-1, 0, 1], 0, n_blocks)] = True
        sections.append(qs)
        nearest.append(near)
        picked.append((lo[pick], hi[pick]))
    dist = np.array(nearest)
    sec = np.repeat(np.arange(n_max), [a.size for a, _ in picked])
    roots = _bisect(spec.d, sections, sec,
                    *(np.concatenate(side) for side in zip(*picked)))
    np.minimum.at(dist, sec, np.abs(roots.astype(complex)[:, None] - us))

    bound = 2.0 * np.array([qs[-1] for qs in sections])
    tolerance = (2 * np.arange(1, n_max + 1) + 32) * _EPS
    return ConvergenceTable(angles, dist, bound, tolerance, bound > tolerance,
                            dist <= (bound + tolerance)[:, None])
