"""Dense and cofactor oracles for the finite sections.

Independent routes that the tests compare the matrix-free package code
against: the section assembled as a dense matrix, strong connectivity of
a dense matrix's support, the characteristic polynomial by cofactor
expansion, and the cross-check of a computed spectrum against it.  The
package never imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spectral_forge import finite
from spectral_forge.finite import FiniteSection
from spectral_forge.model import GroupUnionSpec, WeightSeq

# (orders, n_blocks) of small sections the cofactor expansion handles; the
# largest has dimension 16
SMALL_SECTIONS = (((1,), 3), ((2,), 3), ((3,), 2), ((2, 3), 2), ((2, 3), 3))


def permutation_matrix(spec: GroupUnionSpec) -> np.ndarray:
    """The block permutation P as a dense d x d matrix."""
    p = np.zeros((spec.d, spec.d))
    for off, m in zip(spec.offsets, spec.orders):
        for i in range(m):
            p[off + (i + 1) % m, off + i] = 1.0
    return p


# ---------------------------------------------------------------------------
# the dense section
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteOperator(FiniteSection):
    """The section assembled as a dense matrix."""

    matrix: np.ndarray


def build_finite_section(spec: GroupUnionSpec, w: WeightSeq, n_blocks: int,
                         renormalize: bool = True) -> FiniteOperator:
    """Head plus blocks 1..n_blocks as a dense matrix.

    With ``renormalize`` the weights are scaled by 1/(1 - tail mass) so the
    head column sums to exactly one; block columns always do.  Without it
    the head column sums to the partial mass 1 - 2^-N.
    """
    d, qs = spec.d, FiniteSection.of(spec, w, n_blocks, renormalize).tilde_q
    dim = 1 + n_blocks * d
    p = permutation_matrix(spec)
    a = np.zeros((dim, dim))
    for n in range(1, n_blocks + 1):
        q = qs[n - 1]
        sl = slice(1 + (n - 1) * d, 1 + n * d)
        a[sl, 0] = q                    # head feeds every block entry
        a[0, sl] = q                    # blocks feed the head
        a[sl, sl] = (1.0 - q) * p
    return FiniteOperator(spec, w, n_blocks, renormalize, qs, a)


# ---------------------------------------------------------------------------
# strong connectivity of a dense matrix
# ---------------------------------------------------------------------------

def strongly_connected(matrix: np.ndarray) -> bool:
    """True when the support digraph of ``matrix`` is strongly connected
    (nonzero entries are edges, column to row): vertex 0
    reaches every vertex both along the edges and against them.  Each
    vertex joins the frontier once, so the search is O(n^2)."""
    m = np.abs(np.asarray(matrix)) > 0.0
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


# largest relative mismatch of the two determinants the cross-check passes
CROSSCHECK_TOL = 1e-8


@dataclass(frozen=True)
class CrosscheckReport:
    n_blocks: int
    dim: int
    samples: int
    max_rel_error: float
    passed: bool


def factorization_crosscheck(spec: GroupUnionSpec, w: WeightSeq,
                             n_blocks: int, seed: int = 0) -> CrosscheckReport:
    """Polynomial identity test: eigenvalue multiset vs characteristic
    polynomial.

    Samples 2 * dim random points in the disk of radius 2 and compares the
    cofactor determinant of (lam - T_N) with the product over the computed
    spectrum.  Agreement at dim+1 or more points pins the monic polynomial,
    so matching at 2*dim points to ``CROSSCHECK_TOL`` certifies the
    multiset.
    """
    # looked up at call time, so a test can patch the spectrum
    result = finite.finite_spectrum(spec, w, n_blocks)
    a = build_finite_section(spec, w, n_blocks).matrix
    dim = result.section.dim
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xFAC7]))
    zs = 2.0 * (rng.random(2 * dim) + 1j * rng.random(2 * dim)) - (1 + 1j)
    lams = 2.0 * zs / np.maximum(1.0, np.abs(zs))   # clamp into |z| <= 2
    dets = cofactor_det_batch(a, lams)
    prods = np.prod(lams[:, None] - result.values()[None, :], axis=1)
    scale = np.maximum(1.0, np.maximum(np.abs(dets), np.abs(prods)))
    err = float(np.max(np.abs(dets - prods) / scale))
    return CrosscheckReport(n_blocks, dim, len(lams), err,
                            err <= CROSSCHECK_TOL)
