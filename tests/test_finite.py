"""Finite sections: assembly, connectivity, secular roots, full spectra."""

import cmath
import dataclasses
import math
import tracemalloc
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np
import pytest

import oracles
from oracles import (SMALL_SECTIONS, build_finite_section,
                     cofactor_det_batch, factorization_crosscheck,
                     permutation_matrix, strongly_connected)
from spectral_forge import finite
from spectral_forge.finite import (FiniteSection, _block_eig_vectors,
                                   _block_zetas, convergence_table,
                                   finite_spectrum, secular_roots)
from spectral_forge.model import GroupUnionSpec, union_points, union_values


def _multiset_gap(a, b):
    """Greedy matching distance between two eigenvalue multisets."""
    a = list(np.asarray(a, dtype=complex))
    b = list(np.asarray(b, dtype=complex))
    assert len(a) == len(b)
    worst = 0.0
    for z in a:
        i = int(np.argmin(np.abs(np.array(b) - z)))
        worst = max(worst, abs(b[i] - z))
        b.pop(i)
    return worst


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_smallest_section_is_the_swap():
    spec = GroupUnionSpec((1,))
    op = build_finite_section(spec, 1)
    assert np.array_equal(op.matrix, [[0.0, 1.0], [1.0, 0.0]])
    assert op.tilde_q[0] == 1.0


def test_column_sums_renormalized_and_raw():
    spec = GroupUnionSpec((2, 3))
    op = build_finite_section(spec, 10)
    assert np.abs(op.column_sums() - 1.0).max() < 1e-12
    raw = build_finite_section(spec, 10, renormalize=False)
    cols = raw.column_sums()
    assert cols[0] == pytest.approx(1.0 - 2.0 ** -10, abs=1e-15)
    assert np.abs(cols[1:] - 1.0).max() < 1e-15


@pytest.mark.parametrize("orders", [(1,), (2, 3), (4, 6), (5, 7)])
def test_closed_form_column_sums_are_the_dense_ones_bitwise(orders):
    spec = GroupUnionSpec(orders)
    for n in [*range(1, 31), 60, 100]:
        for renormalize in (True, False):
            op = build_finite_section(spec, n, renormalize)
            assert op.column_sums().tobytes() == \
                op.matrix.sum(axis=0).tobytes(), (n, renormalize)


def test_section_matches_operator_structure():
    spec = GroupUnionSpec((2,))
    op = build_finite_section(spec, 3, renormalize=False)
    q2 = 2.0 ** -2 / spec.d
    block = op.matrix[3:5, 3:5]
    assert np.allclose(block, (1.0 - q2) * np.array([[0, 1], [1, 0]]))
    assert np.allclose(op.matrix[0, 3:5], q2)
    assert np.allclose(op.matrix[3:5, 0], q2)


def test_build_rejects_empty_section():
    spec = GroupUnionSpec((2,))
    with pytest.raises(ValueError):
        build_finite_section(spec, 0)


# ---------------------------------------------------------------------------
# strong connectivity
# ---------------------------------------------------------------------------

def _digraph(n, edges):
    """Matrix with a nonzero (row v, column u) for each edge u -> v."""
    m = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        m[v, u] = True
    return m


@pytest.mark.parametrize("n,edges,connected", [
    (5, [(i, (i + 1) % 5) for i in range(5)], True),
    # two 2-cycles joined one way
    (4, [(0, 1), (1, 0), (2, 3), (3, 2), (2, 0)], False),
    (3, [(0, 1), (0, 2), (1, 2)], False),
    (1, [], True),
], ids=["5-ring", "two-2-cycles-one-way", "dag", "one-vertex"])
def test_strongly_connected_on_known_graphs(n, edges, connected):
    m = _digraph(n, edges)
    assert strongly_connected(m) is connected
    assert strongly_connected(m.T) is connected


def test_strongly_connected_on_a_long_path_and_ring():
    # 5000 frontier steps each way; a path is one-way, a ring is not
    n = 5000
    path = _digraph(n, [(i, i + 1) for i in range(n - 1)])
    assert not strongly_connected(path)
    ring = path.copy()
    ring[0, n - 1] = True
    assert strongly_connected(ring)


def _scipy_strongly_connected(matrix):
    """SciPy's answer, or None where SciPy is not installed."""
    try:
        from scipy.sparse import csgraph
    except ImportError:
        return None
    count, _ = csgraph.connected_components(matrix != 0.0, directed=True,
                                            connection="strong")
    return count == 1


def _reweighted(op, block, q):
    """``op`` with the weight of ``block`` set to ``q``: the section, and
    the dense matrix assembled with that weight."""
    d = op.spec.d
    rows = slice(1 + (block - 1) * d, 1 + block * d)
    a = op.matrix.copy()
    a[rows, 0] = a[0, rows] = q
    a[rows, rows] = (1.0 - q) * permutation_matrix(op.spec)
    tilde_q = op.tilde_q.copy()
    tilde_q[block - 1] = q
    return FiniteSection(op.spec, op.n_blocks, op.renormalized, tilde_q), a


@pytest.mark.parametrize("orders", [(1,), (2, 3), (4, 6), (5, 7)])
def test_strongly_connected_agrees_with_scipy_on_every_section(orders):
    # the sections eigs checks (N = 1..40, both normalisations), each also
    # with every weight zeroed (uncoupled) and with its middle weight set
    # to 0 (that block is cut off) or to 1 (P's edges in it vanish, its
    # head edges stay): the closed form, which eigs runs, against the dense
    # search and SciPy on the assembled matrix; all weights 0 zero the head
    # row and column of the pattern
    spec = GroupUnionSpec(orders)
    for n in range(1, 41):
        for renormalize in (True, False):
            op = build_finite_section(spec, n, renormalize)
            uncoupled = op.matrix.copy()
            uncoupled[0, :] = uncoupled[:, 0] = 0.0
            zeroed = dataclasses.replace(op, tilde_q=np.zeros(n))
            assert op.strongly_connected() is strongly_connected(op.matrix) \
                is True
            assert zeroed.strongly_connected() is \
                strongly_connected(uncoupled) is False
            cut, cut_matrix = _reweighted(op, (n + 1) // 2, 0.0)
            full, full_matrix = _reweighted(op, (n + 1) // 2, 1.0)
            assert cut.strongly_connected() is \
                strongly_connected(cut_matrix) is False
            assert full.strongly_connected() is \
                strongly_connected(full_matrix) is True
            for m in (op.matrix, uncoupled, cut_matrix, full_matrix):
                assert _scipy_strongly_connected(m) in (None,
                                                        strongly_connected(m))


def test_sections_strongly_connected_and_control():
    for orders in [(1,), (2, 3), (4, 6)]:
        spec = GroupUnionSpec(orders)
        op = build_finite_section(spec, 4)
        assert strongly_connected(op.matrix)
        broken = op.matrix.copy()
        broken[0, :] = 0.0
        broken[:, 0] = 0.0
        assert not strongly_connected(broken)


# ---------------------------------------------------------------------------
# secular function and roots
# ---------------------------------------------------------------------------

def test_secular_roots_against_dense_oracle():
    # oracle: a dense symmetric solver on the head chain, an arrowhead with
    # off-diagonal products d q_n^2, made symmetric by a diagonal similarity
    for orders, n_blocks in [((1,), 1), ((1,), 4), ((2,), 3), ((2, 3), 5),
                             ((2, 3), 40), ((2, 3), 80), ((4, 6), 40),
                             ((4, 6), 80), ((5, 7), 40), ((5, 7), 80)]:
        spec = GroupUnionSpec(orders)
        roots = secular_roots(FiniteSection.of(spec, n_blocks))
        assert np.isrealobj(roots)
        assert len(roots) == n_blocks + 1
        qs = build_finite_section(spec, n_blocks).tilde_q
        chain = np.zeros((n_blocks + 1, n_blocks + 1))
        chain[0, 1:] = chain[1:, 0] = np.sqrt(spec.d) * qs
        chain[1:, 1:][np.diag_indices(n_blocks)] = 1.0 - qs
        ref = np.linalg.eigvalsh(chain)
        assert np.abs(roots - ref).max() <= 1e-12, (orders, n_blocks)


def _reference_secular_roots(spec, n_blocks, renormalize=True):
    """Oracle: every bracket bisected until its ends are neighbouring
    floats or, next to x = 0, narrower than eps times the smallest pole."""
    qs = FiniteSection.of(spec, n_blocks, renormalize).tilde_q
    dq2 = spec.d * qs ** 2
    lo, hi = finite._brackets(spec.d, qs)
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
    return 1.0 - np.where(lo == start, hi, lo)


@pytest.mark.parametrize("orders", [(1,), (2,), (3,), (2, 3), (4, 6),
                                    (5, 7)])
def test_secular_roots_bitwise_the_full_bisection(orders):
    # a bracket stops once both ends give the same lam = 1 - x; the roots
    # must be those of bisecting every bracket to the end
    spec = GroupUnionSpec(orders)
    for n_blocks in [*range(1, 70), 100, 200, 967]:
        for renormalize in (True, False):
            section = FiniteSection.of(spec, n_blocks, renormalize)
            assert secular_roots(section).tobytes() \
                == _reference_secular_roots(spec, n_blocks,
                                            renormalize).tobytes(), \
                (n_blocks, renormalize)


@pytest.mark.parametrize("run_cells", [finite._RUN_CELLS, 64])
@pytest.mark.parametrize("orders", [(1,), (2, 3), (5, 7)])
def test_batched_bisection_is_bitwise_per_section(monkeypatch, orders,
                                                  run_cells):
    # all brackets of sections 1..60 in one loop give each section's roots,
    # in gathered runs of many sections or of one section each
    monkeypatch.setattr(finite, "_RUN_CELLS", run_cells)
    spec = GroupUnionSpec(orders)
    sections, lo, hi, sec = [], [], [], []
    for n_blocks in range(1, 61):
        qs = FiniteSection.of(spec, n_blocks).tilde_q
        b_lo, b_hi = finite._brackets(spec.d, qs)
        sections.append(qs)
        lo.append(b_lo)
        hi.append(b_hi)
        sec.append(np.full(b_lo.size, n_blocks - 1))
    sec = np.concatenate(sec)
    roots = finite._bisect(spec.d, sections, sec, np.concatenate(lo),
                           np.concatenate(hi))
    for n_blocks in range(1, 61):
        section = FiniteSection.of(spec, n_blocks)
        assert roots[sec == n_blocks - 1].tobytes() == \
            secular_roots(section).tobytes(), n_blocks


def test_section_limit_is_the_last_normal_bisection_floor():
    # orders 2,3: q~_N = 2^-N / 5 from N = 54 on, and eps * q~_N is normal
    # while 2^-(52 + N) / 5 >= 2^-1022
    spec = GroupUnionSpec((2, 3))
    limit = finite.section_limit(spec)
    assert limit == 967
    for n_blocks, normal in ((limit, True), (limit + 1, False)):
        floor = np.finfo(float).eps * 2.0 ** -n_blocks / 5.0
        assert bool(floor >= np.finfo(float).tiny) is normal
    assert finite.section_limit(spec, renormalize=False) == 967
    assert finite.section_limit(GroupUnionSpec((1,))) == 970


def test_secular_roots_include_one_exactly():
    spec = GroupUnionSpec((2, 3))
    roots = secular_roots(FiniteSection.of(spec, 6))
    assert np.min(np.abs(roots - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# full spectrum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("orders,n_blocks", [
    ((1,), 1), ((1,), 5), ((2,), 4), ((3,), 3), ((2, 3), 4), ((4, 6), 2),
    ((1,), 60), ((2,), 60),     # deep poles 1 - q_n that round to 1.0
])
def test_finite_spectrum_matches_dense_eigensolver(orders, n_blocks):
    spec = GroupUnionSpec(orders)
    result = finite_spectrum(FiniteSection.of(spec, n_blocks))
    assert len(result) == result.section.dim
    assert result.max_residual() < 1e-9
    ref = np.linalg.eigvals(build_finite_section(spec, n_blocks).matrix)
    assert _multiset_gap(result.values, ref) < 1e-8


_U = np.finfo(float).eps / 2            # unit roundoff


def _dense_residuals(spec, n_blocks, renormalize):
    """Every eigenpair of the section as ``finite_spectrum`` builds it, in
    its order, with ||a v - lam v||_1 / ||v||_1 on the assembled matrix a
    and a bound on the rounding of any evaluation of that quotient.

    The values are formed as the per-block loop before the matrix-free
    residuals formed them: (1 - q~_n) zeta one scalar product at a time,
    block after block, then the secular roots, sorted by angle and modulus.
    Each product a v takes only the columns where v is nonzero.

    The bound: both routes evaluate the same quotient for the same float
    v and lam on the same float entries.  Row i of (a - lam) v sums k_i
    nonzero products, where the dense product has k_i nonzeros in row i
    and the flat map at most k_i + 2 roundings (the head row takes N block
    sums of d entries: N + d <= N d + 1 = k_0 + 1; a block row takes two
    products and a sum), so its error is at most (k_i + 2) u sum_j
    |a_ij| |v_j|; the product lam v_i and the subtraction add 3 u |lam v_i|;
    complex products with a real factor round each part on its own, which
    costs a factor sqrt 2.  The modulus, the pairwise sum of dim terms and
    the division add (dim + 4) u times the residual.  Two routes differ by
    at most twice that.
    """
    a = build_finite_section(spec, n_blocks, renormalize).matrix
    abs_a = np.abs(a)
    d = spec.d
    qs = FiniteSection.of(spec, n_blocks, renormalize).tilde_q
    k = np.count_nonzero(a, axis=1)
    pairs = []
    _, vs = _block_eig_vectors(spec)
    for n in range(1, n_blocks + 1):
        damp = 1.0 - qs[n - 1]
        for zeta, v in zip(_block_zetas(spec), vs):
            vec = np.zeros(a.shape[0], dtype=complex)
            vec[1 + (n - 1) * d:1 + n * d] = v
            pairs.append((damp * zeta, "block", n, vec))
    lams = secular_roots(FiniteSection.of(spec, n_blocks, renormalize))
    lo, hi = finite._brackets(d, qs)
    xs = np.clip(1.0 - lams, np.nextafter(lo, hi), np.nextafter(hi, lo))
    for lam, x in zip(lams, xs):
        vec = np.concatenate(([1.0], np.repeat(qs / (qs - x), d)))
        pairs.append((complex(lam), "secular", None, vec))
    pairs.sort(key=lambda p: (round(math.atan2(p[0].imag, p[0].real), 12),
                              abs(p[0])))
    out = []
    for lam, kind, n, vec in pairs:
        cols = np.flatnonzero(vec)
        nv = np.abs(vec).sum()
        res = np.abs(a[:, cols] @ vec[cols] - lam * vec).sum() / nv
        rows = (k + 2) * (abs_a[:, cols] @ np.abs(vec[cols])) \
            + 3 * abs(lam) * np.abs(vec)
        slack = 2 * _U * (math.sqrt(2) * rows.sum() / nv
                          + (a.shape[0] + 4) * res)
        out.append((lam, kind, n, res, slack))
    return out


def _worst_residual_gap(orders, sizes):
    """Largest |residual - dense residual| / bound over every eigenpair of
    the given sections, both normalisations; the values, kinds, blocks and
    order must be those of the dense route."""
    spec = GroupUnionSpec(orders)
    worst = 0.0
    for n_blocks in sizes:
        for renormalize in (True, False):
            result = finite_spectrum(
                FiniteSection.of(spec, n_blocks, renormalize))
            ref = _dense_residuals(spec, n_blocks, renormalize)
            # a block eigenvalue carries its block n >= 1, a secular root 0
            assert result.blocks.tolist() == [n or 0 for _, _, n, _, _ in ref]
            assert result.values.tobytes() == \
                np.array([lam for lam, *_ in ref]).tobytes()
            worst = max(worst, max(abs(r - res) / slack
                                   for r, (*_, res, slack)
                                   in zip(result.residuals.tolist(), ref)))
    return worst


_ORACLE_SIZES = [*range(1, 31), 40, 60, 100]


@pytest.mark.parametrize("orders", [(1,), (2, 3), (4, 6), (5, 7)])
def test_residuals_match_the_dense_section(orders):
    # the matrix-free residuals against the assembled section's product,
    # eigenpair by eigenpair, to within the derived rounding bound
    assert _worst_residual_gap(orders, _ORACLE_SIZES) <= 1.0


def test_mis_signed_head_feed_fails_the_dense_oracle(monkeypatch):
    # negative control: a flat map that feeds -x_0 q~_n 1 into the blocks
    # moves the secular residuals far past the bound
    exact = finite.apply_operator

    def mis_signed(spec, x, weights):
        return exact(spec, x, weights) - np.concatenate(
            ([0.0], 2.0 * np.repeat(weights, spec.d))) * x[..., :1]

    monkeypatch.setattr(finite, "apply_operator", mis_signed)
    assert _worst_residual_gap((2, 3), [1, 6, 40]) > 1.0


def test_finite_spectrum_assembles_no_section(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("finite_spectrum assembled a section")

    # the dense section and its search exist only among the test oracles
    monkeypatch.setattr(oracles, "build_finite_section", refuse)
    monkeypatch.setattr(oracles, "strongly_connected", refuse)
    spec = GroupUnionSpec((2, 3))
    result = finite_spectrum(FiniteSection.of(spec, 40))
    assert len(result) == result.section.dim == 201
    assert result.section.strongly_connected()


def test_finite_spectrum_memory_is_linear_in_the_section():
    # orders 2,3 at the largest N: the dense section alone would be
    # 4836^2 doubles, 187 MB; the residuals take 32 secular eigenvectors
    # a call
    spec = GroupUnionSpec((2, 3))
    tracemalloc.start()
    try:
        result = finite_spectrum(FiniteSection.of(spec, 967))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result) == 4836
    assert result.max_residual() < 1e-9
    assert peak < 32e6


def test_finite_spectrum_block_multiplicities():
    # two cyclic factors: each block contributes the damped eigenvalue
    # (1 - q_n) itself once, from the difference of the fixed vectors
    spec = GroupUnionSpec((2, 3))
    result = finite_spectrum(FiniteSection.of(spec, 3))
    for n in range(1, 4):
        damp = 1.0 - result.section.tilde_q[n - 1]
        hits = (result.blocks > 0) & (np.abs(result.values - damp) < 1e-13)
        assert np.count_nonzero(hits) == 1


def test_finite_spectrum_peripheral_only_at_one():
    spec = GroupUnionSpec((2, 3))
    result = finite_spectrum(FiniteSection.of(spec, 8))
    vals = result.values
    mods = np.abs(vals)
    assert mods.max() == pytest.approx(1.0, abs=1e-12)
    at_top = vals[mods > 1.0 - 1e-10]
    assert len(at_top) == 1
    assert abs(at_top[0] - 1.0) < 1e-10


def test_spectrum_arrays_are_in_angle_then_modulus_order():
    spec = GroupUnionSpec((4, 6))
    result = finite_spectrum(FiniteSection.of(spec, 12))
    dim = result.section.dim
    assert len(result) == dim
    assert result.values.shape == result.residuals.shape == \
        result.blocks.shape == (dim,)
    assert result.values.dtype == complex
    assert result.residuals.dtype == float
    assert result.blocks.dtype.kind == "i"
    keys = [(round(math.atan2(z.imag, z.real), 12), abs(z))
            for z in result.values.tolist()]
    assert keys == sorted(keys)
    # each block holds d - 1 eigenvalues, and block 0 the N + 1 roots
    assert np.bincount(result.blocks).tolist() == [13] + [spec.d - 1] * 12
    assert np.all(result.values.imag[result.blocks == 0] == 0.0)
    assert [r.residual for r in result.records] == result.residuals.tolist()
    assert result.max_residual() == result.residuals.max() < 1e-9
    # a NaN after finite residuals must not slip past the max
    result.residuals[-1] = math.nan
    assert math.isnan(result.max_residual())


@pytest.mark.parametrize("renormalize", [True, False])
@pytest.mark.parametrize("n_blocks", [12, 40, 100])
@pytest.mark.parametrize("orders", [(1,), (2, 3), (4, 6), (5, 7)])
def test_the_perron_root_is_the_only_peripheral_value(orders, n_blocks,
                                                      renormalize):
    # a window of 1e-10 on the moduli held up to 351 values at N = 100
    section = FiniteSection.of(GroupUnionSpec(orders), n_blocks, renormalize)
    result = finite_spectrum(section)
    (top,) = result.peripheral()
    assert top == secular_roots(section)[-1]
    assert top.real == np.abs(result.values).max()


def test_the_period_two_section_has_two_peripheral_values():
    # orders (1,) at N = 1, renormalised: q~_1 = 1 and T_1 = [[0, 1], [1, 0]]
    spec = GroupUnionSpec((1,))
    result = finite_spectrum(FiniteSection.of(spec, 1))
    assert result.peripheral().tolist() == [0.9999999999999998,
                                            -0.9999999999999998]
    # raw, q_1 = 1/2 keeps the self-loop: one value, (1 + sqrt 5) / 4
    (top,) = finite_spectrum(FiniteSection.of(spec, 1, False)).peripheral()
    assert top == pytest.approx((1.0 + math.sqrt(5.0)) / 4.0, rel=1e-15)
    # control: a weight of 1 on orders (2,) leaves only the head and block
    # edges, a bipartite graph of period 2 with spectrum +-sqrt 2 and 0
    real = FiniteSection.of(GroupUnionSpec((2,)), 1)
    assert len(finite_spectrum(real).peripheral()) == 1
    swap = dataclasses.replace(real, tilde_q=np.ones(1))
    plus, minus = finite_spectrum(swap).peripheral()
    assert plus == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert minus == pytest.approx(-math.sqrt(2.0), rel=1e-15)


def test_finite_spectrum_no_renormalize_variant():
    spec = GroupUnionSpec((2,))
    result = finite_spectrum(FiniteSection.of(spec, 4, renormalize=False))
    assert len(result) == result.section.dim
    assert result.max_residual() < 1e-9
    ref = np.linalg.eigvals(
        build_finite_section(spec, 4, renormalize=False).matrix)
    assert _multiset_gap(result.values, ref) < 1e-8


# ---------------------------------------------------------------------------
# cofactor determinant and cross-check
# ---------------------------------------------------------------------------

def _dense_dets(a, lams):
    n = a.shape[0]
    return np.array([np.linalg.det(l * np.eye(n) - a) for l in lams])


def _disk_points(rng, count):
    return 2.0 * (rng.random(count) + 1j * rng.random(count)) - (1 + 1j)


def _per_subset_dets(a, lams):
    """Reference: the same expansion with one Python iteration per subset."""
    n = a.shape[0]
    dets = np.empty((1 << n, len(lams)), dtype=complex)
    dets[0] = 1.0
    for mask in range(1, 1 << n):
        r = mask.bit_count() - 1
        acc = np.zeros(len(lams), dtype=complex)
        sign = -1.0 if r % 2 else 1.0
        t = mask
        while t:
            j = (t & -t).bit_length() - 1
            entry = (lams - a[r, j]) if r == j else -a[r, j]
            acc += sign * entry * dets[mask ^ (1 << j)]
            sign = -sign
            t &= t - 1
        dets[mask] = acc
    return dets[-1]


def _sparse_matrix(rng, n):
    """Random entries at density 0.3, about half the diagonal zero, and one
    row that vanishes off the diagonal."""
    a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
    a[np.diag_indices(n)] *= rng.random(n) < 0.5
    i = rng.integers(n)
    a[i, np.arange(n) != i] = 0.0
    return a


def test_cofactor_det_matches_numpy():
    rng = np.random.default_rng(41)
    for n in range(1, 8):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lams = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        mine = cofactor_det_batch(a, lams)
        ref = _dense_dets(a, lams)
        assert np.allclose(mine, ref, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("n", range(1, 13))
def test_cofactor_det_is_bitwise_the_per_subset_expansion(n):
    # the layered expansion adds every subset's terms in the same order and
    # skips only +-0 terms, so the determinants agree bit for bit: on dense
    # matrices, where every subset is reachable, and on sparse ones
    rng = np.random.default_rng(n)
    lams = _disk_points(rng, 5)
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for a in (dense, _sparse_matrix(rng, n)):
        assert (cofactor_det_batch(a, lams).tobytes()
                == _per_subset_dets(a, lams).tobytes())


@pytest.mark.parametrize("orders,n_blocks", SMALL_SECTIONS)
def test_cofactor_det_is_bitwise_the_per_subset_expansion_on_verify_sections(
        orders, n_blocks):
    # dimensions 4 to 16; the per-subset reference visits all 2^16 subsets
    # of the largest, the pruned expansion about one in sixty
    spec = GroupUnionSpec(orders)
    a = build_finite_section(spec, n_blocks).matrix
    lams = _disk_points(np.random.default_rng(11), 2 * a.shape[0])
    assert (cofactor_det_batch(a, lams).tobytes()
            == _per_subset_dets(a, lams).tobytes())


@pytest.mark.parametrize("orders,n_blocks", SMALL_SECTIONS)
def test_cofactor_det_matches_numpy_on_the_verify_sections(orders, n_blocks):
    spec = GroupUnionSpec(orders)
    a = build_finite_section(spec, n_blocks).matrix
    lams = _disk_points(np.random.default_rng(7), 2 * a.shape[0])
    np.testing.assert_allclose(cofactor_det_batch(a, lams),
                               _dense_dets(a, lams), rtol=1e-10)


@pytest.mark.parametrize("n", range(1, 13))
def test_cofactor_det_matches_numpy_on_sparse_matrices(n):
    # zero diagonal entries and rows that vanish off the diagonal take the
    # branch that skips zero entries, including a row with no term but the
    # diagonal one
    rng = np.random.default_rng(1000 + n)
    a = _sparse_matrix(rng, n)
    lams = _disk_points(rng, 6)
    np.testing.assert_allclose(cofactor_det_batch(a, lams),
                               _dense_dets(a, lams), rtol=1e-10)


def test_cofactor_det_memory_stays_at_the_reachable_layers():
    # dim 16 at 32 points: two layers of structurally nonzero minors, at
    # most 146 subsets each; the full 2^16 * 32 table alone is 33.5 MB, and
    # two full popcount layers of C(16, 8) * 32 values 13.2 MB
    spec = GroupUnionSpec((2, 3))
    a = build_finite_section(spec, 3).matrix
    lams = _disk_points(np.random.default_rng(3), 32)
    tracemalloc.start()
    try:
        cofactor_det_batch(a, lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_cofactor_det_refuses_large_matrices():
    with pytest.raises(ValueError):
        cofactor_det_batch(np.eye(19), np.array([0.0j]))


def test_factorization_crosscheck_all_small_cases():
    for orders, n_blocks in [((1,), 3), ((2,), 3), ((3,), 2), ((5,), 3),
                             ((2, 3), 2), ((2, 3), 3)]:
        spec = GroupUnionSpec(orders)
        rep = factorization_crosscheck(spec, n_blocks)
        assert rep.passed, (orders, n_blocks, rep.max_rel_error)
        assert rep.max_rel_error < 1e-8
        assert rep.samples == 2 * rep.dim


def test_factorization_crosscheck_catches_a_perturbed_eigenvalue(monkeypatch):
    # negative control: one eigenvalue off by 1e-6 must fail the 1e-8 gate
    exact = finite.finite_spectrum

    def perturbed(*args, **kwargs):
        result = exact(*args, **kwargs)
        result.values[0] += 1e-6
        return result

    spec = GroupUnionSpec((2, 3))
    assert factorization_crosscheck(spec, 2).passed
    monkeypatch.setattr(finite, "finite_spectrum", perturbed)
    rep = factorization_crosscheck(spec, 2)
    assert not rep.passed
    assert rep.max_rel_error > 1e-8


def test_factorization_crosscheck_is_seeded():
    spec = GroupUnionSpec((2,))
    a = factorization_crosscheck(spec, 2, seed=5)
    b = factorization_crosscheck(spec, 2, seed=5)
    assert a.max_rel_error == b.max_rel_error


# ---------------------------------------------------------------------------
# convergence toward the target set
# ---------------------------------------------------------------------------

def _oracle_convergence(spec, n_max):
    """The per-section route: each section's full spectrum, then the
    nearest eigenvalue to every target."""
    rows = []
    for n_blocks in range(1, n_max + 1):
        result = finite_spectrum(FiniteSection.of(spec, n_blocks))
        vals = result.values
        bound = 2.0 * float(result.section.tilde_q[-1])
        for angle in union_points(spec):
            u = cmath.exp(2j * math.pi * float(angle))
            rows.append((n_blocks, angle, float(np.min(np.abs(vals - u))),
                         bound))
    return rows


class _Row(NamedTuple):
    n_blocks: int
    angle: Fraction
    distance: float
    bound: float
    tolerance: float
    resolved: bool
    ok: bool


def _rows(table):
    """The table's arrays as rows, by N and then by target, in the order
    of convergence.csv."""
    return [_Row(n, angle, distance, bound, tol, res, ok)
            for n, bound, tol, res, distances, oks in zip(
                range(1, len(table.distance) + 1), table.bound.tolist(),
                table.tolerance.tolist(), table.resolved.tolist(),
                table.distance.tolist(), table.ok.tolist())
            for angle, distance, ok in zip(table.angles, distances, oks)]


def _fields(table):
    return [(r.n_blocks, r.angle, r.distance, r.bound) for r in _rows(table)]


# n-max 60 unless listed; orders 1 and 2, whose only eigenvalue near u = 1
# is a secular root, also at 200
_ORACLE_N_MAX = {(1,): (60, 200), (2,): (60, 200), (96, 97): (8,)}


@pytest.mark.parametrize("orders", [(1,), (2,), (2, 3), (4, 6), (5, 7),
                                    (3,), (12,), (2, 3, 5), (96, 97)])
def test_convergence_matches_the_per_section_oracle_bitwise(orders):
    spec = GroupUnionSpec(orders)
    for n_max in _ORACLE_N_MAX.get(orders, (60,)):
        table = convergence_table(spec, n_max)
        assert _fields(table) == _oracle_convergence(spec, n_max)


def _row_loop(spec, n_max, dist):
    """The rows as the row-by-row table built them from the distances:
    one object per cell, its bound and tolerance in Python floats."""
    eps = float(np.finfo(float).eps)
    rows = []
    for n_blocks, row in zip(range(1, n_max + 1), dist.tolist()):
        qs = FiniteSection.of(spec, n_blocks).tilde_q
        bound = 2.0 * float(qs[-1])
        tol = (2 * n_blocks + 32) * eps
        rows.extend(_Row(n_blocks, angle, distance, bound, tol, bound > tol,
                         distance <= bound + tol)
                    for angle, distance in zip(union_points(spec), row))
    return rows


def _bits(row):
    return tuple(v.hex() if isinstance(v, float) else v for v in row)


@pytest.mark.parametrize("orders", [(1,), (2, 3), (4, 6), (5, 7)],
                         ids=lambda o: "-".join(map(str, o)))
def test_convergence_arrays_match_the_row_loop_bitwise(orders):
    # every field of every cell, the floats by their bits
    spec = GroupUnionSpec(orders)
    table = convergence_table(spec, 60)
    assert table.angles == union_points(spec)
    assert table.distance.shape == (60, len(table.angles))
    want = _row_loop(spec, 60, table.distance)
    assert list(map(_bits, _rows(table))) == list(map(_bits, want))
    assert {r.resolved for r in want} == {True, False}


def test_convergence_assembles_no_section(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("convergence_table assembled a section")

    monkeypatch.setattr(finite, "finite_spectrum", refuse)
    monkeypatch.setattr(oracles, "build_finite_section", refuse)
    spec = GroupUnionSpec((2, 3))
    assert convergence_table(spec, 16).distance.shape == (16, 4)


def _bisected(monkeypatch, orders, n_max):
    """Brackets that ``convergence_table`` bisects, per ``_bisect`` call."""
    sizes = []
    bisect = finite._bisect
    monkeypatch.setattr(finite, "_bisect",
                        lambda d, sections, sec, lo, hi:
                        sizes.append(lo.size) or bisect(d, sections, sec,
                                                        lo, hi))
    spec = GroupUnionSpec(orders)
    convergence_table(spec, n_max)
    return sizes


@pytest.mark.parametrize("orders,n_max,picked", [
    ((1,), 16, 32), ((2,), 16, 61), ((2, 3), 16, 61), ((5, 7), 16, 32),
    ((1,), 60, 127)])
def test_convergence_bisects_the_brackets_around_re_u_once(
        monkeypatch, orders, n_max, picked):
    # one call for all sections.  Only real targets get past the block
    # distance: u = 1 picks the last bracket, which holds 1, and the one
    # below it, u = -1 brackets 0 and 1, so order 1 bisects 2 per section
    # and orders (2,) and (2, 3) 4 (3 at N = 2, 2 at N = 1).  From N = 54 on,
    # 1 - q~_54 rounds to 1, so bracket 53 already ends at 1 and bracket 54
    # joins as k + 1: 120 + 7 at n-max 60
    assert _bisected(monkeypatch, orders, n_max) == [picked]


def test_dropping_the_bracket_above_re_u_fails_the_oracle(monkeypatch):
    # negative control: a rule that never bisects bracket k + 1, the one
    # whose lam-interval starts at or above Re u = 1, loses the nearest
    # root wherever 1 - q~_N rounds to 1, and with it the distance 0 at
    # N = 54 .. 60; the oracle's own bisection runs before the patch
    spec = GroupUnionSpec((1,))
    oracle = _oracle_convergence(spec, 60)
    bisect = finite._bisect

    def drop_above(d, sections, sec, lo, hi):
        keep = 1.0 - hi < 1.0
        roots = np.full(lo.size, np.inf)
        roots[keep] = bisect(d, sections, sec[keep], lo[keep], hi[keep])
        return roots

    monkeypatch.setattr(finite, "_bisect", drop_above)
    rows = _fields(convergence_table(spec, 60))
    changed = [r[:2] for r, o in zip(rows, oracle) if r != o]
    assert changed == [(n, 0) for n in range(54, 61)]


def _mp_zero(g, dg, lo, hi):
    """The zero of the strictly decreasing ``g`` in (lo, hi): Newton steps
    from the midpoint, a bisection wherever a step leaves the bracket."""
    x = (lo + hi) / 2
    while True:
        gx = g(x)
        lo, hi = (x, hi) if gx > 0 else (lo, x)
        step = x - gx / dg(x)
        if not lo < step < hi:
            step = (lo + hi) / 2
        if abs(step - x) < mpmath.mpf(10) ** -40 or step in (lo, hi):
            return step
        x = step


def _mp_secular_roots(d, qs):
    """The N + 1 secular roots lam = 1 - x at 50 digits, one in each
    interval between the poles x = q_n and beyond the outer two, where
    g(x) = 1 - x - sum_n d q_n^2 / (q_n - x) falls from +inf to -inf."""
    def g(x):
        return 1 - x - mpmath.fsum(d * q * q / (q - x) for q in qs)

    def dg(x):
        return -1 - mpmath.fsum(d * q * q / (q - x) ** 2 for q in qs)

    poles = sorted(qs)
    # outer ends where g has the sign of the far side: 1 - x dominates
    # once |x| exceeds 1 + d * sum q_n by a margin
    reach = 2 + d * mpmath.fsum(qs)
    ends = [poles[0] - reach, *poles, poles[-1] + reach]
    return [1 - _mp_zero(g, dg, a, b) for a, b in zip(ends, ends[1:])]


def _mp_distances(spec, n_max):
    """dist(u, sigma(T_N)) at 50 digits for every row of
    ``convergence_table``, in its order, with the section's float weights
    taken as exact: the block eigenvalues (1 - q~_n) zeta exactly, the
    secular roots by :func:`_mp_secular_roots`, not by ``finite._bisect``."""
    with mpmath.workdps(50):
        targets = [mpmath.expjpi(2 * mpmath.mpf(a.numerator) / a.denominator)
                   for a in union_points(spec)]
        zetas = [mpmath.expjpi(2 * mpmath.mpf(j) / m)
                 for m in spec.orders for j in range(1, m)]
        zetas += [mpmath.mpf(1)] * (len(spec.orders) - 1)
        out = []
        for n_blocks in range(1, n_max + 1):
            qs = [mpmath.mpf(float(q))
                  for q in FiniteSection.of(spec, n_blocks).tilde_q]
            values = [(1 - q) * z for q in qs for z in zetas]
            values += _mp_secular_roots(spec.d, qs)
            out.extend(min(abs(v - u) for v in values) for u in targets)
        return out


def _off_the_50_digit_distance(spec, n_max):
    """Rows whose distance is farther than their own tolerance tau_N from
    the 50-digit distance."""
    rows = _rows(convergence_table(spec, n_max))
    exact = _mp_distances(spec, n_max)
    assert len(rows) == len(exact)
    return [(r.n_blocks, r.angle) for r, x in zip(rows, exact)
            if abs(mpmath.mpf(r.distance) - x) > r.tolerance]


@pytest.mark.parametrize("orders", [(1,), (2, 3), (5, 7)],
                         ids=lambda o: "-".join(map(str, o)))
def test_convergence_distances_match_50_digits_within_tau(orders):
    # an oracle that does not share _bisect: the bound tau_N that the
    # docstring derives holds against the spectrum at 50 digits
    assert _off_the_50_digit_distance(GroupUnionSpec(orders), 16) == []


def test_a_broken_bisection_fails_the_50_digit_check(monkeypatch):
    # negative control: a _bisect that returns the midpoint of each initial
    # bracket puts the Perron root q~_N / 2 from u = 1, far outside tau_N
    monkeypatch.setattr(finite, "_bisect",
                        lambda d, sections, sec, lo, hi: 1.0 - 0.5 * (lo + hi))
    off = _off_the_50_digit_distance(GroupUnionSpec((2, 3)), 16)
    assert {(n, 0) for n in range(1, 17)} <= set(off)


def test_convergence_rows_resolved_up_to_the_rounding_tolerance():
    # tau_N = (2N + 32) eps; orders 2,3 have bound 2 q~_N = 2^(1-N) / 5
    # above it up to N = 43
    spec = GroupUnionSpec((2, 3))
    rows = _rows(convergence_table(spec, 60))
    eps = np.finfo(float).eps
    for r in rows:
        assert r.tolerance == (2 * r.n_blocks + 32) * eps
        assert r.resolved is (r.n_blocks <= 43)
        assert r.ok
    # past N = 51 (1 - q~_N) u rounds to u: distances of 0 that the old
    # absolute 1e-12 slack passed as checked
    assert any(r.distance == 0.0 and r.angle != 0 for r in rows)
    assert all(not r.resolved for r in rows if r.distance == 0.0
               and r.angle != 0)


def test_convergence_row_gate_can_fail(monkeypatch):
    # negative control: orders 1 have no block eigenvalue, so the distance
    # at their one target, u = 1, is a secular root's.  Roots put at
    # distances below 1 that are multiples of 2^-53, so that 1 - distance
    # and the distance are exact: the largest at or inside bound + tau
    # passes, the next one past it fails (from N = 2, where the bound
    # falls below 1)
    spec = GroupUnionSpec((1,))
    table = convergence_table(spec, 60)
    assert table.ok.all()
    ulp = 2.0 ** -53
    inside = np.floor((table.bound + table.tolerance) / ulp) * ulp
    inside[0] = 0.5
    for distance, ok in ((inside, True), (inside + ulp, False)):
        monkeypatch.setattr(finite, "_bisect", lambda d, sections, sec, lo,
                            hi: 1.0 - distance[sec])
        pushed = _rows(convergence_table(spec, 60))
        assert [r.distance for r in pushed] == distance.tolist()
        assert pushed[0].ok and all(r.ok is ok for r in pushed[1:])
        # a bound at or below tau is not resolved, whatever the distance
        assert [r.resolved for r in pushed] == \
            [r.bound > r.tolerance for r in pushed] == table.resolved.tolist()
    assert table.resolved[9] and not table.resolved[-1]


def test_convergence_refuses_an_empty_table():
    spec = GroupUnionSpec((2,))
    with pytest.raises(ValueError):
        convergence_table(spec, 0)


def test_convergence_rows_within_bound():
    spec = GroupUnionSpec((2, 3))
    rows = _rows(convergence_table(spec, 9))
    assert len(rows) == 9 * 4
    assert all(r.ok for r in rows)
    # the distance for u != 1 tracks the damping weight itself
    last = [r for r in rows if r.n_blocks == 9]
    for r in last:
        if r.angle != 0:
            assert r.distance == pytest.approx(r.bound / 2.0, rel=1e-6)
        else:
            assert r.distance < 1e-10


def test_convergence_distances_decrease():
    spec = GroupUnionSpec((2,))
    rows = _rows(convergence_table(spec, 8))
    half = [r.distance for r in rows if r.angle != 0]
    assert all(a > b for a, b in zip(half, half[1:]))
