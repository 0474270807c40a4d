"""Core data model: permutation part, weights, forward map."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import build_finite_section, permutation_matrix
from spectral_forge.model import (GroupUnionSpec, apply_operator,
                                  dyadic_weights, union_points, union_values)
from spectral_forge.scanner import _circle_kernel
from spectral_forge.semigroup import TWO_PI


# ---------------------------------------------------------------------------
# permutation part
# ---------------------------------------------------------------------------

def test_group_union_spec_layout():
    spec = GroupUnionSpec((2, 3))
    assert spec.d == 5
    assert spec.offsets == (0, 2)


def test_group_union_spec_rejects_bad_orders():
    with pytest.raises(ValueError):
        GroupUnionSpec(())
    with pytest.raises(ValueError):
        GroupUnionSpec((2, 0))


def test_union_points_dedup_and_sort():
    pts = union_points(GroupUnionSpec((2, 3)))
    assert pts == [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    assert union_points(GroupUnionSpec((1,))) == [Fraction(0)]
    # overlapping groups: 4 and 6 share the square roots of unity
    pts46 = union_points(GroupUnionSpec((4, 6)))
    assert len(pts46) == 8
    assert Fraction(1, 2) in pts46


def test_permute_matches_matrix():
    rng = np.random.default_rng(5)
    for orders in [(1,), (3,), (2, 3), (4, 6, 2)]:
        spec = GroupUnionSpec(orders)
        p = permutation_matrix(spec)
        assert np.allclose(p.sum(axis=0), 1.0)
        for _ in range(5):
            x = rng.normal(size=spec.d) + 1j * rng.normal(size=spec.d)
            assert np.allclose(spec.permute(x), p @ x)
        assert np.allclose(np.linalg.matrix_power(p, math.lcm(*orders)),
                           np.eye(spec.d))
        # a stack of vectors is permuted along its last axis
        rows = rng.normal(size=(3, spec.d))
        assert (spec.permute(rows) == [spec.permute(r) for r in rows]).all()


def test_permutation_spectrum_is_the_union():
    spec = GroupUnionSpec((2, 3))
    eig = np.linalg.eigvals(permutation_matrix(spec))
    target = union_values(spec)
    for z in eig:
        assert np.min(np.abs(target - z)) < 1e-12
    # the certification kernel measures the distance to the union
    dist = _circle_kernel(spec, [1.0, 1j], 1).dist
    assert dist[0] == 0.0
    assert dist[1] == pytest.approx(abs(1j - np.exp(2j * np.pi / 3)),
                                    abs=1e-12)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_dyadic_tail_identity_is_exact_in_floats():
    for d in (1, 2, 5, 12):
        total = 0.0
        for n, q in enumerate(dyadic_weights(52, d).tolist(), 1):
            total += d * q
            assert total == 1.0 - 2.0 ** -n          # exact, no tolerance


def test_weight_values_and_alias():
    q = dyadic_weights(4, 5)
    assert q[2] == 2.0 ** -3 / 5
    assert np.allclose(q, [2.0 ** -n / 5 for n in range(1, 5)])
    assert dyadic_weights(0, 5).shape == (0,)


def _scalar_rule_misses(rule, units, depth=1100):
    """Per unit, the n <= depth where ``rule(depth, unit)`` is not the
    scalar 2.0 ** -n / unit bit for bit."""
    misses = {}
    for unit in units:
        ref = np.array([2.0 ** -n / unit for n in range(1, depth + 1)])
        got = rule(depth, unit)
        misses[unit] = (np.flatnonzero(got.view(np.uint64)
                                       != ref.view(np.uint64)) + 1).tolist()
    return misses


def test_dyadic_weights_are_the_scalar_rule_bit_for_bit():
    # the code writes a single q_n as 2.0 ** -n / unit: through the
    # subnormal weights (from n = 1020 or so) down to the zero ones past
    # n = 1075, the array must hold exactly those floats
    units = (1, 5, 10, 12, 13, TWO_PI)
    assert _scalar_rule_misses(dyadic_weights, units) == \
        {unit: [] for unit in units}
    # negative control: scaling 1 / unit by 2^-n rounds once, in the
    # subnormals, where the scalar rule rounds the quotient
    scaled = _scalar_rule_misses(
        lambda depth, unit: np.ldexp(1.0 / unit, -np.arange(1, depth + 1)),
        units)
    assert len(scaled[12]) == len(scaled[TWO_PI]) == 1
    assert scaled[1] == []


def test_semigroup_weights_unit_mass():
    q = dyadic_weights(60, TWO_PI)
    assert TWO_PI == pytest.approx(2.0 * math.pi)
    assert TWO_PI * q[0] == pytest.approx(0.5)
    assert TWO_PI * q.sum() == pytest.approx(1.0 - 2.0 ** -60)


# ---------------------------------------------------------------------------
# forward operator
# ---------------------------------------------------------------------------

def _raw_section(spec, n_blocks):
    return build_finite_section(spec, n_blocks, renormalize=False).matrix


def test_apply_operator_matches_dense_section():
    # independent oracle: the raw finite section as an explicit matrix
    rng = np.random.default_rng(23)
    for orders, n_keep in (((1,), 5), ((2, 3), 7), ((4, 6), 4)):
        spec = GroupUnionSpec(orders)
        dense = _raw_section(spec, n_keep)
        for _ in range(10):
            x = (rng.normal(size=dense.shape[0])
                 + 1j * rng.normal(size=dense.shape[0]))
            for n in rng.choice(n_keep, 2, replace=False):
                x[1 + n * spec.d:1 + (n + 1) * spec.d] = 0.0   # gaps
            tx = apply_operator(spec, x)
            assert np.allclose(tx, dense @ x, rtol=0.0, atol=1e-14)
            # bit for bit the block-by-block loop, head summed in order
            head = 0j
            for n in range(1, n_keep + 1):
                q = 2.0 ** -n / spec.d
                xn = x[1 + (n - 1) * spec.d:1 + n * spec.d]
                head += q * xn.sum()
                assert (tx[1 + (n - 1) * spec.d:1 + n * spec.d]
                        == (1.0 - q) * spec.permute(xn) + x[0] * q).all()
            assert tx[0] == head
            # past the support the head feeds the closed-form tail
            # x_0 q_n 1, exactly
            pad = np.concatenate([x, np.zeros(3 * spec.d)])
            tail = apply_operator(spec, pad)[x.size:]
            ref = np.repeat(x[0] * dyadic_weights(n_keep + 3, spec.d)[n_keep:],
                            spec.d)
            assert (tail == ref).all()


def test_apply_operator_rejects_partial_blocks_and_wrong_weights():
    spec = GroupUnionSpec((2,))
    for size in (0, 1, 2, 4):
        with pytest.raises(ValueError):
            apply_operator(spec, np.ones(size))
        with pytest.raises(ValueError):
            apply_operator(spec, np.ones((2, size)))
    # one leading batch axis at most, and one weight per block
    for shape in ((), (1, 1, 3)):
        with pytest.raises(ValueError):
            apply_operator(spec, np.ones(shape))
    for q in (np.ones(1), np.ones(3), np.ones((2, 1))):
        with pytest.raises(ValueError):
            apply_operator(spec, np.ones(5), q)


@pytest.mark.parametrize("orders", [(1,), (2, 3), (4, 6), (5, 7)])
def test_apply_operator_stacks_and_section_weights(orders):
    # a stack of vectors maps row by row, bit for bit; the section's
    # renormalised weights give the renormalised section's product; a
    # real stack stays real
    rng = np.random.default_rng(len(orders) + sum(orders))
    spec = GroupUnionSpec(orders)
    for n_keep in (1, 7):
        op = build_finite_section(spec, n_keep)
        dim = op.matrix.shape[0]
        real = rng.normal(size=(4, dim))
        stacked = real + 1j * rng.normal(size=(4, dim))
        for xs in (real, stacked):
            for q in (None, op.tilde_q):
                tx = apply_operator(spec, xs, q)
                assert tx.dtype == xs.dtype
                assert tx.tobytes() == np.array(
                    [apply_operator(spec, x, q) for x in xs]).tobytes()
            tx = apply_operator(spec, xs, op.tilde_q)
            assert np.allclose(tx, xs @ op.matrix.T, rtol=0.0, atol=1e-14)


def test_weight_vector_has_unit_norm():
    # T e is the coupling vector q: no head, q_n 1 in block n; its l1 norm
    # on 40 blocks plus the closed-form tail 2^-40 is one
    spec = GroupUnionSpec((2, 3))
    e = np.zeros(1 + 40 * spec.d)
    e[0] = 1.0
    q = apply_operator(spec, e)
    assert q[0] == 0.0
    assert (q[1:] == np.repeat(dyadic_weights(40, spec.d), spec.d)).all()
    assert abs(np.abs(q).sum() + 2.0 ** -40 - 1.0) <= 1e-15
