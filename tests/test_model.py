"""Core data model: certified scalars, weights, block vectors, forward map."""

import math
from fractions import Fraction

import numpy as np
import pytest

from spectral_forge.errors import TailInvalid
from spectral_forge.model import (BlockVector, CertifiedComplex,
                                  GroupUnionSpec, TailProfile, WeightSeq,
                                  apply_operator, basis_head, norm1,
                                  pair_head, pair_weights,
                                  stochasticity_check, union_points,
                                  union_values, weight_vector)
from spectral_forge.scanner import _circle_kernel


# ---------------------------------------------------------------------------
# certified scalars
# ---------------------------------------------------------------------------

def test_certified_basic_queries():
    z = CertifiedComplex(3.0 + 4.0j, 0.5)
    assert z.abs_lower() == 4.5
    assert z.abs_upper() == 5.5
    assert z.excludes_zero()
    assert z.contains(3.2 + 4.1j)
    assert not z.contains(4.0 + 5.0j)
    assert not CertifiedComplex(0.1, 0.1).excludes_zero()


def test_certified_radius_rejects_nan_and_negative():
    with pytest.raises(ValueError):
        CertifiedComplex(1.0, -1e-30)
    with pytest.raises(ValueError):
        CertifiedComplex(1.0, float("nan"))


def test_certified_arithmetic_is_enclosure():
    # sampled containment: any pair of points from the operand disks must
    # combine into the result disk
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = CertifiedComplex(complex(rng.normal(), rng.normal()),
                             abs(rng.normal()) * 0.1)
        b = CertifiedComplex(complex(rng.normal(), rng.normal()) + 3.0,
                             abs(rng.normal()) * 0.1)
        pts = rng.random((8, 2))
        for ta, tb in pts:
            za = a.value + a.radius * np.exp(2j * np.pi * ta)
            zb = b.value + b.radius * np.exp(2j * np.pi * tb)
            assert (a + b).contains(za + zb)
            assert (a - b).contains(za - zb)
            assert (a * b).contains(za * zb)
            assert (a / b).contains(za / zb)


def test_certified_division_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        CertifiedComplex(1.0) / CertifiedComplex(0.5, 0.5)


def test_certified_mixed_scalar_ops():
    z = CertifiedComplex(2.0, 0.25)
    assert (1.0 - z).contains(-1.0)
    assert (2.0 * z).contains(4.5)
    assert (1.0 / z).radius >= 0.25 / (2.0 * 1.75)


# ---------------------------------------------------------------------------
# permutation part
# ---------------------------------------------------------------------------

def test_group_union_spec_layout():
    spec = GroupUnionSpec((2, 3))
    assert spec.d == 5
    assert spec.offsets == (0, 2)
    assert spec.period == 6
    assert GroupUnionSpec((4, 6)).period == 12


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
        p = spec.permutation_matrix()
        assert np.allclose(p.sum(axis=0), 1.0)
        for _ in range(5):
            x = rng.normal(size=spec.d) + 1j * rng.normal(size=spec.d)
            assert np.allclose(spec.permute(x), p @ x)
        assert np.allclose(np.linalg.matrix_power(p, spec.period),
                           np.eye(spec.d))


def test_permutation_spectrum_is_the_union():
    spec = GroupUnionSpec((2, 3))
    eig = np.linalg.eigvals(spec.permutation_matrix())
    target = union_values(spec)
    for z in eig:
        assert np.min(np.abs(target - z)) < 1e-12
    # the certification kernel measures the distance to the union
    dist = _circle_kernel(spec, WeightSeq.dyadic_single(5), [1.0, 1j], 1).dist
    assert dist[0] == 0.0
    assert dist[1] == pytest.approx(abs(1j - np.exp(2j * np.pi / 3)),
                                    abs=1e-12)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_dyadic_tail_identity_is_exact_in_floats():
    for d in (1, 2, 5, 12):
        w = WeightSeq.dyadic_single(d)
        total = 0.0
        for n in range(1, 53):
            total += w.mass(n)
            assert total == 1.0 - 2.0 ** -n          # exact, no tolerance
            assert w.tail_mass(n) == 2.0 ** -n
        assert w.partial_mass(40) == 1.0 - 2.0 ** -40


def test_weight_values_and_alias():
    w = WeightSeq.dyadic_single(5)
    assert w.value(3) == 2.0 ** -3 / 5
    assert np.allclose(w.values(4), [2.0 ** -n / 5 for n in range(1, 5)])
    with pytest.raises(ValueError):
        w.value(0)
    # the one-expression array is q_n term by term, subnormals included
    for w in (WeightSeq.dyadic_single(1), WeightSeq.dyadic_single(13),
              WeightSeq.dyadic_semigroup()):
        for depth in (1, 40, 1074, 1100):
            ref = np.array([w.value(n) for n in range(1, depth + 1)])
            assert w.values(depth).tobytes() == ref.tobytes()


def test_weight_rule_validation():
    with pytest.raises(ValueError):
        WeightSeq("elsewhere", 1.0)


def test_semigroup_weights_unit_mass():
    w = WeightSeq.dyadic_semigroup()
    assert w.mass_unit == pytest.approx(2.0 * math.pi)
    assert w.mass(1) == pytest.approx(0.5)
    assert w.tail_mass(0) == 1.0


# ---------------------------------------------------------------------------
# block vectors
# ---------------------------------------------------------------------------

def _geometric_tail(d, start, base=0.5, scale=1.0):
    return TailProfile(start,
                       lambda n: scale * base ** n,
                       lambda N: d * scale * base ** N / (1.0 - base))


def test_block_vector_validation():
    with pytest.raises(ValueError):
        BlockVector(3, 0j, {0: np.zeros(3)})
    with pytest.raises(ValueError):
        BlockVector(3, 0j, {1: np.zeros(4)})


def test_block_vector_block_access_and_tail():
    v = BlockVector(2, 1.0, {1: np.array([1.0, 2.0])}, _geometric_tail(2, 3))
    assert np.allclose(v.block(1), [1.0, 2.0])
    assert np.allclose(v.block(2), [0.0, 0.0])
    assert np.allclose(v.block(4), 0.5 ** 4 * np.ones(2))
    assert v.support_max == 3
    assert not v.is_finite


def test_block_vector_add_aligns_tails():
    a = BlockVector(1, 0j, {}, _geometric_tail(1, 2))
    b = BlockVector(1, 0j, {}, _geometric_tail(1, 5, scale=2.0))
    s = a + b
    # blocks 3..5 come only from a's tail; beyond 5 both contribute
    assert s.block(3)[0] == pytest.approx(0.5 ** 3)
    assert s.block(6)[0] == pytest.approx(3.0 * 0.5 ** 6)
    assert s.tail.remainder(5) == pytest.approx((1.0 + 2.0) * 0.5 ** 5 / 0.5)


def test_block_vector_scalar_multiply_scales_tail():
    v = BlockVector(2, 1.0, {1: np.ones(2)}, _geometric_tail(2, 1))
    u = (-2.0) * v
    assert u.head == -2.0
    assert np.allclose(u.block(1), -2.0 * np.ones(2))
    assert u.block(3)[0] == pytest.approx(-2.0 * 0.5 ** 3)
    assert u.tail.remainder(4) == pytest.approx(2.0 * 2.0 * 0.5 ** 4 / 0.5)


def test_materialize_and_truncate():
    v = BlockVector(2, 0.5, {}, _geometric_tail(2, 0))
    m = v.materialize(3)
    assert set(m.blocks) == {1, 2, 3}
    assert m.tail.start == 3
    finite, dropped = v.truncate(5)
    assert finite.is_finite
    assert dropped == pytest.approx(2.0 * 0.5 ** 5 / 0.5)
    brute = sum(2 * 0.5 ** n for n in range(6, 200))
    assert brute <= dropped


def test_norm1_exact_on_finite_vectors():
    v = BlockVector(2, -3.0 + 4.0j, {2: np.array([1.0, -1.0j])})
    n = norm1(v)
    assert n.radius == 0.0
    assert n.value == pytest.approx(5.0 + 2.0)


def test_norm1_expands_tail_to_requested_accuracy():
    v = BlockVector(1, 0j, {}, _geometric_tail(1, 0))
    n = norm1(v, accuracy=1e-10)
    brute = sum(0.5 ** k for k in range(1, 60))
    assert n.radius <= 1e-10
    assert abs(n.value.real - brute) <= n.radius + 1e-13


def test_norm1_raises_without_finite_bound():
    bad = BlockVector(1, 0j, {},
                      TailProfile(0, lambda n: 1.0 / n,
                                  lambda N: math.inf))
    with pytest.raises(TailInvalid):
        norm1(bad)


# ---------------------------------------------------------------------------
# forward operator
# ---------------------------------------------------------------------------

def test_apply_operator_matches_dense_section():
    # independent oracle: assemble the same structure as an explicit matrix
    rng = np.random.default_rng(23)
    spec = GroupUnionSpec((2, 3))
    w = WeightSeq.dyadic_single(spec.d)
    n_keep = 7
    p = spec.permutation_matrix()
    dim = n_keep * spec.d + 1
    dense = np.zeros((dim, dim))
    for n in range(1, n_keep + 1):
        q = w.value(n)
        sl = slice(1 + (n - 1) * spec.d, 1 + n * spec.d)
        dense[sl, sl] = (1.0 - q) * p
        dense[0, sl] = q
        dense[sl, 0] = q

    for _ in range(10):
        blocks = {n: rng.normal(size=spec.d) + 1j * rng.normal(size=spec.d)
                  for n in rng.choice(np.arange(1, n_keep + 1), 3,
                                      replace=False)}
        f = BlockVector(spec.d, complex(rng.normal(), rng.normal()), blocks)
        tf = apply_operator(spec, w, f)

        x = np.zeros(dim, dtype=complex)
        x[0] = f.head
        for n, b in blocks.items():
            x[1 + (n - 1) * spec.d: 1 + n * spec.d] = b
        y = dense @ x
        assert abs(tf.head - y[0]) < 1e-14
        for n in range(1, n_keep + 1):
            got = tf.block(n)
            assert np.allclose(got, y[1 + (n - 1) * spec.d: 1 + n * spec.d],
                               atol=1e-14)
        # the head also feeds every block beyond the dense cutoff
        if f.head != 0:
            assert tf.tail is not None
            assert tf.tail.coeff(n_keep + 3) == pytest.approx(
                f.head * w.value(n_keep + 3))


def test_apply_operator_rejects_tails_and_wrong_kind():
    spec = GroupUnionSpec((2,))
    w = WeightSeq.dyadic_single(2)
    with pytest.raises(TailInvalid):
        apply_operator(spec, w, weight_vector(spec, w))
    with pytest.raises(ValueError):
        apply_operator(spec, WeightSeq.dyadic_semigroup(),
                       basis_head(spec))


def test_weight_vector_has_unit_norm():
    spec = GroupUnionSpec((2, 3))
    w = WeightSeq.dyadic_single(spec.d)
    q = weight_vector(spec, w)
    n = norm1(q, accuracy=1e-13)
    assert abs(n.value.real - 1.0) <= 1e-12 + n.radius


def test_pairings():
    spec = GroupUnionSpec((2,))
    w = WeightSeq.dyadic_single(2)
    f = BlockVector(2, 2.5 + 1j, {3: np.array([1.0, 3.0])})
    assert pair_head(f) == 2.5 + 1j
    pw = pair_weights(spec, w, f)
    assert pw.radius == 0.0
    assert pw.value == pytest.approx(w.value(3) * 4.0)
    # against the head basis vector the pairing vanishes
    assert pair_weights(spec, w, basis_head(spec)).value == 0j


def test_pair_weights_certified_tail():
    spec = GroupUnionSpec((2,))
    w = WeightSeq.dyadic_single(2)
    q = weight_vector(spec, w)
    pw = pair_weights(spec, w, q, depth=30)
    brute = sum(2 * w.value(n) ** 2 for n in range(1, 120))
    assert abs(pw.value - brute) <= pw.radius
    assert pw.radius <= w.value(31) * 2.0 ** -30 + 1e-25


def test_stochasticity_check_passes():
    spec = GroupUnionSpec((2, 3))
    w = WeightSeq.dyadic_single(spec.d)
    rep = stochasticity_check(spec, w, trials=30, seed=3)
    assert rep.passed
    assert rep.max_norm_defect <= 1e-12
    assert rep.max_negativity <= 1e-15
