"""Closed-form resolvents, certified series, rank-one updates."""

import math

import numpy as np
import pytest

from spectral_forge.errors import (SingularBlock, SingularUpdate,
                                   SpectralForgeError, TailInvalid)
from spectral_forge.model import (BlockVector, CertifiedComplex,
                                  GroupUnionSpec, WeightSeq, apply_operator,
                                  basis_head, norm1, weight_vector)
from spectral_forge.resolvent import (CERTIFIED, SINGULAR, TAIL_INVALID,
                                      RankOneUpdate, coupling_series_batch,
                                      cyclic_shift_resolvent, resolvent_diag,
                                      resolvent_full,
                                      sherman_morrison_resolvent)
from spectral_forge.scanner import _circle_kernel


def _point(spec, w, lam, depth=40):
    """The kernel's answer at one parameter: a batch of one."""
    return _circle_kernel(spec, w, [lam], depth)


def _cyclic_matrix(m):
    c = np.zeros((m, m))
    for i in range(m):
        c[(i + 1) % m, i] = 1.0
    return c


# ---------------------------------------------------------------------------
# cyclic blocks
# ---------------------------------------------------------------------------

def test_cyclic_resolvent_m2_at_two_exact():
    res = cyclic_shift_resolvent(2, 2.0)
    assert res.coeffs[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert res.coeffs[1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert res.norm1() == pytest.approx(1.0, abs=1e-15)


def test_cyclic_resolvent_matches_dense_inverse():
    rng = np.random.default_rng(2)
    for m in (1, 2, 3, 5, 8):
        c = _cyclic_matrix(m)
        for _ in range(6):
            mu = complex(rng.normal(), rng.normal()) * 1.5
            if abs(mu ** m - 1.0) < 1e-6:
                continue
            res = cyclic_shift_resolvent(m, mu)
            ref = np.linalg.inv(mu * np.eye(m) - c)
            assert np.allclose(res.matrix(), ref, atol=1e-10)
            x = rng.normal(size=m) + 1j * rng.normal(size=m)
            assert np.allclose(res.apply(x), ref @ x, atol=1e-10)
            assert res.norm1() == pytest.approx(
                np.abs(ref).sum(axis=0).max(), rel=1e-12)


def test_cyclic_resolvent_refuses_roots_of_unity():
    for m, mu in [(1, 1.0), (2, -1.0), (3, np.exp(2j * np.pi / 3)), (4, 1j)]:
        with pytest.raises(SingularBlock):
            cyclic_shift_resolvent(m, mu)


# ---------------------------------------------------------------------------
# block-diagonal resolvent
# ---------------------------------------------------------------------------

def test_resolvent_diag_inverts_blockwise():
    rng = np.random.default_rng(9)
    spec = GroupUnionSpec((2, 3))
    w = WeightSeq.dyadic_single(spec.d)
    lam = 0.3 + 0.7j
    f = BlockVector(spec.d, 1.5 - 0.5j,
                    {2: rng.normal(size=5) + 0j, 6: rng.normal(size=5) + 0j})
    g = resolvent_diag(spec, w, lam, f)
    # (lam - S) g must reproduce f: head is lam * g_0, block n is
    # lam g_n - (1-q_n) P g_n
    assert lam * g.head == pytest.approx(f.head)
    for n in (2, 6):
        q = w.value(n)
        back = lam * g.block(n) - (1.0 - q) * spec.permute(g.block(n))
        assert np.allclose(back, f.block(n), atol=1e-12)


def test_resolvent_diag_tail_coefficients():
    spec = GroupUnionSpec((2,))
    w = WeightSeq.dyadic_single(2)
    q = weight_vector(spec, w)
    g = resolvent_diag(spec, w, 2.0, q)
    n = 5
    assert g.tail.coeff(n) == pytest.approx(w.value(n) / (1.0 + w.value(n)))
    # remainder: mass 2^-N over the uniform gap |lam-1| - q_{N+1}
    assert g.tail.remainder(10) == pytest.approx(
        2.0 ** -10 / (1.0 - w.value(11)))


def test_spectrum_gap_examples():
    spec = GroupUnionSpec((2,))
    w = WeightSeq.dyadic_single(2)

    def gap(lam):
        return _point(spec, w, lam).gap[0]

    # at the origin and at peripheral points the gap collapses
    assert gap(0.0) == 0.0
    assert gap(-1.0) == 0.0
    assert gap(1.0) == 0.0
    # the damped copy of -1 is spectrum too (up to the rounding of exp(i*pi))
    assert gap(-(1.0 - w.value(3))) < 1e-15
    # but i keeps distance 1 to {0} and ~sqrt(2) to the rest
    assert gap(1j) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# certified coupling series
# ---------------------------------------------------------------------------

def test_coupling_series_frozen_reference():
    # partial sum of 2^-2n / (lam - 1 + 2^-n) at lam = -1, thirty terms
    spec = GroupUnionSpec((1,))
    w = WeightSeq.dyadic_single(1)
    values, radius, valid = coupling_series_batch(spec, w, [-1.0], 30)
    assert values[0] == pytest.approx(-0.21339030483058352, abs=1e-16)
    assert radius == 2.0 ** -30
    assert valid[0]


def test_coupling_series_tail_bound_is_honest():
    # the depth-25 denominator disk holds the depth-50 centre
    spec = GroupUnionSpec((2, 3))
    w = WeightSeq.dyadic_single(spec.d)
    rng = np.random.default_rng(17)
    lams = np.exp(2j * np.pi * rng.random(25))
    lams = lams[np.abs(lams - 1.0) >= 0.2]
    shallow = _circle_kernel(spec, w, lams, 25)
    deep = _circle_kernel(spec, w, lams, 50)
    assert shallow.valid.all() and deep.valid.all()
    assert (np.abs(shallow.den - deep.den) <= shallow.den_radius).all()
    assert (deep.den_radius < shallow.den_radius).all()


def test_coupling_series_rejects_the_distinguished_direction():
    spec = GroupUnionSpec((2,))
    w = WeightSeq.dyadic_single(2)
    # lam = 1 and the centre of the violating circle for n = 5
    k = _circle_kernel(spec, w, [1.0, 1.0 - 2.0 * w.value(5)], 40)
    assert not k.valid.any()
    assert list(k.verdict) == [TAIL_INVALID, TAIL_INVALID]
    assert (k.den_lower == 0.0).all()


def test_coupling_series_batch_agrees_with_scalar():
    # a scalar query is a batch of one, bit for bit
    spec = GroupUnionSpec((2, 3))
    w = WeightSeq.dyadic_single(spec.d)
    lams = np.exp(2j * np.pi * np.linspace(0.03, 0.97, 40))
    values, radius, valid = coupling_series_batch(spec, w, lams, 40)
    assert radius == 2.0 ** -40
    assert valid.all()
    for lam, val in zip(lams, values):
        one, radius1, _ = coupling_series_batch(spec, w, [lam], 40)
        assert one[0] == val and radius1 == radius
    # lam = 1 is flagged invalid instead of raising
    _, _, valid1 = coupling_series_batch(spec, w, np.array([1.0 + 0j]), 40)
    assert not valid1[0]


def test_resolvent_denominator_frozen_values():
    spec1 = GroupUnionSpec((1,))
    den1 = _point(spec1, WeightSeq.dyadic_single(1), -1.0, 30)
    assert den1.den[0] == pytest.approx(0.7866096951694165, abs=1e-16)
    assert den1.den_radius[0] == 2.0 ** -30
    assert den1.den_lower[0] > 0.0

    spec2 = GroupUnionSpec((2,))
    den2 = _point(spec2, WeightSeq.dyadic_single(2), -1.0, 40)
    # the denominator alone would wrongly suggest a resolvent point at -1
    assert den2.den[0] == pytest.approx(0.9065527236721663, abs=1e-15)
    assert den2.den_lower[0] > 0.0


# ---------------------------------------------------------------------------
# rank-one updates
# ---------------------------------------------------------------------------

def test_sherman_morrison_dense_oracle():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        a = (rng.standard_normal((n, n))
             + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
        wvec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lam = 3.0 * np.exp(2j * np.pi * rng.random())
        r = np.linalg.inv(lam * np.eye(n) - a)
        gamma = phi @ r @ wvec
        if abs(1.0 - gamma) < 0.05:
            continue
        upd = RankOneUpdate(w=wvec, phi=phi,
                            pair=lambda p, v: complex(p @ v))
        action = sherman_morrison_resolvent(lambda v: r @ v, upd)
        direct = np.linalg.inv(lam * np.eye(n) - a - np.outer(wvec, phi))
        for _ in range(3):
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.allclose(action(f), direct @ f, atol=1e-9)


def test_sherman_morrison_scalar_case():
    # 1-d sanity: A = 0.5, update w=phi=1, resolvent 1/(lam - 0.5 - 1)
    lam = 3.0
    r = 1.0 / (lam - 0.5)
    upd = RankOneUpdate(w=np.array([1.0 + 0j]), phi=np.array([1.0 + 0j]),
                        pair=lambda p, v: complex(p @ v))
    action = sherman_morrison_resolvent(lambda v: r * v, upd)
    out = action(np.array([1.0 + 0j]))
    assert out[0] == pytest.approx(1.0 / (lam - 1.5), abs=1e-15)


def test_sherman_morrison_rejects_disk_containing_one():
    upd = RankOneUpdate(w=np.array([1.0]), phi=np.array([1.0]),
                        pair=lambda p, v: complex(p @ v))
    with pytest.raises(SingularUpdate) as info:
        sherman_morrison_resolvent(lambda v: v, upd,
                                   gamma=CertifiedComplex(1.0 + 0j, 0.0))
    assert not info.value.radius_dominated
    with pytest.raises(SingularUpdate) as info:
        sherman_morrison_resolvent(lambda v: v, upd,
                                   gamma=CertifiedComplex(1.001, 0.01))
    assert info.value.radius_dominated


# ---------------------------------------------------------------------------
# full resolvent
# ---------------------------------------------------------------------------

def _dense_section(spec, w, n_keep):
    p = spec.permutation_matrix()
    dim = 1 + n_keep * spec.d
    dense = np.zeros((dim, dim))
    for n in range(1, n_keep + 1):
        q = w.value(n)
        sl = slice(1 + (n - 1) * spec.d, 1 + n * spec.d)
        dense[sl, sl] = (1.0 - q) * p
        dense[0, sl] = q
        dense[sl, 0] = q
    return dense


def _flatten(vec, spec, n_keep):
    x = np.zeros(1 + n_keep * spec.d, dtype=complex)
    x[0] = vec.head
    for n in range(1, n_keep + 1):
        x[1 + (n - 1) * spec.d: 1 + n * spec.d] = vec.block(n)
    return x


def test_resolvent_full_residual_identity():
    spec = GroupUnionSpec((2, 3))
    w = WeightSeq.dyadic_single(spec.d)
    f = BlockVector(spec.d, 1.0 + 0j, {1: np.arange(5.0) + 0j})
    for lam in (2.0, -1.0 + 0.4j, 0.3 + 0.8j):
        g = resolvent_full(spec, w, lam, f)
        gt, dropped = g.truncate(50)
        resid = lam * gt - apply_operator(spec, w, gt) - f
        assert norm1(resid).abs_upper() <= 1e-9 * norm1(f).value.real \
            + (abs(lam) + 1.0) * dropped + 1e-12


def test_resolvent_full_matches_dense_solve_outside_disk():
    # independent oracle at lam = 2: a deep raw finite section differs from
    # the full operator only by a 2^-45-mass column truncation
    spec = GroupUnionSpec((2,))
    w = WeightSeq.dyadic_single(2)
    n_keep = 45
    dense = _dense_section(spec, w, n_keep)
    f = BlockVector(spec.d, 0.7 + 0j, {2: np.array([1.0, -2.0 + 0j])})
    g = resolvent_full(spec, w, 2.0, f)
    x = np.linalg.solve(2.0 * np.eye(dense.shape[0]) - dense,
                        _flatten(f, spec, n_keep))
    assert np.allclose(_flatten(g.materialize(n_keep), spec, n_keep), x,
                       atol=1e-10)


def test_resolvent_full_neumann_oracle():
    # second route: R(2, T) f = sum_k T^k f / 2^(k+1), iterated through
    # truncated forward maps
    spec = GroupUnionSpec((1,))
    w = WeightSeq.dyadic_single(1)
    f = BlockVector(1, 1.0 + 0j, {1: np.array([1.0 + 0j])})
    acc = BlockVector(1, 0j)
    term = f
    for k in range(60):
        acc = acc + (0.5 ** (k + 1)) * term
        term, _ = apply_operator(spec, w, term).truncate(70)
    g = resolvent_full(spec, w, 2.0, f)
    diff = g.materialize(70) - acc
    diff_f, drop = diff.truncate(70)
    assert norm1(diff_f).value.real + drop < 1e-9


def test_resolvent_full_raises_at_singular_points():
    spec = GroupUnionSpec((2,))
    w = WeightSeq.dyadic_single(2)
    f = basis_head(spec)
    with pytest.raises((SingularUpdate, SingularBlock, SpectralForgeError)):
        resolvent_full(spec, w, 1.0, f)
    # where the series' batch of one fails the tail guard: TailInvalid
    with pytest.raises(TailInvalid):
        resolvent_full(spec, w, 1.0 - 2.0 * w.value(5), f)


# ---------------------------------------------------------------------------
# pointwise certification through the scanner's kernel
# ---------------------------------------------------------------------------

def test_certify_point_verdicts():
    w1 = WeightSeq.dyadic_single(1)
    w2 = WeightSeq.dyadic_single(2)
    spec1 = GroupUnionSpec((1,))
    spec2 = GroupUnionSpec((2,))

    k1 = _circle_kernel(spec1, w1, [-1.0, 1j, 1.0], 40)
    assert list(k1.verdict) == [CERTIFIED, CERTIFIED, TAIL_INVALID]

    # with the second group the point -1 is peripheral spectrum: the
    # denominator still excludes zero there, so the gap check must veto
    k2 = _circle_kernel(spec2, w2, [-1.0, 0.5j, 0.0], 40)
    assert list(k2.verdict) == [SINGULAR, CERTIFIED, SINGULAR]
    assert k2.valid[0] and k2.den_lower[0] > 0.0
    assert k2.gap[0] == 0.0
    # lam = 0 is head spectrum: no gap and no denominator disk
    assert k2.gap[2] == 0.0 and k2.den_lower[2] == 0.0


def test_certified_point_denominator_lower_bound():
    spec = GroupUnionSpec((2, 3))
    w = WeightSeq.dyadic_single(spec.d)
    k = _point(spec, w, np.exp(0.41j * 2 * np.pi))
    assert k.verdict[0] == CERTIFIED
    assert k.den_lower[0] > 0.0
    assert k.den_lower[0] <= abs(k.den[0])


# ---------------------------------------------------------------------------
# observed block bounds
# ---------------------------------------------------------------------------

def test_block_resolvent_bound_matches_dense():
    spec = GroupUnionSpec((2,))
    w = WeightSeq.dyadic_single(2)
    lam = 1j
    bound = _point(spec, w, lam, depth=6).block_bound[0]
    c = _cyclic_matrix(2)
    worst = 0.0
    for n in range(1, 7):
        q = w.value(n)
        inv = np.linalg.inv(lam * np.eye(2) - (1.0 - q) * c)
        worst = max(worst, np.abs(inv).sum(axis=0).max())
    assert bound == pytest.approx(worst, rel=1e-12)


def test_block_resolvent_bound_blows_up_on_spectrum():
    # on the damped copy of -1 the block determinant vanishes; the kernel
    # floors it at 1e-300, so the bound is astronomically large
    spec = GroupUnionSpec((2,))
    w = WeightSeq.dyadic_single(2)
    assert _point(spec, w, -(1.0 - w.value(2))).block_bound[0] >= 1e300
