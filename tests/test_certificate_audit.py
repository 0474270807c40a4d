"""Independent oracle for the approximate-eigenvalue certificates.

For T, ||(T - u) x||_1 is evaluated in 50-digit mpmath from the definition
of T, with x the l1-normalised eigenvector z_i = u^-i / m of the first
cyclic sub-block of order m carrying u, placed in block n.  It must equal
the identity 2^-n (1 + [u = 1]) / d that ``residual_certificate`` states,
and the float residual of every resolved certificate must lie within its
derived tolerance of it.  For A, the single mode k of unit mass at block n
has ||(A - i r) z|| = |i (omega_n k - r) - q_n|, which must be
2^-n / (2 pi) at every rational speed r in [1, 2] with denominator <= 30.
"""

import functools
from fractions import Fraction

import mpmath
import pytest

from spectral_forge import cli
from spectral_forge.model import GroupUnionSpec, union_points
from spectral_forge.scanner import residual_certificate
from spectral_forge.semigroup import mode_certificate, omega

ORDERS = [(1,), (2, 3), (4, 6), (5, 7)]
BLOCKS = range(1, 61)


def _exact_residual(orders, angle: Fraction, n: int):
    """||(T - u) x||_1 to 50 digits: head q_n <1, z>, block part
    (1 - q_n) P z - u z."""
    m = next(m for m in orders if (angle * m).denominator == 1)
    with mpmath.workdps(50):
        u = mpmath.expjpi(2 * mpmath.mpf(angle.numerator) / angle.denominator)
        z = [u ** -i / m for i in range(m)]
        q = mpmath.ldexp(1, -n) / sum(orders)
        head = q * mpmath.fsum(z)
        # P moves entry i - 1 of the cycle to entry i
        block = [(1 - q) * z[i - 1] - u * z[i] for i in range(m)]
        return abs(head) + mpmath.fsum(abs(b) for b in block)


@functools.lru_cache(maxsize=None)
def _identity(d: int, inner: int, n: int):
    with mpmath.workdps(50):
        return mpmath.ldexp(1 + inner, -n) / d


@pytest.mark.parametrize("orders", ORDERS, ids=lambda o: ",".join(map(str, o)))
def test_circle_residual_is_the_identity(orders):
    spec = GroupUnionSpec(orders)
    for angle in union_points(spec):
        inner = int(angle == 0)
        for n in BLOCKS:
            exact = _exact_residual(orders, angle, n)
            rho = _identity(spec.d, inner, n)
            assert abs(exact - rho) <= mpmath.mpf(10) ** -25 * rho
            c = residual_certificate(spec, angle, n)
            assert c.identity == f"2^-{n} * (1 + {inner})/{spec.d}"
            assert c.log2_residual == pytest.approx(
                float(mpmath.log(rho, 2)), rel=0.0, abs=1e-12)
            # negative control: the identity without its (1 + [u = 1])
            # factor misses the residual at u = 1 by the residual's half
            bare = _identity(spec.d, 0, n)
            assert (abs(exact - bare) > bare / 2) is bool(inner)


@pytest.mark.parametrize("orders", ORDERS + [(360,)],
                         ids=lambda o: ",".join(map(str, o)))
def test_circle_float_residual_is_within_the_tolerance(orders):
    # at every resolved block the forward map's residual lies within the
    # derived tolerance of the 50-digit value, and of its float
    spec = GroupUnionSpec(orders)
    resolved = 0
    for angle in union_points(spec):
        inner = int(angle == 0)
        for n in BLOCKS:
            c = residual_certificate(spec, angle, n)
            if not c.resolved:
                break
            resolved += 1
            rho = _identity(spec.d, inner, n)
            assert abs(mpmath.mpf(c.residual) - rho) <= c.tolerance
            assert c.margin >= 0.0 and c.matches
    assert resolved >= 30 * len(union_points(spec))


def test_wrong_sub_block_fails_the_cross_check(monkeypatch):
    # negative control: u = -1 is carried by the order-2 sub-block of
    # orders 2,3, at offset 0; with that offset misreported as 2, its
    # eigenvector (1, -1) / 2 lands in the order-3 cycle, which it is no
    # eigenvector of, and the residual must miss the identity
    spec = GroupUnionSpec((2, 3))
    spec.gather                       # the true permutation, cached first
    monkeypatch.setattr(GroupUnionSpec, "offsets", property(lambda s: (2, 0)))
    for n in (1, 30, 44):
        c = residual_certificate(spec, Fraction(1, 2), n)
        assert c.resolved and c.margin < 0.0
        assert not c.matches


def _speeds(max_denominator: int):
    """Every rational in [1, 2] with denominator <= max_denominator."""
    return sorted({Fraction(p, s) for s in range(1, max_denominator + 1)
                   for p in range(s, 2 * s + 1)})


def test_axis_residual_is_the_identity_at_every_speed():
    speeds = _speeds(30)
    assert len(speeds) == 279
    for r in speeds:
        c = mode_certificate(r)
        n, k = c.block_index, c.mode
        assert omega(n) * k == r and c.matches
        assert c.identity == f"2^-{n} * 1/(2 pi)"
        with mpmath.workdps(50):
            q = mpmath.ldexp(1, -n) / (2 * mpmath.pi)
            gap = omega(n) * k - r
            exact = abs(mpmath.mpc(-q, mpmath.mpf(gap.numerator)
                                   / gap.denominator))
            assert exact == q
            assert c.log2_residual == pytest.approx(
                float(mpmath.log(q, 2)), rel=0.0, abs=1e-12)
            if c.resolved:
                assert abs(mpmath.mpf(c.residual) - q) <= c.tolerance


def test_cert_certifies_every_speed_at_first_occurrence(tmp_path, capsys):
    # 84% of these speeds first occur past block 1074, where 2^-n / (2 pi)
    # is 0.0 in floats: there the identity alone is stated, and holds
    speeds = ",".join(str(r) for r in _speeds(30))
    assert cli.main(["semigroup", "cert", "--r", speeds,
                     "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 279
    alone = sum(line.endswith("(identity alone)") for line in lines)
    assert 0.8 * 279 < alone < 279
