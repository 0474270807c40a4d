"""The numpy exponential of essentially nonnegative matrices behind evolve.

Its docstring bounds the error of expm(hM) for the chain generator M
entrywise; a 40-digit mpmath reference checks that bound at four step
lengths, and a variant that drops the Taylor remainder check must break
it.  Random Metzler matrices check nonnegativity, the exact identity at 0
and agreement with SciPy, which the package itself no longer imports.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm as scipy_expm

from spectral_forge import semigroup
from spectral_forge.errors import ExponentialUnresolved
from spectral_forge.model import DEFAULT_DEPTH
from spectral_forge.semigroup import TWO_PI, chain_generator, expm

U = 2.0 ** -53
STEPS = (0.25, 3.7, 50.0, 500.0)


def gamma(k):
    return k * U / (1.0 - k * U)


def squarings(a):
    """The docstring's s: the smallest s >= 0 with max(||A + alpha I||_1,
    alpha) < 2^(s-1)."""
    alpha = max(0.0, -float(a.diagonal().min()))
    b = a + alpha * np.eye(a.shape[0])
    return max(0, math.frexp(max(b.sum(axis=0).max(), alpha))[1] + 1)


def chain_bound(a, ref):
    """The docstring's entrywise bound on |expm(hM) - e^(hM)| for the chain
    generator: (exp(m delta) - 1) e^(hM)_ij + (w_j / w_i) 2 pi m u."""
    n = a.shape[0]
    m = 2.0 ** squarings(a)
    delta = gamma(14 * (n + 3) + 5) + gamma(n)
    w = np.full(n, TWO_PI)
    w[0] = 1.0
    return math.expm1(m * delta) * ref + np.outer(1.0 / w, w) * TWO_PI * m * U


@pytest.fixture(scope="module")
def chain():
    return chain_generator(DEFAULT_DEPTH)


@pytest.fixture(scope="module")
def references(chain):
    """e^(hM) of the float matrix hM, to 40 digits, for each step h."""
    out = {}
    with mpmath.workdps(40):
        for h in STEPS:
            out[h] = mpmath.expm(mpmath.matrix((h * chain).tolist()))
    return out


def audit(chain, references, h):
    """(entrywise error, docstring bound) of expm(hM)."""
    a = h * chain
    got = semigroup.expm(a)
    ref = references[h]
    n = a.shape[0]
    with mpmath.workdps(40):
        err = np.array([[float(abs(mpmath.mpf(float(got[i, j])) - ref[i, j]))
                         for j in range(n)] for i in range(n)])
        ref_f = np.array([[float(ref[i, j]) for j in range(n)]
                          for i in range(n)])
    return err, chain_bound(a, ref_f)


def test_taylor_degree_is_bounded_a_priori():
    # the docstring's K <= 14, and the degree grows with the scaled norm
    assert semigroup._TAYLOR_MAX == 14
    degrees = [semigroup._taylor_degree(t) for t in np.linspace(0, 0.5, 51)]
    assert degrees[0] == 1 and max(degrees) <= 14
    assert degrees == sorted(degrees)


@pytest.mark.parametrize("h", STEPS)
def test_chain_exponential_is_within_the_docstring_bound(chain, references,
                                                         h):
    err, bound = audit(chain, references, h)
    assert np.all(err <= bound)


@pytest.mark.parametrize("h", STEPS)
def test_bound_catches_a_sum_without_remainder_check(chain, references, h,
                                                     monkeypatch):
    # negative control: with the remainder check gone the sum stops at X
    monkeypatch.setattr(semigroup, "_taylor_tail", lambda tau, theta, k: 0.0)
    err, bound = audit(chain, references, h)
    assert np.any(err > bound)


def test_expm_of_zero_is_exactly_the_identity(chain):
    for n in (1, 2, 7, 41):
        assert np.array_equal(expm(np.zeros((n, n))), np.eye(n))
    # -0.0 on the diagonal, as 0 * M gives
    e = expm(0.0 * chain)
    assert np.array_equal(e, np.eye(chain.shape[0]))
    assert not np.any(np.signbit(e))


@st.composite
def metzler(draw):
    n = draw(st.integers(1, 6))
    a = draw(arrays(np.float64, (n, n), elements=st.floats(0.0, 20.0)))
    diag = draw(arrays(np.float64, n, elements=st.floats(-50.0, 20.0)))
    a[np.diag_indices(n)] = diag
    return a


@settings(max_examples=300, deadline=None)
@given(metzler())
def test_random_metzler_exponential_is_nonnegative_and_matches_scipy(a):
    # a zero step is exactly I, -0.0 diagonal entries included
    assert np.array_equal(expm(0.0 * a), np.eye(a.shape[0]))
    e = expm(a)
    assert e.dtype == np.float64 and e.shape == a.shape
    assert np.all(e >= 0.0)
    ref = scipy_expm(a)
    if not np.abs(e - ref).max() <= 1e-10 * np.abs(ref).max():
        # SciPy is not always right: on diag(5, 1e-38, 0) plus a 1 at
        # (2, 1) it returns -0.0 for that entry of e^A, which is 1.  A
        # 40-digit reference decides.
        n = a.shape[0]
        with mpmath.workdps(40):
            exact = mpmath.expm(mpmath.matrix(a.tolist()))
            ref = np.array([[float(exact[i, j]) for j in range(n)]
                            for i in range(n)])
        assert np.abs(e - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("a", [
    [[0.0, -1e-300], [0.0, 0.0]],
    [[-1.0, 2.0, -0.5], [0.0, -1.0, 0.0], [1.0, 1.0, -2.0]],
    [[np.nan]],
    [[0.0, np.inf], [0.0, 0.0]],
    [[-np.inf, 0.0], [0.0, 0.0]],
    [[1j]],
    [[1.0, 2.0]],
    np.zeros((0, 0)),
], ids=["negative-off-diagonal", "negative-3x3", "nan", "inf", "minus-inf",
        "complex", "not-square", "empty"])
def test_expm_rejects_input_that_is_not_finite_real_metzler(a):
    with pytest.raises(ValueError):
        expm(np.asarray(a))


def test_expm_refuses_where_the_bound_is_void_and_never_overflows_2_to_s():
    # 2^s is far beyond the float range here; the refusal comes first
    a = np.array([[-1e300, 1e300], [1e300, -1e300]])
    with pytest.raises(ExponentialUnresolved, match="squarings"):
        expm(a)
    with pytest.raises(ExponentialUnresolved):
        expm(np.array([[0.0, 1.7e308], [1.7e308, 0.0]]))


def test_expm_refusal_sits_where_exp_m_delta_minus_one_reaches_one(chain):
    # for n = 41, delta = gamma_621 + gamma_41: s = 43 is computed and
    # s = 44 refused
    n = chain.shape[0]
    delta = gamma(14 * (n + 3) + 5) + gamma(n)
    assert math.expm1(2.0 ** 43 * delta) <= 1.0 < math.expm1(2.0 ** 44 * delta)
    h43 = 2.0 ** 41                          # ||hM + hI||_1 ~ 1.42 h
    assert squarings(h43 * chain) == 43
    assert np.all(np.isfinite(expm(h43 * chain)))
    with pytest.raises(ExponentialUnresolved):
        expm(2.0 * h43 * chain)


def test_expm_raises_overflow_when_the_exponential_leaves_the_float_range():
    with pytest.raises(OverflowError):
        expm(800.0 * np.eye(2))
    with pytest.raises(OverflowError):
        expm(np.array([[1e308, 0.0], [0.0, -1e308]]))
    assert np.isfinite(expm(700.0 * np.eye(2))).all()
