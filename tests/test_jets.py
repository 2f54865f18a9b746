import cmath
import math
import struct
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordalqc.errors import BranchCutError, EvaluationError
from chordalqc.jets import (
    ORDER,
    Jet,
    _all_finite,
    jet_constant,
    jet_div,
    jet_mul,
    jexp,
    jlog,
    jrecip,
    jsqrt,
    lift_variable,
)
from chordalqc.maps import half_strip_g, moebius

from oracles import (
    fd_derivatives,
    generic_add,
    generic_add_scalar,
    generic_div_scalar,
    generic_leibniz,
    generic_mul_scalar,
    generic_neg,
    rel_err,
)


def assert_jet_close(jet, expected, tol=1e-12):
    assert len(jet.coeffs) == len(expected)
    for got, want in zip(jet.coeffs, expected):
        assert abs(complex(got) - complex(want)) <= tol * max(1.0, abs(complex(want)))


def test_lift_variable_identity_cases():
    assert lift_variable(0).coeffs == (0j, 1.0, 0.0, 0.0)
    assert lift_variable(2 + 3j).coeffs == (2 + 3j, 1.0, 0.0, 0.0)


def test_lift_variable_rejects_nonfinite():
    with pytest.raises(EvaluationError):
        lift_variable(complex("inf"))


def test_square_by_mul():
    x = lift_variable(1.0)
    assert_jet_close(x * x, (1, 2, 2, 0))


def test_div_self_is_one():
    x = lift_variable(0.7 + 0.2j)
    assert_jet_close(jet_div(x, x), (1, 0, 0, 0))


def test_reciprocal_derivatives_at_one():
    x = lift_variable(1.0)
    assert_jet_close(jet_div(jet_constant(1.0, 1.0), x), (1, -1, 2, -6))
    assert_jet_close(1 / x, (1, -1, 2, -6))


def test_center_mismatch_rejected():
    with pytest.raises(EvaluationError, match="center"):
        jet_mul(lift_variable(1.0), lift_variable(2.0))


def test_division_by_zero_value_rejected():
    x = lift_variable(0.0)
    with pytest.raises(EvaluationError, match="zero value"):
        jet_div(jet_constant(1.0, 0.0), x)


def test_division_by_zero_value_names_first_point():
    x = lift_variable(np.array([[2.0 + 1j, 1.0 + 0j], [0.0 + 0j, 1.0 + 0j]]))
    with pytest.raises(EvaluationError, match=r"zero value at z=\(1\+0j\)$"):
        jet_div(jet_constant(1.0, x.center), x - 1.0)
    with pytest.raises(EvaluationError, match=r"zero value at z=0j$"):
        jet_div(jet_constant(1.0, 0j), lift_variable(0j))


def test_division_overflowed_term_against_zero_coefficient_adds_zero():
    # z / 1e-308: the term 2 * q1 * v[1] is 2e308 * 0, which inf * 0 would make NaN,
    # although the quotient's jet (5e307, 1e308, 0, 0) is finite
    assert moebius(1, 0, 0, 1e-308).jet(0.5).coeffs == (5e307, 1e308, 0, 0)
    # on an array the point next to it keeps the bits of the unrepaired recursion
    center = np.array([0.5 + 0j, 0.7 + 0.3j])
    rest = (np.array([0j, 0.3 - 0.1j]), np.array([0j, 0.2 + 0j]), np.array([0j, -0.1j]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = jet_div(lift_variable(center), Jet(center, (np.array([1e-308, 2 + 1j]),) + rest))
    plain = jet_div(lift_variable(center), Jet(center, (np.array([1.0, 2 + 1j]),) + rest))
    assert [c[0] for c in got.coeffs] == [5e307, 1e308, 0, 0]
    for g, p in zip(got.coeffs, plain.coeffs):
        assert g[1:].tobytes() == p[1:].tobytes()


def test_elementary_anchor_tables():
    assert_jet_close(jexp(lift_variable(0)), (1, 1, 1, 1))
    assert_jet_close(jlog(lift_variable(1)), (0, 1, -1, 2))
    assert_jet_close(jsqrt(lift_variable(1)), (1, 0.5, -0.25, 0.375))


def test_branch_cut_rejections():
    with pytest.raises(BranchCutError):
        jlog(lift_variable(-1.0))
    with pytest.raises(BranchCutError):
        jsqrt(lift_variable(-2.0))
    with pytest.raises(BranchCutError):
        jsqrt(lift_variable(0.0))
    with pytest.raises(EvaluationError):
        jrecip(lift_variable(0.0))


def test_scalar_path_matches_cmath():
    z = 0.3 + 0.8j
    assert jexp(z) == cmath.exp(z)
    assert jlog(z) == cmath.log(z)
    assert jsqrt(z) == cmath.sqrt(z)
    assert jrecip(z) == 1 / z
    # scalar sqrt at 0 stays computable (jets there are rejected)
    assert jsqrt(0j) == 0j


def test_scalar_affine_arithmetic():
    x = lift_variable(2.0)
    assert_jet_close(2 * x + 1, (5, 2, 0, 0))
    assert_jet_close((x - 1) / 2, (0.5, 0.5, 0, 0))


_POINTS = {
    "exp": [0.0, 1.2 - 0.7j, -2.0 + 0.3j],
    "log": [1.0, 2.5 + 1.5j, 0.2 - 0.4j],
    "sqrt": [1.0, 0.5 + 2j, 3.0 - 1j],
    "recip": [1.0, -0.3 + 0.9j, 2.0 + 2.0j],
}

_SCALARS = {
    "exp": lambda w: __import__("mpmath").exp(w),
    "log": lambda w: __import__("mpmath").log(w),
    "sqrt": lambda w: __import__("mpmath").sqrt(w),
    "recip": lambda w: 1 / w,
}

_HELPERS = {"exp": jexp, "log": jlog, "sqrt": jsqrt, "recip": jrecip}


@pytest.mark.parametrize("fn", sorted(_POINTS))
def test_elementary_against_fd_oracle(fn):
    for z0 in _POINTS[fn]:
        jet = _HELPERS[fn](lift_variable(z0))
        oracle = fd_derivatives(_SCALARS[fn], z0)
        assert len(jet.coeffs) == len(oracle)
        for got, want in zip(jet.coeffs, oracle):
            assert rel_err(complex(got), want) <= 1e-6


def test_composition_chain_against_fd_oracle():
    # exp(1/(1+z^2)) exercises mul, add, recip, exp in one chain
    def chain(w):
        return jexp(jrecip(1 + w * w))

    import mpmath

    def scalar(w):
        return mpmath.exp(1 / (1 + w * w))

    for z0 in (0.3, 1.0 + 0.5j, -0.2 + 2.0j):
        jet = chain(lift_variable(z0))
        oracle = fd_derivatives(scalar, z0)
        assert len(jet.coeffs) == len(oracle)
        for got, want in zip(jet.coeffs, oracle):
            assert rel_err(complex(got), want) <= 1e-6


_coeff = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=300, deadline=None)
@given(
    center=_coeff,
    a=st.tuples(*[_coeff] * (ORDER + 1)),
    b=st.tuples(*[_coeff] * (ORDER + 1)),
)
def test_mul_div_round_trip(center, a, b):
    ja = Jet(center, a)
    b = (b[0] if abs(b[0]) >= 0.1 else b[0] + 0.5,) + b[1:]
    jb = Jet(center, b)
    back = jet_div(jet_mul(ja, jb), jb)
    # the quotient recursion amplifies roundoff by up to (1 + max|b|/|b0|)^4,
    # so the 1e-12 relative target is scaled by that conditioning factor
    kappa = (1.0 + max(abs(c) for c in b) / abs(b[0])) ** 4
    scale = max(1.0, max(abs(c) for c in a))
    for got, want in zip(back.coeffs, ja.coeffs):
        assert abs(got - want) <= 1e-12 * kappa * scale


def test_mul_div_round_trip_value_dominated():
    # with |b0| dominating the other coefficients the raw 1e-12 bound holds
    rng = np.random.default_rng(0)
    for _ in range(2000):
        a = tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(ORDER + 1))
        b0 = complex(*rng.uniform(-1, 1, 2))
        while abs(b0) < 0.1:
            b0 = complex(*rng.uniform(-1, 1, 2))
        rest = tuple(complex(*rng.uniform(-1, 1, 2)) * abs(b0) for _ in range(ORDER))
        ja, jb = Jet(0.0, a), Jet(0.0, (b0,) + rest)
        back = jet_div(jet_mul(ja, jb), jb)
        for got, want in zip(back.coeffs, ja.coeffs):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=100, deadline=None)
@given(z=st.complex_numbers(min_magnitude=0.05, max_magnitude=5.0,
                            allow_nan=False, allow_infinity=False))
def test_exp_log_inverse(z):
    w = jexp(lift_variable(z))
    if not (w.value.imag == 0 and w.value.real <= 0):
        back = jlog(w)
        assert abs(back.coeffs[1] - 1) <= 1e-9
        assert abs(back.coeffs[2]) <= 1e-9


def test_numpy_array_jets_match_scalar():
    zs = np.array([0.5 + 0.1j, 1.5 - 0.3j, 2.0 + 2.0j])
    vec = jexp(jrecip(1 + lift_variable(zs) * lift_variable(zs)))
    for i, z in enumerate(zs):
        scl = jexp(jrecip(1 + lift_variable(complex(z)) * lift_variable(complex(z))))
        for k in range(ORDER + 1):
            assert abs(vec.coeffs[k][i] - scl.coeffs[k]) <= 1e-13 * max(1, abs(scl.coeffs[k]))


def test_nonfinite_points_rejected_at_entry_and_exit():
    # points are checked where they enter a jet computation ...
    with pytest.raises(EvaluationError, match=r"non-finite point z=\(nan\+0j\)$"):
        lift_variable(np.array([[1.0, 2.0], [complex("nan"), np.inf]]))
    # ... and a map's jet where it leaves, so an overflow inside the formula
    # (here 1/z^2 in half-strip-g, whose exact value log(2/z) is finite)
    # still surfaces there, naming the first point it reached
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvaluationError, match=r"coefficient at z=\(1e-200\+0j\)$"):
            half_strip_g().jet(np.array([[0.5, 1e-200], [1e-250, 1.0]]))
        with pytest.raises(EvaluationError, match=r"coefficient at z=\(1000000000\+0j\)$"):
            moebius(1, 0, 0, 1e-300).jet(np.array([0.5, 1e9]))
    with pytest.raises(EvaluationError, match=r"coefficient at z=\(1e-200\+0j\)$"):
        half_strip_g().jet(1e-200)


_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2e-308, 1e16, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
)
_ANY_FLOAT = st.one_of(st.floats(allow_nan=True, allow_infinity=True), _EDGE_FLOATS)


@settings(max_examples=300, deadline=None)
@given(re=_ANY_FLOAT, im=_ANY_FLOAT, n=st.integers(-(2 ** 62), 2 ** 62))
def test_all_finite_scalar_branch_matches_generic(re, im, n):
    # complex/float take the fast branch; numpy and mpmath carriers the generic ones
    z = complex(re, im)
    finite = math.isfinite(re) and math.isfinite(im)
    assert _all_finite(z) is finite
    assert _all_finite(np.complex128(z)) is finite
    assert bool(_all_finite(mpmath.mpc(re, im))) is finite
    assert _all_finite(re) is math.isfinite(re)
    assert _all_finite(np.float64(re)) is math.isfinite(re)
    assert bool(_all_finite(mpmath.mpf(re))) is math.isfinite(re)
    assert _all_finite(n) is True
    assert _all_finite(np.array([z, 1.0])) is finite


# -- written-out ring operations against the generic formulas, bit for bit ------

_SIGNED_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, math.inf, -math.inf,
                     math.nan, -math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_SIGNED_COMPLEX = st.builds(complex, _SIGNED_FLOATS, _SIGNED_FLOATS)


def _bits(x):
    """Type and exact bits of a coefficient: real and imaginary parts apart, signed zeros,
    infinities and NaN payloads included."""
    if isinstance(x, (np.ndarray, np.generic)):
        return x.dtype.str, np.shape(x), x.tobytes()
    if isinstance(x, mpmath.mpc):
        return "mpc", x._mpc_
    if isinstance(x, mpmath.mpf):
        return "mpf", x._mpf_
    if isinstance(x, complex):
        return "complex", struct.pack("<dd", x.real, x.imag)
    if isinstance(x, float):
        return "float", struct.pack("<d", x)
    return type(x).__name__, x


def _outcome(fn, *args):
    """Bits of each coefficient fn returns, or the type of the exception it raises."""
    with np.errstate(all="ignore"):
        try:
            out = fn(*args)
        except ZeroDivisionError as exc:
            return type(exc)
    return [_bits(c) for c in (out.coeffs if isinstance(out, Jet) else out)]


@st.composite
def _carrier_coeffs(draw):
    """Two coefficient tuples and a scalar on one carrier: Python complex, numpy
    complex arrays or mpmath; a tuple may be a lifted variable (z, 1.0, 0.0, 0.0)."""
    carrier = draw(st.sampled_from(("complex", "numpy", "mpmath")))
    size = draw(st.integers(1, 4))

    def value():
        if carrier == "numpy":
            return np.array(draw(st.lists(_SIGNED_COMPLEX, min_size=size, max_size=size)))
        z = draw(_SIGNED_COMPLEX)
        return mpmath.mpc(z) if carrier == "mpmath" else z

    def coeffs():
        if draw(st.booleans()):
            return (value(), 1.0, 0.0, 0.0)
        return tuple(value() for _ in range(ORDER + 1))

    scalar = draw(st.one_of(_SIGNED_COMPLEX, _SIGNED_FLOATS, st.sampled_from([0, 1, 2, -3])))
    return coeffs(), coeffs(), scalar


@settings(max_examples=500, deadline=None)
@given(case=_carrier_coeffs())
def test_ring_operations_match_generic_formulas_bit_for_bit(case):
    u, v, s = case
    center = object()  # shared by both jets, so the center check passes by identity
    a, b = Jet(center, u), Jet(center, v)
    assert _outcome(lambda: a + b) == _outcome(generic_add, u, v)
    assert _outcome(lambda: a + s) == _outcome(generic_add_scalar, u, s)
    assert _outcome(lambda: s + a) == _outcome(generic_add_scalar, u, s)
    assert _outcome(lambda: -a) == _outcome(generic_neg, u)
    assert _outcome(lambda: a * s) == _outcome(generic_mul_scalar, u, s)
    assert _outcome(lambda: s * a) == _outcome(generic_mul_scalar, u, s)
    assert _outcome(lambda: a / s) == _outcome(generic_div_scalar, u, s)
    assert _outcome(jet_mul, a, b) == _outcome(generic_leibniz, u, v)
    assert _outcome(lambda: a * b) == _outcome(generic_leibniz, u, v)
