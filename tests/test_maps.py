import cmath
import math
import re

import mpmath
import numpy as np
import pytest

from chordalqc.errors import DomainError, EvaluationError
from chordalqc.maps import (
    cayley,
    compose,
    counterexample_f,
    half_strip_g,
    identity,
    moebius,
    parse_complex,
    parse_map_spec,
    perturbed_identity,
    phi_map,
    square_map,
)

from oracles import fd_derivatives, rel_err


def catalog_on_h():
    return [
        identity(),
        phi_map(),
        half_strip_g(),
        counterexample_f(),
        square_map(),
        perturbed_identity(0.3),
        moebius(1, 2, 1, 3),
    ]


# -- anchors -------------------------------------------------------------


def test_half_strip_boundary_anchors():
    g = half_strip_g()
    assert abs(g.value(1j) + 1j * math.pi / 2) <= 1e-12
    assert abs(g.value(-1j) - 1j * math.pi / 2) <= 1e-12
    assert abs(g.value(1.0) - math.log(1 + math.sqrt(2))) <= 1e-12


def test_moebius_anchors():
    phi = phi_map()
    assert phi.value(1.0) == 1.0
    assert abs(phi.value(999.0) - 0.002) <= 1e-5
    assert cayley().value(0.0) == 1.0


def test_cayley_derivative_at_zero():
    jet = cayley().jet(0.0)
    assert abs(jet.coeffs[1] - 2.0) <= 1e-14


def test_moebius_degenerate_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        moebius(1, 2, 2, 4)


def test_moebius_pole_evaluation_rejected():
    m = moebius(0, 1, 1, -1)  # pole at z = 1
    with pytest.raises(EvaluationError):
        m.jet(1.0)


# -- domains -------------------------------------------------------------


def test_domain_checks():
    with pytest.raises(DomainError):
        identity().jet(-1.0)
    with pytest.raises(DomainError):
        identity().jet(0.0)  # boundary is not interior
    with pytest.raises(DomainError):
        cayley().jet(2.0)
    # boundary values remain computable
    assert identity().value(0.5j) == 0.5j


def test_half_strip_rejects_left_half_plane():
    g = half_strip_g()
    with pytest.raises(DomainError):
        g.jet(-0.5 + 1j)
    with pytest.raises(EvaluationError):
        g.value(0.0)  # pole of 1/z


# -- composition ---------------------------------------------------------


def test_compose_identity_is_noop():
    for m in (phi_map(), perturbed_identity(0.2), half_strip_g()):
        c = compose(identity(), m)
        for z in (0.5, 1 + 1j, 3 - 2j):
            assert abs(c.value(z) - m.value(z)) <= 1e-14


def test_counterexample_is_g_after_phi():
    f = counterexample_f()
    g, phi = half_strip_g(), phi_map()
    assert abs(f.value(1.0) - g.value(1.0)) <= 1e-14
    # boundary point: phi(i) = 1 - i, then g there
    assert abs(f.value(1j) - g.value(phi.value(1j))) <= 1e-12
    both = compose(half_strip_g(), phi_map())
    for z in (1j, 0.5 + 2j, 4.0):
        assert abs(both.value(z) - f.value(z)) <= 1e-12


def test_counterexample_escapes_at_infinity():
    f = counterexample_f()
    assert abs(f.value(1e6)) > 5


def test_phi_decays_at_infinity():
    phi = phi_map()
    vals = [abs(phi.value(r)) for r in (1e3, 1e4, 1e6)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-5


def test_half_strip_image_and_continuity():
    g = half_strip_g()
    # vertical and horizontal probe paths stay in the half strip, no branch jumps
    for path in (0.5 + 1j * np.linspace(-10, 10, 801), np.linspace(0.01, 10, 801) + 0.3j):
        vals = np.array([g.value(complex(z)) for z in path])
        assert np.all(vals.real > 0)
        assert np.all(np.abs(vals.imag) < math.pi / 2 + 1e-12)
        assert np.max(np.abs(np.diff(vals))) < 0.5


# catalog specs on H, and one whose inner map puts half-strip-g's boundary segment i(-1,1)
# at i(-1/2,1/2); cayley's domain is the disk, whose boundary is not the imaginary axis
AXIS_SPECS = ["identity", "phi", "half-strip-g", "counterexample-f", "square",
              "perturbed-identity:0.3", "moebius:1,0,1,1", "compose:phi,half-strip-g",
              "compose:half-strip-g,moebius:2,0,0,1"]


@pytest.mark.parametrize("spec", AXIS_SPECS)
def test_boundary_values_are_limits_from_h(spec):
    # 400 |y| in [1e-3, 1e3] at both signs of y and of the zero real part
    h = parse_map_spec(spec)
    for y in np.geomspace(1e-3, 1e3, 400):
        for sy in (y, -y):
            limit = h.value(complex(1e-12, sy))
            for re in (0.0, -0.0):
                assert abs(h.value(complex(re, sy)) - limit) <= 1e-6 * abs(limit), (re, sy)


def test_half_strip_axis_values_match_arccosh():
    # g(+-iy) = arccosh(1/y) -+ i pi/2 for 0 < y < 1, at both signs of the zero real
    # part, on arrays, Python scalars and mpmath points
    g = half_strip_g()
    ys = np.geomspace(1e-3, 0.999, 50)
    for sign in (1, -1):
        want = np.array([complex(mpmath.acosh(1 / mpmath.mpf(y)), -sign * math.pi / 2) for y in ys])
        for re in (0.0, -0.0):
            z = np.array([complex(re, sign * y) for y in ys])
            assert np.max(np.abs(g.value(z) - want) / np.abs(want)) <= 1e-14
            assert all(abs(g.value(complex(p)) - w) <= 1e-14 * abs(w) for p, w in zip(z, want))
        got = [complex(g.value(mpmath.mpc(0, sign * y))) for y in ys]
        assert np.max(np.abs(np.array(got) - want) / np.abs(want)) <= 1e-14
    assert g.value(0.5j) == complex(1.3169578969248166, -math.pi / 2)
    assert abs(g.value(1e-3j).real - 7.6009022095419) <= 1e-12


def test_half_strip_axis_fix_leaves_interior_values_and_mixed_arrays():
    g = half_strip_g()
    interior = np.array([0.3 + 0.5j, 1e-9 + 0.2j, 2.0 - 0.7j])
    mixed = np.array([0.3 + 0.5j, 0.5j, 1e-9 + 0.2j, -0.2j, 2.0 - 0.7j, 3j])
    got = g.value(mixed)
    assert np.array_equal(got[[0, 2, 4]], g.value(interior))
    assert np.array_equal(got[[1, 3, 5]], g.value(np.array([0.5j, -0.2j, 3j])))


# -- perturbed identity ---------------------------------------------------


def test_perturbed_identity_cases():
    h0 = perturbed_identity(0.0)
    for z in (0.5, 1 + 1j):
        assert h0.value(z) == z
    h = perturbed_identity(0.3)
    assert abs(h.value(0.0) - 0.3) <= 1e-15
    assert abs(h.jet(1e-8).coeffs[1] - 0.7) <= 1e-7
    # closed-form decay bound at Re z = 5
    jet = h.jet(5.0)
    ph = jet.coeffs[2] / jet.coeffs[1]
    bound = 0.3 * math.exp(-5) / (1 - 0.3 * math.exp(-5))
    assert abs(ph) <= bound + 1e-12
    assert abs(abs(ph) - 0.00202) <= 5e-5


def test_perturbed_identity_rejects_large_c():
    with pytest.raises(ValueError):
        perturbed_identity(1.0)
    with pytest.raises(ValueError):
        perturbed_identity(0.8 + 0.8j)


# -- jets vs pointwise oracle ---------------------------------------------


@pytest.mark.parametrize("m", catalog_on_h(), ids=lambda m: m.name)
def test_catalog_jets_match_fd_oracle(m):
    rng = np.random.default_rng(7)
    pts = [complex(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0)) for _ in range(3)]
    pts.append(0.01 + 0.5j)  # near the boundary, where conditioning is hardest
    for z0 in pts:
        jet = m.jet(z0)
        oracle = fd_derivatives(lambda w: m.value(w), z0, h=1e-3)
        assert len(jet.coeffs) == len(oracle)
        for got, want in zip(jet.coeffs, oracle):
            assert rel_err(complex(got), want) <= 1e-6


def test_local_univalence_at_samples():
    for m in catalog_on_h():
        for z in (0.5, 1 + 1j, 2 - 0.7j):
            assert abs(complex(m.jet(z).coeffs[1])) > 0


# -- spec parsing ----------------------------------------------------------


def test_parse_complex():
    assert parse_complex("0.3") == 0.3
    assert parse_complex("-2.5") == -2.5
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-0.5-0.25i") == -0.5 - 0.25j
    assert parse_complex("1e-4") == 1e-4
    assert parse_complex("1.5e-3-2i") == 1.5e-3 - 2j
    assert parse_complex("2i") == 2j
    # a bare unit, signed or not, and exponents in either part
    for text, value in (("i", complex(0.0, 1.0)), ("-i", complex(0.0, -1.0)),
                        ("+i", complex(0.0, 1.0)), ("1-i", complex(1.0, -1.0)),
                        ("-2.5e-3+4i", complex(-2.5e-3, 4.0)), ("1E5I", complex(0.0, 1e5))):
        z = parse_complex(text)
        # bit for bit: a signed zero must keep its sign
        assert [(p, math.copysign(1.0, p)) for p in (z.real, z.imag)] == \
            [(p, math.copysign(1.0, p)) for p in (value.real, value.imag)]
    for text in ("", "abc", "1+2j", "ii", "1+-2i", "(1+2i)"):
        with pytest.raises(ValueError, match=re.escape(f"invalid number {text!r}")):
            parse_complex(text)
    for text in ("nan", "inf", "1+nani", "-inf-2i"):
        with pytest.raises(ValueError, match="non-finite"):
            parse_complex(text)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.1, float("nan")),
                                 complex(-float("inf"), 0.0)])
def test_constructors_reject_nonfinite_parameters(bad):
    with pytest.raises(ValueError, match="non-finite perturbed-identity parameter"):
        perturbed_identity(bad)
    for k in range(4):
        coeffs = [1, 0, 0, 1]
        coeffs[k] = bad
        with pytest.raises(ValueError, match="non-finite moebius coefficients"):
            moebius(*coeffs)


def test_parse_map_spec_round_trips():
    assert parse_map_spec("identity").name == "identity"
    h = parse_map_spec("perturbed-identity:0.3")
    assert abs(h.value(0.0) - 0.3) <= 1e-15
    m = parse_map_spec("moebius:0,2,1,1")
    assert m.value(1.0) == 1.0
    c = parse_map_spec("compose:half-strip-g,phi")
    f = counterexample_f()
    assert abs(c.value(2 + 1j) - f.value(2 + 1j)) <= 1e-13
    # commas inside parameter lists resolve via the leftmost valid split
    c2 = parse_map_spec("compose:cayley,moebius:1,-1,1,1")
    assert abs(c2.value(2.0) - 2.0) <= 1e-13  # cayley after (z-1)/(z+1) is the identity
    # compose:<outer>,<inner> is the one composition grammar: no postfix form,
    # and so no second reading of a compose spec's parts
    for spec in ("phi,compose:half-strip-g", "compose:phi,half-strip-g,compose:identity"):
        with pytest.raises(ValueError):
            parse_map_spec(spec)
    # parametric names round-trip through the parser
    h2 = perturbed_identity(0.2 + 0.1j)
    assert parse_map_spec(h2.name).name == h2.name
    with pytest.raises(ValueError):
        parse_map_spec("nope")
    with pytest.raises(ValueError):
        parse_map_spec("moebius:1,2,3")
    with pytest.raises(ValueError):
        parse_map_spec("compose:identity")


@pytest.mark.parametrize("spec, reason", [
    # the inner error at the first comma whose outer part parsed
    ("compose:phi,perturbed-identity:2", ": perturbed-identity needs |c| < 1, got |c| = 2.0"),
    # no outer part parsed: the outer error at the first comma
    ("compose:nope,identity", ": unknown map spec 'nope'"),
    # no comma: no split, so no reason
    ("compose:identity", ""),
])
def test_compose_spec_error_names_the_failing_part(spec, reason):
    with pytest.raises(ValueError) as exc:
        parse_map_spec(spec)
    assert str(exc.value) == f"cannot split compose spec {spec!r} into two maps{reason}"


def test_moebius_schwarzian_annihilation():
    # catalog-level statement; the functional itself lives in schwarz
    from chordalqc.schwarz import derivative_ratios

    rng = np.random.default_rng(1)
    count = 0
    while count < 100:
        a, b, c, d = (complex(*rng.uniform(-2, 2, 2)) for _ in range(4))
        if abs(a * d - b * c) < 0.1:
            continue
        z = complex(rng.uniform(0.1, 4.0), rng.uniform(-3.0, 3.0))
        if abs(c * z + d) < 0.2:
            continue
        m = moebius(a, b, c, d)
        assert abs(derivative_ratios(m.jet(z))[1]) <= 1e-10
        count += 1


def test_value_accepts_mpmath_points():
    g = half_strip_g()
    v = g.value(mpmath.mpc(1, 0))
    assert abs(complex(v) - cmath.log(1 + math.sqrt(2))) <= 1e-15
