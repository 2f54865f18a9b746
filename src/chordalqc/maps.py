"""Catalog of concrete conformal maps with jet evaluation.

Every map carries a domain tag (right half-plane ``H`` or the unit
disk ``D``) and a formula written against the generic jet operations,
so the same object yields either an order-3 :class:`~chordalqc.jets.Jet`
at an interior point or a plain boundary-continuous value.

The catalog:

====================  ======================================================
identity              z -> z on H
cayley                z -> (1+z)/(1-z), unit disk onto H
phi                   z -> 2/(z+1), H onto D(1,1), phi(inf) = 0
half-strip-g          z -> -log(sqrt(1+1/z^2) - 1/z), H onto the half
                      strip {u > 0, |v| < pi/2}; g(0) = inf, g(+-i) = -+i*pi/2
counterexample-f      half-strip-g composed with phi; image has a cusp, so
                      it is a Jordan domain but not a quasidisk
square                z -> z^2 on H (univalent there)
perturbed-identity:c  z -> z + c*exp(-z), |c| < 1
moebius:a,b,c,d       z -> (az+b)/(cz+d)
compose:outer,inner   composition of two catalog specs
====================  ======================================================

The point at infinity is never an evaluation point; claims about behavior
at infinity are checked by sampling large |z|.  Domain tags are enforced
at evaluation points only: strictly interior for jets, closure for plain
values (boundary anchors like g(i) stay computable even though the jet
there is singular).  Maps are immutable and evaluation is pure, so a grid
scan may split its points into blocks, but not into blocks of any size:
numpy arithmetic on arrays under 2**14 complex points can differ from
the whole mesh in the last bit (see ``schwarz.BLOCK_POINTS``).  The blocks
may run concurrently, on as many threads as the process has CPUs in its
affinity mask up to ``schwarz.MAX_WORKERS``, so a formula must be pure: no
shared state, no side effects.  The scan's results and errors do not depend
on the thread count.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Callable

from .errors import DomainError, EvaluationError
from .jets import Jet, jexp, jlog, jrecip, jsqrt, lift_variable, require_finite
from .jets import _any, _first_center

DOMAIN_H = "H"
DOMAIN_UNIT_DISK = "D"

_BOUNDARY_SLACK = 1e-12


def _as_point(z):
    if isinstance(z, (int, float)):
        return complex(z)
    return z


def _domain_violation(domain: str, z, boundary_ok: bool):
    """Mask of the points of ``z`` outside ``domain`` (a bool for a scalar)."""
    slack = _BOUNDARY_SLACK if boundary_ok else 0.0
    re, im = z.real, z.imag
    if domain == DOMAIN_H:
        bad = re <= -slack if boundary_ok else re <= 0
    elif domain == DOMAIN_UNIT_DISK:
        r2 = re ** 2 + im ** 2
        bad = r2 > (1 + slack) ** 2 if boundary_ok else r2 >= 1
    else:
        raise ValueError(f"unknown domain tag {domain!r}")
    return bad


def _require_in_domain(domain: str, z, boundary_ok: bool, name: str, at=None):
    """Raise DomainError if a point of ``z`` lies outside ``domain``, naming the
    first such point, or the point of ``at`` in its place (the evaluation
    point, when ``z`` holds an inner map's values)."""
    bad = _domain_violation(domain, z, boundary_ok)
    if _any(bad):
        where = _first_center(bad, z if at is None else at)
        raise DomainError(f"point outside domain {domain} of map {name!r} at z={where!r}")


@dataclass(frozen=True)
class ConformalMap:
    """A named analytic map on a tagged domain, evaluable to a Jet."""

    name: str
    domain: str
    formula: Callable = field(repr=False)

    def jet(self, z) -> Jet:
        """Order-3 jet at an interior point (strict domain check); raises
        EvaluationError at the first point where the jet is not finite."""
        z = _as_point(z)
        _require_in_domain(self.domain, z, boundary_ok=False, name=self.name)
        try:
            jet = self.formula(lift_variable(z))
        except OverflowError:  # complex ** on Python scalars raises instead of giving inf
            raise EvaluationError(f"non-finite jet coefficient at z={z!r}") from None
        return require_finite(jet)

    def value(self, z):
        """Plain value; allows the closure of the domain where the formula extends."""
        z = _as_point(z)
        _require_in_domain(self.domain, z, boundary_ok=True, name=self.name)
        return self.formula(z)

    def __call__(self, z):
        return self.value(z)


def identity() -> ConformalMap:
    return ConformalMap("identity", DOMAIN_H, lambda w: w + 0.0)


def moebius(a, b, c, d, name: str | None = None, domain: str = DOMAIN_H) -> ConformalMap:
    """Moebius map z -> (az+b)/(cz+d); requires ad - bc != 0."""
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    if not all(cmath.isfinite(v) for v in (a, b, c, d)):
        raise ValueError(f"non-finite moebius coefficients {(a, b, c, d)!r}")
    if a * d - b * c == 0:
        raise ValueError("degenerate moebius coefficients (ad - bc = 0)")
    if name is None:
        name = f"moebius:{_fmt(a)},{_fmt(b)},{_fmt(c)},{_fmt(d)}"

    def _formula(w):
        # a*w is a Jet whenever w is (even for a = 0), so / picks the right rule
        return (a * w + b) / (c * w + d)

    return ConformalMap(name, domain, _formula)


def cayley() -> ConformalMap:
    """Cayley transform (1+z)/(1-z), unit disk onto H, sends 1 to infinity."""
    return moebius(1, 1, -1, 1, name="cayley", domain=DOMAIN_UNIT_DISK)


def phi_map() -> ConformalMap:
    """z -> 2/(z+1), H onto D(1,1), with phi(1) = 1 and phi(inf) = 0."""
    return moebius(0, 2, 1, 1, name="phi")


def half_strip_g() -> ConformalMap:
    """H onto the half strip {u > 0, |v| < pi/2}.

    Defined by -log(sqrt(1+1/z^2) - 1/z) on principal branches, which pins
    g(i) = -i*pi/2, g(-i) = i*pi/2, g(0) = infinity.  Computed through the
    algebraically identical log(sqrt(1+1/z^2) + 1/z): both factors have
    positive real part on H, so the branch is unchanged and the subtractive
    cancellation at small |z| is avoided.
    """

    def _formula(w):
        r = jrecip(w)
        return jlog(jsqrt(1 + r * r) + r)

    return ConformalMap("half-strip-g", DOMAIN_H, _formula)


def counterexample_f() -> ConformalMap:
    """half-strip-g composed with phi: Jordan image with a cusp at infinity."""
    return compose(half_strip_g(), phi_map(), name="counterexample-f")


def perturbed_identity(c) -> ConformalMap:
    """z -> z + c*exp(-z) with |c| < 1 (univalent on H since Re h' >= 1-|c|)."""
    c = complex(c)
    if not cmath.isfinite(c):
        raise ValueError(f"non-finite perturbed-identity parameter {c!r}")
    if abs(c) >= 1:
        raise ValueError(f"perturbed-identity needs |c| < 1, got |c| = {abs(c)}")
    return ConformalMap(f"perturbed-identity:{_fmt(c)}", DOMAIN_H, lambda w: w + c * jexp(-w))


def square_map() -> ConformalMap:
    return ConformalMap("square", DOMAIN_H, lambda w: w * w)


def compose(outer: ConformalMap, inner: ConformalMap, name: str | None = None) -> ConformalMap:
    """Composition outer(inner(z)); the intermediate value is checked against
    outer's domain at each evaluation point."""

    def _formula(w):
        u = inner.formula(w)
        is_jet = isinstance(u, Jet)
        uval, at = (u.value, u.center) if is_jet else (u, w)
        _require_in_domain(outer.domain, uval, boundary_ok=not is_jet, name=outer.name, at=at)
        return outer.formula(u)

    return ConformalMap(name or f"compose:{outer.name},{inner.name}", inner.domain, _formula)


# -- spec strings ------------------------------------------------------------

CATALOG_SPECS = (
    ("identity", "z -> z"),
    ("cayley", "(1+z)/(1-z), unit disk onto H"),
    ("phi", "2/(z+1), H onto D(1,1)"),
    ("half-strip-g", "H onto the half strip {u > 0, |v| < pi/2}"),
    ("counterexample-f", "half-strip-g composed with phi (cusped Jordan image)"),
    ("square", "z -> z^2 on H"),
    ("perturbed-identity:<c>", "z + c*exp(-z), |c| < 1"),
    ("moebius:<a,b,c,d>", "(a z + b)/(c z + d)"),
    ("compose:<outer>,<inner>", "composition of two specs"),
)

_SIMPLE = {
    "identity": identity,
    "cayley": cayley,
    "phi": phi_map,
    "half-strip-g": half_strip_g,
    "counterexample-f": counterexample_f,
    "square": square_map,
}


def _fmt(c: complex) -> str:
    if c.imag == 0:
        return repr(c.real) if c.real != int(c.real) else str(int(c.real))
    re = _fmt(complex(c.real, 0))
    im = _fmt(complex(abs(c.imag), 0))
    sign = "+" if c.imag > 0 else "-"
    return f"{re}{sign}{im}i"


def parse_complex(text: str) -> complex:
    """Parse 're' or 're+imi' (also 're-imi'); no expression grammar.
    NaN and infinite parts are rejected."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty number")
    if s[-1] in "iI":
        body = s[:-1]
        # split at the last +/- that is not a leading sign or an exponent sign
        split = None
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                split = k
                break
        if split is None:
            re_part, im_part = "0", body or "1"
        else:
            re_part, im_part = body[:split], body[split:]
            if im_part in ("+", "-"):
                im_part += "1"
        z = complex(float(re_part), float(im_part))
    else:
        z = complex(float(s), 0.0)
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite number {text!r}")
    return z


def parse_map_spec(spec: str) -> ConformalMap:
    """Build a catalog map from its spec string (see module docstring)."""
    s = spec.strip()
    if s in _SIMPLE:
        return _SIMPLE[s]()
    if s.startswith("perturbed-identity:"):
        return perturbed_identity(parse_complex(s.split(":", 1)[1]))
    if s.startswith("moebius:"):
        parts = s.split(":", 1)[1].split(",")
        if len(parts) != 4:
            raise ValueError(f"moebius needs 4 coefficients, got {len(parts)} in {spec!r}")
        return moebius(*(parse_complex(p) for p in parts))
    if s.startswith("compose:"):
        body = s.split(":", 1)[1]
        # leftmost comma that splits into two parseable specs; parameter
        # lists containing commas resolve because shorter prefixes fail
        for k in range(len(body)):
            if body[k] != ",":
                continue
            try:
                outer = parse_map_spec(body[:k])
                inner = parse_map_spec(body[k + 1 :])
            except ValueError:
                continue
            return compose(outer, inner)
        raise ValueError(f"cannot split compose spec {spec!r} into two maps")
    if ",compose:" in s:
        # postfix form "<inner>,compose:<outer>"
        left, right = s.split(",compose:", 1)
        return compose(parse_map_spec(right), parse_map_spec(left))
    raise ValueError(f"unknown map spec {spec!r}")
