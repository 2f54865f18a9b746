import dataclasses
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chordalqc import carleson as carleson_mod
from chordalqc import schwarz
from chordalqc.carleson import (
    CALL_NODES,
    Density,
    bigbox_decomposition,
    box_ratio,
    carleson_scan,
    composite_density,
    composite_mu_tilde,
    mu_density,
    vmoa_density,
)
from chordalqc.errors import EvaluationError, QuadratureError
from chordalqc.extension import mu_formula
from chordalqc.maps import counterexample_f, half_strip_g, identity, perturbed_identity
from chordalqc.schwarz import StripGrid, derivative_ratios

SMALL_GRID = StripGrid(points_per_decade=16, y_max=20.0, y_count=65)


def unit_square_density():
    def _eval(z):
        x, y = np.real(z), np.imag(z)
        return ((x > 0) & (x < 1) & (y > 0) & (y < 1)).astype(float)

    return Density("unit-square", "H", _eval, x_breakpoints=(1.0,), y_breakpoints=(0.0, 1.0))


def test_box_ratio_zero_density():
    d = Density("zero", "H", lambda z: np.zeros(np.shape(z)))
    assert box_ratio(d, 0.0, 1.0) == 0.0


def test_box_ratio_unit_square_examples():
    d = unit_square_density()
    assert abs(box_ratio(d, 0.5, 1.0) - 1.0) <= 1e-12
    # interval (0, 4i): same unit mass over |I| = 4
    assert abs(box_ratio(d, 2.0, 4.0) - 0.25) <= 1e-10


def test_box_ratio_validates_length():
    d = unit_square_density()
    with pytest.raises(ValueError):
        box_ratio(d, 0.0, 0.0)


def test_quadrature_error_without_breakpoints():
    # the indicator of |z| < 1 jumps along a curved edge, which no breakpoint
    # can declare, so a box straddling it cannot converge within the panel budget
    d = Density("disk", "H", lambda z: (np.abs(z) < 1).astype(float))
    with pytest.raises(QuadratureError,
                       match=r"x in \(0\.0, 2\.0\).*, stopped by the MAX_PANELS budget$"):
        box_ratio(d, 0.0, 2.0)


@pytest.mark.parametrize("evaluator, limit", [
    (lambda z: 1.0 / np.real(z), "the MIN_WIDTH floor"),  # not integrable at the axis
    (lambda z: np.full(np.shape(z), np.nan), "a non-finite estimate"),  # nothing to split on
], ids=["inv-x", "nan"])
def test_divergent_box_raises_naming_it(evaluator, limit):
    # a 1/x box halves only its axis panel each round; the width floor stops it
    # before x = u^2 underflows to 0
    dens, sizes = _counted(Density("bad", "H", evaluator))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(QuadratureError, match=r"center_y=0\.0, \|I\|=1\.0, x in \(0\.0, 1\.0\)"
                           f".*, stopped by {limit}$"):
            box_ratio(dens, 0.0, 1.0)
    assert len(sizes) <= 64


# 1/|z| on H is homogeneous of degree -1: every box centered at 0 has this
# ratio, with the singularity at the middle of the box's axis edge
INV_ABS_RATIO = 2 * math.asinh(0.5) + math.asinh(2.0)


def test_corner_singular_density_oracle():
    d = Density("inv-abs", "H", lambda z: 1.0 / np.abs(z))
    rep = carleson_scan(d, scales=[2.0 ** (-j) for j in range(11)], positions=[0.0])
    assert np.all(np.abs(rep.ratios - INV_ABS_RATIO) <= 1e-6 * INV_ABS_RATIO)


def test_half_strip_g_box_matches_mpmath():
    # Ph has a pole at z = 0, the middle of the box's axis edge; the reference is
    # mpmath.quad of 2x|Ph|^2 split at x = 1/4 and y = 0
    want = 4.7310749207466
    got = box_ratio(vmoa_density(half_strip_g()), 0.0, 1.0)
    assert abs(got - want) <= 1e-6 * want


def _counted(density):
    sizes = []

    def _eval(z):
        sizes.append(np.size(z))
        return density.evaluator(z)

    return dataclasses.replace(density, evaluator=_eval), sizes


def _assert_scan_matches_box_ratio(density, rep):
    for scale, center_y, ratio in rep.rows():
        assert abs(box_ratio(density, center_y, scale) - ratio) <= 1e-14 * ratio


def test_half_strip_g_scan_does_not_vanish():
    # the pole of Ph at 0 is scale-invariant: every scale keeps a box near 3.464;
    # in (u, y) the pole is a ridge y ~ u^2, which one-axis splits follow cheaply
    dens, sizes = _counted(vmoa_density(half_strip_g()))
    rep = carleson_scan(dens, scales=[2.0 ** (-j) for j in range(16)], positions=[0.0])
    assert sum(sizes) <= 1_000_000
    assert min(rep.per_scale_max) >= 3.46
    assert not rep.vanishing


def test_scan_batches_density_calls():
    # the default 11 x 9 scan: every box is done on its first panel, all in one call
    dens, sizes = _counted(vmoa_density(perturbed_identity(0.3)))
    rep = carleson_scan(dens)
    assert len(sizes) == 1
    _assert_scan_matches_box_ratio(dens, rep)
    # 3 x 101 boxes: the first round alone holds more than one call's nodes,
    # and the boxes around 0 refine toward the singularity over further rounds
    dens, sizes = _counted(Density("inv-abs", "H", lambda z: 1.0 / np.abs(z)))
    rep = carleson_scan(dens, scales=[1.0, 0.5, 0.25],
                        positions=[0.125 * j for j in range(-50, 51)])
    assert sum(sizes) > CALL_NODES and len(sizes) > 2
    assert max(sizes) <= CALL_NODES
    _assert_scan_matches_box_ratio(dens, rep)


# a vmoa and a mu box is one panel, a composite box of |I| > t one panel per side of t;
# the mu density of counterexample-f has other bits on arrays under 2**14 nodes
BLOCKED_DENSITIES = {
    "vmoa": lambda: vmoa_density(counterexample_f()),
    "mu": lambda: mu_density(perturbed_identity(0.3), "schwarzian", 0.5),
    "mu-counterexample-f": lambda: mu_density(counterexample_f(), "schwarzian", 0.5),
    "mu-tilde": lambda: composite_density(counterexample_f(), 0.1,
                                          outer=lambda z: np.zeros(np.shape(z), complex)),
}

# the density calls on two threads in blocks of at least 2**14 nodes, as one block each,
# and in blocks on one thread
CALL_LAYOUTS = ({"_cpu_count": lambda: 2}, {"BLOCK_POINTS": CALL_NODES}, {"MAX_WORKERS": 1})


@st.composite
def _box_sets(draw):
    """Scales and positions of about 1-72, 73-145, 146-291 or 292-400 boxes, so that the
    first round's calls hold fewer than 2**14 nodes, from 2**14 to 2**15, more than
    2**15, or more than one call's CALL_NODES."""
    scales = draw(st.lists(st.sampled_from((0.4, 0.2, 0.1, 0.05)), min_size=1, max_size=2,
                           unique=True))
    boxes = draw(st.integers(*draw(st.sampled_from(((1, 72), (73, 145), (146, 291),
                                                     (292, 400))))))
    start = draw(st.sampled_from((-8.0, 0.0)))
    return scales, [start + 0.25 * j for j in range(-(-boxes // len(scales)))]


@pytest.mark.parametrize("name", sorted(BLOCKED_DENSITIES))
@settings(max_examples=6, deadline=None)
@given(box_set=_box_sets())
# 100 composite boxes of |I| > t: a 200-panel call of 22,500 inner nodes, fewer than
# 2**14 in either block, so only a whole call keeps the inner nodes' bits
@example(box_set=([0.4], [0.01 * j for j in range(100)]))
def test_density_calls_keep_their_bits_in_every_layout(name, box_set):
    density = BLOCKED_DENSITIES[name]()
    calls, panel_sums = [], carleson_mod._panel_sums
    tables, sums = [], []
    for layout in CALL_LAYOUTS:
        with pytest.MonkeyPatch.context() as mp:
            for attr, value in layout.items():
                mp.setattr(schwarz, attr, value)
            if not calls:
                mp.setattr(carleson_mod, "_panel_sums",
                           lambda d, panels: calls.append(panels) or panel_sums(d, panels))
            tables.append(carleson_scan(density, *box_set).ratios.tobytes())
            sums.append([np.array(panel_sums(density, panels)).tobytes() for panels in calls])
    assert tables[1:] == tables[:-1]
    assert sums[1:] == sums[:-1]


def test_failing_blocked_call_raises_the_error_of_the_whole_call():
    # boxes 0-72 of the 200-box call are block 0, which fails in the second operation;
    # block 1 fails in the first, and so does the whole call
    sizes = []

    def _eval(z):
        sizes.append(z.size)
        if np.any(z.imag > 100):
            raise EvaluationError("first operation")
        if np.any(z.imag < 10):
            raise EvaluationError("second operation")
        return np.zeros(z.shape)

    with pytest.raises(EvaluationError, match="^first operation$"):
        carleson_scan(Density("fails", "H", _eval), scales=[1.0], positions=range(200))
    assert min(sizes) < sizes[-1] == 200 * 225


def test_one_block_call_starts_no_thread():
    # the default 11 x 9 scan makes calls of at most 99 panels, a single block each
    before = threading.enumerate()
    seen = []

    def _eval(z):
        seen.append(threading.enumerate())
        return np.abs(z)

    carleson_scan(Density("abs", "H", _eval))
    assert seen and all(threads == before for threads in seen)


@pytest.mark.parametrize("empty", ["scales", "positions"])
def test_scan_rejects_an_empty_box_list(empty):
    # None means the defaults; an empty list must not fall back to them
    d = Density("zero", "H", lambda z: np.zeros(np.shape(z)))
    with pytest.raises(ValueError, match=rf"^{empty} is empty \(None means the defaults\)$"):
        carleson_scan(d, **{empty: []})


def test_scan_zero_density_vanishing():
    d = Density("zero", "H", lambda z: np.zeros(np.shape(z)))
    rep = carleson_scan(d, scales=[1.0, 0.5, 0.25], positions=[0.0])
    assert rep.norm_estimate == 0.0
    assert rep.vanishing


def test_scan_unit_square_norm_and_scales():
    rep = carleson_scan(unit_square_density(), positions=[0.5])
    assert abs(rep.norm_estimate - 1.0) <= 1e-6
    assert np.allclose(rep.per_scale_max, rep.scales, rtol=1e-6)
    assert rep.vanishing
    rows = list(rep.rows())
    assert len(rows) == len(rep.scales)


def test_constant_density_scaling_oracle():
    # d = c on (0,2)x(-2,2): boxes inside the support give ratio c*|I|
    c = 2.0
    d = Density(
        "const-patch", "H",
        lambda z: np.where((np.real(z) < 2) & (np.abs(np.imag(z)) < 2), c, 0.0),
        x_breakpoints=(2.0,), y_breakpoints=(-2.0, 2.0),
    )
    for L in (1.0, 0.5, 0.25):
        assert abs(box_ratio(d, 0.0, L) - c * L) <= 1e-10


def test_box_additivity_inequality():
    # mass over the tall box dominates the two half-height sub-boxes
    d = vmoa_density(perturbed_identity(0.3))
    L = 0.5
    whole = box_ratio(d, 0.0, L) * L
    left = box_ratio(d, -L / 4, L / 2) * (L / 2)
    right = box_ratio(d, L / 4, L / 2) * (L / 2)
    assert whole >= left + right - 1e-9


def test_vmoa_density_value_example():
    h = perturbed_identity(0.3)
    d = vmoa_density(h)
    w = 0.3 * math.exp(-1)
    ph = w / (1 - w)
    want = 2 * ph ** 2
    got = float(d.evaluator(np.array([1.0 + 0j]))[0])
    assert abs(got - want) <= 1e-12
    assert abs(ph - 0.1240) <= 5e-4
    assert abs(got - 0.03075) <= 5e-4


def test_vmoa_scan_vanishing_for_hypothesis_class():
    for c in (0.1, 0.3, 0.5):
        rep = carleson_scan(vmoa_density(perturbed_identity(c)),
                            scales=[2.0 ** (-j) for j in range(0, 11, 2)],
                            positions=[0.0, 1.0])
        assert rep.vanishing, f"c={c}"


def test_mu_density_value_example():
    h = perturbed_identity(0.3)
    tau = 0.5
    d = mu_density(h, "schwarzian", tau)
    z = -0.1 + 0j
    s = derivative_ratios(h.jet(0.1 + 0j))[1]
    want = (0.5 * 0.2 ** 2 * abs(s)) ** 2 / 0.2
    got = float(d.evaluator(np.array([z]))[0])
    assert abs(got - want) <= 1e-14


def test_mu_density_domain_guard():
    d = mu_density(perturbed_identity(0.3), "schwarzian", 0.25)
    for z, first in ((np.array([-0.5 + 0j]), "(-0.5+0j)"),
                     (np.array([-0.1 + 0j, 0.1 + 2j, -0.5 + 0j]), "(0.1+2j)")):
        with pytest.raises(EvaluationError) as exc:
            d.evaluator(z)
        assert str(exc.value) == ("dilatation density defined on -0.25 <= Re z < 0 only "
                                  f"(outer extension not configured) at z={first}")


def test_composite_inner_branch_matches_formula():
    h = perturbed_identity(0.3)
    t = 0.2
    field = composite_mu_tilde(h, t)
    z = -t / 2 + 0.3j
    assert abs(field(np.array([z]))[0] - mu_formula(h, "schwarzian", z)) <= 1e-15


def test_composite_requires_outer_beyond_strip():
    field = composite_mu_tilde(perturbed_identity(0.3), 0.2)
    with pytest.raises(EvaluationError, match=r"^outer extension not configured "
                                              r"for Re z < -0\.2 at z=\(-0\.5\+1j\)$"):
        field(np.array([-0.1 + 0j, -0.5 + 1j, -0.7 + 0j]))
    with pytest.raises(EvaluationError,
                       match=r"^composite dilatation lives on Re z < 0 at z=\(0\.1\+2j\)$"):
        field(np.array([-0.1 + 0j, 0.1 + 2j, 0.0 + 0j]))
    with_outer = composite_mu_tilde(perturbed_identity(0.3), 0.2,
                                    outer=lambda z: np.full(np.shape(z), 0.1 + 0j))
    assert with_outer(np.array([-0.5 + 1j])).tolist() == [0.1 + 0j]


def test_composite_small_boxes_match_mu_density():
    h = perturbed_identity(0.3)
    t = 0.25
    comp = composite_density(h, t, outer=lambda z: np.zeros(np.shape(z), complex))
    plain = mu_density(h, "schwarzian", t)
    for L in (0.25, 0.125, 0.0625):
        a = box_ratio(comp, 0.0, L)
        b = box_ratio(plain, 0.0, L)
        assert abs(a - b) <= 1e-10


@pytest.mark.parametrize("length", [0.125, 0.25, 0.5, 1.0])
def test_bigbox_decomposition_identity(length):
    h = perturbed_identity(0.3)
    split, = bigbox_decomposition(h, 0.25, 0.0, [length],
                                  outer=lambda z: np.zeros(np.shape(z), complex))
    assert split.defect <= 1e-9
    if length <= 0.25:
        assert split.outer_term == 0.0


def test_bigbox_with_constant_outer():
    h = perturbed_identity(0.3)
    c = 0.05
    split, = bigbox_decomposition(h, 0.25, 0.0, [1.0],
                                  outer=lambda z: np.full(np.shape(z), c + 0j))
    # outer term has the closed form (c^2/L) * I * integral of 1/(2x)
    want = c ** 2 * math.log(1.0 / 0.25) / 2
    assert abs(split.outer_term - want) <= 1e-8
    assert split.defect <= 1e-9


def test_bigbox_lengths_share_one_engine_run_per_density(monkeypatch):
    h = perturbed_identity(0.3)
    t = 0.25
    lengths = [2 * t, t, t / 2, 3 * t]
    outer = lambda z: np.full(np.shape(z), 0.05 + 0j)
    single = [bigbox_decomposition(h, t, 0.0, [L], outer=outer)[0] for L in lengths]
    runs = []
    engine = carleson_mod._integrate_boxes

    def counted(density, boxes, rel_tol):
        runs.append(density.name)
        return engine(density, boxes, rel_tol)

    monkeypatch.setattr(carleson_mod, "_integrate_boxes", counted)
    batch = bigbox_decomposition(h, t, 0.0, lengths, outer=outer)
    assert runs == [f"mu-tilde:{h.name}", "bigbox-inner", f"mu-tilde:{h.name}"]
    assert [s.length for s in batch] == lengths
    for a, b in zip(batch, single):
        for field in ("total", "inner_term", "outer_term"):
            want = getattr(b, field)
            assert abs(getattr(a, field) - want) <= 1e-14 * want
        if a.length <= t:
            assert a.outer_term == 0.0
        else:
            assert a.outer_term > 0.0


@pytest.mark.parametrize("h", [perturbed_identity(0.3), half_strip_g()], ids=lambda h: h.name)
def test_bigbox_outer_term_is_the_outer_field_density_bit_for_bit(h):
    # the outer boxes run on the composite density; the reference codes the outer
    # density |outer(z + t)|^2 / (-2 Re z) on its own
    t, center_y, rel_tol = 0.25, 0.5, 1e-8
    outer = lambda w: 0.2 * w / (w - 1.0)  # varies with z, |outer| < 0.2 on Re w < 0

    def reference(z):
        return np.abs(outer(z + t)) ** 2 / (-2.0 * np.real(z))

    lengths = [t / 2, t, 2 * t, 3 * t, 8 * t]
    splits = bigbox_decomposition(h, t, center_y, lengths, outer=outer, rel_tol=rel_tol)
    big = [L for L in lengths if L > t]
    want = carleson_mod._integrate_boxes(Density("outer-reference", "H*", reference),
                                         [(center_y, L, t, L) for L in big], rel_tol)
    assert [s.outer_term for s in splits if s.length > t] == (want / np.array(big)).tolist()
    assert [s.outer_term for s in splits if s.length <= t] == [0.0, 0.0]
    assert all(v > 0.0 for v in want)


def test_density_validates_side():
    with pytest.raises(ValueError):
        Density("bad", "left", lambda z: 0.0)
