import json
import math
import re
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordalqc import extension, schwarz
from chordalqc.carleson import composite_mu_tilde, mu_density
from chordalqc.cli import _SAMPLE_CHUNK, _json_doc, main
from chordalqc.errors import EvaluationError, HorizonError
from chordalqc.extension import (
    QCReport,
    extend,
    mirror_strip_points,
    mu_formula,
    qc_report,
    trace_check,
    trace_extend,
)
from chordalqc.loewner import VARIANTS, HerglotzField, family_ht, pde_residual, tau0_scan
from chordalqc.maps import (
    DOMAIN_H,
    ConformalMap,
    counterexample_f,
    identity,
    moebius,
    parse_map_spec,
    perturbed_identity,
    square_map,
)
from chordalqc.schwarz import StripGrid

SMALL_GRID = StripGrid(points_per_decade=16, y_max=20.0, y_count=65)


def _small_tau(h, variant):
    return tau0_scan(h, variant, 0.5, grid=SMALL_GRID).t_star


# -- the extension map ---------------------------------------------------------


def test_extend_identity_is_identity_everywhere():
    for variant in ("schwarzian", "pre-schwarzian"):
        for z in (1 + 1j, 0.5j, -0.3 + 2j, -0.01):
            assert abs(extend(identity(), variant, z) - z) <= 1e-15


def test_extend_on_axis_equals_boundary_value():
    h = perturbed_identity(0.3)
    for y in (-2.0, 0.0, 1.5):
        assert abs(extend(h, "schwarzian", 1j * y) - h.value(1j * y)) <= 1e-15


def test_extend_closed_form_example():
    h = perturbed_identity(0.3)
    z = -0.01 + 1j
    jet = h.jet(0.01 + 1j)
    ph = jet.coeffs[2] / jet.coeffs[1]
    want = jet.coeffs[0] - 0.02 * jet.coeffs[1] / (1 + 0.01 * ph)
    assert abs(extend(h, "schwarzian", z) - want) <= 1e-15


def test_extend_respects_horizon():
    h = perturbed_identity(0.3)
    with pytest.raises(HorizonError):
        extend(h, "schwarzian", -0.2 + 1j, tau=0.1)


def test_extend_rejects_mixed_sides():
    h = perturbed_identity(0.3)
    with pytest.raises(ValueError):
        extend(h, "schwarzian", np.array([-0.1 + 1j, 0.1 + 1j]))


# -- dilatation formula ----------------------------------------------------------


def test_mu_zero_for_moebius():
    m = moebius(2, 1, 1, 3)
    for z in (-0.05 + 1j, -0.3 - 2j):
        assert abs(mu_formula(m, "schwarzian", z)) <= 1e-12


def test_mu_pre_variant_identity_zero():
    assert mu_formula(identity(), "pre-schwarzian", -0.1 + 1j) == 0


def test_mu_square_closed_form():
    # Sh = -3/(2 z^2) gives mu = 3 x^2 / z*^2 at z = -x + iy
    sq = square_map()
    for z in (-0.1 + 1j, -0.02 - 0.5j):
        zs = -z.conjugate()
        want = 3 * z.real ** 2 / zs ** 2
        assert abs(mu_formula(sq, "schwarzian", z) - want) <= 1e-13


def test_mu_requires_left_half_plane():
    with pytest.raises(ValueError):
        mu_formula(identity(), "schwarzian", 0.1 + 1j)


# -- wirtinger differences --------------------------------------------------------


def test_wirtinger_analytic():
    d_z, d_zbar = extension._wirtinger_pair(lambda z: z, 0.3 + 0.2j, 1e-5)
    assert abs(d_z - 1) <= 1e-10
    assert abs(d_zbar) <= 1e-10
    assert abs(d_zbar / d_z) <= 1e-10


def test_wirtinger_linear_mix_exact():
    d_z, d_zbar = extension._wirtinger_pair(lambda z: z + 0.5 * z.conjugate(), 1 + 1j, 1e-5)
    assert abs(d_z - 1) <= 1e-10
    assert abs(d_zbar - 0.5) <= 1e-10
    assert abs(d_zbar / d_z - 0.5) <= 1e-10


# -- trace vs closed form ----------------------------------------------------------


def test_trace_matches_extend_identity():
    # both reduce to z itself for the identity map
    z = -0.3 + 0.7j
    t = trace_extend(identity(), "schwarzian", z)
    assert abs(t - z) <= 1e-15
    assert abs(t - extend(identity(), "schwarzian", z)) <= 1e-15


@pytest.mark.parametrize("spec_z", [-0.02 + 0.5j, -0.01 + 1j, -0.09 - 3j])
def test_trace_matches_extend_perturbed(spec_z):
    h = perturbed_identity(0.3)
    for variant in ("schwarzian", "pre-schwarzian"):
        a = trace_extend(h, variant, spec_z)
        b = extend(h, variant, spec_z)
        assert abs(a - b) <= 1e-12


def test_trace_matches_extend_counterexample_grid():
    f = counterexample_f()
    pts = mirror_strip_points(0.2, grid=SMALL_GRID)
    a = trace_extend(f, "schwarzian", pts)
    b = extend(f, "schwarzian", pts)
    assert float(np.max(np.abs(a - b))) <= 1e-12


# -- library-edge checks -----------------------------------------------------------

# name -> (call, field its ValueError names); the CLI's flag types reject these values
# first, so only a library caller reaches the checks
EDGE_CHECKS = {
    "grid-x-min": (lambda: StripGrid(x_min=0), "x_min"),
    "grid-y-max": (lambda: StripGrid(y_max=-1), "y_max"),
    "grid-y-count": (lambda: StripGrid(y_count=0), "y_count"),
    "grid-points-per-decade": (lambda: StripGrid(points_per_decade=-1), "points_per_decade"),
    "x-levels-below-x-min": (lambda: StripGrid().x_levels(1e-5), "x_max"),
    "qc-report-k": (lambda: qc_report(identity(), "schwarzian", 0.5, k=1.5, nx=3, ny=3), "k"),
    "mirror-nx": (lambda: mirror_strip_points(0.5, nx=0), "nx"),
    "mirror-no-room": (lambda: mirror_strip_points(0.5, grid=StripGrid(x_min=0.5)), "x_min"),
    "mu-density-tau": (lambda: mu_density(identity(), "schwarzian", 0), "tau"),
    "composite-mu-tilde-t": (lambda: composite_mu_tilde(identity(), 0), "t"),
    "trace-extend-side": (lambda: trace_extend(identity(), "schwarzian", 0.1 + 1j), "Re z"),
}


@pytest.mark.parametrize("case", EDGE_CHECKS.values(), ids=EDGE_CHECKS.keys())
def test_library_edge_check_names_its_field(case):
    call, field = case
    with pytest.raises(ValueError, match=rf"\b{re.escape(field)}\b"):
        call()


# -- carriers ---------------------------------------------------------------------

LEFT, RIGHT = -0.1 + 0.7j, 0.4 - 0.3j

# name -> (operation on (map, variant, point), point, result is a residual that is zero
# in exact arithmetic)
CARRIER_OPS = {
    "extend-left": (extend, LEFT, False),
    "extend-right": (extend, RIGHT, False),
    "mu_formula": (mu_formula, LEFT, False),
    "trace_extend": (trace_extend, LEFT, False),
    "family_ht": (lambda h, v, z: family_ht(h, v, 0.1, z), RIGHT, False),
    "field_p": (lambda h, v, z: HerglotzField(h, v, 0.5, 0.5).p(z, 0.1), RIGHT, False),
    "pde_residual": (lambda h, v, z: pde_residual(h, v, z, 0.1), RIGHT, True),
}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("spec", ["perturbed-identity:0.3", "counterexample-f"])
@pytest.mark.parametrize("op", sorted(CARRIER_OPS))
def test_formulas_keep_their_carrier(op, spec, variant):
    # a Python complex stays a Python scalar (the RK4 fast paths need it), an array
    # stays an array and an mpmath number an mpmath number, all with the same value
    fn, z, residual = CARRIER_OPS[op]
    h = parse_map_spec(spec)
    scalar = fn(h, variant, z)
    array = fn(h, variant, np.array([z]))
    with mpmath.workdps(30):
        mp = fn(h, variant, mpmath.mpc(z))
    assert type(scalar) is (float if residual else complex)
    assert isinstance(array, np.ndarray) and array.shape == (1,)
    assert array.dtype == (np.float64 if residual else np.complex128)
    assert isinstance(mp, mpmath.mpf if residual else mpmath.mpc)
    if residual:
        assert max(scalar, float(array[0]), float(mp)) <= 1e-14
        return
    # cmath and numpy round exp/log/sqrt and complex division differently, so the
    # scalar and the array element agree to rounding, not always bit for bit
    assert abs(scalar - array[0]) <= 1e-14 * abs(scalar)
    assert abs(complex(mp) - scalar) <= 1e-13 * abs(complex(mp))


# -- dilatation verification --------------------------------------------------------


def test_fd_identity_second_order_convergence():
    # extended-precision stencils isolate the O(step^2) truncation term
    h = perturbed_identity(0.3)
    tau = tau0_scan(h, "schwarzian", 0.5, grid=SMALL_GRID).t_star
    pts = mirror_strip_points(tau, nx=9, ny=9, grid=SMALL_GRID).astype(np.clongdouble)
    want = mu_formula(h, "schwarzian", pts.astype(complex))
    errs = []
    for step in (1e-5, 5e-6):
        fx = (extend(h, "schwarzian", pts + step) - extend(h, "schwarzian", pts - step)) / (2 * step)
        fy = (extend(h, "schwarzian", pts + 1j * step) - extend(h, "schwarzian", pts - 1j * step)) / (2 * step)
        mu = (fx + 1j * fy) / (fx - 1j * fy)
        errs.append(float(np.max(np.abs(mu.astype(complex) - want))))
    assert errs[0] <= 1e-6
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_moebius_extension_is_holomorphic_in_strip():
    m = moebius(1, 2, 0, 1)  # z + 2
    for z in (-0.05 + 1j, -0.2 - 0.5j):
        _, d_zbar = extension._wirtinger_pair(lambda w: extend(m, "schwarzian", w), z, 1e-5)
        assert abs(d_zbar) <= 1e-8
    # same statement over a whole report grid
    rep = qc_report(m, "schwarzian", _small_tau(m, "schwarzian"), k=0.5, grid=SMALL_GRID,
                    nx=9, ny=9)
    assert rep.passed
    assert rep.max_mu_fd <= 1e-8  # d_z = 1, so mu_fd is d_zbar


def test_boundary_continuity():
    for m in (perturbed_identity(0.3), counterexample_f()):
        y = 0.7
        target = m.value(1j * y)
        gaps = [abs(extend(m, "schwarzian", -eps + 1j * y) - target)
                for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-4


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("spec", ["half-strip-g", "compose:half-strip-g,moebius:2,0,0,1"])
def test_extend_on_axis_matches_its_neighbours(spec, variant):
    # E is continuous across the axis: on half-strip-g's segment i(-1,1) the map's value
    # at Re z = 0, the limit from H, agrees with E at Re z = +-1e-12
    h = parse_map_spec(spec)
    for y in (-0.45, -0.3, -1e-3, 1e-3, 0.25, 0.45):  # away from g's branch points +-i
        for re in (0.0, -0.0):
            on_axis = extend(h, variant, complex(re, y), tau=0.1)
            for side in (1e-12, -1e-12):
                near = extend(h, variant, complex(side, y), tau=0.1)
                assert abs(on_axis - near) <= 1e-6 * abs(near), (re, y, side)


# -- grid report ----------------------------------------------------------------------


def test_qc_report_identity_passes_with_zero_mu():
    rep = qc_report(identity(), "schwarzian", _small_tau(identity(), "schwarzian"), k=0.5,
                    grid=SMALL_GRID, nx=9, ny=9)
    assert rep.passed
    assert rep.max_mu_formula == 0.0
    assert rep.degenerate_count == 0


def test_qc_report_perturbed_passes_bound():
    h = perturbed_identity(0.3)
    rep = qc_report(h, "schwarzian", _small_tau(h, "schwarzian"), k=0.5,
                    grid=SMALL_GRID, nx=17, ny=17)
    assert rep.passed
    assert rep.max_mu_formula <= 0.25 + 1e-9
    assert rep.max_identity_error <= rep.fd_tolerance


def test_qc_report_square_fails_bound_not_identity():
    # forced horizon: the formula/FD identity still holds away from the axis,
    # but |mu| reaches 3 near y = 0, so the extension is not quasiconformal
    grid = StripGrid(x_min=0.05, points_per_decade=16, y_max=5.0, y_count=33)
    rep = qc_report(square_map(), "schwarzian", 0.1, k=0.5, grid=grid,
                    nx=15, ny=33, fd_step=1e-6, fd_tolerance=1e-5)
    assert not rep.passed
    assert rep.max_mu_formula >= 1.0
    assert rep.max_identity_error <= rep.fd_tolerance  # identity intact
    assert rep.degenerate_count == 0


@pytest.mark.parametrize("tolerance", [-1e-6, math.nan], ids=["negative", "nan"])
def test_qc_report_rejects_bad_fd_tolerance(tolerance):
    with pytest.raises(ValueError) as exc:
        qc_report(identity(), "schwarzian", 0.5, fd_tolerance=tolerance, grid=SMALL_GRID,
                  nx=3, ny=3)
    assert str(exc.value) == f"fd_tolerance must be finite and nonnegative, got {tolerance}"


@pytest.mark.parametrize("step", [-1e-5, 0.0, math.nan], ids=["negative", "zero", "nan"])
def test_qc_report_rejects_bad_fd_step(step):
    with pytest.raises(ValueError) as exc:
        qc_report(identity(), "schwarzian", 0.5, fd_step=step, grid=SMALL_GRID, nx=3, ny=3)
    assert str(exc.value) == f"fd_step must be finite and positive, got {step}"


def test_qc_report_json_shape():
    rep = qc_report(identity(), "schwarzian", _small_tau(identity(), "schwarzian"), k=0.5,
                    grid=SMALL_GRID, nx=5, ny=5)
    doc = rep.to_json_dict()
    assert set(doc) == {"map", "variant", "k", "tau", "fd_step", "summary", "samples"}
    assert set(doc["summary"]) == {"max_mu", "max_mu_formula", "max_identity_err",
                                   "degenerate_count", "failures", "pass"}
    assert len(doc["samples"]) == 25
    assert set(doc["samples"][0]) == {"z", "mu_fd", "mu_formula", "err", "degenerate"}


def test_qc_report_sample_err_is_complex_abs():
    h = perturbed_identity(0.3)
    rep = qc_report(h, "pre-schwarzian", _small_tau(h, "pre-schwarzian"), k=0.5,
                    grid=SMALL_GRID, nx=7, ny=9)
    samples = rep.to_json_dict()["samples"]
    for s, fd, form in zip(samples, rep.mu_fd.ravel(), rep.mu_form.ravel()):
        assert s["err"] == abs(complex(fd) - complex(form))


def _bits(values):
    return np.asarray(values).tobytes()


def _whole_mesh_qc(h, variant, tau, fd_step, nx, ny):
    """mu_fd, mu_formula and degenerate of qc_report, evaluated on the whole mesh."""
    pts = mirror_strip_points(tau, fd_step=fd_step, nx=nx, ny=ny)
    d_z, d_zbar = extension._wirtinger_pair(lambda w: extend(h, variant, w, tau=tau), pts,
                                            fd_step)
    degenerate = np.abs(d_z) < 100 * np.finfo(float).eps / fd_step
    with np.errstate(divide="ignore", invalid="ignore"):
        mu_fd = np.where(degenerate, 0.0, d_zbar / np.where(degenerate, 1.0, d_z))
    return pts, mu_fd, mu_formula(h, variant, pts), degenerate


def _whole_mesh_summary(pts, mu_fd, mu_form, degenerate):
    """qc_report's summary reduced over whole arrays: max |mu_fd| and max
    |mu_fd - mu_formula| over the accepted samples (0.0 if there are none), max
    |mu_formula| over all, and the degenerate count."""
    accepted = ~degenerate
    fd = np.abs(mu_fd[accepted])
    errs = np.abs(mu_fd - mu_form)[accepted]
    return (float(fd.max()) if fd.size else 0.0, float(np.abs(mu_form).max()),
            float(errs.max()) if errs.size else 0.0, int(degenerate.sum()))


def _summary(rep):
    return rep.max_mu_fd, rep.max_mu_formula, rep.max_identity_error, rep.degenerate_count


@st.composite
def _blocked_samples(draw):
    """BLOCK_POINTS >= 2**14 and nx levels of ny samples: 0-2 whole blocks plus a short tail."""
    block_points = draw(st.integers(2 ** 14, 2 ** 15))
    ny = draw(st.integers(33, 257))
    rows = -(-block_points // ny)
    nx = draw(st.integers(0, 2)) * rows + draw(st.integers(1, rows - 1))
    return block_points, nx, ny


@pytest.mark.parametrize("spec, tau", [("counterexample-f", 1.0), ("perturbed-identity:0.3", 0.8)])
@settings(max_examples=4, deadline=None)
@given(case=_blocked_samples(), variant=st.sampled_from(VARIANTS))
def test_blocked_qc_report_and_trace_check_match_whole_mesh_bit_for_bit(spec, tau, case,
                                                                        variant,
                                                                        tmp_path_factory):
    block_points, nx, ny = case
    h = parse_map_spec(spec)
    want = _whole_mesh_qc(h, variant, tau, 1e-5, nx, ny)
    want_summary = _whole_mesh_summary(*want)
    trace_pts = mirror_strip_points(tau, fd_step=1e-9, nx=nx, ny=ny)
    want_trace = float(np.max(np.abs(trace_extend(h, variant, trace_pts)
                                      - extend(h, variant, trace_pts, tau=tau))))
    out = tmp_path_factory.mktemp("trace") / "trace.json"
    trace_args = ["trace-check", "--map", spec, "--variant", variant, "--tau", repr(tau),
                  "--nx", str(nx), "--ny", str(ny), "--out", str(out)]
    # one worker runs the serial loop; three threads with frequent thread switches
    # interleave the blocks' writes
    switch_interval = sys.getswitchinterval()
    for workers in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(schwarz, "BLOCK_POINTS", block_points)
            mp.setattr(schwarz, "_cpu_count", lambda: workers)
            mp.setattr(schwarz, "MAX_WORKERS", workers)
            sys.setswitchinterval(1e-5)
            try:
                rep = qc_report(h, variant, tau, nx=nx, ny=ny)
                summary_rep = qc_report(h, variant, tau, nx=nx, ny=ny, samples=False)
                points, worst = trace_check(h, variant, tau, nx=nx, ny=ny)
                assert main(trace_args) == 0
            finally:
                sys.setswitchinterval(switch_interval)
        assert rep.failures == () and summary_rep.failures == ()
        for got, expected in zip((rep.points, rep.mu_fd, rep.mu_form, rep.degenerate), want):
            assert _bits(got) == _bits(expected)
        assert summary_rep.points is None
        for got in (rep, summary_rep):
            assert _bits(_summary(got)) == _bits(want_summary)
        doc = json.loads(out.read_text())
        assert doc["points"] == points == nx * ny
        assert _bits(doc["max_difference"]) == _bits(worst) == _bits(want_trace)


@pytest.mark.parametrize("degenerate_at", [
    lambda z: z.imag > 0,  # the upper half of each level
    lambda z: np.ones(z.shape, dtype=bool),  # every sample: no accepted one is left
], ids=["upper-half", "all"])
@pytest.mark.parametrize("workers", [1, 3])
def test_qc_report_summary_skips_degenerate_samples(monkeypatch, degenerate_at, workers):
    # d_z = 0 on a known set of samples: mu_fd is 0 there and the identity error,
    # which would be |mu_formula|, is left out of the summary
    wirtinger_pair = extension._wirtinger_pair

    def pair(F, z, step):
        d_z, d_zbar = wirtinger_pair(F, z, step)
        return np.where(degenerate_at(z), 0.0, d_z), d_zbar

    monkeypatch.setattr(extension, "_wirtinger_pair", pair)
    monkeypatch.setattr(schwarz, "_cpu_count", lambda: workers)
    monkeypatch.setattr(schwarz, "MAX_WORKERS", workers)
    h, nx, ny = counterexample_f(), 200, 257  # 51,400 samples: three blocks
    pts, mu_fd, mu_form, degenerate = want = _whole_mesh_qc(h, "schwarzian", 1.0, 1e-5, nx, ny)
    assert _bits(degenerate) == _bits(degenerate_at(pts))
    assert np.abs(mu_form[degenerate]).max() > 0.1  # far over fd_tolerance
    for samples in (True, False):
        rep = qc_report(h, "schwarzian", 1.0, nx=nx, ny=ny, samples=samples)
        assert _bits(_summary(rep)) == _bits(_whole_mesh_summary(*want))
        assert rep.degenerate_count == degenerate.sum() > 0
        assert rep.max_identity_error <= rep.fd_tolerance and rep.passed
        if samples:
            assert _bits(rep.degenerate) == _bits(degenerate)
            assert not np.any(rep.mu_fd[degenerate])
    if degenerate.all():
        assert rep.max_mu_fd == rep.max_identity_error == 0.0


def test_qc_report_names_failure_of_first_block(monkeypatch):
    # block 0 fails after a later block has failed; the report names block 0, as a
    # serial loop does
    monkeypatch.setattr(schwarz, "_cpu_count", lambda: 2)
    monkeypatch.setattr(schwarz, "BLOCK_POINTS", 4 * SMALL_GRID.y_count)
    later_failed = threading.Event()

    def formula(w):
        # block 0 holds the levels next to the axis, mirrored to Re z* = x_min +- fd_step
        if w.center.real.min() > 1.5 * SMALL_GRID.x_min:
            later_failed.set()
            raise EvaluationError("failure in a later block")
        assert later_failed.wait(timeout=30)
        raise EvaluationError("failure in block 0")

    rep = qc_report(ConformalMap("fake", DOMAIN_H, formula), "schwarzian", 0.5, grid=SMALL_GRID)
    assert rep.failures == ("failure in block 0",)
    assert rep.points.size == 0
    assert _summary(rep) == (0.0, 0.0, 0.0, 0) and not rep.passed


def test_qc_report_memory_is_bounded():
    # 526k samples at 512 points per decade; the whole mesh's stencils took about 241 MB
    tracemalloc.start()
    try:
        rep = qc_report(counterexample_f(), "schwarzian", 1.0,
                        grid=StripGrid(points_per_decade=512))
        peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert rep.failures == () and rep.points.size == 526593
    assert peak_mb < 64


@pytest.mark.parametrize("args", [["verify-mu", "--summary-only"], ["trace-check"]],
                         ids=["verify-mu-summary", "trace-check"])
def test_summary_commands_hold_no_per_sample_arrays(args, capsys):
    # the horizon scan and the mirrored grid of 526k samples, both in blocks; the
    # per-sample columns of verify-mu took 36.8 MB and trace-check's whole mesh 19.6 MB
    tracemalloc.start()
    try:
        code = main([*args, "--map", "counterexample-f", "--points-per-decade", "512"])
        peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(capsys.readouterr().out)["map"] == "counterexample-f"
    assert peak_mb < 16


def test_full_report_holds_no_whole_copy_of_its_text(tmp_path):
    # each chunk of the text is written as soon as it is made, so the traced peak (the
    # report's columns and one chunk, about 0.8 times the file) is less than one whole
    # copy of the text
    out = tmp_path / "mu.json"
    tracemalloc.start()
    try:
        code = main(["verify-mu", "--map", "counterexample-f", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out.read_text())["map"] == "counterexample-f"
    assert peak < 1.0 * out.stat().st_size


def test_denominator_guard_names_one_point_whatever_the_blocks(capsys):
    # the guards trip on the strip's last level; each failure names its first point
    verify = ["verify-mu", "--map", "moebius:1,0,1,0.49996999999999997", "--tau", "0.5",
              "--summary-only"]
    trace = ["trace-check", "--map", "moebius:1,0,1,0.499999998", "--tau", "0.5"]
    for block_points in (2 ** 14, 2 ** 15):
        for workers in (1, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(schwarz, "BLOCK_POINTS", block_points)
                mp.setattr(schwarz, "_cpu_count", lambda: workers)
                mp.setattr(schwarz, "MAX_WORKERS", workers)
                assert main(verify) == 2
                failures = json.loads(capsys.readouterr().out)["summary"]["failures"]
                assert main(trace) == 2
                err = capsys.readouterr().err
            assert failures == ["|1 - (Re z) Ph(z*)| below 1e-09 at z=(-0.49996999999999997+0j), "
                                "t=0.49996999999999997 (horizon violated)"]
            assert err == ("chordalqc: |1 + t Ph(z+t)| below 1e-09 at z=0j, t=0.499999998 "
                           "(horizon violated)\n")


def test_horizon_guard_names_first_point_beyond():
    pts = np.array([-0.05 + 1j, -0.3 + 2j, -0.4 - 1j])
    with pytest.raises(HorizonError, match=r"^Re z = -0\.3 at or beyond the horizon -tau = -0\.2$"):
        extend(perturbed_identity(0.3), "schwarzian", pts, tau=0.2)


def _rendered(doc) -> bytes:
    """The bytes ``_json_doc`` renders for ``doc``, its chunks joined."""
    out = _json_doc(doc)
    return out if isinstance(out, bytes) else "".join(out).encode("ascii")


_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2e-308, 1e16, -1e16, 1e-7, math.inf, -math.inf, math.nan]
)
_ANY_FLOAT = st.one_of(st.floats(allow_nan=True, allow_infinity=True), _EDGE_FLOATS)


@st.composite
def _qc_reports(draw):
    nx, ny = draw(st.integers(0, 3)), draw(st.integers(0, 4))

    def column():
        out = np.empty((nx, ny), dtype=complex)
        out.real = np.reshape(draw(st.lists(_ANY_FLOAT, min_size=nx * ny, max_size=nx * ny)),
                              (nx, ny))
        out.imag = np.reshape(draw(st.lists(_ANY_FLOAT, min_size=nx * ny, max_size=nx * ny)),
                              (nx, ny))
        return out

    points, mu_fd, mu_form = (column() for _ in range(3))
    degenerate = np.reshape(draw(st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny)),
                            (nx, ny)).astype(bool)
    variant = draw(st.sampled_from(("schwarzian", "pre-schwarzian")))
    failures = tuple(draw(st.lists(st.sampled_from(("guard", "horizon")), max_size=2)))
    summary = [draw(_ANY_FLOAT) for _ in range(4)]
    samples = (points, mu_fd, mu_form, degenerate) if draw(st.booleans()) else ()
    return QCReport("counterexample-f", variant, draw(_ANY_FLOAT), draw(_ANY_FLOAT),
                    1e-5, 1e-6, *summary, failures, *samples)


@settings(max_examples=200, deadline=None)
@given(rep=_qc_reports())
def test_json_doc_of_qc_report_matches_json_dumps(rep):
    with np.errstate(all="ignore"):
        expected = (json.dumps(rep.to_json_dict(), indent=2) + "\n").encode("ascii")
        assert _rendered(rep) == expected


def test_json_doc_of_qc_report_across_chunks_matches_json_dumps():
    # 2 chunks and 3 samples; within each column 0.0 sits next to -0.0, which a value-based
    # dedup would spell alike, among NaNs of both signs, infinities, subnormals and repeats.
    # The writer spells a magnitude once and a negative entry as "-" and its text, so each
    # magnitude also comes with both signs in one chunk (0.7) and in two (0.9 then -0.9);
    # Re z is all negative, Im z all nonnegative
    n = 2 * _SAMPLE_CHUNK + 3
    rng = np.random.default_rng(15)
    signed_nan = math.copysign(math.nan, -1.0)
    assert math.isnan(signed_nan) and math.copysign(1.0, signed_nan) < 0
    nonnegative = [0.0, math.nan, math.inf, 5e-324, 0.1, 1e16, 0.30000000000000004]
    negative = [-0.0, signed_nan, -math.inf, -5e-324, -2.2e-308, -0.1]
    pool = np.array(nonnegative + negative)

    def column():
        out = np.empty(n, dtype=complex)
        out.real, out.imag = rng.choice(pool, n), rng.choice(pool, n)
        for cut in (0, _SAMPLE_CHUNK - 1, 2 * _SAMPLE_CHUNK - 1, n - 2):
            out.real[cut:cut + 2] = out.imag[cut:cut + 2] = (0.0, -0.0) if cut % 2 else (-0.0, 0.0)
        out.real[[5, 9]] = 0.7, -0.7
        out.real[[6, _SAMPLE_CHUNK + 6]] = 0.9, -0.9
        return out.reshape(1, n)

    points, mu_fd, mu_form = column(), column(), column()
    points.real, points.imag = rng.choice(negative, (1, n)), rng.choice(nonnegative, (1, n))
    assert np.signbit(points.real).all() and not np.signbit(points.imag).any()
    degenerate = (rng.random(n) < 0.3).reshape(1, n)
    empty = [np.empty((0, 0), dtype=t) for t in (complex, complex, complex, bool)]
    for samples in ((points, mu_fd, mu_form, degenerate), empty):
        rep = QCReport("counterexample-f", "schwarzian", 0.5, 0.75, 1e-5, 1e-6,
                       0.1, 0.2, 1e-8, int(samples[3].sum()), (), *samples)
        with np.errstate(all="ignore"):
            expected = (json.dumps(rep.to_json_dict(), indent=2) + "\n").encode("ascii")
            assert _rendered(rep) == expected


@pytest.mark.parametrize("variant", VARIANTS)
def test_json_doc_of_default_grid_report_matches_json_dumps(variant):
    # the full verify-mu report: 16 or more chunks, and Im mu columns antisymmetric in Im z,
    # so most magnitudes come with both signs
    h = counterexample_f()
    rep = qc_report(h, variant, tau0_scan(h, variant, 0.5).t_star, k=0.5)
    fd = rep.mu_fd.ravel().imag
    assert rep.points.size > 15 * _SAMPLE_CHUNK
    assert np.intersect1d(fd[fd > 0], -fd[fd < 0]).size > rep.points.size // 4
    expected = (json.dumps(rep.to_json_dict(), indent=2) + "\n").encode("ascii")
    assert _rendered(rep) == expected
