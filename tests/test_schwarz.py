import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordalqc import schwarz
from chordalqc.errors import DegenerateSampleError, EvaluationError, HorizonError
from chordalqc.loewner import VARIANT_SCHWARZIAN, VARIANTS, tau0_scan
from chordalqc.maps import (
    DOMAIN_H,
    ConformalMap,
    compose,
    counterexample_f,
    half_strip_g,
    identity,
    moebius,
    parse_map_spec,
    perturbed_identity,
    phi_map,
    square_map,
)
from chordalqc.schwarz import (
    NormProfile,
    StripGrid,
    derivative_ratios,
    norm_profile,
    strip_weights,
)

SMALL_GRID = StripGrid(points_per_decade=16, y_max=20.0, y_count=65)


def test_pre_schwarzian_identity_is_zero():
    for z in (0.5, 1 + 1j, 3 - 2j):
        assert derivative_ratios(identity().jet(z))[0] == 0


def test_pre_schwarzian_square():
    # (z^2)''/(z^2)' = 1/z
    assert abs(derivative_ratios(square_map().jet(2.0))[0] - 0.5) <= 1e-14
    z = 1.5 + 0.5j
    assert abs(derivative_ratios(square_map().jet(z))[0] - 1 / z) <= 1e-14


def test_pre_schwarzian_perturbed_closed_form():
    h = perturbed_identity(0.3)
    for z in (1e-9, 0.5 + 0.2j, 2.0):
        w = 0.3 * np.exp(-complex(z))
        assert abs(derivative_ratios(h.jet(z))[0] - w / (1 - w)) <= 1e-13
    assert abs(derivative_ratios(h.jet(1e-9))[0] - 0.3 / 0.7) <= 1e-6


def test_schwarzian_square_closed_form():
    assert abs(derivative_ratios(square_map().jet(1.0))[1] + 1.5) <= 1e-14


def test_schwarzian_moebius_zero():
    m = moebius(2, 1, 1, 3)
    for z in (0.5, 1 + 2j):
        assert abs(derivative_ratios(m.jet(z))[1]) <= 1e-12


def test_schwarzian_chain_rule_moebius_inner():
    # S(g o phi) = (Sg o phi) * phi'^2 when phi is Moebius
    g = half_strip_g()
    for phi in (phi_map(), moebius(1, 1, 0, 1), moebius(2, 0, 0, 1)):
        z = 1.0
        left = derivative_ratios(compose(g, phi).jet(z))[1]
        pj = phi.jet(z)
        right = derivative_ratios(g.jet(complex(pj.coeffs[0])))[1] * pj.coeffs[1] ** 2
        assert abs(left - right) <= 1e-12 * max(1.0, abs(right))


def test_degenerate_derivative_rejected():
    from chordalqc.jets import Jet

    with pytest.raises(DegenerateSampleError):
        derivative_ratios(Jet(0.0, (1.0, 0.0, 1.0, 0.0)))


# -- norm profiles ---------------------------------------------------------


def test_norm_profile_identity_is_zero():
    prof = norm_profile(identity(), [1.0, 0.1, 0.01], grid=SMALL_GRID)
    assert prof.beta == (0.0, 0.0, 0.0)
    assert prof.sigma == (0.0, 0.0, 0.0)


def test_norm_profile_counterexample_decreases():
    prof = norm_profile(counterexample_f(), [1.0, 0.1, 0.01], grid=SMALL_GRID)
    assert prof.sigma[0] > prof.sigma[1] > prof.sigma[2] > 0
    assert prof.beta[0] > prof.beta[1] > prof.beta[2] > 0


def test_norm_profile_perturbed_bound():
    prof = norm_profile(perturbed_identity(0.3), [0.1], grid=SMALL_GRID)
    assert prof.beta[0] <= 2 * 0.1 * 0.3 / 0.7 + 1e-12


def test_norm_profile_monotone_in_t():
    prof = norm_profile(perturbed_identity(0.5), [1.0, 0.5, 0.2, 0.05], grid=SMALL_GRID)
    assert all(a >= b for a, b in zip(prof.beta, prof.beta[1:]))
    assert all(a >= b for a, b in zip(prof.sigma, prof.sigma[1:]))


def test_norm_profile_validates_t_values():
    with pytest.raises(ValueError):
        norm_profile(identity(), [0.1, 1.0], grid=SMALL_GRID)
    with pytest.raises(ValueError):
        norm_profile(identity(), [1.0, -0.1], grid=SMALL_GRID)
    with pytest.raises(ValueError):
        norm_profile(identity(), [1e-6], grid=SMALL_GRID)


def test_norm_profile_rows_and_argmax():
    prof = norm_profile(square_map(), [0.5], grid=SMALL_GRID)
    rows = list(prof.rows())
    assert len(rows) == 1
    t, beta, sigma, bre, bim, sre, sim = rows[0]
    assert t == 0.5
    # sigma = 6 on the real axis, attained at the largest level with y = 0
    assert abs(sigma - 6.0) <= 1e-12
    assert sim == 0.0
    assert abs(beta - 2.0) <= 1e-12


def test_profile_monotonicity_guard():
    with pytest.raises(ValueError):
        NormProfile((1.0, 0.1), (0.0, 1.0), (0.0, 0.0), (0j, 0j), (0j, 0j))


def test_sup_implication_constant():
    # sup (2x)^2|Sf| <= 64*lambda + lambda^2/2 with lambda = sup (2x)|Pf|
    for m in (identity(), square_map(), perturbed_identity(0.3), counterexample_f(),
              half_strip_g()):
        _, w_beta, w_sigma = strip_weights(m, SMALL_GRID, 1.0)
        lam = float(w_beta.max())
        assert float(w_sigma.max()) <= 64 * lam + lam ** 2 / 2 + 1e-12


def test_kraus_nehari_ceiling():
    univalent = [identity(), phi_map(), half_strip_g(), counterexample_f(),
                 square_map(), perturbed_identity(0.1), perturbed_identity(0.3),
                 perturbed_identity(0.5)]
    for m in univalent:
        _, _, w_sigma = strip_weights(m, SMALL_GRID, 1.0)
        assert float(w_sigma.max()) <= 6 + 1e-9


# -- streamed scans --------------------------------------------------------


def _whole_mesh_profile(m, grid, ts):
    """norm_profile's reductions taken over the whole strip_weights mesh at once."""
    mesh, w_beta, w_sigma = strip_weights(m, grid, ts[0])
    xs = mesh[:, 0].real
    sups = {"beta": [], "sigma": [], "argmax_beta": [], "argmax_sigma": []}
    for t in ts:
        k = int(np.searchsorted(xs, t * (1 + 1e-12), side="right"))
        for w, label in ((w_beta, "beta"), (w_sigma, "sigma")):
            ij = np.unravel_index(int(np.argmax(w[:k])), w[:k].shape)
            sups[label].append(float(w[ij]))
            sups["argmax_" + label].append(complex(mesh[ij]))
    return mesh, w_beta, w_sigma, sups


def _bits(values):
    return np.asarray(values).tobytes()


@st.composite
def _streamed_grids(draw):
    """BLOCK_POINTS >= 2**14 and a grid of 0-2 whole blocks plus a short tail of levels."""
    block_points = draw(st.integers(2 ** 14, 2 ** 15))
    y_count = draw(st.integers(33, 257))
    rows = -(-block_points // y_count)
    levels = draw(st.integers(0, 2)) * rows + draw(st.integers(1, rows - 1))
    # one decade from x_min = 0.1 to 1 holds points_per_decade + 1 levels
    return block_points, StripGrid(x_min=0.1, points_per_decade=levels - 1, y_count=y_count)


@pytest.mark.parametrize("spec", ["identity", "counterexample-f", "perturbed-identity:0.3",
                                  "half-strip-g"])
@settings(max_examples=8, deadline=None)
@given(case=_streamed_grids(), variant=st.sampled_from(VARIANTS))
def test_streamed_scans_match_whole_mesh_bit_for_bit(spec, case, variant):
    block_points, grid = case
    m = parse_map_spec(spec)
    ts = (1.0, 0.5, 0.1)
    mesh, w_beta, w_sigma, want = _whole_mesh_profile(m, grid, ts)
    k = 0.5
    level_sup = (w_sigma if variant == VARIANT_SCHWARZIAN else w_beta).max(axis=1)
    # one worker runs the serial loop; three threads, more than most runners have
    # CPUs, with frequent thread switches, interleave the blocks' writes
    switch_interval = sys.getswitchinterval()
    for workers in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(schwarz, "BLOCK_POINTS", block_points)
            mp.setattr(schwarz, "_cpu_count", lambda: workers)
            mp.setattr(schwarz, "MAX_WORKERS", workers)
            sys.setswitchinterval(1e-5)
            try:
                prof = norm_profile(m, ts, grid=grid)
                for label, values in want.items():
                    assert _bits(getattr(prof, label)) == _bits(values), label
                if level_sup[0] > k:
                    with pytest.raises(HorizonError, match=f"norm {level_sup[0]:.6g} at smallest"):
                        tau0_scan(m, variant, k, grid=grid)
                    continue
                res = tau0_scan(m, variant, k, grid=grid)
            finally:
                sys.setswitchinterval(switch_interval)
        assert _bits(res.x_levels) == _bits(mesh[:, 0].real)
        assert _bits(res.level_sup) == _bits(level_sup)


def test_streamed_argmax_ties_pick_first_grid_point(monkeypatch):
    # identity has all-zero weights: every point ties, the first one wins
    monkeypatch.setattr(schwarz, "BLOCK_POINTS", 2 ** 14)
    grid = StripGrid(points_per_decade=32)  # 129 levels of 257 points: blocks of 64 and 65 levels
    prof = norm_profile(identity(), [1.0, 0.01], grid=grid)
    first = complex(grid.x_levels(1.0)[0], grid.y_values()[0])
    assert prof.argmax_beta == prof.argmax_sigma == (first, first)


def test_streamed_scan_names_pole_in_last_block():
    # z/(z-1) has its pole at z = 1, on the last Re level of the scan
    with pytest.raises(EvaluationError, match=r"division by jet with zero value at z=\(1\+0j\)"):
        tau0_scan(moebius(1, 0, 1, -1), "schwarzian", grid=StripGrid(points_per_decade=512))


def _two_thread_scan(monkeypatch, formula):
    """_level_sups over SMALL_GRID in 16 blocks on 2 threads with a fabricated map."""
    monkeypatch.setattr(schwarz, "_cpu_count", lambda: 2)
    monkeypatch.setattr(schwarz, "BLOCK_POINTS", 4 * SMALL_GRID.y_count)
    return schwarz._level_sups(ConformalMap("fake", DOMAIN_H, formula), SMALL_GRID, 1.0)


def test_concurrent_scan_raises_error_of_first_failing_block(monkeypatch):
    # block 0 fails after a later block has failed; the scan names block 0, as a
    # serial scan does
    first_level = SMALL_GRID.x_levels(1.0)[0]
    later_failed = threading.Event()

    def formula(w):
        if w.center.real.min() != first_level:
            later_failed.set()
            raise EvaluationError("failure in a later block")
        assert later_failed.wait(timeout=30)
        raise EvaluationError("failure in block 0")

    with pytest.raises(EvaluationError, match="^failure in block 0$"):
        _two_thread_scan(monkeypatch, formula)


def test_concurrent_scan_starts_no_block_after_a_failure(monkeypatch):
    # on two pool threads block 1 fails at once; block 0 then waits up to a second for
    # block 2 to start and succeeds: no block after the failure starts, so block 2 never
    # does, and the scan raises block 1's error
    xs = SMALL_GRID.x_levels(1.0)
    block_2_started = threading.Event()
    started = []

    def formula(w):
        block = int(np.searchsorted(xs, w.center.real.min())) // 4  # 4 levels per block
        started.append(block)
        if block == 1:
            raise EvaluationError("failure in block 1")
        if block == 2:
            block_2_started.set()
        block_2_started.wait(timeout=1)
        return w

    with pytest.raises(EvaluationError, match="^failure in block 1$"):
        _two_thread_scan(monkeypatch, formula)
    assert len(started) == 2


def test_no_thread_outlives_a_scan():
    before = threading.enumerate()
    grid = StripGrid(points_per_decade=512)
    tau0_scan(counterexample_f(), "schwarzian", grid=grid)
    assert threading.enumerate() == before
    with pytest.raises(EvaluationError):  # the pole of z/(z-1) on the scan's last level
        tau0_scan(moebius(1, 0, 1, -1), "schwarzian", grid=grid)
    assert threading.enumerate() == before


def _scan_peak_mb():
    """tracemalloc peak, in MB, of a 526k-point scan over about 32 blocks."""
    tracemalloc.start()
    try:
        tau0_scan(counterexample_f(), "schwarzian", 0.5, grid=StripGrid(points_per_decade=512))
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_streamed_scan_memory_is_bounded():
    # a 526k-point scan; the whole mesh and its jets took about 209 MB
    assert _scan_peak_mb() < 48


def test_streamed_scan_memory_does_not_grow_with_cpu_count(monkeypatch):
    # each block in flight holds about 6.6 MB: 64 threads would hold over 400 MB
    monkeypatch.setattr(schwarz, "_cpu_count", lambda: 64)
    assert _scan_peak_mb() < 48


def test_grid_levels_are_log_spaced():
    grid = StripGrid()
    xs = grid.x_levels(1.0)
    # four decades at 64 per decade
    assert len(xs) == 4 * 64 + 1
    assert xs[0] == 1e-4 and abs(xs[-1] - 1.0) <= 1e-15
    ratios = xs[1:] / xs[:-1]
    assert np.allclose(ratios, ratios[0])
    assert 0.0 in grid.y_values()
