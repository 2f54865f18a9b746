import numpy as np
import pytest

from chordalqc.errors import HorizonError
from chordalqc.loewner import (
    HerglotzField,
    evolve,
    evolve_trace,
    family_derivatives,
    family_ht,
    pde_residual,
    tau0_scan,
)
from chordalqc.maps import counterexample_f, half_strip_g, identity, perturbed_identity, square_map
from chordalqc.schwarz import StripGrid, derivative_ratios

SMALL_GRID = StripGrid(points_per_decade=16, y_max=20.0, y_count=65)


def small_field(m, variant="schwarzian", k=0.5):
    return HerglotzField(m, variant, k, tau0_scan(m, variant, k, grid=SMALL_GRID).t_star)


# -- herglotz field ----------------------------------------------------------


def test_p_is_one_at_time_zero():
    field = small_field(perturbed_identity(0.3))
    for z in (0.5, 1 + 1j):
        assert abs(field.p(z, 0.0) - 1.0) <= 1e-15


def test_identity_field_is_constant_one():
    field = small_field(identity())
    for t in (0.0, 0.3, 0.9):
        assert abs(field.p(1 + 2j, t) - 1.0) <= 1e-15


def test_disk_identity_schwarzian():
    h = perturbed_identity(0.3)
    field = small_field(h)
    z, t = 1.0, 0.05
    p = field.p(z, t)
    s = derivative_ratios(h.jet(z + t))[1]
    assert abs(abs((p - 1) / (p + 1)) - 2 * t * t * abs(s)) <= 1e-12


def test_disk_identity_pre_variant():
    h = perturbed_identity(0.3)
    field = small_field(h, "pre-schwarzian")
    z, t = 0.7 + 0.4j, 0.08
    p = field.p(z, t)
    pf = derivative_ratios(h.jet(z + t))[0]
    assert abs(abs((p - 1) / (p + 1)) - 2 * t * abs(pf)) <= 1e-12


def test_field_stays_in_disk_with_positive_real_part():
    h = counterexample_f()
    field = small_field(h)
    rng = np.random.default_rng(5)
    z = rng.uniform(0.05, 4, 200) + 1j * rng.uniform(-8, 8, 200)
    t = rng.uniform(0, field.tau0 * 0.999, 200)
    p = field.p(z, t)
    assert np.all(np.abs((p - 1) / (p + 1)) <= field.k + 1e-12)
    assert np.all(p.real >= (1.0 - field.k) / (1.0 + field.k) - 1e-12)


def test_field_validation():
    with pytest.raises(ValueError):
        HerglotzField(identity(), "schwarzian", 1.5, 0.1)
    with pytest.raises(ValueError):
        HerglotzField(identity(), "other", 0.5, 0.1)
    with pytest.raises(ValueError):
        HerglotzField(identity(), "schwarzian", 0.5, -1.0)


# -- the chain ----------------------------------------------------------------


def test_family_at_time_zero_is_the_map():
    h = perturbed_identity(0.3)
    for z in (0.5, 1 + 1j):
        assert abs(family_ht(h, "schwarzian", 0.0, z) - h.value(z)) <= 1e-15
        assert abs(family_ht(h, "pre-schwarzian", 0.0, z) - h.value(z)) <= 1e-15


def test_family_identity_map_translates():
    for variant in ("schwarzian", "pre-schwarzian"):
        for t in (0.05, 0.3):
            for z in (1.0, 2 + 1j):
                assert abs(family_ht(identity(), variant, t, z) - (z - t)) <= 1e-14


def test_family_derivatives_at_zero_and_identity():
    h = perturbed_identity(0.3)
    z = 1 + 0.5j
    hp = h.jet(z).coeffs[1]
    dt, dz = family_derivatives(h, "schwarzian", 0.0, z)
    assert abs(dt + hp) <= 1e-14 and abs(dz - hp) <= 1e-14
    for t in (0.1, 0.4):
        dt, dz = family_derivatives(identity(), "schwarzian", t, z)
        assert abs(dt + 1) <= 1e-14 and abs(dz - 1) <= 1e-14


@pytest.mark.parametrize("variant", ["schwarzian", "pre-schwarzian"])
def test_family_derivatives_match_finite_differences(variant):
    h = counterexample_f()
    z, t, eps = 1.2 + 0.4j, 0.03, 1e-6
    dt, dz = family_derivatives(h, variant, t, z)
    fd_t = (family_ht(h, variant, t + eps, z) - family_ht(h, variant, t - eps, z)) / (2 * eps)
    fd_z = (family_ht(h, variant, t, z + eps) - family_ht(h, variant, t, z - eps)) / (2 * eps)
    assert abs(dt - fd_t) <= 1e-8
    assert abs(dz - fd_z) <= 1e-8


def test_pde_residual_examples():
    assert pde_residual(identity(), "schwarzian", 1 + 1j, 0.2) <= 1e-14
    assert pde_residual(perturbed_identity(0.3), "schwarzian", 1 + 2j, 0.05) <= 1e-10
    assert pde_residual(counterexample_f(), "schwarzian", 2.0, 0.01) <= 1e-10
    assert pde_residual(perturbed_identity(0.3), "pre-schwarzian", 1 + 2j, 0.05) <= 1e-10


# -- evolution -----------------------------------------------------------------


def test_evolve_fixed_time_is_identity():
    field = small_field(perturbed_identity(0.3))
    z = 1 + 1j
    assert evolve(field, 0.1, 0.1, z) == z


def test_evolve_constant_field_translates():
    field = small_field(identity())
    for s, t in ((0.0, 0.25), (0.1, 0.73)):
        w = evolve(field, s, t, 2 + 1j, step=1e-3)
        assert abs(w - (2 + 1j + (t - s))) <= 1e-12


def test_evolve_speed_limit():
    field = small_field(perturbed_identity(0.3))
    t = min(0.05, field.tau0)
    w = evolve(field, 0.0, t, 1 + 1j, step=1e-3)
    assert abs(w - (1 + 1j)) <= (1.0 + field.k) / (1.0 - field.k) * t + 1e-8


def test_evolve_validates_arguments():
    field = small_field(identity())
    for flow in (evolve, evolve_trace):
        with pytest.raises(HorizonError, match="need 0 <= s <= t <= tau0"):
            flow(field, 0.5, 0.2, 1.0)
        with pytest.raises(HorizonError, match="need 0 <= s <= t <= tau0"):
            flow(field, 0.0, 2.0, 1.0)
        with pytest.raises(HorizonError, match="start point: point left the right half-plane"):
            flow(field, 0.0, 0.5, -1.0)
        with pytest.raises(ValueError, match="step must be positive"):
            flow(field, 0.0, 0.5, 1.0, step=0.0)


def test_point_outside_h_is_named():
    field = small_field(identity())
    for z, first in ((-1 + 0j, "(-1+0j)"), (np.array([1 + 1j, -2 + 0j, -3j]), "(-2+0j)")):
        for flow in (evolve, evolve_trace):
            with pytest.raises(HorizonError) as exc:
                flow(field, 0.0, 0.01, z)
            assert str(exc.value) == f"start point: point left the right half-plane at z={first}"


def test_evolve_trace_consistency():
    field = small_field(perturbed_identity(0.3))
    states = evolve_trace(field, 0.0, 0.02, 1 + 1j, step=5e-3)
    assert len(states) == 5
    assert states[0].z == 1 + 1j and states[0].residual_estimate == 0.0
    final = evolve(field, 0.0, 0.02, 1 + 1j, step=5e-3)
    assert abs(states[-1].z - final) <= 1e-15
    assert states[-1].t == pytest.approx(0.02)
    assert all(st.residual_estimate < 1e-10 for st in states)


def test_conjugation_identity():
    # h_t(phi_{0,t}(z)) recovers h(z); the strongest end-to-end check
    h = perturbed_identity(0.3)
    field = small_field(h)
    t = min(0.05, field.tau0)
    for z in (0.5 + 0.5j, 1.5, 2 - 1j):
        w = evolve(field, 0.0, t, z, step=1e-3)
        assert abs(family_ht(h, "schwarzian", t, w) - h.value(z)) <= 1e-10


def test_semigroup_property():
    field = small_field(counterexample_f())
    step = 1e-3
    s, u, t = 0.0, 0.02, 0.05
    z = 1 + 1j
    direct = evolve(field, s, t, z, step=step)
    chained = evolve(field, u, t, evolve(field, s, u, z, step=step), step=step)
    assert abs(direct - chained) <= 10 * step ** 4 * (t - s) + 1e-14


def test_rightward_drift():
    field = small_field(perturbed_identity(0.5))
    s, t = 0.0, min(0.05, field.tau0)
    z = np.array([0.3 + 1j, 1.0, 2.0 - 3j])
    w = evolve(field, s, t, z, step=1e-3)
    assert np.all(w.real - z.real >= (1.0 - field.k) / (1.0 + field.k) * (t - s) - 1e-8)


# -- horizon scan ---------------------------------------------------------------


def test_tau0_scan_identity_hits_scan_maximum():
    res = tau0_scan(identity(), "schwarzian", 0.5, grid=SMALL_GRID, t_max=1.0)
    assert res.t_star == 1.0


def test_tau0_scan_square_has_no_horizon():
    with pytest.raises(HorizonError, match="no horizon at level"):
        tau0_scan(square_map(), "schwarzian", 0.5, grid=SMALL_GRID)
    with pytest.raises(HorizonError, match="no horizon at level"):
        tau0_scan(square_map(), "pre-schwarzian", 0.5, grid=SMALL_GRID)


def test_tau0_scan_perturbed_positive():
    res = tau0_scan(perturbed_identity(0.3), "schwarzian", 0.5, grid=SMALL_GRID)
    assert 0 < res.t_star <= 1.0
    # certified: the sigma sup over levels up to t_star stays at or below k
    keep = res.x_levels <= res.t_star
    assert float(res.level_sup[keep].max()) <= 0.5


def test_tau0_scan_validates_k():
    with pytest.raises(ValueError):
        tau0_scan(identity(), "schwarzian", 1.2, grid=SMALL_GRID)


def test_profile_rows_monotone_prefix():
    res = tau0_scan(perturbed_identity(0.3), "schwarzian", 0.5, grid=SMALL_GRID)
    rows = list(res.profile_rows())
    prefix = [r[2] for r in rows]
    assert all(b >= a for a, b in zip(prefix, prefix[1:]))


# -- distortion and injectivity -------------------------------------------------


def test_koebe_distortion_spot_checks():
    rng = np.random.default_rng(11)
    maps = [half_strip_g(), counterexample_f(), perturbed_identity(0.3)]
    for m in maps:
        z0 = rng.uniform(0.05, 5, 200) + 1j * rng.uniform(-5, 5, 200)
        t = rng.uniform(1e-3, 0.1, 200)
        g0 = np.asarray(m.value(z0))
        jet = m.jet(z0 + t)
        lhs = np.abs(g0 - jet.coeffs[0])
        rhs = (t / 4) * np.abs(jet.coeffs[1])
        assert np.all(lhs >= rhs * (1 - 1e-10))


def test_family_grid_injectivity():
    h = perturbed_identity(0.3)
    res = tau0_scan(h, "schwarzian", 0.5, grid=SMALL_GRID)
    xs = np.linspace(0.1, 4.1, 41)
    ys = np.linspace(-2.0, 2.0, 41)
    z = (xs[:, None] + 1j * ys[None, :]).ravel()
    vals = np.asarray(family_ht(h, "schwarzian", res.t_star, z))
    diff = np.abs(vals[:, None] - vals[None, :])
    diff[np.diag_indices_from(diff)] = np.inf
    assert float(diff.min()) > 1e-9
