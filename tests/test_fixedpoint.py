import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from lgholling import (
    CoefficientBounds,
    GridFunctionPair,
    InitialHistory,
    ModelSpec,
    NumericalError,
    QuadratureError,
    apply_upsilon,
    dde_residual,
    eval_f,
    integrate,
    iterate_fixed_point,
    parse_expression,
    sample_state,
)
from conftest import (example2_constant_pair_u2, in_box, kernel_identity_check, make_spec, reference_upsilon,
                      table_bounds, table_permanence, trapz)
from lgholling import fixedpoint
from lgholling.fixedpoint import _f_values
from lgholling.presets import preset_config


def unit_pair(phi, psi, t_hi=10.0, step=0.1):
    return GridFunctionPair.from_constants(0.0, t_hi, step, phi, psi)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 300), t_lo=st.floats(-50.0, 150.0), step=st.floats(1e-3, 3.0),
       hi_ulps=st.sampled_from([-1, 0, 1]), seed=st.integers(0, 2**32 - 1))
def test_pair_interpolant_equals_scipy_natural_spline(n, t_lo, step, hi_ulps, seed):
    """phi_at and psi_at equal scipy's natural CubicSpline at the clipped
    points bit for bit: at knots, midpoints, random points, beyond both ends,
    with t_hi one ulp off the last grid point, and for a scalar."""
    rng = np.random.default_rng(seed)
    t_hi = t_lo + n * step
    t_hi = float(np.nextafter(t_hi, math.copysign(math.inf, hi_ulps))) if hi_ulps else t_hi
    pair = GridFunctionPair(t_lo, t_hi, step, rng.normal(size=n + 1) * 10.0 ** rng.integers(-3, 4),
                            rng.uniform(0.0, 2.0, n + 1))
    g = pair.grid()
    s = np.concatenate((g, g[:-1] + 0.5 * step, rng.uniform(t_lo - 3 * step, t_hi + 3 * step, 200),
                        [t_lo - 1e6, t_hi + 1e6, t_hi, np.nextafter(t_hi, -math.inf)]))
    for values, at in ((pair.phi, pair.phi_at), (pair.psi, pair.psi_at)):
        spline = CubicSpline(g, values, bc_type="natural")
        assert np.array_equal(at(s), spline(np.clip(s, t_lo, t_hi)))
        for x in (float(s[int(rng.integers(s.size))]), t_hi + 1.0):
            got, want = at(x), spline(np.clip(x, t_lo, t_hi))
            assert got.shape == want.shape == () and got == want


@pytest.mark.parametrize("t_lo, t_hi, step, npts", [
    (0.0, 1.0, 0.0, 1),
    (0.0, 1.0, -0.5, 3),
    (0.0, math.nan, 0.1, 11),
    (math.inf, 1.0, 0.1, 11),
    (0.0, math.inf, 0.1, 11),
    (0.0, 1.0, math.nan, 11),
    (0.0, 1.0, math.inf, 11),
    (0.0, 0.0, 0.1, 1),
    (0.0, 0.04, 0.1, 1),
    (1e17, 1e17 + 10.0, 1.0, 11),  # doubles near 1e17 are 16 apart
    (-1e308, 1e308, 1.0, 3),  # the interval count overflows to inf
], ids=["zero-step", "negative-step", "nan-t_hi", "inf-t_lo", "inf-t_hi", "nan-step", "inf-step",
        "one-point", "rounds-to-one-point", "indistinct-points", "overflowing-count"])
def test_pair_grid_checks(t_lo, t_hi, step, npts):
    with pytest.raises(ValueError):
        GridFunctionPair(t_lo, t_hi, step, np.ones(npts), np.ones(npts))
    with pytest.raises(ValueError):
        GridFunctionPair.from_constants(t_lo, t_hi, step, 1.0, 1.0)


def test_pair_nonfinite_values_raise_at_first_interpolation():
    """A pair holding a non-finite value builds, so that Picard iteration can
    report a diverged iterate; its spline refuses it when first built."""
    pair = GridFunctionPair(0.0, 1.0, 0.5, [1.0, math.inf, 1.0], [1.0, 1.0, 1.0])
    assert pair.psi_at(0.25) == 1.0
    with pytest.raises(ValueError, match="finite"):
        pair.phi_at(0.25)


def test_eval_f_zero_predator(unit_spec):
    assert eval_f(unit_spec, 2, 0.0, 0.5, 0.5, 0.0, 0.0) == 0.0


def test_eval_f_unit_constants(unit_spec):
    assert eval_f(unit_spec, 1, 0.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(1.5, abs=1e-15)
    assert eval_f(unit_spec, 2, 0.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_eval_f_example2_direct_substitution(example2_spec):
    # b(0) = 0.25 + 33.72/4; f1 = b(0)*0.25 + 0.32*0.5*0.5/(0.5+16.7)
    want = (0.25 + 33.72 / 4.0) * 0.25 + 0.32 * 0.5 * 0.5 / (0.5 + 16.7)
    got = eval_f(example2_spec, 1, 0.0, 0.5, 0.5, 0.5, 0.5)
    assert got == pytest.approx(want, rel=1e-14)


def test_apply_upsilon_constant_closed_form(unit_spec, unit_coeff_bounds):
    out = apply_upsilon(unit_spec, unit_pair(1.0, 1.0), quad_step=0.05,
                        tail_tol=1e-8, coeff_bounds=unit_coeff_bounds)
    assert np.abs(out.phi - 1.5).max() < 1e-6
    assert np.abs(out.psi - 0.5).max() < 1e-6


def test_apply_upsilon_zero_predator(unit_spec, unit_coeff_bounds):
    out = apply_upsilon(unit_spec, unit_pair(1.0, 0.0), quad_step=0.05, tail_tol=1e-6,
                        coeff_bounds=unit_coeff_bounds)
    assert np.abs(out.psi).max() == 0.0


def test_apply_upsilon_tail_truncation_stability(unit_spec, unit_coeff_bounds):
    tail_tol = 1e-6
    pair = unit_pair(1.0, 1.0)
    base = apply_upsilon(unit_spec, pair, quad_step=0.05, tail_tol=tail_tol, coeff_bounds=unit_coeff_bounds,
                         tail_len=14.0)
    doubled = apply_upsilon(unit_spec, pair, quad_step=0.05, tail_tol=tail_tol, coeff_bounds=unit_coeff_bounds,
                            tail_len=28.0)
    change = max(np.abs(base.phi - doubled.phi).max(), np.abs(base.psi - doubled.psi).max())
    assert change < 2.0 * tail_tol


def test_apply_upsilon_quad_step_must_divide(unit_spec, unit_coeff_bounds):
    with pytest.raises(QuadratureError):
        apply_upsilon(unit_spec, unit_pair(1.0, 1.0), quad_step=0.07, tail_tol=1e-6,
                      coeff_bounds=unit_coeff_bounds)


def test_upsilon_example2_box_corners_leave_box(example2_spec, example2_bounds):
    """The published invariance claim fails numerically: constant pairs at
    the box corners are mapped outside the box.  Verified against the
    independent constant-pair quadrature oracle in conftest."""
    cb = table_bounds("example2")
    pb = example2_bounds
    step = 0.1
    for phi0, psi0 in ((pb.m1, pb.m2), (pb.M1, pb.M2)):
        pair = GridFunctionPair.from_constants(0.0, 20.0, step, phi0, psi0)
        out = apply_upsilon(example2_spec, pair, quad_step=0.05, tail_tol=1e-6, coeff_bounds=cb)
        t_ref = 5.0
        oracle_u2 = example2_constant_pair_u2(phi0, psi0, t_ref)
        i_ref = int(round((t_ref - pair.t_lo) / step))
        assert out.psi[i_ref] == pytest.approx(oracle_u2, rel=2e-3)
        assert not in_box(out, pb)  # the map genuinely exits the box


def test_apply_upsilon_nonconstant_pair_against_brute_force(unit_spec, unit_coeff_bounds):
    # independent route: direct fine-trapezoid quadrature of the operator
    # integrand for a sinusoidal pair, checked at a few grid points
    step = 0.1
    grid = np.arange(0.0, 10.0 + step / 2, step)
    phi = 0.8 + 0.2 * np.sin(0.7 * grid)
    psi = 0.6 + 0.1 * np.cos(1.3 * grid)
    pair = GridFunctionPair(0.0, 10.0, step, phi, psi)
    out = apply_upsilon(unit_spec, pair, quad_step=0.05, tail_tol=1e-8,
                        coeff_bounds=unit_coeff_bounds)

    def phi_f(s):
        s = np.clip(s, 0.0, 10.0)
        return pair.phi_at(s)

    def psi_f(s):
        s = np.clip(s, 0.0, 10.0)
        return pair.psi_at(s)

    q = 0.002
    for i_ref, t_ref in ((0, 0.0), (25, 2.5), (70, 7.0)):
        s = t_ref + np.arange(int(25.0 / q) + 1) * q
        w = np.exp(-(s - t_ref))  # unit growth rate: exact kernel
        f1 = phi_f(s) ** 2 + psi_f(s - 0.5) * phi_f(s) / (phi_f(s - 0.5) + 1.0)
        f2 = psi_f(s - 0.5) * psi_f(s) / (phi_f(s - 0.5) + 1.0)
        want1 = trapz(w * f1, q)
        want2 = trapz(w * f2, q)
        assert out.phi[i_ref] == pytest.approx(want1, rel=1e-5)
        assert out.psi[i_ref] == pytest.approx(want2, rel=1e-5)


@pytest.fixture(scope="session")
def settled_trajectories():
    """Both presets' trajectories on [0, 200] at h = 0.01, from their own histories."""
    out = {}
    for name in ("example1", "example2"):
        spec, history = make_spec(name), preset_config(name)["history"]
        out[name] = spec, integrate(spec, InitialHistory(history["phi1"], history["phi2"]), 0.0, 200.0, 0.01)
    return out


def settled_pair(traj, step, t_lo=100.0, t_hi=200.0):
    """The trajectory sampled at step (a multiple of h = 0.01) from t_lo to at most t_hi."""
    stride = int(round(step / 0.01))
    i0 = int(round(t_lo / 0.01))
    n = int((t_hi - t_lo) / step + 1e-9)
    sl = slice(i0, i0 + n * stride + 1, stride)
    return GridFunctionPair(t_lo, t_lo + n * step, step, traj.u[sl], traj.v[sl])


def assert_upsilon_matches_reference(spec, pair, **kwargs):
    image = apply_upsilon(spec, pair, **kwargs)
    phi, psi = reference_upsilon(spec, pair, **kwargs)
    np.testing.assert_allclose(image.phi, phi, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(image.psi, psi, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name, step, quad_step, tail_len", [
    ("example1", 0.1, 0.05, None),
    ("example2", 0.1, 0.05, None),
    ("example1", 0.1, 0.1, None),
    ("example2", 0.15, 0.05, None),
    ("example1", 0.15, 0.05, 12.3),
    ("example2", 0.1, 0.05, 40.0),
], ids=["example1", "example2", "p1", "odd-p", "odd-p-tail-len", "tail-len"])
def test_apply_upsilon_matches_per_point_reference(settled_trajectories, name, step, quad_step, tail_len):
    """The backward recursion gives every grid point the same truncated
    window as the per-point Simpson loop: on the settled [100, 200] pairs,
    with one quad step per grid step (p = 1), an odd p (both node parities)
    and a tail_len override."""
    spec, traj = settled_trajectories[name]
    assert_upsilon_matches_reference(spec, settled_pair(traj, step), quad_step=quad_step, tail_tol=1e-6,
                                     coeff_bounds=table_bounds(name), tail_len=tail_len)


def test_apply_upsilon_fast_decay_needs_no_global_exponential(settled_trajectories):
    """a1 = 40 over a 100-unit window: exp(int a1) passes 1e1737, so only a
    recursion rescaled chunk by chunk can stay finite."""
    spec, traj = settled_trajectories["example1"]
    fast = ModelSpec.from_strings(dict(preset_config("example1")["model"], a1="40"))
    bounds = CoefficientBounds.from_table(dict(preset_config("example1")["table_bounds"], a1_inf=40.0, a1_sup=40.0))
    pair = settled_pair(traj, 0.1)
    assert 40.0 * (pair.t_hi - pair.t_lo) > math.log(np.finfo(float).max)
    assert_upsilon_matches_reference(fast, pair, quad_step=0.05, tail_tol=1e-6, coeff_bounds=bounds)
    assert_upsilon_matches_reference(fast, settled_pair(traj, 0.15), quad_step=0.05, tail_tol=1e-6,
                                     coeff_bounds=bounds)


def decay_floor_nodes(spec, pair, j, a_inf, quad_step, tail_tol):
    """The decay-floor tail of component j, as (L, N): L = ln(2 sup f / (a^i tail_tol)) / a^i
    with sup f on the pair's grid, and N its even node count."""
    supf = float(np.abs(_f_values(spec, pair, j, pair.grid())).max())
    L = max(math.log(2.0 * supf / (a_inf * tail_tol)) / a_inf, 4.0 * quad_step)
    return L, max(8, 2 * math.ceil(L / (2.0 * quad_step)))


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_tail_from_A_stays_within_tail_tol_of_the_decay_floor_tail(settled_trajectories, name):
    """Cutting each window where A has risen by Lambda moves the image by
    less than tail_tol from cutting every window at the decay floor's L."""
    spec, traj = settled_trajectories[name]
    pair, cb, tol = settled_pair(traj, 0.1), table_bounds(name), 1e-6
    image = apply_upsilon(spec, pair, quad_step=0.05, tail_tol=tol, coeff_bounds=cb)
    for j, a_inf, got in ((1, cb.a1_inf, image.phi), (2, cb.a2_inf, image.psi)):
        L, _ = decay_floor_nodes(spec, pair, j, a_inf, 0.05, tol)
        floor = apply_upsilon(spec, pair, quad_step=0.05, tail_tol=tol, coeff_bounds=cb, tail_len=L)
        assert np.abs(got - (floor.phi if j == 1 else floor.psi)).max() < tol


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_tail_nodes_stop_where_A_has_risen(settled_trajectories, monkeypatch, name):
    """The nodes reaching _tail_integrals reach past the grid by at least 8
    and at most the decay floor's N, and f_2's end at K <= 5,000, where the
    decay floor alone takes them to 33,118 (example1) and 12,180."""
    sizes, tail_integrals = [], fixedpoint._tail_integrals

    def recording(A, inc):
        sizes.append(A.size)
        return tail_integrals(A, inc)

    monkeypatch.setattr(fixedpoint, "_tail_integrals", recording)
    spec, traj = settled_trajectories[name]
    pair, cb = settled_pair(traj, 0.1), table_bounds(name)
    apply_upsilon(spec, pair, quad_step=0.05, tail_tol=1e-6, coeff_bounds=cb)
    K0 = 2 * (len(pair.phi) - 1)
    assert len(sizes) == 2  # two quad steps per grid step: one node parity per component
    for j, a_inf, size in ((1, cb.a1_inf, sizes[0]), (2, cb.a2_inf, sizes[1])):
        K = 2 * (size - 1)
        assert K0 + 8 <= K <= K0 + decay_floor_nodes(spec, pair, j, a_inf, 0.05, 1e-6)[1]
    assert 2 * (sizes[1] - 1) <= 5000


@pytest.mark.parametrize("model, a1_inf, tail_tol", [
    ({"a1": "1"}, 5.0, 1e-6),
    ({"a1": "0.5 + 5*sin(t)"}, 0.5, 1e-2),
    ({"c2": "1 + 0.9*sin(31.4159*t)"}, 1.0, 1e-6),
], ids=["floor-overstated", "a1-dips-negative", "f-peaks-between-knots"])
def test_apply_upsilon_matches_reference_on_unit_variants(model, a1_inf, tail_tol):
    """A decay floor above a1 caps every window at its N.  An a1 that dips
    below 0 makes A fall, so a running max of A can pass a point's target
    before A itself does, and the window must still end where A does.  A c2
    peaking midway between grid points puts sup f on the quadrature nodes."""
    unit = dict.fromkeys(("a1", "a2", "b", "c1", "c2", "k1", "k2"), "1")
    spec = ModelSpec.from_strings(unit | dict.fromkeys(("tau1", "tau2", "sigma1", "sigma2"), "0.5") | model)
    bounds = CoefficientBounds.from_table(dict(dict.fromkeys(CoefficientBounds.__dataclass_fields__, 1.0),
                                               a1_inf=a1_inf))
    pair = GridFunctionPair(0.0, 10.0, 0.1, 0.8 + 0.2 * np.sin(0.07 * np.arange(101)), np.full(101, 0.6))
    assert_upsilon_matches_reference(spec, pair, quad_step=0.05, tail_tol=tail_tol, coeff_bounds=bounds)


def preset_picard(name):
    pb = table_permanence(name)
    seed = GridFunctionPair.from_constants(0.0, 30.0, 0.1, 0.5 * (pb.m1 + pb.M1), 0.5 * (pb.m2 + pb.M2))
    spec = make_spec(name)
    return spec, iterate_fixed_point(spec, seed, tol=1e-6, max_iter=200, quad_step=0.05, tail_tol=1e-6,
                                     coeff_bounds=table_bounds(name))


@pytest.mark.parametrize("name, sweeps", [("example1", 5), ("example2", 8)])
def test_iterate_preset_seeds_keep_status_and_sweeps(name, sweeps):
    """The pipeline's Picard run from each preset's box-midpoint seed
    diverges after the same number of sweeps as the per-point operator."""
    _, res = preset_picard(name)
    assert (res.status, res.iterations, res.converged) == ("diverged", sweeps, False)


def test_apply_upsilon_matches_reference_on_a_diverging_iterate():
    spec, res = preset_picard("example2")
    assert res.status == "diverged"
    assert_upsilon_matches_reference(spec, res.pair, quad_step=0.05, tail_tol=1e-6,
                                     coeff_bounds=table_bounds("example2"))


def test_apply_upsilon_names_f_when_it_overflows(unit_spec, unit_coeff_bounds):
    with pytest.raises(NumericalError, match="f_1 not finite"):
        apply_upsilon(unit_spec, unit_pair(1e200, 1.0), quad_step=0.05, tail_tol=1e-6,
                      coeff_bounds=unit_coeff_bounds)


def test_iterate_unit_system_converges(unit_spec, unit_coeff_bounds):
    seed = unit_pair(0.3, 0.3)
    res = iterate_fixed_point(unit_spec, seed, tol=1e-8, max_iter=100, quad_step=0.05, tail_tol=1e-6,
                              coeff_bounds=unit_coeff_bounds)
    assert res.converged
    assert res.final_delta <= 1e-8
    # fixed-point algebra at every grid point: phi = (b phi^2 + c1 psi phi/(phi+k1))/a1
    p = res.pair
    gap = np.abs(p.phi - (p.phi**2 + p.psi * p.phi / (p.phi + 1.0))).max()
    assert gap < 1e-5


def test_iterate_idempotent_at_fixed_point(unit_spec, unit_coeff_bounds):
    seed = unit_pair(0.3, 0.3)
    first = iterate_fixed_point(unit_spec, seed, tol=1e-8, max_iter=100, quad_step=0.05, tail_tol=1e-6,
                                coeff_bounds=unit_coeff_bounds)
    again = iterate_fixed_point(unit_spec, first.pair, tol=1e-8, max_iter=100, quad_step=0.05, tail_tol=1e-6,
                                coeff_bounds=unit_coeff_bounds)
    assert again.converged
    assert again.iterations == 1


def test_iterate_example2_reports_nonconvergence(example2_spec, example2_bounds):
    pb = example2_bounds
    seed = GridFunctionPair.from_constants(0.0, 30.0, 0.1,
                                           0.5 * (pb.m1 + pb.M1), 0.5 * (pb.m2 + pb.M2))
    res = iterate_fixed_point(example2_spec, seed, tol=1e-6, max_iter=60, quad_step=0.05, tail_tol=1e-6,
                              coeff_bounds=table_bounds("example2"))
    assert not res.converged
    assert res.status in ("diverged", "max_iter")


def test_dde_residual_logistic_equilibrium(unit_spec):
    # phi = a1/b = 1, psi = 0 solves the reduced constant system exactly
    pair = unit_pair(1.0, 0.0)
    assert dde_residual(unit_spec, pair) <= 1e-8


def test_dde_residual_negative_control(example2_spec):
    rng = np.random.default_rng(7)
    pair = GridFunctionPair(0.0, 10.0, 0.1,
                            rng.uniform(0.52, 0.64, 101), rng.uniform(0.05, 0.6, 101))
    assert dde_residual(example2_spec, pair) > 0.1


def test_dde_residual_grid_too_coarse(unit_spec):
    with pytest.raises(QuadratureError, match="too coarse"):
        dde_residual(unit_spec, GridFunctionPair.from_constants(0.0, 1.0, 0.5, 1.0, 1.0))


def test_fixed_point_cross_validation_with_trajectory(example2_spec, example2_bounds):
    """If Picard converged, its pair must agree with the long-trajectory tail;
    non-convergence skips (documented admissible outcome)."""
    pb = example2_bounds
    seed = GridFunctionPair.from_constants(0.0, 30.0, 0.1,
                                           0.5 * (pb.m1 + pb.M1), 0.5 * (pb.m2 + pb.M2))
    res = iterate_fixed_point(example2_spec, seed, tol=1e-6, max_iter=60, quad_step=0.05, tail_tol=1e-6,
                              coeff_bounds=table_bounds("example2"))
    if not res.converged:
        pytest.skip(f"Picard iteration did not converge (status={res.status}); "
                    "cross-validation only applies to a converged pair")
    assert res.residual is not None and res.residual <= 1e-4
    traj = integrate(example2_spec, InitialHistory(0.5, 0.5), 0.0, 500.0, 0.01)
    gaps = [abs(sample_state(traj, 300.0 + t)[0] - res.pair.phi_at(t)) for t in res.pair.grid()]
    assert max(gaps) <= 1e-2


def test_kernel_identity_identical_kernels():
    one = parse_expression("1 + 0.2*sin(t)")
    lhs, rhs, gap = kernel_identity_check(one, one, 0.0, 0.0, 1.5, 256)
    assert lhs == 0.0
    assert gap <= 1e-14


def test_kernel_identity_constant_closed_form():
    a = parse_expression("1")
    b = parse_expression("2")
    lhs, rhs, gap = kernel_identity_check(a, b, 0.0, 0.0, 1.0, 2048)
    want = math.exp(-1.0) - math.exp(-2.0)  # rhs closed form e^-1 (1 - e^-1)
    assert lhs == pytest.approx(want, abs=1e-15)
    assert gap <= 1e-10


def test_kernel_identity_trig_with_shift():
    a = parse_expression("1 + 0.5*sin(t)")
    b = parse_expression("2 + 0.3*cos(t)")
    _, _, gap = kernel_identity_check(a, b, 0.7, 0.0, 2.0, 4096)
    assert gap <= 1e-8


def test_kernel_identity_converges_at_quadrature_rate():
    a = parse_expression("1 + 0.5*sin(t)")
    b = parse_expression("2 + 0.3*cos(t)")
    gaps = [kernel_identity_check(a, b, 0.7, 0.0, 2.0, n)[2] for n in (64, 128, 256)]
    assert gaps[0] / gaps[1] > 8.0
    assert gaps[1] / gaps[2] > 8.0
