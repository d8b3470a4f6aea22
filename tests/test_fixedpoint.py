import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from lgholling import (
    CoefficientBounds,
    GridFunctionPair,
    InitialHistory,
    IntegrationError,
    ModelSpec,
    NumericalError,
    QuadratureError,
    RunWindow,
    apply_upsilon,
    dde_residual,
    integrate,
    iterate_fixed_point,
    parse_expression,
    validate_model,
)
from conftest import (KNOWN_EQUILIBRIUM, example2_constant_pair_u2, in_box, kernel_identity_check, known_answer_config,
                      make_spec, reference_upsilon,
                      table_bounds, table_permanence, trapz)
from lgholling import fixedpoint
from lgholling.fixedpoint import _f_values
from lgholling.model import delayed_term
from lgholling.presets import preset_config
from test_integrator import seeded_varying_delay_spec


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
    (0.0, 1.0, 0.3, 4),  # a grid ending at 0.9 would extrapolate its last cubic up to t_hi
], ids=["zero-step", "negative-step", "nan-t_hi", "inf-t_lo", "inf-t_hi", "nan-step", "inf-step",
        "one-point", "rounds-to-one-point", "indistinct-points", "overflowing-count", "step-not-dividing"])
def test_pair_grid_checks(t_lo, t_hi, step, npts):
    with pytest.raises(ValueError):
        GridFunctionPair(t_lo, t_hi, step, np.ones(npts), np.ones(npts))
    with pytest.raises(ValueError):
        GridFunctionPair.from_constants(t_lo, t_hi, step, 1.0, 1.0)


def test_pair_refuses_a_step_that_does_not_divide_its_span():
    with pytest.raises(ValueError, match=r"^step 0\.3 does not divide the span \[0\.0, 1\.0\] into whole steps$"):
        GridFunctionPair(0.0, 1.0, 0.3, [0.0, 1.0, 2.0, 3.0], np.ones(4))
    # a span off by the rounding of its times, as a pipeline's from t0 = 1e10, still divides
    assert (1e10 + 30.1) - 1e10 == 30.100000381469727
    assert len(GridFunctionPair.from_constants(1e10, 1e10 + 30.1, 0.7, 1.0, 1.0).phi) == 44


def test_pair_nonfinite_values_raise_at_first_interpolation():
    """A pair holding a non-finite value builds, so that Picard iteration can
    report a diverged iterate; its spline refuses it when first built."""
    pair = GridFunctionPair(0.0, 1.0, 0.5, [1.0, math.inf, 1.0], [1.0, 1.0, 1.0])
    assert pair.psi_at(0.25) == 1.0
    with pytest.raises(ValueError, match="finite"):
        pair.phi_at(0.25)


def test_upsilon_refuses_a_tail_past_the_node_cap(unit_spec, unit_coeff_bounds):
    bounds = dataclasses.replace(unit_coeff_bounds, a1_inf=1e-7, a2_inf=1e-7)
    with pytest.raises(QuadratureError, match=r"^tail needs 6206443700 nodes at quad_step=0\.05; grid too short"):
        apply_upsilon(unit_spec, unit_pair(1.0, 1.0, t_hi=1.0), 0.05, 1e-6, bounds)


def test_f_values_zero_predator(unit_spec):
    pair = unit_pair(0.5, 0.0)
    assert (_f_values(unit_spec, pair, 2, pair.grid()) == 0.0).all()


def test_f_values_unit_constants(unit_spec):
    s = np.array([0.0])
    assert _f_values(unit_spec, unit_pair(1.0, 1.0), 1, s) == pytest.approx([1.5], abs=1e-15)
    assert _f_values(unit_spec, unit_pair(1.0, 1.0), 2, s) == pytest.approx([0.5], abs=1e-15)


@pytest.mark.parametrize("j", [1, 2])
def test_f_values_names_f_j_where_its_denominator_is_not_positive(unit_spec, j):
    """phi(s - sigma_j) + k_j = 1 - 1 = 0 at the second time: f_j is refused there."""
    pair = GridFunctionPair(0.0, 2.0, 1.0, [0.5, -1.0, -2.0], [1.0, 1.0, 1.0])
    with pytest.raises(NumericalError, match=rf"^f_{j} denominator not positive at t=1\.5$"):
        _f_values(unit_spec, pair, j, np.array([0.5, 1.5, 2.5]))


@pytest.mark.parametrize("j", [1, 2])
def test_f_values_refuses_an_overflowing_f_j(unit_spec, j):
    """phi = psi = 1e200: b phi^2 and c2 psi(s - tau2) psi overflow to inf, and
    f_j is refused by name, with no raw overflow warning."""
    pair = unit_pair(1e200, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=rf"^f_{j} not finite on the pair's grid$"):
            _f_values(unit_spec, pair, j, pair.grid())


def test_f_values_example2_direct_substitution(example2_spec):
    # b(0) = 0.25 + 33.72/4; f1 = b(0)*0.25 + 0.32*0.5*0.5/(0.5+16.7)
    want = (0.25 + 33.72 / 4.0) * 0.25 + 0.32 * 0.5 * 0.5 / (0.5 + 16.7)
    got = _f_values(example2_spec, unit_pair(0.5, 0.5), 1, np.array([0.0]))
    assert got == pytest.approx([want], rel=1e-14)


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
    base = apply_upsilon(unit_spec, pair, quad_step=0.05, tail_tol=tail_tol, coeff_bounds=unit_coeff_bounds)
    tight = apply_upsilon(unit_spec, pair, quad_step=0.05, tail_tol=1e-9, coeff_bounds=unit_coeff_bounds)
    change = max(np.abs(base.phi - tight.phi).max(), np.abs(base.psi - tight.psi).max())
    assert change < 2.0 * tail_tol


@pytest.mark.parametrize("a1_inf, tail_tol", [(0.0, 1e-6), (-1.0, -1e-6), (5e-324, 1e-6), (4.0, 1.7e308)],
                         ids=["zero", "both-negative", "product-underflows", "product-overflows"])
def test_apply_upsilon_refuses_a_decay_rate_it_cannot_use(unit_spec, a1_inf, tail_tol):
    """Lambda = ln(sup f / (a^i tail_tol)) needs a^i tail_tol positive and
    finite: anything else is a QuadratureError, not a ZeroDivisionError or a
    math domain error."""
    bounds = CoefficientBounds.from_table({f: 1.0 for f in CoefficientBounds.__dataclass_fields__} | {"a1_inf": a1_inf})
    with pytest.raises(QuadratureError, match="must be positive and finite"):
        apply_upsilon(unit_spec, unit_pair(1.0, 1.0), quad_step=0.05, tail_tol=tail_tol, coeff_bounds=bounds)


def test_apply_upsilon_quad_step_must_divide(unit_spec, unit_coeff_bounds):
    with pytest.raises(QuadratureError):
        apply_upsilon(unit_spec, unit_pair(1.0, 1.0), quad_step=0.07, tail_tol=1e-6,
                      coeff_bounds=unit_coeff_bounds)


@pytest.mark.parametrize("quad_step", [0.0, math.nan, -0.05, math.inf], ids=["zero", "nan", "negative", "inf"])
def test_apply_upsilon_refuses_a_quad_step_that_is_not_positive(unit_spec, unit_coeff_bounds, quad_step):
    """A quad_step of 0 or NaN is refused as -0.05 and inf are, with a
    QuadratureError, not a ZeroDivisionError or a float-to-int ValueError."""
    with pytest.raises(QuadratureError, match="^quad_step must divide the pair's grid step$"):
        apply_upsilon(unit_spec, unit_pair(1.0, 1.0), quad_step=quad_step, tail_tol=1e-6,
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


@pytest.mark.parametrize("name, step, quad_step", [
    ("example1", 0.1, 0.05),
    ("example2", 0.1, 0.05),
    ("example1", 0.1, 0.1),
    ("example2", 0.15, 0.05),
], ids=["example1", "example2", "p1", "odd-p"])
def test_apply_upsilon_matches_per_point_reference(settled_trajectories, name, step, quad_step):
    """The backward recursion gives every grid point the same truncated
    window as the per-point Simpson loop: on the settled [100, 200] pairs,
    with one quad step per grid step (p = 1) and an odd p (both node parities)."""
    spec, traj = settled_trajectories[name]
    assert_upsilon_matches_reference(spec, settled_pair(traj, step), quad_step=quad_step, tail_tol=1e-6,
                                     coeff_bounds=table_bounds(name))


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
        floor = reference_upsilon(spec, pair, quad_step=0.05, tail_tol=tol, coeff_bounds=cb, tail_len=L)
        assert np.abs(got - floor[j - 1]).max() < tol


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


@pytest.mark.parametrize("amplitude", [800, 200])
def test_apply_upsilon_refuses_a_kernel_it_cannot_resolve(amplitude):
    """a1 = 0.5 + 800 sin(t) makes the kernel exp(int a1) about e^1600 and
    overflows; at 200 every number is finite, but R[c] dwarfs the image and
    the difference R[c] - e^{B_c - B_e} R[e] is rounding noise.  Both name
    f_1, and no numpy warning escapes."""
    unit = dict.fromkeys(("a1", "a2", "b", "c1", "c2", "k1", "k2"), "1")
    spec = ModelSpec.from_strings(unit | dict.fromkeys(("tau1", "tau2", "sigma1", "sigma2"), "0.5")
                                  | {"a1": f"0.5 + {amplitude}*sin(t)"})
    bounds = CoefficientBounds.from_table(dict(dict.fromkeys(CoefficientBounds.__dataclass_fields__, 1.0), a1_inf=0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match=r"^f_1: a1 falls so far"):
            apply_upsilon(spec, unit_pair(1.0, 1.0), quad_step=0.05, tail_tol=1e-6, coeff_bounds=bounds)


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
    assert (res.status, res.iterations) == ("diverged", sweeps)


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
    assert res.status == "converged"
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
    assert again.status == "converged"
    assert again.iterations == 1


def test_iterate_example2_reports_nonconvergence(example2_spec, example2_bounds):
    pb = example2_bounds
    seed = GridFunctionPair.from_constants(0.0, 30.0, 0.1,
                                           0.5 * (pb.m1 + pb.M1), 0.5 * (pb.m2 + pb.M2))
    res = iterate_fixed_point(example2_spec, seed, tol=1e-6, max_iter=60, quad_step=0.05, tail_tol=1e-6,
                              coeff_bounds=table_bounds("example2"))
    assert res.status != "converged"
    assert res.status in ("diverged", "max_iter")


def test_iterate_example2_converges_to_the_extinction_pair_from_a_low_seed(example2_spec):
    """Converged means a fixed point of the operator, and (0, 0) is one:
    from (0.3, 0.2), below example2's box, Picard settles there, not on the
    paper's positive solution."""
    seed = GridFunctionPair.from_constants(0.0, 30.0, 0.1, 0.3, 0.2)
    res = iterate_fixed_point(example2_spec, seed, tol=1e-6, max_iter=200, quad_step=0.05, tail_tol=1e-6,
                              coeff_bounds=table_bounds("example2"))
    assert (res.status, res.iterations) == ("converged", 6)
    assert 0.0 < res.pair.phi.max() < 1e-18 and 0.0 < res.pair.psi.max() < 1e-13


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
    if res.status != "converged":
        pytest.skip(f"Picard iteration did not converge (status={res.status}); "
                    "cross-validation only applies to a converged pair")
    assert res.residual is not None and res.residual <= 1e-4
    traj = integrate(example2_spec, InitialHistory(0.5, 0.5), 0.0, 500.0, 0.01)
    gaps = np.abs(np.exp(traj.at(300.0 + res.pair.grid())[0]) - res.pair.phi_at(res.pair.grid()))
    assert gaps.max() <= 1e-2


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


def per_read_f(spec, pair, j, s):
    """The reference f_j: phi_at and psi_at at s, s - sigma_j(s) and s - tau_j(s), each read afresh."""
    with np.errstate(over="ignore", invalid="ignore"):
        if j == 1:
            phi, phi_lag, psi_lag = pair.phi_at(s), pair.phi_at(s - spec.sigma1(s)), pair.psi_at(s - spec.tau1(s))
            return spec.b(s) * phi * phi + delayed_term(spec.c1(s) * psi_lag * phi, phi_lag, spec.k1(s), s, "f_1")
        phi_lag, psi, psi_lag = pair.phi_at(s - spec.sigma2(s)), pair.psi_at(s), pair.psi_at(s - spec.tau2(s))
        return delayed_term(spec.c2(s) * psi_lag * psi, phi_lag, spec.k2(s), s, "f_2")


def per_read_residual(spec, pair):
    """dde_residual with f_j through per_read_f."""
    g, s = pair.step, pair.grid()[1:-1]
    rhs_u = spec.a1(s) * pair.phi[1:-1] - per_read_f(spec, pair, 1, s)
    rhs_v = spec.a2(s) * pair.psi[1:-1] - per_read_f(spec, pair, 2, s)
    return float((np.abs((pair.phi[2:] - pair.phi[:-2]) / (2.0 * g) - rhs_u)
                  + np.abs((pair.psi[2:] - pair.psi[:-2]) / (2.0 * g) - rhs_v)).max())


@pytest.fixture(scope="session")
def shared_read_cases(settled_trajectories):
    """Both presets' settled pairs (one delay in all four channels) and a pair of
    seeded_varying_delay_spec(7), whose four delays are distinct."""
    cases = {name: (spec, settled_pair(traj, 0.1)) for name, (spec, traj) in settled_trajectories.items()}
    spec = seeded_varying_delay_spec(7)
    traj = integrate(spec, InitialHistory(0.6, 0.4), 0.0, 40.0, 0.01)
    cases["varying-delay"] = spec, settled_pair(traj, 0.1, t_lo=20.0, t_hi=40.0)
    return cases


@pytest.mark.parametrize("name", ["example1", "example2", "varying-delay"])
def test_f_values_with_shared_reads_equal_the_per_read_reference(shared_read_cases, name):
    """f_1 and f_2 reading one node set's located arguments equal the per-read f_j bit for bit:
    on the window's quad nodes, on tail nodes whose delayed arguments straddle t_hi, on nodes
    around both ends, and in the residual."""
    spec, pair = shared_read_cases[name]
    q = 0.05
    node_sets = {
        "window": pair.t_lo + q * np.arange(int(round((pair.t_hi - pair.t_lo) / q)) + 1),
        "tail": pair.t_hi + q * np.arange(1, 401),
        "straddle": np.linspace(pair.t_hi - 3.0, pair.t_hi + 3.0, 241),
        "both-ends": np.concatenate((np.linspace(pair.t_lo - 2.0, pair.t_lo + 2.0, 81), [pair.t_hi, 1e6])),
    }
    for nodes, s in node_sets.items():
        reads = {}
        for j in (1, 2):
            want = per_read_f(spec, pair, j, s)
            assert np.array_equal(_f_values(spec, pair, j, s, reads), want), (nodes, j)
            assert np.array_equal(_f_values(spec, pair, j, s), want), (nodes, j)
    assert dde_residual(spec, pair) == per_read_residual(spec, pair)


def test_upsilon_and_residual_locate_each_distinct_argument_once(settled_trajectories, monkeypatch):
    """One Υ call on example1's settled pair at q = 0.05 locates each distinct argument below
    t_hi once (26,670 points when every f_j read located its own), and the residual its 999
    interior points once, delayed, and t_hi (5,994 before): its undelayed reads are the grid values."""
    spec, traj = settled_trajectories["example1"]
    pair, located = settled_pair(traj, 0.1), []
    locate = fixedpoint._NaturalSpline.locate
    monkeypatch.setattr(fixedpoint._NaturalSpline, "locate",
                        lambda self, xv: located.append(xv.size) or locate(self, xv))
    apply_upsilon(spec, pair, quad_step=0.05, tail_tol=1e-6, coeff_bounds=table_bounds("example1"))
    assert 4_001 <= sum(located) <= 4_100
    located.clear()
    dde_residual(spec, pair)
    assert sum(located) == 1_000


@pytest.mark.parametrize("name, want", [
    ("example1", [2001, 2001, 2590, 2590]),
    ("example2", [2001, 2001, 60, 60, 2020, 2020]),
])
def test_the_second_tail_reads_its_own_nodes_only_when_longer_than_the_first(settled_trajectories, monkeypatch,
                                                                              name, want):
    """Both tails start at node K0 + 1, so where f_2's is a prefix of f_1's (example1: 2,298 of 2,590
    nodes) it reads nothing of its own; where it is longer (example2: 2,020 against 60) it reads its
    own nodes.  Each read is one node set's two keys, undelayed and the presets' one delay."""
    spec, traj = settled_trajectories[name]
    sizes, at = [], GridFunctionPair.at
    monkeypatch.setattr(GridFunctionPair, "at", lambda self, x: sizes.append(x.size) or at(self, x))
    apply_upsilon(spec, settled_pair(traj, 0.1), quad_step=0.05, tail_tol=1e-6, coeff_bounds=table_bounds(name))
    assert sizes == want


@pytest.mark.parametrize("name", ["example1", "example2", "varying-delay"])
def test_shared_tail_reads_equal_each_tail_read_on_its_own(shared_read_cases, monkeypatch, name):
    """Υ with the tails sharing their reads equals Υ with every node set read on its own, bit for
    bit: on the presets (one delay) and on a pair of four distinct delays, whose f_2 tail reads
    sigma2 and tau2 on its own nodes."""
    spec, pair = shared_read_cases[name]
    bounds = CoefficientBounds.from_validation(validate_model(spec).bounds)
    shared = apply_upsilon(spec, pair, 0.05, 1e-6, bounds)
    pair_at = fixedpoint._pair_at
    monkeypatch.setattr(fixedpoint, "_pair_at",
                        lambda cand, reads, s, delay=None: pair_at(cand, reads.setdefault(s.size, {}), s, delay))
    alone = apply_upsilon(spec, pair, 0.05, 1e-6, bounds)
    assert np.array_equal(shared.phi, alone.phi) and np.array_equal(shared.psi, alone.psi)


@pytest.fixture(scope="session")
def long_runs():
    """Both presets' trajectories on [0, 400] at h = 0.01, from their own histories."""
    out = {}
    for name in ("example1", "example2"):
        spec, history = make_spec(name), preset_config(name)["history"]
        out[name] = spec, integrate(spec, InitialHistory(history["phi1"], history["phi2"]), 0.0, 400.0, 0.01)
    return out


class ScaledWindow(RunWindow):
    """A run's window read as 1.01 (u, v): the control that is not a fixed point."""

    def at(self, x):
        return tuple(1.01 * values for values in super().at(x))


def window_defect(spec, window, name) -> float:
    image = apply_upsilon(spec, window, quad_step=0.01, tail_tol=1e-8, coeff_bounds=table_bounds(name))
    return float(max(np.abs(image.phi - window.phi).max(), np.abs(image.psi - window.psi).max()))


@pytest.mark.parametrize("name, t_lo, bound", [("example1", 66.0, 5e-9), ("example2", 89.0, 5e-6)])
def test_a_run_window_is_a_fixed_point_of_upsilon_and_its_scaled_copy_is_not(long_runs, name, t_lo, bound):
    """Υ reads a settled window of the run itself, tails included: its defect max |Υ(u) - u| is
    1.5e-9 on example1 and 2.7e-6 on example2 (the kernel's own kink-limited error), and the
    window scaled by 1.01 misses by 1.7e-3 and 6.2e-3.  Its grid values are the run's knots."""
    spec, run = long_runs[name]
    window = RunWindow(run, t_lo, t_lo + 30.0, 0.01)
    i0 = int(round(t_lo / 0.01))
    assert np.array_equal(window.phi, run.u[i0:i0 + 3001]) and np.array_equal(window.psi, run.v[i0:i0 + 3001])
    assert window_defect(spec, window, name) <= bound
    assert window_defect(spec, ScaledWindow(run, t_lo, t_lo + 30.0, 0.01), name) >= 1e-3


def test_a_run_window_whose_tail_leaves_the_run_is_refused(settled_trajectories):
    """Example1's window [160, 190] of a 200-unit run needs a tail well past t = 200: the run's own
    read refuses it, where a spline pair would continue by its end values."""
    spec, run = settled_trajectories["example1"]
    with pytest.raises(IntegrationError, match="outside the trajectory's domain"):
        window_defect(spec, RunWindow(run, 160.0, 190.0, 0.01), "example1")


@pytest.mark.parametrize("name", ["example1", "example2", "known-answer"])
def test_no_box_is_upsilon_invariant_its_witness_pairs_leave_it(name):
    """For any box m1 <= phi <= M1, m2 <= psi <= M2, Υ_2 on the constant pair (m1, M2) is M2^2 I_hi
    and on (M1, m2) it is m2^2 I_lo, with I_lo <= I_hi, so an invariant box would need
    M2 sup I_hi <= 1 <= m2 inf I_lo, that is M2 <= m2.  On the presets' table boxes the first
    witness's Υ_2 / M2 is 1.89-1.97 (example1) and 1.88-2.00 (example2), the second's Υ_2 / m2
    0.044-0.046 and 0.109-0.116; around the known-answer equilibrium, with constant coefficients,
    they are M2 I(m1) and m2 I(M1), I(kappa) = c2 / (a2 (kappa + k2))."""
    if name == "known-answer":
        spec, (u, v) = ModelSpec.from_strings(known_answer_config()["model"]), KNOWN_EQUILIBRIUM
        bounds = CoefficientBounds.from_validation(validate_model(spec).bounds)
        m1, M1, m2, M2 = 0.9 * u, 1.1 * u, 0.9 * v, 1.1 * v
    else:
        spec, bounds, box = make_spec(name), table_bounds(name), table_permanence(name)
        m1, M1, m2, M2 = box.m1, box.M1, box.m2, box.M2
    assert m2 < M2
    up = apply_upsilon(spec, GridFunctionPair.from_constants(0.0, 30.0, 0.1, m1, M2), 0.05, 1e-8, bounds).psi
    down = apply_upsilon(spec, GridFunctionPair.from_constants(0.0, 30.0, 0.1, M1, m2), 0.05, 1e-8, bounds).psi
    assert up.max() > M2 and down.min() < m2
    if name == "known-answer":
        c = {sym: float(text) for sym, text in known_answer_config()["model"].items()}
        i_hi, i_lo = (c["c2"] / (c["a2"] * (kappa + c["k2"])) for kappa in (m1, M1))
        np.testing.assert_allclose(up / M2, M2 * i_hi, rtol=1e-6)
        np.testing.assert_allclose(down / m2, m2 * i_lo, rtol=1e-6)
    else:
        ranges = {"example1": ((1.89, 1.97), (0.043, 0.046)), "example2": ((1.87, 2.00), (0.108, 0.116))}[name]
        for got, (low, high) in zip((up / M2, down / m2), ranges):
            assert low <= got.min() and got.max() <= high
