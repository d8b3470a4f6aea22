import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from lgholling import (
    CoefficientBounds,
    InitialHistory,
    ModelSpec,
    check_c0,
    compute_permanence_bounds_from_values,
    integrate,
    validate_model,
    ValidationError,
    verify_permanence,
)
from conftest import table_bounds
from lgholling.presets import preset_config

# single-expression calculator oracles, frozen before the implementation:
# example2 table values
EX2_M1 = 5.05 / 8.1
EX2_M2 = 0.28 * (5.05 / 8.1 + 5.7) * math.exp(0.28 * 0.92) / 3.6
EX2_M1_LOWER = (4.8 * 16.7 - EX2_M2 * 0.32) / (8.6 * 16.7)
EX2_M2_LOWER = 0.03 * (EX2_M1_LOWER + 5.7) / (3.6 * math.exp(3.6 * EX2_M2 * 0.92 / (5.7 + EX2_M1_LOWER)))
# example1 table values
EX1_M1 = 0.29 / 2.6
EX1_M2 = 0.26 * (0.29 / 2.6 + 3.4) * math.exp(0.26 * 0.75) / 3.5
EX1_M2_LOWER = 0.01 * 3.4 / (3.5 * math.exp(3.5 * EX1_M2 * 0.75 / 3.4))


def test_check_c0_example1_with_published_M2():
    cb = table_bounds("example1")
    assert check_c0(cb, 0.6506) is False  # 0.04*17 - 0.6506*3.2 < 0


def test_check_c0_example2_with_published_M2():
    cb = table_bounds("example2")
    assert check_c0(cb, 0.6403) is True


def test_check_c0_boundary_is_strict():
    cb = CoefficientBounds.from_table(
        {f: 1.0 for f in CoefficientBounds.__dataclass_fields__}
    )
    assert check_c0(cb, 1.0) is False  # 1*1 - 1*1 == 0 fails the strict inequality


def test_example2_bounds_match_calculator_oracle(example2_bounds):
    pb = example2_bounds
    assert pb.c0_holds
    assert pb.M1 == pytest.approx(EX2_M1, abs=1e-9)
    assert pb.M2 == pytest.approx(EX2_M2, abs=1e-9)
    assert pb.m1 == pytest.approx(EX2_M1_LOWER, abs=1e-9)
    assert pb.m2 == pytest.approx(EX2_M2_LOWER, abs=1e-9)


def test_example2_m1_matches_published_value(example2_bounds):
    assert example2_bounds.m1 == pytest.approx(0.5567, abs=1e-3)


def test_example1_bounds(example1_bounds):
    pb = example1_bounds
    assert pb.c0_holds is False
    assert pb.m1 == 0.0
    assert pb.M1 == pytest.approx(EX1_M1, abs=1e-9)
    assert pb.M2 == pytest.approx(EX1_M2, abs=1e-9)
    assert pb.m2 == pytest.approx(EX1_M2_LOWER, abs=1e-9)


def test_unit_case_by_direct_formula():
    cb = CoefficientBounds.from_table(
        {f: 1.0 for f in CoefficientBounds.__dataclass_fields__} | {"tau2_sup": 0.0}
    )
    pb = compute_permanence_bounds_from_values(cb)
    assert (pb.M1, pb.M2, pb.m1, pb.m2) == (1.0, 2.0, 0.0, 1.0)
    assert pb.c0_holds is False


def test_bounds_from_estimates_match_table_when_inputs_match(unit_spec):
    report = validate_model(unit_spec, horizon=10.0)
    assert report.failures == []
    cb = CoefficientBounds.from_validation(report.bounds)
    pb_est = compute_permanence_bounds_from_values(cb)
    pb_tab = compute_permanence_bounds_from_values(CoefficientBounds.from_table(dataclasses.asdict(cb)))
    assert pb_est == pb_tab


def test_from_validation_maps_every_field_to_its_estimate():
    # every coefficient 10 (i + 1) + sin(t): the 18 fields are 18 distinct values
    spec = ModelSpec.from_strings({s: f"{10 * (i + 1)} + sin(t)" for i, s in enumerate(
        ("a1", "a2", "b", "c1", "c2", "k1", "k2", "tau1", "tau2", "sigma1", "sigma2"))})
    report = validate_model(spec, horizon=10.0)
    cb = CoefficientBounds.from_validation(report.bounds)
    for name, value in dataclasses.asdict(cb).items():
        sym, side = name.split("_")
        assert value == getattr(report.bounds[sym], f"{side}_value"), name
    assert len(set(dataclasses.asdict(cb).values())) == 18


def test_invariant_m2_positive(example1_bounds, example2_bounds):
    for pb in (example1_bounds, example2_bounds):
        assert pb.m2 > 0.0
        assert pb.M1 > pb.m1 >= 0.0
        assert pb.M2 > pb.m2


positive = st.floats(min_value=0.1, max_value=3.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(a1_sup=positive, bump=st.floats(min_value=0.01, max_value=1.0), data=st.data())
def test_monotonicity_in_a1_sup_and_tau2_sup(a1_sup, bump, data):
    vals = {f: data.draw(positive, label=f) for f in CoefficientBounds.__dataclass_fields__}
    vals["a1_inf"] = min(vals["a1_inf"], a1_sup)
    vals["a1_sup"] = a1_sup
    pb = compute_permanence_bounds_from_values(CoefficientBounds.from_table(vals))
    bigger = dict(vals, a1_sup=a1_sup + bump)
    pb_up = compute_permanence_bounds_from_values(CoefficientBounds.from_table(bigger))
    assert pb_up.M1 >= pb.M1
    longer = dict(vals, tau2_sup=vals["tau2_sup"] + bump)
    pb_tau = compute_permanence_bounds_from_values(CoefficientBounds.from_table(longer))
    assert pb_tau.M2 >= pb.M2


def test_verify_permanence_example2(example2_spec, example2_bounds):
    traj = integrate(example2_spec, InitialHistory(0.5, 0.5), 0.0, 200.0, 0.01)
    res = verify_permanence(traj, example2_bounds, t_settle=100.0, t_end=200.0, slack=0.05)
    assert res.all_ok, res.checks


def test_verify_permanence_example1_lower_prey_trivial(example1_spec, example1_bounds):
    traj = integrate(example1_spec, InitialHistory(0.5, 0.5), 0.0, 120.0, 0.01)
    res = verify_permanence(traj, example1_bounds, t_settle=60.0, t_end=120.0, slack=0.05)
    assert res.checks["u_above_m1"]  # m1 = 0, so any positive trajectory passes


def test_verify_permanence_logistic_limit():
    # tiny predation: prey settles near a1/b <= M1
    spec = ModelSpec.from_strings({
        "a1": "1", "a2": "0.2", "b": "2", "c1": "1e-6", "c2": "1", "k1": "1", "k2": "1",
        "tau1": "0.5", "tau2": "0.5", "sigma1": "0.5", "sigma2": "0.5",
    })
    report = validate_model(spec, horizon=10.0)
    pb = compute_permanence_bounds_from_values(CoefficientBounds.from_validation(report.bounds))
    traj = integrate(spec, InitialHistory(0.4, 0.3), 0.0, 80.0, 0.01)
    res = verify_permanence(traj, pb, t_settle=40.0, t_end=80.0, slack=0.05)
    assert res.u_max <= pb.M1 + 0.05
    assert abs(res.u_max - 0.5) < 0.01  # a1/b = 0.5


@pytest.mark.parametrize("t_settle, t_end", [(10.0, 20.0), (3.0, 7.0), (-1.0, 4.0), (2.001, 2.009)])
def test_verify_permanence_names_a_window_the_run_does_not_cover(unit_spec, t_settle, t_end):
    pb = compute_permanence_bounds_from_values(table_bounds("example2"))
    traj = integrate(unit_spec, InitialHistory(0.5, 0.5), 0.0, 5.0, 0.01)
    with pytest.raises(ValidationError, match=rf"window \[{t_settle}, {t_end}\].*\[0.0, 5.0\]"):
        verify_permanence(traj, pb, t_settle=t_settle, t_end=t_end)


def test_verify_permanence_accepts_the_run_window_when_the_last_knot_falls_short(unit_spec):
    traj = integrate(unit_spec, InitialHistory(0.5, 0.5), 0.3, 0.45, 0.01)
    assert traj.t[-1] < 0.45
    pb = compute_permanence_bounds_from_values(table_bounds("example2"))
    verification = verify_permanence(traj, pb, t_settle=0.3, t_end=0.45)
    assert (verification.u_min, verification.u_max) == (traj.u.min(), traj.u.max())  # every knot of the run


def test_window_keeps_the_last_knot_past_t_end(unit_spec):
    """0 + 3 * 0.1 rounds to 0.30000000000000004, past the t_end of 0.3
    the run was asked for: a window ending within half a step of the last
    knot reads it, and one ending earlier does not."""
    traj = integrate(unit_spec, InitialHistory(0.5, 0.5), 0.0, 0.3, 0.1)
    assert traj.t[-1] > 0.3
    assert traj.window(0.29, 0.3).tolist() == [False, False, False, True]
    assert traj.window(0.0, 0.26).tolist() == [True, True, True, True]
    assert traj.window(0.0, 0.24).tolist() == [True, True, True, False]
    pb = compute_permanence_bounds_from_values(table_bounds("example2"))
    res = verify_permanence(traj, pb, t_settle=0.29, t_end=0.3)
    assert (res.u_min, res.v_max) == (traj.u[-1], traj.v[-1])


def test_permanence_box_refuses_what_it_cannot_compute():
    """A b^s k1^i that underflows to 0 is a zero denominator, as is a
    k2^i + m1 <= 0; an a2^i that makes m2 overflow is a box that is not finite."""
    with pytest.raises(ValidationError, match="b\\^s k1\\^i"):
        compute_permanence_bounds_from_values(dataclasses.replace(table_bounds("example2"), b_sup=5e-324, k1_inf=0.5))
    with pytest.raises(ValidationError, match=r"^k2\^i \+ m1 must be positive$"):
        compute_permanence_bounds_from_values(dataclasses.replace(table_bounds("example1"), k2_inf=-1.0))
    with pytest.raises(OverflowError, match="m2=inf"):
        compute_permanence_bounds_from_values(dataclasses.replace(table_bounds("example2"), a2_inf=1.7e308))


def test_permanence_box_whose_exponent_overflows_is_not_finite():
    """a2^s tau2^s past about 709.8 overflows exp: from a table or from the
    model's estimates, the box is refused as not finite, M2 = inf."""
    table = dataclasses.replace(table_bounds("example2"), a2_sup=10.0, tau2_sup=100.0)
    spec = ModelSpec.from_strings(preset_config("example2")["model"] | {"a2": "10", "tau2": "100"})
    estimates = CoefficientBounds.from_validation(validate_model(spec, horizon=20.0).bounds)
    assert (estimates.a2_sup, estimates.tau2_sup) == (10.0, 100.0)
    for cb in (table, estimates):
        with pytest.raises(OverflowError, match=r"^permanence box not finite: M1=\S+, M2=inf, m1=0\.0, m2=0\.0$"):
            compute_permanence_bounds_from_values(cb)


def test_table_bounds_name_every_missing_bound():
    values = dataclasses.asdict(table_bounds("example2"))
    del values["c1_sup"], values["tau2_sup"]
    with pytest.raises(ValidationError, match=r"^missing table bounds: c1_sup, tau2_sup$"):
        CoefficientBounds.from_table(values)


def test_verify_permanence_requires_window():
    spec = ModelSpec.from_strings({s: "1" for s in ("a1", "a2", "b", "c1", "c2", "k1", "k2")}
                                  | {s: "0.5" for s in ("tau1", "tau2", "sigma1", "sigma2")})
    cb = CoefficientBounds.from_table({f: 1.0 for f in CoefficientBounds.__dataclass_fields__})
    pb = compute_permanence_bounds_from_values(cb)
    traj = integrate(spec, InitialHistory(0.5, 0.5), 0.0, 10.0, 0.01)
    with pytest.raises(Exception):
        verify_permanence(traj, pb, t_settle=10.0, t_end=10.0)
