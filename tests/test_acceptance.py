"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them inline).

Criterion 8 checks where the integral operator sends pairs in the
permanence box [m1,M1]x[m2,M2] of the second preset.  It asserts that each
image lies inside the a-priori envelope [f_j^lo / a_j^s, f_j^hi / a_j^i]
that the operator's definition implies, and it records the published claim
that the box itself is invariant as refuted: the corner constant pairs are
mapped outside the box by the amount an independent constant-pair
oracle gives.  The refutation is structural, not numerical noise: for
constant pairs the predator component is c2 psi^2/(phi+k2) * G2(t), and
the psi^2 term leaves no band [m2', M2'] with m2' > 0 that it maps into
itself.  The line also prints how many random in-box pairs leave the box.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from lgholling import (
    GridFunctionPair,
    InitialHistory,
    ModelSpec,
    apply_upsilon,
    dde_residual,
    ergodic_mean,
    estimate_bounds,
    integrate,
    integrate_batch,
    iterate_fixed_point,
    pap0_trend,
    parse_expression,
    preset_config,
    run_preset,
    sample_state,
    verify_permanence,
)
from conftest import (example2_constant_pair_u2, in_box, kernel_identity_check, load_report, make_spec, order_check,
                      table_bounds, table_permanence)

# frozen calculator-oracle values for the example2 table bounds (computed in
# a separate session from the plain one-line formulas)
ORACLE_EX2 = {
    "M1": 0.6234567901234568,
    "M2": 0.636332850829015,
    "m1": 0.5567217204270626,
    "m2": 0.03722857678696458,
}


def _report(ok: bool, num: int, label: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def test_criterion_01_positivity():
    start = time.perf_counter()
    worst = math.inf
    for name in ("example1", "example2"):
        spec = make_spec(name)
        rng = np.random.default_rng(42)
        hists = np.vstack([[0.5, 0.5], rng.uniform(0.05, 2.0, size=(100, 2))])
        batch = integrate_batch(spec, [InitialHistory(u0, v0) for u0, v0 in hists.tolist()], 0.0, 100.0, 0.01)
        worst = min(worst, float(batch.min_uv().min()))
    elapsed = time.perf_counter() - start
    ok = worst > 0.0 and elapsed < 10.0
    _report(ok, 1, "positivity", f"min(u,v)={worst:.3g} over 2x101 runs in {elapsed:.1f}s")
    assert worst > 0.0
    assert elapsed < 10.0, f"positivity sweep took {elapsed:.1f}s"


def test_criterion_02_permanence_bound_formulas(example1_run, example2_run):
    pb2 = table_permanence("example2")
    gaps = {k: abs(getattr(pb2, k) - v) for k, v in ORACLE_EX2.items()}
    oracle_ok = max(gaps.values()) <= 1e-9
    paper_ok = abs(pb2.m1 - 0.5567) <= 1e-3
    pb1 = table_permanence("example1")
    ex1_ok = (pb1.c0_holds is False) and pb1.m1 == 0.0

    flag_ok = True
    for report, major_m1 in ((example1_run[0], True), (example2_run[0], False)):
        paper = report["config"]["paper_values"]
        entries = {d["quantity"]: d for d in report["discrepancies"]}
        if sorted(entries) != sorted(paper):
            flag_ok = False
        m1_entry = entries["M1"]
        recomputed = abs(m1_entry["paper_value"] - m1_entry["computed_value"]) / abs(m1_entry["paper_value"])
        if abs(recomputed - m1_entry["relative_gap"]) > 1e-12:
            flag_ok = False
        if major_m1 and m1_entry["flag"] != "major":
            flag_ok = False

    ok = oracle_ok and paper_ok and ex1_ok and flag_ok
    _report(ok, 2, "permanence bounds",
            f"m1={pb2.m1:.6f} (published 0.5567), oracle gap {max(gaps.values()):.1e}")
    assert oracle_ok, gaps
    assert paper_ok
    assert ex1_ok
    assert flag_ok


def test_criterion_03_empirical_permanence():
    spec = make_spec("example2")
    pb = table_permanence("example2")
    start = time.perf_counter()
    traj = integrate(spec, InitialHistory(0.5, 0.5), 0.0, 200.0, 0.01)
    res = verify_permanence(traj, pb, 100.0, 200.0, slack=0.05)
    elapsed = time.perf_counter() - start
    ok = res.all_ok and elapsed < 5.0
    _report(ok, 3, "empirical permanence",
            f"u in [{res.u_min:.4f},{res.u_max:.4f}], v in [{res.v_min:.4f},{res.v_max:.4f}] in {elapsed:.1f}s")
    assert res.all_ok, res.checks
    assert elapsed < 5.0


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_criterion_04_attractivity(name):
    from lgholling import run_attractivity

    spec = make_spec(name)
    start = time.perf_counter()
    res = run_attractivity(integrate(spec, InitialHistory(0.5, 0.5), 0.0, 200.0, 0.01),
                           integrate(spec, InitialHistory(0.75, 0.75), 0.0, 200.0, 0.01), threshold=1e-3)
    elapsed = time.perf_counter() - start
    ok = res.passed and elapsed < 10.0
    _report(ok, 4, f"attractivity {name}",
            f"d(200)={res.final_distance:.2e}, tail nonincreasing={res.tail_nonincreasing}, {elapsed:.1f}s")
    assert res.final_distance < 1e-3
    assert res.tail_nonincreasing
    assert elapsed < 10.0


def test_criterion_05_stability_hypothesis_sign(example1_run, example2_run):
    ok = True
    details = []
    for name, (report, _) in (("example1", example1_run), ("example2", example2_run)):
        st = report["stability"]
        entries = {d["quantity"]: d for d in report["discrepancies"]}
        if not (st["alpha_liminf"] > 0.0 and st["beta_liminf"] > 0.0):
            ok = False
        if "alpha_inf" not in entries or "beta_inf" not in entries:
            ok = False
        details.append(f"{name}: alpha={st['alpha_liminf']:.4g} beta={st['beta_liminf']:.4g} "
                       f"(paper {entries['alpha_inf']['paper_value']}/{entries['beta_inf']['paper_value']}, "
                       f"flags {entries['alpha_inf']['flag']}/{entries['beta_inf']['flag']})")
    _report(ok, 5, "stability hypothesis sign", "; ".join(details))
    assert ok, details


def test_criterion_06_integrator_order():
    start = time.perf_counter()
    smooth = ModelSpec.from_strings(
        {"a1": "1", "a2": "1", "b": "1", "c1": "1e-9", "c2": "1e-9", "k1": "1", "k2": "1"}
        | {s: "0.5" for s in ("tau1", "tau2", "sigma1", "sigma2")})
    oc_smooth = order_check(smooth, InitialHistory(0.5, 0.5), 0.0, 10.0, 0.1)
    # example2 window [0, 0.7]: the longest span of the preset free of the
    # |cos|-coefficient derivative kinks that cap classical RK4 at ~order 2
    # (see test_integrator.py for the measured long-window behavior)
    oc_ex2 = order_check(make_spec("example2"), InitialHistory(0.5, 0.5), 0.0, 0.7, 0.02)
    elapsed = time.perf_counter() - start
    ok = 12.0 <= oc_smooth.ratio <= 20.0 and 8.0 <= oc_ex2.ratio <= 24.0 and elapsed < 5.0
    _report(ok, 6, "integrator order",
            f"smooth ratio {oc_smooth.ratio:.1f}, example2 ratio {oc_ex2.ratio:.1f}, {elapsed:.1f}s")
    assert 12.0 <= oc_smooth.ratio <= 20.0, oc_smooth
    assert 8.0 <= oc_ex2.ratio <= 24.0, oc_ex2
    assert elapsed < 5.0


def test_criterion_07_kernel_identity():
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    worst_ratio = math.inf
    for _ in range(50):
        c0a, c0b = rng.uniform(0.5, 1.5), rng.uniform(1.8, 2.8)
        ampa, ampb = rng.uniform(0.2, 0.6, size=2)
        wa, wb = rng.uniform(0.3, 2.0, size=2)
        pha, phb = rng.uniform(0.0, 6.28, size=2)
        a = parse_expression(f"{c0a:.6f} + {ampa:.6f}*sin({wa:.6f}*t + {pha:.6f})")
        b = parse_expression(f"{c0b:.6f} + {ampb:.6f}*cos({wb:.6f}*t + {phb:.6f})")
        alpha = float(rng.uniform(-2.0, 2.0))
        s = float(rng.uniform(-1.0, 1.0))
        t = s + float(rng.uniform(1.0, 3.0))
        gap_hi = kernel_identity_check(a, b, alpha, s, t, 4096)[2]
        worst_gap = max(worst_gap, gap_hi)
        g64 = kernel_identity_check(a, b, alpha, s, t, 64)[2]
        g256 = kernel_identity_check(a, b, alpha, s, t, 256)[2]
        if g256 > 0.0:
            worst_ratio = min(worst_ratio, g64 / g256)
    ok = worst_gap <= 1e-8 and worst_ratio >= 8.0
    _report(ok, 7, "kernel identity",
            f"max gap@4096 {worst_gap:.1e}, min gap(64)/gap(256) {worst_ratio:.0f}x")
    assert worst_gap <= 1e-8
    assert worst_ratio >= 8.0


def _random_pairs_in_box(pb, rng, count, t_hi=30.0, step=0.1):
    n = int(round(t_hi / step))
    grid = step * np.arange(n + 1)
    for i in range(count):
        if i % 2 == 0:
            phi = np.full(n + 1, rng.uniform(pb.m1, pb.M1))
            psi = np.full(n + 1, rng.uniform(pb.m2, pb.M2))
        else:
            amp_u, amp_v = rng.uniform(0.2, 1.0, size=2)
            wu, wv = rng.uniform(0.2, 2.0, size=2)
            phu, phv = rng.uniform(0.0, 6.28, size=2)
            phi = pb.m1 + (pb.M1 - pb.m1) * (0.5 + 0.5 * amp_u * np.sin(wu * grid + phu))
            psi = pb.m2 + (pb.M2 - pb.m2) * (0.5 + 0.5 * amp_v * np.sin(wv * grid + phv))
        yield GridFunctionPair(0.0, t_hi, step, phi, psi)


def _image_envelope(est, pair):
    """A-priori bounds (u_lo, u_hi, v_lo, v_hi) on the operator's image of
    pair.  f_j is monotone in each argument, so the pair's own range and the
    coefficient sup/inf bound it by [f_j^lo, f_j^hi]; the kernel weight
    int_t^inf exp(-int_t^s a_j) lies in [1/a_j^s, 1/a_j^i]."""
    fine = np.linspace(pair.t_lo, pair.t_hi, 30_001)  # the spline can overshoot its nodes
    u = pair.phi_at(fine)
    v = pair.psi_at(fine)
    u_lo, u_hi, v_lo, v_hi = u.min(), u.max(), v.min(), v.max()
    lo = {sym: e.inf_value for sym, e in est.items()}
    hi = {sym: e.sup_value for sym, e in est.items()}
    f1_lo = lo["b"] * u_lo**2 + lo["c1"] * v_lo * u_lo / (u_hi + hi["k1"])
    f1_hi = hi["b"] * u_hi**2 + hi["c1"] * v_hi * u_hi / (u_lo + lo["k1"])
    f2_lo = lo["c2"] * v_lo**2 / (u_hi + hi["k2"])
    f2_hi = hi["c2"] * v_hi**2 / (u_lo + lo["k2"])
    return f1_lo / hi["a1"], f1_hi / lo["a1"], f2_lo / hi["a2"], f2_hi / lo["a2"]


def test_criterion_08_operator_invariance(unit_spec, unit_coeff_bounds):
    closed = apply_upsilon(unit_spec, GridFunctionPair.from_constants(0.0, 10.0, 0.1, 1.0, 1.0),
                           quad_step=0.05, tail_tol=1e-8, coeff_bounds=unit_coeff_bounds)
    closed_ok = (np.abs(closed.phi - 1.5).max() < 1e-6 and np.abs(closed.psi - 0.5).max() < 1e-6)

    spec = make_spec("example2")
    pb = table_permanence("example2")
    cb = table_bounds("example2")
    # estimated, not table, bounds: the table's b_sup = 8.6 is below b(0) = 8.68
    options = preset_config("example2")["options"]
    est = {sym: estimate_bounds(spec.expr(sym), options["bounds_horizon"], options["bounds_samples"])
           for sym in ("a1", "a2", "b", "c1", "c2", "k1", "k2")}
    rng = np.random.default_rng(7)
    margins = []
    violations = []
    for idx, pair in enumerate(_random_pairs_in_box(pb, rng, 20)):
        out = apply_upsilon(spec, pair, quad_step=0.05, tail_tol=1e-6, coeff_bounds=cb)
        u_lo, u_hi, v_lo, v_hi = _image_envelope(est, pair)
        margins.append(float(min(out.phi.min() - u_lo, u_hi - out.phi.max(),
                                 out.psi.min() - v_lo, v_hi - out.psi.max())))
        over_u = max(float((pb.m1 - out.phi).max()), float((out.phi - pb.M1).max()))
        over_v = max(float((pb.m2 - out.psi).max()), float((out.psi - pb.M2).max()))
        if not in_box(out, pb):
            violations.append((idx, round(max(over_u, over_v), 4)))
    escapes = [(idx, m) for idx, m in enumerate(margins) if m < 0.0]
    envelope_ok = not escapes

    # published claim: the box maps into itself.  The corner constant pairs
    # leave the predator band [m2, M2] by the distance the oracle predicts.
    corners = []
    for phi0, psi0 in ((pb.m1, pb.m2), (pb.M1, pb.M2)):
        out = apply_upsilon(spec, GridFunctionPair.from_constants(0.0, 30.0, 0.1, phi0, psi0),
                            quad_step=0.05, tail_tol=1e-6, coeff_bounds=cb)
        for t_ref in (5.0, 15.0, 25.0):
            got = float(out.psi[int(round(t_ref / 0.1))])
            want = example2_constant_pair_u2(phi0, psi0, t_ref)
            corners.append((max(pb.m2 - got, got - pb.M2), max(pb.m2 - want, want - pb.M2)))
    refuted_ok = all(want > 0.0 and got == pytest.approx(want, rel=2e-3) for got, want in corners)

    ok = closed_ok and envelope_ok and refuted_ok
    detail = (f"closed-form {'ok' if closed_ok else 'FAILED'}; "
              f"{20 - len(escapes)}/20 images inside the a-priori envelope "
              f"(tightest margin {min(margins):.4f}); published box invariance "
              f"{'refuted' if refuted_ok else 'NOT matched to the oracle'}: corners "
              f"(m1,m2)/(M1,M2) leave at t=5 by {corners[0][0]:.4f}/{corners[3][0]:.4f} "
              f"(oracle {corners[0][1]:.4f}/{corners[3][1]:.4f}); "
              f"{len(violations)}/20 random in-box pairs mapped outside the box "
              f"(pair, worst overshoot): {violations[:5]}")
    _report(ok, 8, "operator invariance", detail)
    assert closed_ok
    assert envelope_ok, f"images outside the a-priori envelope (pair index, margin): {escapes}"
    assert refuted_ok, f"corner exits (operator, oracle) at t = 5, 15, 25: {corners}"


def test_criterion_09_fixed_point_cross_validation():
    spec = make_spec("example2")
    pb = table_permanence("example2")
    # negative control must hold regardless of convergence
    rng = np.random.default_rng(5)
    control = GridFunctionPair(0.0, 10.0, 0.1,
                               rng.uniform(pb.m1, pb.M1, 101), rng.uniform(pb.m2, pb.M2, 101))
    control_res = dde_residual(spec, control)
    assert control_res > 0.1, "negative control lost its distinguishing power"

    seed = GridFunctionPair.from_constants(0.0, 30.0, 0.1,
                                           0.5 * (pb.m1 + pb.M1), 0.5 * (pb.m2 + pb.M2))
    result = iterate_fixed_point(spec, seed, tol=1e-6, max_iter=60, quad_step=0.05, tail_tol=1e-6,
                                 coeff_bounds=table_bounds("example2"))
    if not result.converged:
        print(f"ACCEPTANCE 9 (fixed-point cross-validation): SKIP: Picard iteration "
              f"{result.status} after {result.iterations} sweeps; negative control "
              f"{control_res:.2f} > 0.1 held")
        pytest.skip(f"Picard iteration did not converge (status={result.status}); "
                    "cross-validation applies only to a converged pair")
    residual_ok = result.residual is not None and result.residual <= 1e-4
    traj = integrate(spec, InitialHistory(0.5, 0.5), 0.0, 500.0, 0.01)
    gap = max(abs(sample_state(traj, 300.0 + t)[0] - float(result.pair.phi_at(t)))
              for t in result.pair.grid())
    tail_ok = gap <= 1e-2
    _report(residual_ok and tail_ok, 9, "fixed-point cross-validation",
            f"residual {result.residual:.2e}, tail gap {gap:.2e}")
    assert residual_ok
    assert tail_ok


def test_criterion_10_pap_diagnostics():
    mean_cos = ergodic_mean(lambda t: np.abs(np.cos(t)), 1e4, 2_000_000)
    cos_ok = abs(mean_cos - 2.0 / math.pi) <= 1e-3
    decay = pap0_trend(lambda t: np.exp(-np.abs(t)), (10.0, 100.0, 1000.0)).verdict
    const = pap0_trend(lambda t: np.ones_like(t), (10.0, 100.0, 1000.0)).verdict
    ok = cos_ok and decay == "vanishing" and const == "non-vanishing"
    _report(ok, 10, "pap diagnostics",
            f"mean|cos|={mean_cos:.6f} (2/pi={2.0 / math.pi:.6f}), verdicts {decay}/{const}")
    assert cos_ok
    assert decay == "vanishing"
    assert const == "non-vanishing"


def test_criterion_11_determinism(tmp_path, example2_run):
    report_first, out_first = example2_run
    out_second = tmp_path / "second"
    run_preset("example2", out_second)
    a = json.loads((Path(out_first) / "report.json").read_text(encoding="utf-8"))
    b = load_report(out_second)
    ts_a, ts_b = a.pop("generated_at"), b.pop("generated_at")
    reports_ok = a == b
    csv_ok = all(
        (Path(out_first) / name).read_bytes() == (out_second / name).read_bytes()
        for name in ("trajectories.csv", "attractivity.csv", "fixedpoint.csv")
    )
    ok = reports_ok and csv_ok
    _report(ok, 11, "determinism",
            f"reports identical modulo timestamp: {reports_ok}; CSVs byte-identical: {csv_ok}")
    assert reports_ok
    assert csv_ok
