"""The benchmark's workloads: seeded inputs, the timed iteration and the
correctness gates each iteration's output must pass.

Each workload is a closed loop run by one process: the next iteration
starts when the previous one has returned.  A workload object is built in
set-up (inputs generated from the seed and checked for admissibility),
``iterate()`` is the timed call into lgholling, and ``check()`` compares
its output with the committed reference values in ``reference.json`` or
with an oracle computed here.  lgholling is reached only through its
public functions and ``lgholling.cli.main``, looked up at call time so
that the tracer's wrappers are used when installed.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

import lgholling
from lgholling.presets import PRESET_NAMES, preset_config

REFERENCE_PATH = Path(__file__).with_name("reference.json")

H = 0.01  # integration step of every workload (the presets' run.h)
CHECKPOINT_STEP = 10.0  # trajectory checkpoints every 10 time units
# Trajectory checkpoints are compared with an h/4 run.  RK4 at h = 0.01 is
# off by 1.1e-6 (example1) and 2.0e-6 (example2); the tolerance leaves room
# for another 4th-order kernel while still catching a lower-order one.
CHECKPOINT_TOL = 2e-5
REPORT_RTOL = 1e-9  # report scalars against the reference
DEFECT_MARGIN = 1.5  # certified Υ-defect and DDE residual may grow this much
MAX_TAIL_NODES = 4_000_000  # lgholling's cap on Υ tail nodes per point
_GENERATED_AT = re.compile(rb'"generated_at": "[^"]*"')

# report.json entries compared with the reference, as key paths
REPORT_SCALARS = (
    ("permanence", "M1"), ("permanence", "M2"), ("permanence", "m1"), ("permanence", "m2"),
    ("permanence", "c0_holds"), ("permanence", "verification", "all_ok"),
    ("stability", "alpha_liminf"), ("stability", "beta_liminf"), ("stability", "beta_liminf_alt"),
    ("stability", "hypothesis_holds"), ("stability", "attractivity", "passed"),
    ("fixed_point", "status"), ("pap", "trend_verdict"),
)


class Gate:
    """Counts the correctness checks attempted and keeps the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def report_scalar(report: dict, path: tuple[str, ...]):
    value = report
    for key in path:
        value = value[key]
    return value


def _same(expected, actual) -> bool:
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        return math.isclose(expected, actual, rel_tol=REPORT_RTOL, abs_tol=1e-12)
    return expected == actual


def checkpoint_times(t_end: float) -> np.ndarray:
    return np.arange(0.0, t_end + 0.5 * CHECKPOINT_STEP, CHECKPOINT_STEP)


def at_checkpoints(t: np.ndarray, values: np.ndarray, t_end: float) -> np.ndarray:
    """Rows of values (one per entry of t) at the checkpoint times."""
    idx = np.searchsorted(t, checkpoint_times(t_end) - 1e-9)
    if idx.max() >= len(t) or not np.allclose(t[idx], checkpoint_times(t_end), atol=1e-9, rtol=0.0):
        raise ValueError("output grid does not contain every checkpoint time")
    return values[idx]


def checkpoint_error(gate: Gate, what: str, t: np.ndarray, u: np.ndarray, v: np.ndarray,
                     ref: dict, t_end: float) -> float:
    got_u = at_checkpoints(t, u, t_end)
    got_v = at_checkpoints(t, v, t_end)
    err = float(max(np.abs(got_u - np.asarray(ref["u"])).max(), np.abs(got_v - np.asarray(ref["v"])).max()))
    gate.check(f"{what}: trajectory within {CHECKPOINT_TOL:g} of the h/4 reference",
               err <= CHECKPOINT_TOL, f"max error {err:.3e}")
    return err


def output_bytes(out_dir: Path) -> dict[str, bytes]:
    """Every file a pipeline run wrote, with report.json's timestamp blanked."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            data = _GENERATED_AT.sub(b'"generated_at": ""', data)
        files[path.name] = data
    return files


class PipelineOutputs:
    """Checks shared by the workloads that run the CLI: exit code, outputs
    byte-identical to the first iteration's (report.json apart from
    generated_at), and the bytes written."""

    def __init__(self):
        self.first: dict[str, dict[str, bytes]] = {}
        self.bytes_written = 0

    def check(self, gate: Gate, what: str, code: int, out_dir: Path) -> dict:
        gate.check(f"{what}: exit code 0", code == 0, f"exit code {code}")
        files = output_bytes(out_dir)
        self.bytes_written += sum(len(data) for data in files.values())
        first = self.first.setdefault(what, files)
        gate.check(f"{what}: outputs identical across iterations", files == first,
                   f"differs in {sorted(k for k in files.keys() | first.keys() if files.get(k) != first.get(k))}")
        return json.loads(files["report.json"])


def read_trajectory(out_dir: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """t, u, v columns of the trajectories.csv a pipeline run wrote."""
    data = np.loadtxt(out_dir / "trajectories.csv", delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1], data[:, 2]


class Workload:
    """Set-up in __init__, then iterate() (timed) and check() (not timed)."""

    name = ""

    def iterate(self):
        raise NotImplementedError

    def check(self, gate: Gate, output) -> None:
        raise NotImplementedError

    def layer_values(self) -> dict[str, float]:
        """Per-layer values the workload measures itself (not spans)."""
        return {"integrator.err": 0.0, "fixedpoint.defect": 0.0, "cli.bytes_written": 0}


# ---------------------------------------------------------------------------
# presets: what users run
# ---------------------------------------------------------------------------


class Presets(Workload):
    """``lgholling preset example1`` then ``example2``, in-process.  The
    inputs are the built-in presets; the seed does not change them."""

    name = "presets"

    def __init__(self, seed: int, out_dir: Path):
        self.reference = load_reference()
        self.dirs = {name: out_dir / name for name in PRESET_NAMES}
        self.outputs = PipelineOutputs()
        self.err = 0.0

    def iterate(self):
        return [lgholling.cli.main(["preset", name, "--out", str(d)]) for name, d in self.dirs.items()]

    def check(self, gate: Gate, codes) -> None:
        self.outputs.bytes_written = 0
        for (name, out_dir), code in zip(self.dirs.items(), codes):
            report = self.outputs.check(gate, name, code, out_dir)
            ref = self.reference[name]
            for path in REPORT_SCALARS:
                expected = ref["report"][".".join(path)]
                actual = report_scalar(report, path)
                gate.check(f"{name}: report {'.'.join(path)}", _same(expected, actual),
                           f"expected {expected!r}, got {actual!r}")
            t, u, v = read_trajectory(out_dir)
            self.err = max(self.err, checkpoint_error(gate, name, t, u, v, ref["checkpoints"], ref["t_end"]))

    def layer_values(self):
        return dict(super().layer_values(), **{"integrator.err": self.err,
                                               "cli.bytes_written": self.outputs.bytes_written})


# ---------------------------------------------------------------------------
# varying-delay: the `run` pipeline on a generated config
# ---------------------------------------------------------------------------

_SHAPES = {
    "sin": np.sin, "cos": np.cos,
    "abs(sin)": lambda x: np.abs(np.sin(x)), "abs(cos)": lambda x: np.abs(np.cos(x)),
}


class Coefficient:
    """c0 + c1 * shape(w * t + p) with a shape from _SHAPES (or constant c0)."""

    def __init__(self, c0: float, c1: float = 0.0, shape: str = "", w: float = 0.0, p: float = 0.0):
        self.c0, self.c1, self.shape, self.w, self.p = c0, c1, shape, w, p

    def text(self) -> str:
        if not self.shape:
            return repr(self.c0)
        arg = f"{self.w!r}*t + {self.p!r}"
        fn = f"abs({self.shape[4:-1]}({arg}))" if self.shape.startswith("abs") else f"{self.shape}({arg})"
        return f"{self.c0!r} + {self.c1!r}*{fn}"

    def __call__(self, t: np.ndarray) -> np.ndarray:
        if not self.shape:
            return np.full_like(t, self.c0)
        return self.c0 + self.c1 * _SHAPES[self.shape](self.w * t + self.p)


def generate_model(rng: np.random.Generator) -> dict[str, Coefficient]:
    """Seeded coefficients: nine of the eleven vary in time, among them all
    four delays d0 + d1 sin(w t + p) with d0 >= 0.5 and d1 w < 1, so that
    s - delay(s) is increasing.  a2's infimum is at least 0.05, which keeps
    the Υ tail short."""

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    def delay():
        d0 = u(0.5, 0.9)
        d1 = d0 * u(0.1, 0.4)
        return Coefficient(d0, d1, "sin", u(0.2, 0.6) / d1, u(0.0, 2.0 * math.pi))

    return {
        "a1": Coefficient(u(0.3, 0.6), u(0.05, 0.2), "abs(cos)", u(0.5, 2.0), 0.0),
        "a2": Coefficient(u(0.05, 0.08), u(0.05, 0.2), "abs(sin)", u(0.5, 3.0), 0.0),
        "b": Coefficient(u(2.0, 3.0), u(0.1, 0.5), "cos", u(0.5, 2.0), 0.0),
        "c1": Coefficient(u(0.2, 0.5), u(0.02, 0.1), "sin", u(0.5, 2.0), 0.0),
        "c2": Coefficient(u(2.5, 3.5)),
        "k1": Coefficient(u(10.0, 17.0)),
        "k2": Coefficient(u(3.0, 6.0), u(0.1, 0.5), "cos", u(0.5, 2.0), 0.0),
        "tau1": delay(), "tau2": delay(), "sigma1": delay(), "sigma2": delay(),
    }


def lag_gap_oracle(delay: Coefficient, t: np.ndarray) -> np.ndarray:
    """s - t where s - delay(s) = t, by vectorized bisection on the bracket
    the delay's range gives: the gap lies in [d0 - d1, d0 + d1]."""
    lo = t + delay.c0 - abs(delay.c1) - 1e-9
    hi = t + delay.c0 + abs(delay.c1) + 1e-9
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = mid - delay(mid) < t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi) - t


class VaryingDelay(Workload):
    """``lgholling run config.json`` on a seed-generated config whose delays
    vary in time, so lag inversion does real work."""

    name = "varying-delay"
    T_END = 100.0
    LIMINF_POINTS = 1001
    LIMINF_T_MAX = 500.0
    FP_MAX_ITER = 4  # a fixed sweep count keeps the work per seed alike

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        self.model = generate_model(rng)
        self.config = {
            "model": {sym: c.text() for sym, c in self.model.items()},
            "history": {"phi1": float(rng.uniform(0.2, 1.0)), "phi2": float(rng.uniform(0.2, 1.0))},
            "run": {"t0": 0.0, "t_end": self.T_END, "h": H, "t_settle": 0.5 * self.T_END},
            "options": {"liminf_points": self.LIMINF_POINTS, "liminf_t_max": self.LIMINF_T_MAX,
                        "fp_max_iter": self.FP_MAX_ITER},
        }
        self.check_admissible()
        self.out_dir = out_dir / "run"
        path = out_dir / "config.json"
        path.write_text(json.dumps(self.config, indent=2) + "\n", encoding="utf-8")
        self.argv = ["run", str(path), "--out", str(self.out_dir)]
        self.outputs = PipelineOutputs()
        self.oracle = None
        self.fine = None
        self.err = 0.0

    def check_admissible(self) -> None:
        horizon = max(self.T_END, self.LIMINF_T_MAX) + 10.0
        grid = np.linspace(0.0, horizon, 400_001)
        for sym, coeff in self.model.items():
            if not float(coeff(grid).min()) > 0.0:
                raise ValueError(f"coefficient {sym} is not positive")
        delays = [self.model[d] for d in ("tau1", "tau2", "sigma1", "sigma2")]
        min_delay = min(float(d(grid).min()) for d in delays)
        if not H < min_delay:
            raise ValueError(f"h={H} is not below the smallest delay {min_delay}")
        for d in delays:
            if not (d.c0 >= 0.5 and abs(d.c1) * d.w < 1.0 and (np.diff(grid - d(grid)) > 0.0).all()):
                raise ValueError("lag map s - delay(s) must be increasing")
        # Υ tail: L = ln(2 sup f / (a_inf tail_tol)) / a_inf, with sup f far above
        # anything a run inside the permanence box produces
        q, tail_tol, sup_f = 0.05, 1e-6, 1e6
        for sym in ("a1", "a2"):
            a_inf = float(self.model[sym](grid).min())
            nodes = math.log(2.0 * sup_f / (a_inf * tail_tol)) / a_inf / q
            if not nodes < MAX_TAIL_NODES:
                raise ValueError(f"Υ tail for {sym} needs {nodes:.0f} nodes")

    def iterate(self):
        return lgholling.cli.main(self.argv)

    def _alpha_beta_oracle(self, report: dict) -> dict[str, float]:
        """liminf of alpha and of both beta variants from the report's own
        permanence box and gaps found by lag_gap_oracle."""
        box = report["permanence"]["from_estimates"]
        cb = lgholling.CoefficientBounds(**box["inputs_used"])
        pb = lgholling.PermanenceBounds(box["M1"], box["M2"], box["m1"], box["m2"], box["c0_holds"], cb)
        t = np.linspace(0.0, self.LIMINF_T_MAX, self.LIMINF_POINTS)
        gaps = np.array([lag_gap_oracle(self.model[d], t) for d in ("tau1", "tau2", "sigma1", "sigma2")]).T
        alpha, beta, beta_alt = [], [], []
        for g in gaps:
            a, b = lgholling.alpha_beta_from_gaps(cb, pb, tuple(map(float, g)), "M2")
            alpha.append(a)
            beta.append(b)
            beta_alt.append(lgholling.alpha_beta_from_gaps(cb, pb, tuple(map(float, g)), "M1")[1])
        tail = t >= t[-1] / 2.0
        return {"alpha_liminf": min(np.array(alpha)[tail]), "beta_liminf": min(np.array(beta)[tail]),
                "beta_liminf_alt": min(np.array(beta_alt)[tail])}

    def check(self, gate: Gate, code) -> None:
        self.outputs.bytes_written = 0
        report = self.outputs.check(gate, "run", code, self.out_dir)
        if self.oracle is None:
            self.oracle = self._alpha_beta_oracle(report)
        for key, expected in self.oracle.items():
            actual = report["stability"][key]
            gate.check(f"stability.{key} matches the lag-inversion oracle",
                       math.isclose(expected, actual, rel_tol=1e-8, abs_tol=1e-10),
                       f"oracle {expected!r}, report {actual!r}")
        stab = report["stability"]
        gate.check("hypothesis_holds agrees with the liminf signs",
                   stab["hypothesis_holds"] == (stab["alpha_liminf"] > 0.0 and stab["beta_liminf"] > 0.0))
        t, u, v = read_trajectory(self.out_dir)
        gate.check("trajectory finite and positive", bool(np.isfinite(u).all() and (u > 0).all()
                                                          and np.isfinite(v).all() and (v > 0).all()))
        if self.fine is None:
            fine = lgholling.integrate(lgholling.ModelSpec.from_strings(self.config["model"]),
                                       lgholling.InitialHistory(self.config["history"]["phi1"],
                                                                self.config["history"]["phi2"]),
                                       0.0, self.T_END, H / 4.0)
            self.fine = {"u": at_checkpoints(fine.t, fine.u, self.T_END).tolist(),
                         "v": at_checkpoints(fine.t, fine.v, self.T_END).tolist()}
        self.err = checkpoint_error(gate, "run", t, u, v, self.fine, self.T_END)

    def layer_values(self):
        return dict(super().layer_values(), **{"integrator.err": self.err,
                                               "cli.bytes_written": self.outputs.bytes_written})


# ---------------------------------------------------------------------------
# upsilon-certify: the integral operator on settled trajectories
# ---------------------------------------------------------------------------


class UpsilonCase:
    """One preset's settled trajectory on WINDOW, sampled at STEP."""

    def __init__(self, name: str):
        config = preset_config(name)
        opts = config["options"]
        self.name = name
        self.spec = lgholling.ModelSpec.from_strings(config["model"])
        hist = lgholling.InitialHistory(config["history"]["phi1"], config["history"]["phi2"])
        self.traj = lgholling.integrate(self.spec, hist, 0.0, UpsilonCertify.T_END, H)
        lo, hi = UpsilonCertify.WINDOW
        stride = int(round(UpsilonCertify.STEP / H))
        i0 = int(round(lo / H))
        self.pair = lgholling.GridFunctionPair(lo, hi, UpsilonCertify.STEP,
                                               self.traj.u[i0::stride], self.traj.v[i0::stride])
        self.bounds = lgholling.CoefficientBounds.from_table(config["table_bounds"])
        self.quad_step = float(opts["fp_quad_step"])
        self.tail_tol = float(opts["fp_tail_tol"])
        # Υ tail: f_2 <= c2 psi^2 / k2 and f_1 <= b phi^2 + c1 psi phi / k1 on the pair
        cb, phi, psi = self.bounds, float(self.pair.phi.max()), float(self.pair.psi.max())
        sup_f = max(cb.b_sup * phi**2 + cb.c1_sup * psi * phi / cb.k1_inf, cb.c2_sup * psi**2 / cb.k2_inf)
        for a_inf in (cb.a1_inf, cb.a2_inf):
            nodes = math.log(2.0 * sup_f / (a_inf * self.tail_tol)) / a_inf / self.quad_step
            if not nodes < MAX_TAIL_NODES:
                raise ValueError(f"{name}: Υ tail needs {nodes:.0f} nodes")

    def run(self):
        image = lgholling.apply_upsilon(self.spec, self.pair, self.quad_step, self.tail_tol, self.bounds)
        return image, lgholling.dde_residual(self.spec, self.pair)


def interior_defect(pair, image) -> float:
    t = pair.grid()
    lo, hi = UpsilonCertify.INTERIOR
    inside = (t >= lo) & (t < hi)
    return float(max(np.abs(image.phi - pair.phi)[inside].max(), np.abs(image.psi - pair.psi)[inside].max()))


class UpsilonCertify(Workload):
    """apply_upsilon then dde_residual on the settled window of both
    presets' trajectories, which are built in set-up.  The inputs are the
    built-in presets; the seed does not change them."""

    name = "upsilon-certify"
    T_END = 200.0
    WINDOW = (100.0, 200.0)
    STEP = 0.1
    INTERIOR = (130.0, 170.0)  # away from the window edges

    def __init__(self, seed: int, out_dir: Path):
        self.reference = load_reference()
        self.cases = [UpsilonCase(name) for name in PRESET_NAMES]
        self.first = None
        self.defect = 0.0
        self.err = 0.0
        gate = Gate()
        for case in self.cases:
            ref = self.reference[case.name]
            self.err = max(self.err, checkpoint_error(gate, case.name, case.traj.t, case.traj.u, case.traj.v,
                                                      ref["checkpoints"], ref["t_end"]))
        if gate.failures:
            raise ValueError(f"set-up trajectories off the reference: {gate.failures}")

    def iterate(self):
        return [case.run() for case in self.cases]

    def check(self, gate: Gate, results) -> None:
        self.defect = 0.0
        for case, (image, residual) in zip(self.cases, results):
            ref = self.reference[case.name]
            gate.check(f"{case.name}: Υ image finite and positive",
                       bool(np.isfinite(image.phi).all() and np.isfinite(image.psi).all()
                            and (image.phi > 0).all() and (image.psi > 0).all()))
            defect = interior_defect(case.pair, image)
            self.defect = max(self.defect, defect)
            gate.check(f"{case.name}: interior Υ-defect within {DEFECT_MARGIN}x the reference",
                       defect <= DEFECT_MARGIN * ref["upsilon_defect"],
                       f"defect {defect:.3e}, reference {ref['upsilon_defect']:.3e}")
            gate.check(f"{case.name}: DDE residual within {DEFECT_MARGIN}x the reference",
                       math.isfinite(residual) and residual <= DEFECT_MARGIN * ref["dde_residual"],
                       f"residual {residual:.3e}, reference {ref['dde_residual']:.3e}")
        images = [(image.phi, image.psi) for image, _ in results]
        if self.first is None:
            self.first = images
        gate.check("Υ images bit-identical across iterations",
                   all(np.array_equal(a, b) for new, old in zip(images, self.first) for a, b in zip(new, old)))

    def layer_values(self):
        return dict(super().layer_values(), **{"integrator.err": self.err, "fixedpoint.defect": self.defect})


WORKLOADS = {cls.name: cls for cls in (Presets, VaryingDelay, UpsilonCertify)}
