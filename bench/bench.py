"""lgholling benchmark: end-to-end timings per workload, per-layer spans in a
separate traced run, and correctness gates on every timed output.

Run from the repository root:

    python3 bench/bench.py --workload presets --seed 1 --seconds 12 --trace 0

Workloads are listed in BENCHMARK.json and bench/workloads.py.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics (wall_s, setup_s, peak_rss_mb); with ``--trace 1`` it
holds the per-layer metrics.  Lines before it name every metric with its
unit, the correctness gates' outcome and the provenance of the run.

Process layout: this process only orchestrates.  It runs WORKERS fresh
interpreters one after another; each sets the workload up, runs one
untimed warm-up iteration, then the timed closed loop for an equal share of
``--seconds``.  On a shared machine one process can run at one speed for
its whole life and the next about 30% slower, so wall_s is the mean over
the workers of each worker's median iteration time: a median of the pooled
samples would jump with whichever speed most workers had.  Set-up time is
measured here, from starting an interpreter to its "ready" line; setup_s is
the median over the workers of set-up plus warm-up, so a slow first call
lands in setup_s, not wall_s.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, ROOT

WORKERS = 3  # worker processes per run, each measuring --seconds / WORKERS
TIMEOUT_S = 170.0  # the whole run, including set-up
# the keys of workloads.WORKLOADS, repeated so this process need not import numpy
WORKLOAD_NAMES = ("presets", "varying-delay", "upsilon-certify")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "expr.self_s": "s", "model.self_s": "s", "integrator.self_s": "s", "permanence.self_s": "s",
    "stability.self_s": "s", "fixedpoint.self_s": "s", "pap.self_s": "s", "cli.self_s": "s",
    "trace.unattributed_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
    "integrator.us_per_step": "us", "integrator.steps": "count", "integrator.calls": "count",
    "integrator.err": "abs",
    "model.validate_s": "s", "expr.array_samples": "count", "expr.scalar_calls": "count",
    "stability.lag_inverse_calls": "count", "stability.liminf_s": "s", "stability.attractivity_self_s": "s",
    "fixedpoint.upsilon_calls": "count", "fixedpoint.upsilon_s": "s", "fixedpoint.us_per_point": "us",
    "fixedpoint.residual_s": "s", "fixedpoint.defect": "abs",
    "cli.bytes_written": "B",
}
READY = "READY"
RESULT = "RESULT "


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "worker"), default="main", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# worker side: runs in a fresh interpreter
# ---------------------------------------------------------------------------


def import_package(root: Path) -> None:
    """Import lgholling from the checkout's src/, refusing any other copy."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import lgholling

    if Path(lgholling.__file__).resolve().parent != (src / "lgholling").resolve():
        raise ImportError(f"lgholling imported from {lgholling.__file__}, not from {src}")


def layer_metrics(tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration; per-step and per-point
    costs use the inclusive time of the layer's entry points."""
    calls, incl, work = tracer.calls, tracer.inclusive_s, tracer.work
    steps = work["integrator.integrate"] + work["integrator.integrate_batch"]
    integrate_s = incl["integrator.integrate"] + incl["integrator.integrate_batch"]
    points = work["fixedpoint.apply_upsilon"]
    self_s = tracer.layer_self_s()
    metrics = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    metrics.update({
        "trace.unattributed_s": self_s[ROOT],
        "trace.wall_s": wall,
        "integrator.steps": steps,
        "integrator.calls": calls["integrator.integrate"] + calls["integrator.integrate_batch"],
        "integrator.us_per_step": 1e6 * integrate_s / steps if steps else 0.0,
        "model.validate_s": incl["model.validate_model"],
        "expr.array_samples": work["expr.evaluate_array"],
        "expr.scalar_calls": calls["expr.evaluate"],
        "stability.lag_inverse_calls": calls["stability.lag_inverse_gap"],
        "stability.liminf_s": incl["stability.estimate_liminf"],
        "stability.attractivity_self_s": tracer.fn_self_s["stability.run_attractivity"],
        "fixedpoint.upsilon_calls": calls["fixedpoint.apply_upsilon"],
        "fixedpoint.upsilon_s": incl["fixedpoint.apply_upsilon"],
        "fixedpoint.us_per_point": 1e6 * incl["fixedpoint.apply_upsilon"] / points if points else 0.0,
        "fixedpoint.residual_s": incl["fixedpoint.dde_residual"],
    })
    return metrics


def worker(args) -> int:
    """Set up, warm up, then run the timed closed loop for --seconds."""
    import gc
    import resource

    root = Path.cwd()
    import_package(root)
    import provenance
    from workloads import WORKLOADS, Gate

    out_dir = root / ".bench_out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)  # no stale output may pass a check
    out_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    print(READY, flush=True)

    gate = Gate()
    start = perf_counter()
    output = workload.iterate()
    warmup = perf_counter() - start
    workload.check(gate, output)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    wall, traced_wall, layers = [], [], []
    loop_start = perf_counter()
    while True:
        done = wall + traced_wall
        # the loop ends before an iteration would overrun --seconds; a traced
        # run needs at least one untraced and one traced iteration
        enough = len(wall) >= 1 and (tracer is None or len(traced_wall) >= 1)
        if enough and perf_counter() - loop_start + statistics.median(done) > args.seconds:
            break
        gc.collect()  # so the previous iteration's garbage is not collected in this one
        if tracer is not None and len(traced_wall) < len(wall):
            tracer.reset()
            tracer.install()
            try:
                output, seconds = tracer.run_root(workload.iterate)
            finally:
                tracer.uninstall()
            traced_wall.append(seconds)
            layers.append(layer_metrics(tracer, seconds))
        else:
            start = perf_counter()
            output = workload.iterate()
            wall.append(perf_counter() - start)
        workload.check(gate, output)

    if tracer is not None:
        for sample in layers:
            sample.update(workload.layer_values())
        (out_dir / "spans.json").write_text(json.dumps(tracer.span_dump()) + "\n", encoding="utf-8")
    result = {
        "warmup_s": warmup,
        "wall_s": wall,
        "traced_wall_s": traced_wall,
        "layers": layers,
        "attempted": gate.attempted,
        "failures": gate.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance.collect(root),
    }
    print(RESULT + json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# orchestrator side
# ---------------------------------------------------------------------------


class Child:
    """A fresh interpreter running this script as a worker."""

    def __init__(self, args, seconds: float, deadline: float):
        self.deadline = deadline
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
               "--role", "worker"]
        self.start = perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        self.ready_s = None
        self.result = None

    def run(self) -> None:
        """Read the child's output to its end, recording the ready time and
        the result; the child is killed if it outlives the deadline."""
        watchdog = threading.Timer(max(0.0, self.deadline - perf_counter()), self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if line.startswith(READY) and self.ready_s is None:
                    self.ready_s = perf_counter() - self.start
                elif line.startswith(RESULT):
                    self.result = json.loads(line[len(RESULT):])
                elif line.strip():
                    sys.stderr.write(line)
            self.proc.wait()
        finally:
            watchdog.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        if self.proc.returncode != 0 or self.result is None:
            raise RuntimeError(f"worker exited with code {self.proc.returncode} and no result")


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f", quartiles {q1:.4f}..{q3:.4f}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "worker":
        return worker(args)
    root = Path.cwd()
    if not (root / "src" / "lgholling" / "__init__.py").is_file():
        print("bench: run from the repository root; src/lgholling not found", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    deadline = perf_counter() + TIMEOUT_S
    workers = []
    try:
        for _ in range(WORKERS):
            child = Child(args, args.seconds / WORKERS, deadline)
            child.run()
            workers.append(child)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    results = [child.result for child in workers]
    wall = [t for res in results for t in res["wall_s"]]
    traced_wall = [t for res in results for t in res["traced_wall_s"]]
    setups = [child.ready_s + res["warmup_s"] for child, res in zip(workers, results)]
    attempted = sum(res["attempted"] for res in results)
    failures = [f for res in results for f in res["failures"]]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds:g}")
    if args.trace:
        samples = [sample for res in results for sample in res["layers"]]
        layers = {name: statistics.median(sample[name] for sample in samples) for name in samples[0]}
        layers["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(wall)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
        gap = max(abs(sum(sample[f"{layer}.self_s"] for layer in LAYERS) + sample["trace.unattributed_s"]
                      - sample["trace.wall_s"]) for sample in samples)
        notes = {"trace.wall_s": f"median of {len(traced_wall)} traced iterations; in each, the layer self "
                                 f"times plus trace.unattributed_s sum to it within {gap:.1e} s",
                 "trace.overhead_s": f"traced median minus median of {len(wall)} untraced iterations"}
    else:
        per_worker = [statistics.median(res["wall_s"]) for res in results]
        values = {"wall_s": statistics.fmean(per_worker), "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in results)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        notes = {"wall_s": f"mean of per-process medians ({', '.join(f'{t:.3f}' for t in per_worker)}); "
                           f"{len(wall)} iterations{quartiles(wall)}",
                 "setup_s": f"median over {WORKERS} processes of set-up + warm-up "
                            f"({', '.join(f'{s:.3f}' for s in setups)})",
                 "peak_rss_mb": f"median over {WORKERS} processes of the maximum resident set"}
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']:6s} {notes.get(name, '')}")
    print(f"  {'fail_ratio':32s} {len(failures) / attempted:14.6g} {'':6s} "
          f"{len(failures)} of {attempted} checks failed")
    sample_counts = {"wall_s": len(wall), "setup_s": len(setups), "traced_wall_s": len(traced_wall)}
    print("provenance " + json.dumps(dict(results[0]["provenance"], seed=args.seed, samples=sample_counts)))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
