"""angleform benchmark: the public CLI entry point, driven in-process.

    python3 perfbench/run.py --workload fan5-cli --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from src/ next to this
directory. The load is a closed loop: one client in this process, one
`angleform.cli.main` call at a time. A pass is one call per workload
input (see workloads.py); warm-up calls run first and are not measured,
then passes repeat until --seconds have elapsed.

On the interpreter-bound workloads, times of work done in this process
are in reference seconds: wall seconds scaled by a calibration loop
timed around the calls (calibration.py), because this host's speed
swings by up to 2x over minutes. Raw wall times are printed, kept in
the trace record and reported with --trace 1 as host.raw_pass_s.

--trace 0 reports the end-to-end metrics:
    setup_s      median wall time of fresh interpreters that import
                 angleform, select the backend and make one
                 _kernels.eval_control call (not scaled: start-up does
                 not follow the calibration loop's swings)
    pass_s       median time of one pass
    pass_s_tail  highest percentile of pass times with at least ten
                 samples beyond it, or the slowest pass when there are
                 ten or fewer (the percentile and count are printed)
    peak_rss_mb  peak resident memory of this process
--trace 1 alternates untraced and traced passes and reports per-layer
self times and counts from the traced ones (spans.py), plus the
tracing overhead (traced minus untraced median pass time).

Every call's output is checked (checks.py); the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}. Spans and the
environment record are written to perfbench/_work/ at the end.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11
SETUP_CHILD = """
import numpy as np
import angleform
from angleform import _kernels
pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
tri = np.array([[0, 1, 2]], dtype=np.int64)
_kernels.eval_control(pos, tri, np.array([0.5]), -1, -1, 0.0, 0.0, 1e-9)
print(_kernels.backend_name(), flush=True)
"""
EVAL_CONTROL_REPEATS = 200

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "pass_s_tail": "s", "peak_rss_mb": "MB"}
RIGIDITY = ("angle_matrix", "bearing_matrix", "distance_matrix", "svd", "nondegenerate", "validate_for")
# per-layer metric -> (unit, span or count name it sums); None = derived
LAYER_METRICS = {
    "kernels.integrate_s": ("s", "kernels.integrate"),
    "kernels.us_per_step": ("us", None),
    "kernels.steps": ("count", "kernels.steps"),
    "kernels.control_evals": ("count", "kernels.control_evals"),
    "kernels.eval_control_us": ("us", None),
    "formation.spec_s": ("s", "formation.spec"),
    "formation.post_s": ("s", "formation.simulate"),
    "cli.load_s": ("s", "cli.load"),
    "cli.resolve_s": ("s", "cli.resolve"),
    "cli.csv_s": ("s", "cli.csv"),
    "cli.csv_bytes": ("bytes", None),
    "cli.unattributed_s": ("s", "cli.main"),
    "cli.simulate_steps_per_s": ("1/s", None),
    "cli.ops_failed_ratio": ("ratio", None),
    "graph.recognize_s": ("s", "graph.recognize"),
    "graph.build_laman_s": ("s", "graph.build_laman"),
    "index_sets.laman_s": ("s", "index_sets.laman"),
    "index_sets.full_set_s": ("s", "index_sets.full_set"),
    "index_sets.algorithm1_s": ("s", "index_sets.algorithm1"),
    "trace.pass_s": ("s", None),
    "trace.overhead_s": ("s", None),
    "trace.attributed_share": ("ratio", None),
    "host.scale": ("ratio", None),
    "host.raw_pass_s": ("s", None),
}


def _rigidity_metrics(sizes):
    """Totals, then the same metrics per input size (`.n<size>`)."""
    out = {}
    for suffix in [""] + [f".n{n}" for n in sizes]:
        for stem in RIGIDITY:
            out[f"rigidity.{stem}_s{suffix}"] = ("s", f"rigidity.{stem}{suffix}")
        out[f"rigidity.assembly_flops{suffix}"] = ("flop", f"rigidity.assembly_flops{suffix}")
    return out


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale",
        choices=("full", "small"),
        default="full",
        help="input sizes; small is the self-check's reduced run",
    )
    return ap.parse_args(argv)


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _environment(nproc, calibrated):
    import numpy as np

    from angleform import _kernels

    if not _kernels.HAVE_NUMBA:
        reason = "numba is not importable, so the pure-numpy fallback is active"
    elif os.environ.get(_kernels.ENV_FLAG, "1") == "0":
        reason = f"{_kernels.ENV_FLAG}=0 forces the numpy fallback"
    else:
        reason = "numba imports, so the compiled backend is active"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "backend": _kernels.backend_name(),
        "backend_reason": reason,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "blas_threads": _blas_threads(),
        "loadavg_at_start": os.getloadavg()[0],
        "load": "closed loop, 1 client, 1 in-process CLI call at a time",
        "calibrated": calibrated,
    }


def _measure_setup(backend):
    """Median wall time from spawning a fresh interpreter to backend ready."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD], stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line != backend:
            raise RuntimeError(f"set-up child failed: exit {proc.returncode}, said {line!r}")
    return statistics.median(times)


def _tail(values):
    """(value, percentile) of the highest percentile with >= 10 samples above."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Pass(NamedTuple):
    wall: float  # seconds spent in CLI calls
    ids: list  # call ids, in order
    csv_bytes: int  # size of the CSVs the pass's simulate calls wrote


class Runner:
    """Runs calls through angleform.cli.main and checks their output."""

    def __init__(self, calls, references, tracer, calibrator=None):
        self.calls = calls
        self.references = references
        self.tracer = tracer
        self.calibrator = calibrator
        self.attempted = 0
        self.failed = 0
        self.next_call = 0
        self.call_walls = {}  # call id -> (Call, wall seconds)
        self.samples = []  # calibration loop times

    def _one(self, call, traced):
        from angleform import cli

        buf = io.StringIO()
        call_id = self.next_call
        self.next_call += 1
        self.tracer.call_id = call_id
        self.tracer.tag = f"n{call.n}"
        # so the checks see only what this call wrote
        shutil.rmtree(call.out, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if traced:
                    with self.tracer.span("cli.main"):
                        code = cli.main(call.argv())
                else:
                    code = cli.main(call.argv())
        except Exception:  # a crash counts as a failed call, the run goes on
            traceback.print_exc()
            code = -1
        self.call_walls[call_id] = (call, time.perf_counter() - t0)
        return call_id, code, buf.getvalue()

    def _calibrate(self):
        if self.calibrator:
            self.samples.append(self.calibrator.sample())

    def run_pass(self, calls=None, traced=False):
        """One pass, calibrated around every call; outputs checked after."""
        from checks import check_call, parse_report

        calls = self.calls if calls is None else calls
        results = []
        for call in calls:
            self._calibrate()
            results.append((call, *self._one(call, traced)))
        self._calibrate()
        for call, call_id, code, text in results:
            self.attempted += 1
            problems = check_call(call, code, parse_report(text), self.references.get(call.scenario))
            if problems:
                self.failed += 1
                print(f"check failed: {call.verb} {call.scenario.name}: {'; '.join(problems)}", file=sys.stderr)
        ids = [r[1] for r in results]
        csv_bytes = sum(
            (c.out / name).stat().st_size
            for c in calls
            if c.verb == "simulate"
            for name in ("trajectory.csv", "cost.csv")
            if (c.out / name).is_file()
        )
        return Pass(sum(self.call_walls[i][1] for i in ids), ids, csv_bytes)

    def scale(self):
        """Wall seconds -> reference seconds for this run's measured passes."""
        return self.calibrator.scale(self.samples) if self.calibrator else 1.0


def _eval_control_us(calls, scale):
    """Mean over the simulate calls' specs of the median direct-call time."""
    import numpy as np

    from angleform import _kernels, cli
    from angleform.formation import FormationSpec
    from angleform.rigidity import EDGE_EPS

    per_spec = []
    for call in calls:
        sc = cli.load_scenario(call.scenario)
        spec = FormationSpec(sc.graph, sc.base, cli.resolve_angle_set(sc), maneuver=sc.maneuver)
        pos = np.array(sc.initial_configuration().pts)
        args = (pos, spec._tri, spec.target_cosines, *spec._lead, *spec._dstar, EDGE_EPS)
        times = []
        for _ in range(EVAL_CONTROL_REPEATS):
            t0 = time.perf_counter()
            _kernels.eval_control(*args)
            times.append(time.perf_counter() - t0)
        per_spec.append(statistics.median(times) * 1e6 * scale)
    return statistics.fmean(per_spec) if per_spec else 0.0


def _layer_metrics(runner, traced, untraced, scale, sizes, by_size):
    """Per-layer metrics: medians over traced passes of per-pass sums.

    With `by_size`, each sum is also kept per input size as `<name>.n<size>`.
    """
    catalogue = {**LAYER_METRICS, **_rigidity_metrics(sizes)}
    tracer = runner.tracer
    size_tags = {f"n{n}" for n in sizes}
    simulate_calls = [c for c in runner.calls if c.verb == "simulate"]
    per_pass = []
    for p in traced:
        self_times = {key: t * scale for key, t in tracer.self_times(p.ids).items()}
        sums = {}
        for (name, tag), value in {**self_times, **tracer.count_totals(p.ids)}.items():
            sums[name] = sums.get(name, 0) + value
            if by_size and tag in size_tags:
                sums[f"{name}.{tag}"] = sums.get(f"{name}.{tag}", 0) + value
        row = {m: sums.get(source, 0) for m, (unit, source) in catalogue.items() if source}
        steps = row["kernels.steps"]
        sim_wall = sum(runner.call_walls[i][1] for i in p.ids if runner.call_walls[i][0].verb == "simulate")
        row["kernels.us_per_step"] = row["kernels.integrate_s"] / steps * 1e6 if steps else 0.0
        row["cli.simulate_steps_per_s"] = steps / (sim_wall * scale) if sim_wall else 0.0
        row["cli.csv_bytes"] = p.csv_bytes
        named = sum(v for (name, tag), v in self_times.items() if name != "cli.main")
        row["trace.attributed_share"] = named / (p.wall * scale)
        per_pass.append(row)

    metrics = {m: statistics.median(r[m] for r in per_pass) for m in per_pass[0]}
    traced_median = statistics.median(p.wall for p in traced) * scale
    metrics["trace.pass_s"] = traced_median
    metrics["trace.overhead_s"] = traced_median - statistics.median(p.wall for p in untraced) * scale
    metrics["kernels.eval_control_us"] = _eval_control_us(simulate_calls, scale)
    metrics["host.scale"] = scale
    metrics["host.raw_pass_s"] = statistics.median(p.wall for p in untraced)
    metrics["cli.ops_failed_ratio"] = runner.failed / runner.attempted
    return {m: {"value": metrics[m], "unit": catalogue[m][0]} for m in catalogue}


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "angleform" / "__init__.py").is_file():
        print(f"error: no angleform sources under {SRC}", file=sys.stderr)
        return 2

    # BLAS reads its thread count when numpy is first imported, so this
    # comes before the imports below
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path[:0] = [str(SRC), str(BENCH)]

    import workloads
    from calibration import Calibrator
    from checks import reference_final_cost
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    calibrated = args.workload in workloads.CALIBRATED
    env = _environment(nproc, calibrated)
    print("environment: " + json.dumps(env))
    work = BENCH / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    calls, warmup = workloads.build(args.workload, args.seed, args.scale, ROOT, work)
    references = {c.scenario: reference_final_cost(c.scenario) for c in calls if c.verb == "simulate"}

    tracer = Tracer()
    runner = Runner(calls, references, tracer, Calibrator() if calibrated else None)
    runner.run_pass(warmup)
    runner.attempted = runner.failed = 0
    runner.samples.clear()

    untraced, traced = [], []
    t_start = time.perf_counter()
    while True:
        if args.trace and len(untraced) > len(traced):
            with tracer.patched():
                traced.append(runner.run_pass(traced=True))
        else:
            untraced.append(runner.run_pass())
        done = time.perf_counter() - t_start >= args.seconds
        if done and (not args.trace or len(traced) == len(untraced)):
            break

    scale = runner.scale()
    record = {
        "environment": env,
        "scale": scale,
        "passes": [p._asdict() for p in untraced],
        "traced_passes": [p._asdict() for p in traced],
    }
    if args.trace:
        by_size = args.workload == "laman-analyze"
        metrics = _layer_metrics(runner, traced, untraced, scale, workloads.SUFFIX_SIZES, by_size)
    else:
        times = [p.wall * scale for p in untraced]
        tail, pct = _tail(times)
        print(f"passes={len(times)} pass_s_tail=p{pct:.1f} of {len(times)} passes")
        print(f"raw wall: pass_s={statistics.median(p.wall for p in untraced)!r} scale={scale!r}")
        metrics = {
            "setup_s": _measure_setup(env["backend"]),
            "pass_s": statistics.median(times),
            "pass_s_tail": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in metrics.items()}

    print(f"ops_failed_ratio={runner.failed / runner.attempted!r} ({runner.failed}/{runner.attempted})")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "trace.json").write_text(json.dumps({**record, **tracer.dump()}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
