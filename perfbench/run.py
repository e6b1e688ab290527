"""hdfrontier benchmark: one workload per run, in a fresh process.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc-highdim --seed 1 --seconds 15 --trace 0

The run pins the BLAS thread count before NumPy is imported, imports
hdfrontier from ``src/`` of the same checkout, writes its inputs, outputs,
``environment.json`` and ``result.json`` under ``.perfbench_out/``, checks
the outputs against the oracles in ``checks.py``, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics from a traced rebuild of the same work, with
``trace_spans.jsonl`` written when the run ends.  ``--smoke`` runs every
workload at a size that takes seconds, with the same checks.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

#: every run uses one BLAS thread, so no layer waits on another
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: fresh-process set-ups timed per run, spread over its measuring time;
#: setup_s is their median, as ops_per_s is the segments' median
SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 60

END_TO_END = (("wall_s", "s"), ("ops_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("simulate.build_population.self_s", "s"),
    ("simulate.generate_returns.self_s", "s"),
    ("simulate.generate_returns.calls", "count"),
    ("simulate.run_monte_carlo.uncovered_s", "s"),
    ("simulate.write_loss_csv.self_s", "s"),
    ("simulate.histogram_data.self_s", "s"),
    ("simulate.write_histogram_csv.self_s", "s"),
    ("estimators.sample_moments.self_s", "s"),
    ("estimators.sample_moments.calls", "count"),
    ("estimators.sample_moments.flop_computed", "flop"),
    ("estimators.estimate_many.self_s", "s"),
    ("estimators.estimate_many.calls", "count"),
    ("estimators.estimate_many.failed", "count"),
    ("frontier.frontier_params.self_s", "s"),
    ("inference.confidence_intervals.self_s", "s"),
    ("inference.confidence_intervals.calls", "count"),
    ("pipeline.ingest_csv.self_s", "s"),
    ("pipeline.ingest_csv.rows", "count"),
    ("pipeline.ingest_csv.dropped_rows", "count"),
    ("pipeline.ingest_csv.bytes", "B"),
    ("pipeline.window_panel.self_s", "s"),
    ("pipeline.winsorize.self_s", "s"),
    ("pipeline.scale_to_horizon.self_s", "s"),
    ("pipeline.rolling_estimate.uncovered_s", "s"),
    ("pipeline.write_rolling_csv.self_s", "s"),
    ("pipeline.write_rolling_csv.bytes", "B"),
    ("trace.overhead_s", "s"),
)

MAIN_SPANS = ("simulate.run_monte_carlo", "pipeline.rolling_estimate")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, same checks")
    return parser.parse_args(argv)


def _openblas_runtime() -> list[dict]:
    """Thread count and build string of each OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": sys.version,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "blas_runtime": _openblas_runtime(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def probe_setup(task: dict) -> float:
    """One fresh-process set-up (import plus preparation), in seconds."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), json.dumps(task)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    reply = json.loads(done.stdout.strip().splitlines()[-1])
    if not Path(reply["module"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up probe imported hdfrontier from {reply['module']}")
    return reply["setup_s"]


def run_traced(untraced, traced, segment_runs, tracer, seconds: float):
    """A traced run: one untraced and one traced full round, then untraced
    and traced segments in turn until ``seconds`` have passed in all.

    Each traced segment is summarised as soon as it ends and its spans are
    dropped, so the spans kept are those of the traced full round (root 0).
    Returns the two full rounds and, per segment pair, the untraced main
    call's time per op, the traced main call's time per op and the traced
    layers' time per op inside it, and the two segments.
    """
    start = time.perf_counter()
    full = untraced()
    with tracer.span("round"):
        traced_full = traced()
    plain_runs = segment_runs(full, None)
    traced_runs = segment_runs(full, tracer)
    pairs = []
    while not pairs or time.perf_counter() - start < seconds:
        index = len(pairs) % len(plain_runs)
        plain = plain_runs[index]()
        root = len(tracer.spans)
        rebuilt = traced_runs[index]()
        self_s, _, total_s = tracer.self_times(root)
        del tracer.spans[root:]
        main = next(name for name in MAIN_SPANS if name in total_s)
        plain.payload = rebuilt.payload = {}
        pairs.append((plain.main_s / plain.ops, total_s[main] / rebuilt.ops,
                      (total_s[main] - self_s[main]) / rebuilt.ops, plain, rebuilt))
    return full, traced_full, pairs


def run_segments(runs, seconds: float, probe):
    """Segments in turn for ``seconds`` of segment time, at least one.

    The set-up probes run between segments at even steps of that time, so
    that their median samples the whole run; their own time is not counted.
    Returns every segment's timing, by index the first run of each segment
    with its payload for the checks, and the probes' set-up times.
    """
    done, firsts, setups = [], {}, []
    spent = 0.0
    while not done or spent < seconds:
        if len(setups) < SETUP_SAMPLES and spent >= seconds * len(setups) / SETUP_SAMPLES:
            setups.append(probe())
        start = time.perf_counter()
        index = len(done) % len(runs)
        segment = runs[index]()
        if index in firsts:
            segment.payload = {}
        else:
            firsts[index] = segment
        done.append(segment)
        spent += time.perf_counter() - start
    while len(setups) < SETUP_SAMPLES:
        setups.append(probe())
    return done, firsts, setups


def layer_metrics(w, full, traced_full, pairs, tracer, traced_dir: Path, panel_csv):
    """Per-layer metrics of one traced run, and its accounting.

    Self times and calls come from the traced full round.  ``uncovered_s``
    and ``trace.overhead_s`` are differences of two main-call timings, so
    they come from the segment pairs, each an untraced segment and the
    traced one right after it: the median over the pairs of the
    difference per op, times the full round's ops.
    """
    self_s, calls, total_s = tracer.self_times(0)
    values = {}
    for name, _ in PER_LAYER:
        layer, _, quantity = name.rpartition(".")
        if quantity == "self_s":
            values[name] = self_s.get(layer, 0.0)
        elif quantity == "calls":
            values[name] = calls.get(layer, 0)
    untraced_op = statistics.median(pair[0] for pair in pairs)
    traced_op = statistics.median(pair[1] for pair in pairs)
    layers_op = statistics.median(pair[2] for pair in pairs)
    uncovered_op = statistics.median(pair[0] - pair[2] for pair in pairs)
    overhead_op = statistics.median(pair[1] - pair[0] for pair in pairs)
    accounting = {}
    for main in MAIN_SPANS:
        values[f"{main}.uncovered_s"] = 0.0
        if main in calls:
            values[f"{main}.uncovered_s"] = full.ops * uncovered_op
            layers_in_main = total_s[main] - self_s[main]
            accounting = {
                "ops": full.ops,
                "untraced_main_per_op_s": untraced_op,
                "traced_main_per_op_s": traced_op,
                "traced_layers_per_op_s": layers_op,
                "full_round_untraced_main_s": full.main_s,
                "full_round_traced_main_s": total_s[main],
                "full_round_traced_layers_in_main_s": layers_in_main,
                # the full round's layer self times plus uncovered_s, which
                # comes from the segments: it should match the full round's
                # untraced main call up to the timing noise
                "full_round_accounted_main_s": layers_in_main + values[f"{main}.uncovered_s"],
            }
    values["trace.overhead_s"] = full.ops * overhead_op
    values["estimators.sample_moments.flop_computed"] = (
        values["estimators.sample_moments.calls"] * 2 * w.p * w.p * w.n
    )
    values["estimators.estimate_many.failed"] = sum(traced_full.kind_failures.values())
    panel = traced_full.payload.get("panel")
    rolling_csv = traced_dir / "rolling.csv"
    values["pipeline.ingest_csv.rows"] = panel.n_rows if panel is not None else 0
    values["pipeline.ingest_csv.dropped_rows"] = panel.dropped_rows if panel is not None else 0
    values["pipeline.ingest_csv.bytes"] = os.path.getsize(panel_csv) if panel_csv else 0
    values["pipeline.write_rolling_csv.bytes"] = (
        rolling_csv.stat().st_size if rolling_csv.exists() else 0
    )
    return values, accounting


def same_outputs(a: Path, b: Path) -> list[str]:
    """Byte-compare the CSVs a traced round wrote with the untraced round's."""
    failures = []
    for path in sorted(b.glob("*.csv")):
        if path.read_bytes() != (a / path.name).read_bytes():
            failures.append(f"traced {path.name} differs from the untraced run's")
    return failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hdfrontier" / "__init__.py").is_file():
        print(f"error: no hdfrontier sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path[:0] = [str(SRC), str(HERE)]

    import workloads

    table = workloads.SMOKE_WORKLOADS if args.smoke else workloads.WORKLOADS
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    if not Path(sys.modules["hdfrontier"].__file__).resolve().is_relative_to(SRC):
        print("error: hdfrontier was not imported from this checkout", file=sys.stderr)
        return 2
    w = table[args.workload]
    outdir = OUT_ROOT / (w.name + ("-smoke" if args.smoke else "")) / f"trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    traced_dir = outdir / "traced"
    outdir.mkdir(parents=True)
    if args.trace:
        traced_dir.mkdir()
    env = environment()
    (outdir / "environment.json").write_text(json.dumps(env, indent=2) + "\n")

    rolling = isinstance(w, workloads.RollingWorkload)
    if rolling:
        data = workloads.make_rolling_input(w, args.seed, str(outdir))
        task = {"kind": "rolling", "csv": data.path, "config": w.config_kwargs()}

        def play(directory, tracer=None):
            return workloads.rolling_round(w, data.path, str(directory), tracer)

        def segment_runs(full, tracer=None):
            return workloads.rolling_segments(w, full.payload["panel"], tracer)
    else:
        task = {"kind": "mc", "spec": w.spec_kwargs(args.seed)}

        def play(directory, tracer=None):
            return workloads.mc_round(w, args.seed, str(directory), tracer)

        def segment_runs(full, tracer=None):
            return workloads.mc_segments(w, args.seed, tracer)

    tracer = workloads.Tracer()
    start = time.perf_counter()
    if args.trace:
        full, traced_full, pairs = run_traced(
            lambda: play(outdir), lambda: play(traced_dir, tracer), segment_runs, tracer,
            args.seconds,
        )
        rounds = [full, traced_full] + [r for pair in pairs for r in pair[3:]]
    else:
        full = play(outdir)
        segments, firsts, setups = run_segments(
            segment_runs(full), args.seconds - (time.perf_counter() - start),
            lambda: probe_setup(task),
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds = [full] + segments

    if rolling:
        failures = workloads.check_rolling(w, full, data, str(outdir))
    else:
        failures = workloads.check_mc(w, full, args.seed, str(outdir))

    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed_ops for r in rounds)
    kind_failures = {k: sum(r.kind_failures[k] for r in rounds) for k in full.kind_failures}
    extra = {}
    if args.trace:
        failures += same_outputs(outdir, traced_dir)
        values, accounting = layer_metrics(
            w, full, traced_full, pairs, tracer, traced_dir, data.path if rolling else None
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        extra["accounting"] = accounting
        with open(outdir / "trace_spans.jsonl", "w") as handle:
            handle.write(json.dumps(["id", "parent", "name", "start_ns", "end_ns"]) + "\n")
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    else:
        failures += workloads.check_segments(w, full, firsts)
        rates = [(seg.ops - seg.failed_ops) / seg.main_s for seg in segments]
        per_op_s = statistics.median(seg.main_s / seg.ops for seg in segments)
        values = {
            "wall_s": (full.wall_s - full.main_s) + full.ops * per_op_s,
            "ops_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        extra["full_round"] = {"wall_s": full.wall_s, "main_s": full.main_s, "ops": full.ops}
        extra["setups_s"] = setups
        extra["segments_ops_per_s"] = rates

    print(f"workload {w.name}{' (smoke)' if args.smoke else ''}, seed {args.seed}, "
          f"trace {args.trace}: {len(rounds)} rounds and segments")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    print(f"  ops attempted {attempted}, failed {failed}")
    print("  failures by kind: " + ", ".join(f"{k}={v}" for k, v in kind_failures.items()))
    for message in failures:
        print(f"  CHECK FAILED: {message}")
    print(f"  checks: {'all passed' if not failures else f'{len(failures)} failed'}")
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, seed=args.seed, workload=w.name, smoke=args.smoke,
                  kind_failures=kind_failures, check_failures=failures,
                  **extra)
    (outdir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
