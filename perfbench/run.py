"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload repair-compiled --seed 0 \\
        --seconds 32 --trace 0

A run is a few parts (``perfbench/workloads.py``), each measured in a
fresh child process with a fresh cache directory, one after another.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the first part untraced (for the tracing overhead),
then again with every layer wrapped (``perfbench/tracer.py``), and
reports that part's per-layer metrics; it writes the spans to
``.perfbench-out/traces/`` as Chrome trace-event JSON.  Every run
checks the program's outputs and its deterministic work counters
against earlier runs of the same code and seed
(``perfbench/checks.py``).  The last line of standard output is one
JSON object; the exit code is 0 only when every check passed.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
#: ``setup_s`` is the median of at least this many fresh set-ups: the
#: parts' own, topped up with set-up-only processes.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one part in this process (``--probe``: only up to
    # its first work item) with the given cache directory.
    parser.add_argument("--part", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--cache-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


# -- a part, in its own process ----------------------------------------------


def run_part(args, workload):
    """Run part ``args.part`` here; prints its record as one JSON line
    (or, for a probe, only the set-up seconds)."""
    part = workload.parts(args.seed, args.seconds)[args.part]
    setup = []

    def on_first(start):
        setup.append(start - _T0)
        if args.probe:
            print(json.dumps({"setup": setup[0]}), flush=True)
            os._exit(0)

    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer

        tracer = Tracer().install()
    started = time.perf_counter()
    try:
        outcome = workload.run(part, args.cache_dir, on_first,
                               mark=tracer.snapshot if tracer else None,
                               spot_check=not tracer)
    finally:
        if tracer:
            tracer.uninstall()
    record = {
        "setup": setup[0],
        "wall": outcome.wall_s,
        "run_s": outcome.last_end - started,
        "latencies": outcome.latencies,
        "failed": outcome.failed,
        "sim_cycles": outcome.sim_cycles,
        "passed": outcome.passed,
        "judged": outcome.judged,
        "outputs": outcome.outputs,
        "problems": outcome.problems,
        "notes": outcome.notes,
        "rss_mb": outcome.rss_mb,
        "kernel": outcome.kernel,
    }
    if tracer:
        record.update({
            "calls": tracer.calls, "self_s": tracer.self_s,
            "counters": tracer.counters, "repeats": tracer.repeats,
            "keys_s": tracer.keys_s,
            "attributed_s": outcome.attributed_s,
            "spans": tracer.spans,
        })
    print(json.dumps(record))
    return 0


def spawn(args, part, trace=0, probe=False):
    """Run one part (or a set-up probe of it) in a fresh process."""
    cache_dir = tempfile.mkdtemp(dir=OUT / "tmp")
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--part", str(part), "--cache-dir", cache_dir]
    try:
        completed = subprocess.run(
            command + (["--probe"] if probe else []), cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"part {part} exited {completed.returncode}: "
            f"{completed.stderr.strip()[-600:]}")
    return json.loads(lines[-1])


# -- the run, in the parent --------------------------------------------------


def combine(records):
    """Sum the parts of a run."""
    total = {key: sum(r[key] for r in records)
             for key in ("wall", "failed", "sim_cycles", "passed", "judged")}
    total["latencies"] = [x for r in records for x in r["latencies"]]
    total["outputs"] = [o for r in records for o in r["outputs"]]
    total["problems"] = [p for r in records for p in r["problems"]]
    total["rss_mb"] = max(r["rss_mb"] for r in records)
    for key in ("notes", "kernel"):
        merged = {}
        for record in records:
            for name, value in record[key].items():
                merged[name] = merged.get(name, 0) + value
        total[key] = merged
    return total


def e2e_metrics(run, setups):
    from perfbench.stats import median, tail

    latencies = run["latencies"]
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (run["wall"], "s"),
        "item_p50_ms": (1e3 * median(latencies), "ms"),
        "item_tail_ms": (1e3 * tail_value, "ms"),
        "sim_cycles_per_s": (run["sim_cycles"] / run["wall"], "cycles/s"),
        "peak_rss_mb": (run["rss_mb"], "MB"),
        "pass_pct": (100.0 * run["passed"] / run["judged"], "%"),
    }
    notes = {"tail_percentile": round(tail_pct, 2),
             "items": len(latencies),
             "setup_samples": [round(s, 4) for s in setups]}
    return metrics, notes


def layer_metrics(traced, untraced_wall):
    """The per-layer metrics of one traced part's record."""
    from perfbench.tracer import KEYED_LAYERS

    # Self time is a share of the traced parts (set-up included, so
    # errgen counts): a layer a workload never calls reads 0 there, and
    # a share is not a clock reading.
    metrics = {}
    for name, calls in traced["calls"].items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_pct"] = (
            100.0 * traced["self_s"][name] / traced["run_s"], "%")
    for name, value in traced["counters"].items():
        unit = "cycles" if name.endswith("sim_cycles") else "count"
        metrics[name] = (value, unit)
    kernel = traced["kernel"]
    metrics["sim.compile.kernels_compiled"] = (
        kernel["compiled"] + kernel["lane_compiled"], "count")
    metrics["sim.compile.memo_hits"] = (
        kernel["memo_hits"] + kernel["lane_memo_hits"], "count")
    for name in KEYED_LAYERS:
        calls = traced["calls"][name]
        metrics[f"{name}.repeat_share"] = (
            traced["repeats"].get(name, 0) / calls if calls else 0.0,
            "ratio")
    metrics["unattributed_s"] = (traced["wall"] - traced["attributed_s"],
                                 "s")
    metrics["trace_overhead_pct"] = (
        100.0 * (traced["wall"] / untraced_wall - 1.0), "%")
    return metrics


def work_counters(run):
    """Counters that must repeat exactly for one code version and seed,
    traced or not."""
    kernel = run["kernel"]
    return {
        "items": len(run["latencies"]),
        "failed": run["failed"],
        "sim_cycles": run["sim_cycles"],
        "passed": run["passed"],
        "judged": run["judged"],
        "kernels_compiled": kernel["compiled"] + kernel["lane_compiled"],
        "kernel_memo_hits": kernel["memo_hits"] + kernel["lane_memo_hits"],
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]  # backend, caches, telemetry, fault plans
    from perfbench.checks import State, fingerprint
    from perfbench.tracer import write_trace
    from perfbench.workloads import WORKLOADS, digest

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.part is not None:
        return run_part(args, workload)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)

    parts = range(len(workload.parts(args.seed, args.seconds)))
    if args.trace:
        # Attribution needs one part: run it untraced (the reference
        # for the overhead), then traced.
        parts = parts[:1]
    untraced = [spawn(args, part) for part in parts]
    run = combine(untraced)
    counters = work_counters(run)
    if args.trace:
        traced = spawn(args, 0, trace=1)
        metrics = layer_metrics(traced, run["wall"])
        traced_counters = work_counters(traced)
        traced_counters.update({
            name: value for name, (value, unit) in metrics.items()
            if unit in ("count", "cycles")})
        trace_path = (OUT / "traces"
                      / f"{args.workload}-seed{args.seed}.trace.json")
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        write_trace(trace_path, traced["spans"])
        notes = {
            "trace": str(trace_path),
            "spans": len(traced["spans"]),
            "self_s": {name: round(value, 4)
                       for name, value in traced["self_s"].items()},
            "keys_s": round(traced["keys_s"], 4),
            "unattributed_pct": round(
                100.0 * metrics["unattributed_s"][0] / traced["wall"], 3),
        }
    else:
        setups = [record["setup"] for record in untraced]
        while len(setups) < SETUP_SAMPLES:
            part = len(setups) % len(parts)
            setups.append(spawn(args, part, probe=True)["setup"])
        metrics, notes = e2e_metrics(run, setups)
    notes.update(run["notes"])
    notes["parts"] = len(parts)

    state = State(OUT / "state", fingerprint(ROOT))
    problems = list(run["problems"])
    if run["failed"]:
        problems.append(f"{run['failed']} work items failed")
    scope = "part0" if args.trace else "run"
    problems += state.check_counters(args, counters, "trace0", scope)
    if args.trace:
        problems += traced["problems"]
        problems += state.check_counters(args, traced_counters, "trace1",
                                         scope)
        if digest(traced["outputs"]) != digest(run["outputs"]):
            problems.append("traced outputs differ from untraced ones")
    output_digest = digest(run["outputs"])
    problems += state.check_outputs(args, workload.family, output_digest,
                                    scope)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {unit}")
    for name, value in sorted(notes.items()):
        print(f"  note {name}: {value}")
    for name, value in sorted((traced_counters if args.trace
                               else counters).items()):
        print(f"  counter {name}: {value}")
    print(f"  output digest: {output_digest}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(run["latencies"]),
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
