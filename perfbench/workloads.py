"""The benchmark workloads.

A run of a workload is a few *parts*, each one fresh process at
``--jobs 1`` with a fresh cache directory: one closed-loop caller that
starts the next work item only when the last one returned.  The seed
is the only input; the program sees only what is generated from it.

- ``repair-compiled`` / ``repair-interp``: the quick paper sweep (the
  fig5, fig6, table2, table3 and fig7 drivers over six modules,
  ``per_operator=1``, ``attempts=2``), one campaign per part, each on
  its own ``generate_dataset`` seed.  One work item is one campaign
  unit (:func:`repro.experiments.runner.run_unit`).
- ``verify-soak`` / ``verify-soak-lanes``: the golden source of every
  bench module against the held-out FR suite, 8 stimulus seeds per
  block, on the compiled backend, as scalar
  :func:`~repro.uvm.test.run_uvm_test` runs or as 8-seed
  :func:`~repro.uvm.lanes.run_uvm_test_lanes` batches.  One work item
  is one UVM run or one lane batch.
"""

import dataclasses
import gc
import hashlib
import json
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

QUICK_MODULES = ("adder_8bit", "accu", "counter_12", "fsm_seq", "ram_sp",
                 "edge_detect")
LANES = 8
#: Host seconds of one quick-sweep campaign, and of one 8-seed soak
#: block, on a 2-core box.  They turn ``--seconds`` into a fixed amount
#: of work, so a run's work never depends on how fast the host is.
REPAIR_SECONDS_PER_CAMPAIGN = 16
#: Every this-many-th unit of a campaign is re-run on the other backend
#: after the measured window, to check that the records agree.
REPAIR_CROSS_CHECK_STRIDE = 10
SOAK_SECONDS_PER_BLOCK = 8
SOAK_PARTS = 2
#: Stimulus seeds of a soak start here for ``--seed 0``; each further
#: benchmark seed moves the block by this stride.
SOAK_SEED_BASE = 1000
SOAK_SEED_STRIDE = 10007


@dataclass
class Outcome:
    """What one part produced."""

    latencies: list = field(default_factory=list)
    first_start: float = 0.0
    last_end: float = 0.0
    failed: int = 0
    sim_cycles: int = 0
    #: One tuple per work item output, for the output digest.
    outputs: list = field(default_factory=list)
    passed: int = 0
    judged: int = 0
    #: Counts by name, summed over parts.
    notes: dict = field(default_factory=dict)
    mark_first: float = 0.0
    mark_last: float = 0.0
    #: Output checks that failed.
    problems: list = field(default_factory=list)
    #: Peak resident set and kernel-cache counters at the end of the
    #: measured window (the output checks after it must not count).
    rss_mb: float = 0.0
    kernel: dict = field(default_factory=dict)

    def close_window(self):
        from repro.sim.compile import cache as kernel_cache

        self.rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024)
        self.kernel = kernel_cache.stats()

    @property
    def wall_s(self):
        return self.last_end - self.first_start

    @property
    def attributed_s(self):
        return self.mark_last - self.mark_first

    def note(self, name, amount=1):
        self.notes[name] = self.notes.get(name, 0) + amount


def digest(outputs):
    """Order-independent digest of work-item outputs."""
    text = "\n".join(sorted(json.dumps(o) for o in outputs))
    return hashlib.sha256(text.encode()).hexdigest()


class ItemClock:
    """Times each work item; calls ``on_first(start)`` once, just
    before the first item starts.  ``mark`` (the tracer's running total
    of attributed time, when tracing) is read at the first item's start
    and after every item, so attribution covers exactly the window
    ``wall_s`` measures."""

    def __init__(self, outcome, on_first, mark=None):
        self.outcome = outcome
        self.on_first = on_first
        self.mark = mark or (lambda: 0.0)

    def call(self, fn, *args, **kwargs):
        outcome = self.outcome
        start = time.perf_counter()
        if not outcome.first_start:
            self.on_first(start)
            outcome.mark_first = self.mark()
            start = time.perf_counter()
            outcome.first_start = start
        try:
            return fn(*args, **kwargs)
        except Exception:
            outcome.failed += 1
            raise
        finally:
            end = time.perf_counter()
            outcome.latencies.append(end - start)
            outcome.last_end = end
            outcome.mark_last = self.mark()


@contextmanager
def patched(owner, attr, make_wrapper):
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Repair:
    """The quick paper sweep, one campaign per part."""

    family = "repair"

    def __init__(self, backend):
        self.backend = backend

    def parts(self, seed, seconds):
        campaigns = max(1, round(seconds / REPAIR_SECONDS_PER_CAMPAIGN))
        return [{"dataset_seed": seed * campaigns + j}
                for j in range(campaigns)]

    def run(self, part, cache_dir, on_first, mark=None, spot_check=True):
        from repro.errgen.generator import generate_dataset
        from repro.experiments import fig5, fig6, fig7, runner, table2, table3
        from repro.uvm.test import UVMTest

        seed = part["dataset_seed"]
        outcome = Outcome()
        clock = ItemClock(outcome, on_first, mark)

        units = []

        def timed_unit(run_unit):
            def unit(work_unit):
                record = clock.call(run_unit, work_unit)
                units.append((work_unit, record))
                outcome.outputs.append((
                    seed, record.instance_id, record.method, record.hit,
                    record.fixed, record.stage,
                ))
                if record.method == "uvllm":
                    outcome.judged += 1
                    outcome.passed += bool(record.fixed)
                    outcome.note(f"uvllm_{record.kind}_units")
                    outcome.note(f"uvllm_{record.kind}_fixed",
                                 bool(record.fixed))
                return record
            return unit

        def counted_run(uvm_run):
            def run_test(test):
                result = uvm_run(test)
                if outcome.first_start and result.simulator is not None:
                    outcome.sim_cycles += int(result.simulator.time) // 10
                return result
            return run_test

        generate_dataset(seed=seed, per_operator=1, target=None,
                         modules=list(QUICK_MODULES), cache_dir=cache_dir)
        with patched(runner, "run_unit", timed_unit), \
                patched(UVMTest, "run", counted_run):
            for driver in (fig5, fig6, table2, table3, fig7):
                driver.run(modules=list(QUICK_MODULES), per_operator=1,
                           attempts=2, seed=seed, jobs=1,
                           cache_dir=cache_dir, backend=self.backend)
        outcome.close_window()
        if spot_check:
            # Outside the measured window: a sample of the units must
            # land the same verdict on the other simulation backend.
            other = "interp" if self.backend == "compiled" else "compiled"
            for work_unit, record in units[::REPAIR_CROSS_CHECK_STRIDE]:
                again = runner.run_unit(
                    dataclasses.replace(work_unit, backend=other))
                if _verdict(again) != _verdict(record):
                    outcome.problems.append(
                        f"{record.instance_id} {record.method}: "
                        f"{self.backend} gives {_verdict(record)}, "
                        f"{other} gives {_verdict(again)}")
        return outcome


def _verdict(record):
    return record.hit, record.fixed, record.stage


class Soak:
    """Golden sources on held-out stimulus; a part is a set of 8-seed
    blocks."""

    family = "soak"

    def __init__(self, lanes):
        self.lanes = lanes

    def parts(self, seed, seconds):
        blocks = max(1, round(seconds / SOAK_SECONDS_PER_BLOCK))
        count = min(SOAK_PARTS, blocks)
        base = SOAK_SEED_BASE + SOAK_SEED_STRIDE * seed
        return [{"base": base, "blocks": list(range(blocks))[j::count]}
                for j in range(count)]

    def run(self, part, cache_dir, on_first, mark=None, spot_check=True):
        from repro.bench.registry import all_modules, make_fr_sequence
        from repro.uvm.lanes import run_uvm_test_lanes
        from repro.uvm.test import run_uvm_test

        base = part["base"]
        benches = all_modules()
        # Block-major order: every module's seeds are spread over the
        # part, so a slow stretch of the host does not land on one
        # module's items only.
        plan = [
            (bench, base + block * LANES,
             [list(make_fr_sequence(bench, seed=base + block * LANES + i))
              for i in range(LANES)])
            for block in part["blocks"]
            for bench in benches
        ]
        # The materialized stimulus is the harness's, not the
        # program's: keep the cyclic collector from re-walking it in
        # the middle of work items.
        gc.collect()
        gc.freeze()
        outcome = Outcome()
        clock = ItemClock(outcome, on_first, mark)

        def scalar(bench, sequence):
            return run_uvm_test(bench.source, sequence, bench.protocol,
                                bench.model(), bench.compare_signals,
                                top=bench.top, backend="compiled")

        def verdict(result):
            return result.pass_rate, result.checked, len(result.mismatches)

        def judge(bench, stimulus_seed, result):
            outcome.judged += 1
            outcome.passed += result.all_passed
            if not result.all_passed:
                outcome.problems.append(
                    f"golden {bench.name} failed at stimulus seed "
                    f"{stimulus_seed}: ok={result.ok} "
                    f"checked={result.checked} "
                    f"mismatches={len(result.mismatches)}")
            if result.simulator is not None:
                outcome.sim_cycles += int(result.simulator.time) // 10
            outcome.outputs.append((bench.name, stimulus_seed)
                                   + verdict(result))

        first_lanes = {}
        for bench, first_seed, sequences in plan:
            if self.lanes:
                results, info = clock.call(
                    run_uvm_test_lanes, bench.source, sequences,
                    bench.protocol, bench.model, bench.compare_signals,
                    top=bench.top,
                )
                outcome.note("packed_batches", bool(info.get("packed")))
                first_lanes.setdefault(bench.name, (bench, sequences[0],
                                                    results[0]))
                for offset, result in enumerate(results):
                    judge(bench, first_seed + offset, result)
            else:
                for offset, sequence in enumerate(sequences):
                    judge(bench, first_seed + offset,
                          clock.call(scalar, bench, sequence))
        gc.unfreeze()
        outcome.close_window()
        if spot_check:
            # Outside the measured window: lane 0 of each module's first
            # batch must match a scalar run of the same stimulus.
            for bench, sequence, packed in first_lanes.values():
                if verdict(scalar(bench, sequence)) != verdict(packed):
                    outcome.problems.append(
                        f"{bench.name}: lane result {verdict(packed)} "
                        f"differs from the scalar run")
        return outcome


WORKLOADS = {
    "repair-compiled": Repair("compiled"),
    "repair-interp": Repair("interp"),
    "verify-soak": Soak(lanes=False),
    "verify-soak-lanes": Soak(lanes=True),
}
