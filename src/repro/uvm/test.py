"""Top-level UVM test execution.

``run_uvm_test`` is UVLLM's "UVM Processing" stage (Fig. 2, step 2): it
elaborates the DUT, runs the environment, and returns a
:class:`TestResult` carrying the pass rate (the Score Reg. input), the
UVM log, the mismatch records, and the waveform trace that the
localization engine slices.
"""

from dataclasses import dataclass, field
from typing import List, Optional

from repro.obs import trace
from repro.sim.backend import make_simulator
from repro.sim.compile.xcheck import XCheckDivergence
from repro.sim.engine import SimulationError, Simulator
from repro.hdl.errors import HdlError
from repro.uvm.env import Environment
from repro.uvm.log import UVMLog
from repro.uvm.scoreboard import MismatchRecord


@dataclass
class TestResult:
    """Outcome of one UVM run against one DUT source."""

    ok: bool                     # the run executed (not: the DUT passed)
    pass_rate: float = 0.0
    mismatches: List[MismatchRecord] = field(default_factory=list)
    log: UVMLog = field(default_factory=UVMLog)
    coverage: float = 0.0
    trace: dict = field(default_factory=dict)
    simulator: Optional[Simulator] = None
    error: str = ""
    checked: int = 0
    #: Serialized coverage counters for the coverage database:
    #: ``{"functional": CoverModel.to_dict() | None,
    #:    "code": CodeCoverage.to_dict() | None}``.
    coverage_detail: dict = field(default_factory=dict)
    #: Pin-level op list recorded by a ``record_ops=True`` run — the
    #: replayable stimulus a forensic debug bundle archives.  Never
    #: part of campaign record bytes.
    ops: list = field(default_factory=list)

    @property
    def all_passed(self):
        return self.ok and self.checked > 0 and not self.mismatches

    @property
    def mismatch_signals(self):
        seen = []
        for record in self.mismatches:
            if record.signal not in seen:
                seen.append(record.signal)
        return seen


class UVMTest:
    """A configured test: DUT source + sequence + protocol + ref model.

    ``backend`` selects the simulation backend
    (``interp``/``compiled``/``xcheck``); ``None`` uses the process
    default (see :mod:`repro.sim.backend`), which campaign work units
    scope per unit.

    ``coverage`` overrides the environment's default flat covergroup
    with a rich :class:`~repro.cover.model.CoverModel` (crosses,
    transitions, probes); ``code_coverage=True`` additionally attaches
    a structural :class:`~repro.cover.code.CodeCoverage` collector to
    the simulator.  Both serialize into ``TestResult.coverage_detail``
    for the coverage database.
    """

    def __init__(self, source, sequence, protocol, reference_model,
                 compare_signals, top=None, backend=None, coverage=None,
                 code_coverage=False, record_ops=False):
        self.source = source
        self.sequence = sequence
        self.protocol = protocol
        self.reference_model = reference_model
        self.compare_signals = list(compare_signals)
        self.top = top
        self.backend = backend
        self.coverage = coverage
        self.code_coverage = code_coverage
        # Forensic capture: wrap the simulator in a recording proxy so
        # the driven pin-op sequence comes back in TestResult.ops as a
        # replayable script (off in the hot path).
        self.record_ops = record_ops

    def run(self):
        with trace.span("simulate", cat="uvm") as sp:
            log = UVMLog()
            try:
                simulator = make_simulator(
                    self.source, backend=self.backend, top=self.top,
                    code_coverage=self.code_coverage,
                )
            except XCheckDivergence:
                raise  # a backend bug, not a DUT failure: surface loudly
            except (HdlError, SimulationError) as exc:
                sp.set(elaborated=False)
                result = self._elaboration_failure(log, exc)
            else:
                result = self._execute(simulator, log)
            sp.set(ok=result.ok)
            simulator = result.simulator
            design = getattr(simulator, "design", None)
            module = getattr(design, "top_name", None) or self.top
            if module:
                sp.set(module=module)
            if simulator is not None:
                sp.set(cycles=int(getattr(simulator, "time", 0)) // 10,
                       events=int(getattr(simulator, "event_count", 0)))
        return result

    @staticmethod
    def _elaboration_failure(log, exc):
        log.error(0, "ELAB", f"elaboration failed: {exc}")
        # An initial-time SimulationError (combinational loop, runaway
        # deltas) still recorded a partial trace: surface the
        # half-constructed simulator so `simulate --vcd` can flush the
        # waveform up to the abort point.
        partial = getattr(exc, "partial_simulator", None)
        return TestResult(
            ok=False, log=log, error=str(exc),
            trace=getattr(partial, "trace", None) or {},
            simulator=partial,
        )

    def _execute(self, simulator, log):
        if self.record_ops:
            from repro.forensics.replay import RecordingSimulator

            simulator = RecordingSimulator(simulator)
        env = Environment(
            simulator, self.sequence, self.protocol, self.reference_model,
            self.compare_signals, coverage=self.coverage, log=log,
        )
        try:
            scoreboard = env.run()
        except XCheckDivergence:
            raise  # ditto: lockstep divergence must never be swallowed
        except (SimulationError, HdlError) as exc:
            log.error(simulator.time, "SIM", f"simulation failed: {exc}")
            return TestResult(
                ok=False, log=log, error=str(exc),
                trace=simulator.trace, simulator=simulator,
                ops=list(getattr(simulator, "ops", ())),
            )
        return TestResult(
            ok=True,
            pass_rate=scoreboard.pass_rate,
            mismatches=list(scoreboard.mismatches),
            log=log,
            coverage=env.coverage.coverage,
            trace=simulator.trace,
            simulator=simulator,
            checked=scoreboard.checked,
            coverage_detail=self._coverage_detail(env, simulator),
            ops=list(getattr(simulator, "ops", ())),
        )

    @staticmethod
    def _coverage_detail(env, simulator):
        detail = {}
        if hasattr(env.coverage, "to_dict"):
            detail["functional"] = env.coverage.to_dict()
        code_coverage = getattr(simulator, "code_coverage", None)
        if code_coverage is not None:
            detail["code"] = code_coverage.finalize(simulator).to_dict()
        return detail


def run_uvm_test(source, sequence, protocol, reference_model,
                 compare_signals, top=None, backend=None, coverage=None,
                 code_coverage=False, record_ops=False):
    """One-shot convenience wrapper around :class:`UVMTest`."""
    test = UVMTest(
        source, sequence, protocol, reference_model, compare_signals, top,
        backend=backend, coverage=coverage, code_coverage=code_coverage,
        record_ops=record_ops,
    )
    return test.run()
