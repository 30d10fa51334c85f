"""Structural code coverage: statement, branch, and toggle.

One :class:`CodeCoverage` collector attaches to one simulator (any
backend).  Collection is *backend-invariant by construction* — the
maps produced by the interpreter and the compiled backend for the
same DUT and stimulus are identical, which `scripts/ci_smoke.py`
enforces.  That invariance dictates where each metric is collected:

- **seq/initial processes** are instrumented live (interpreter hooks
  in :class:`repro.sim.engine._Executor`, emitted ``_CS``/``_CB``
  calls in :mod:`repro.sim.compile.codegen`): clocked activations
  and their branch decisions are schedule-independent because both
  backends run them only at comb quiescence, over bit-identical
  state;
- **comb processes** are NOT instrumented live — the event-driven
  worklist re-evaluates glitchy cones mid-wave while the levelized
  sweep evaluates each cone once, so live counts (and even hit sets)
  would diverge.  Instead :meth:`CodeCoverage.sample_stable` replays
  every comb body against *settled* state at each monitor sample
  point, through a shadow executor whose writes never touch the
  design.  "Settled-evaluation coverage at sample points" is the
  defined semantic, identical across schedulers;
- **toggle coverage** is derived post-run from the canonical
  value-change trace (same-time glitch entries are already dropped
  by the engine), which is bit-identical across backends.

Statement/branch identities are stable strings (``p<idx>.s<n>`` from
a pre-order walk of each process body), so maps from two separate
elaborations of the same source line up key-for-key.
"""

from repro.hdl import ast
from repro.sim.elaborate import Signal
from repro.sim.engine import SimulationError, _Executor
from repro.sim.eval import Evaluator, Memory


#: Per-process cap on memoized replay outcomes (wide input cones can
#: produce many distinct settled states; beyond the cap we just
#: re-execute, which is always correct).
_REPLAY_MEMO_LIMIT = 4096

#: Functions whose result is not a pure function of signal state — a
#: body containing one cannot be replay-memoized.
_IMPURE_CALLS = frozenset(("$time", "$stime", "$random"))


class CodeCoverage:
    """Statement/branch/toggle counters over one elaborated design."""

    def __init__(self, design):
        self.design = design
        #: id(ast stmt node) -> stable statement id "p<i>.s<n>".
        self.stmt_id = {}
        #: id(case item node) -> arm outcome key "a<i>".
        self.case_arm = {}
        #: stable statement id -> list of branch outcome keys.
        self.branch_domain = {}
        self.stmt_domain = []
        self.stmt_hits = {}
        self.branch_hits = {}
        self.toggle = {}
        self._replay_plan = None
        self._replay_memo = {}
        for index, process in enumerate(design.processes):
            counter = iter(range(1 << 30))
            for stmt in process.body:
                self._walk(stmt, index, counter)

    # -- stable id assignment ------------------------------------------------

    def _walk(self, stmt, pidx, counter):
        sid = f"p{pidx}.s{next(counter)}"
        self.stmt_id[id(stmt)] = sid
        self.stmt_domain.append(sid)
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self._walk(inner, pidx, counter)
        elif isinstance(stmt, ast.If):
            self.branch_domain[sid] = ["T", "F"]
            self._walk(stmt.then_stmt, pidx, counter)
            if stmt.else_stmt is not None:
                self._walk(stmt.else_stmt, pidx, counter)
        elif isinstance(stmt, ast.Case):
            outcomes = []
            for index, item in enumerate(stmt.items):
                if not item.is_default:
                    key = f"a{index}"
                    self.case_arm[id(item)] = (sid, key)
                    outcomes.append(key)
                self._walk(item.body, pidx, counter)
            outcomes.append("default")
            self.branch_domain[sid] = outcomes
        elif isinstance(stmt, (ast.For, ast.While)):
            self._walk(stmt.body, pidx, counter)

    # -- recording (hot paths: called from both backends) --------------------

    def hit_stmt(self, sid):
        self.stmt_hits[sid] = self.stmt_hits.get(sid, 0) + 1

    def hit_stmt_node(self, stmt):
        sid = self.stmt_id.get(id(stmt))
        if sid is not None:
            self.stmt_hits[sid] = self.stmt_hits.get(sid, 0) + 1

    def hit_branch(self, sid, outcome):
        key = f"{sid}:{outcome}"
        self.branch_hits[key] = self.branch_hits.get(key, 0) + 1

    def hit_branch_node(self, stmt, outcome):
        sid = self.stmt_id.get(id(stmt))
        if sid is not None:
            self.hit_branch(sid, outcome)

    def hit_case_item(self, item):
        entry = self.case_arm.get(id(item))
        if entry is not None:
            self.hit_branch(*entry)

    # -- stable-point comb replay --------------------------------------------

    def sample_stable(self):
        """Replay every comb process against settled state (see module
        docstring); call once per monitor sample point.  Reads the
        settled values directly off this collector's own design — the
        simulator that owns it — so it takes no argument.

        Replays are memoized per process on the settled values of the
        signals the engine registered it as reading (the same cone
        that decides re-evaluation): a repeated settled state replays
        as a cached counter bump instead of a tree walk.  Processes
        reading memories or impure functions are re-executed every
        time.
        """
        if self._replay_plan is None:
            self._replay_plan = self._build_replay_plan()
        for index, (process, key_signals) in enumerate(self._replay_plan):
            if key_signals is None:
                self._replay(process, self)
                continue
            key = tuple(
                (s.value.bits, s.value.xmask) for s in key_signals
            )
            memo, stats = self._replay_memo.setdefault(
                id(process), ({}, [0, 0])
            )
            stats[0] += 1
            deltas = memo.get(key)
            if deltas is None:
                recorder = _DeltaRecorder(self)
                self._replay(process, recorder)
                deltas = (recorder.stmts, recorder.branches)
                if len(memo) < _REPLAY_MEMO_LIMIT:
                    memo[key] = deltas
                # Adaptive bail-out: a wide input cone rarely repeats
                # a settled state, so the memo only adds key-building
                # overhead — demote the process to direct replay.
                if stats[0] >= 32 and stats[1] * 2 < stats[0]:
                    self._replay_plan[index] = (process, None)
                    memo.clear()
            else:
                stats[1] += 1
            for sid, count in deltas[0].items():
                self.stmt_hits[sid] = self.stmt_hits.get(sid, 0) + count
            for bid, count in deltas[1].items():
                self.branch_hits[bid] = \
                    self.branch_hits.get(bid, 0) + count

    def _build_replay_plan(self):
        """``[(comb_process, key_signals_or_None)]`` in design order.

        ``key_signals`` is the tuple of signals whose value changes
        schedule the process (its read cone per the engine's own
        listener registration); ``None`` marks a process that must be
        re-executed every sample (memory reads, impure calls).  A
        process's own blocking temporaries need not be in the key: at
        a stable point their settled values are themselves functions
        of the cone.
        """
        from repro.hdl import ast as hdl_ast

        reads = {}
        for signal in self.design.signals.values():
            for process in signal.comb_listeners:
                reads.setdefault(id(process), []).append(signal)
        blocked = set()
        for memory in self.design.memories.values():
            for process in memory.comb_listeners:
                blocked.add(id(process))
        plan = []
        for process in self.design.processes:
            if process.kind != "comb":
                continue
            memoizable = id(process) not in blocked
            if memoizable:
                # Tiny bodies replay about as fast as a key builds;
                # only non-trivial cones are worth memoizing.
                stmt_count = sum(
                    1 for stmt in process.body
                    for node in stmt.walk() if id(node) in self.stmt_id
                )
                memoizable = stmt_count >= 4
            if memoizable:
                for stmt in process.body:
                    if any(
                        isinstance(node, hdl_ast.FunctionCall)
                        and node.name in _IMPURE_CALLS
                        for node in stmt.walk()
                    ):
                        memoizable = False
                        break
            key_signals = (
                tuple(reads.get(id(process), ())) if memoizable else None
            )
            plan.append((process, key_signals))
        return plan

    def _replay(self, process, recorder):
        executor = _ReplayExecutor(process, recorder)
        try:
            for stmt in process.body:
                executor.execute(stmt)
        except SimulationError:
            # A body the real engine also cannot execute (the real
            # run surfaces the error); replay must not re-raise.
            # Partial hits up to the error stand (deterministic).
            pass

    # -- toggle (post-run, from the canonical trace) -------------------------

    def finalize(self, simulator):
        """Derive toggle coverage from the value-change trace."""
        if not getattr(simulator, "trace_enabled", False):
            return self
        self.toggle = {}
        for name in sorted(simulator.trace):
            signal = self.design.signals.get(name)
            if signal is None:
                continue
            history = simulator.trace[name]
            mask = (1 << signal.width) - 1
            rise = fall = 0
            for (_, prev), (_, curr) in zip(history, history[1:]):
                known = ~prev.xmask & ~curr.xmask
                rise |= ~prev.bits & curr.bits & known
                fall |= prev.bits & ~curr.bits & known
            self.toggle[name] = {
                "rise": rise & mask,
                "fall": fall & mask,
                "width": signal.width,
            }
        return self

    # -- aggregation ---------------------------------------------------------

    @property
    def stmt_total(self):
        return len(self.stmt_domain)

    @property
    def branch_total(self):
        return sum(len(v) for v in self.branch_domain.values())

    @property
    def stmt_coverage(self):
        total = self.stmt_total
        return len(self.stmt_hits) / total if total else 1.0

    @property
    def branch_coverage(self):
        total = self.branch_total
        return len(self.branch_hits) / total if total else 1.0

    @property
    def toggle_coverage(self):
        total = covered = 0
        for entry in self.toggle.values():
            total += 2 * entry["width"]
            covered += _popcount(entry["rise"]) + _popcount(entry["fall"])
        return covered / total if total else 1.0

    def to_dict(self):
        """JSON-pure serialization for the coverage database."""
        return {
            "stmts": {k: self.stmt_hits[k] for k in sorted(self.stmt_hits)},
            "branches": {
                k: self.branch_hits[k] for k in sorted(self.branch_hits)
            },
            "totals": {
                "stmt": self.stmt_total,
                "branch": self.branch_total,
            },
            "toggle": {
                name: dict(entry)
                for name, entry in sorted(self.toggle.items())
            },
        }

    def report(self):
        return (
            f"code coverage: stmt {len(self.stmt_hits)}/{self.stmt_total} "
            f"({100.0 * self.stmt_coverage:.1f}%), "
            f"branch {len(self.branch_hits)}/{self.branch_total} "
            f"({100.0 * self.branch_coverage:.1f}%), "
            f"toggle {100.0 * self.toggle_coverage:.1f}%"
        )


def _popcount(value):
    return bin(value).count("1")


# -- shadow replay machinery -------------------------------------------------


class _DeltaRecorder:
    """Collects one replay's stmt/branch hits for the replay memo."""

    def __init__(self, coverage):
        self.coverage = coverage
        self.stmts = {}
        self.branches = {}

    def hit_stmt_node(self, stmt):
        sid = self.coverage.stmt_id.get(id(stmt))
        if sid is not None:
            self.stmts[sid] = self.stmts.get(sid, 0) + 1

    def hit_branch(self, sid, outcome):
        key = f"{sid}:{outcome}"
        self.branches[key] = self.branches.get(key, 0) + 1

    def hit_branch_node(self, stmt, outcome):
        sid = self.coverage.stmt_id.get(id(stmt))
        if sid is not None:
            self.hit_branch(sid, outcome)

    def hit_case_item(self, item):
        entry = self.coverage.case_arm.get(id(item))
        if entry is not None:
            self.hit_branch(*entry)


class _ShadowMemory:
    """Read-through overlay over a real :class:`Memory`."""

    def __init__(self, memory, overlay):
        self.memory = memory
        self.overlay = overlay
        self.width = memory.width
        self.lo = memory.lo
        self.hi = memory.hi
        self.signed = memory.signed

    def read(self, address):
        word = self.overlay.get((id(self.memory), address))
        if word is not None:
            return word
        return self.memory.read(address)


class _ShadowSim:
    """Write sink for replay: all stores land in overlays, never the
    design.  Mimics the slice of the simulator API the executor's
    store closures touch."""

    code_coverage = None  # _Executor probes this; replay records itself

    def __init__(self):
        self.shadow = {}        # id(Signal) -> Value
        self.mem_overlay = {}   # (id(Memory), address) -> Value
        self._nba = []          # comb bodies are blocking-only anyway

    def read_signal(self, signal):
        return self.shadow.get(id(signal), signal.value)

    def _write_signal(self, signal, value):
        if value.width != signal.width or value.signed != signal.signed:
            value = value.resize(signal.width, signal.signed)
        self.shadow[id(signal)] = value

    def write_memory(self, memory, address, value):
        if address is None or address < memory.lo or address > memory.hi:
            return
        if value.width != memory.width:
            value = value.resize(memory.width)
        self.mem_overlay[(id(memory), address)] = value

    def _notify_memory_write(self, memory):
        pass


class _ShadowResolver:
    """Evaluator resolver: shadow values first, real state second."""

    def __init__(self, scope, shadow_sim):
        self.scope = scope
        self.shadow_sim = shadow_sim

    def read(self, name):
        entry = self.scope.lookup(name)
        if isinstance(entry, Signal):
            return self.shadow_sim.read_signal(entry)
        return self.scope.read(name)

    def read_memory(self, name):
        memory = self.scope.read_memory(name)
        if memory is None:
            return None
        return _ShadowMemory(memory, self.shadow_sim.mem_overlay)

    def width_of(self, name):
        return self.scope.width_of(name)

    def signed_of(self, name):
        return self.scope.signed_of(name)


class _ReplayExecutor(_Executor):
    """Side-effect-free re-execution of one comb process body.

    Reads see settled design state overlaid with the replay's own
    blocking writes (so intermediate temporaries behave exactly as in
    the real evaluation); all stores go to shadows.  Because a comb
    body is a deterministic function of its inputs and the design is
    quiescent, the branches taken here are precisely those of the
    settled evaluation — the backend-invariant semantic we record.
    """

    def __init__(self, process, coverage):
        super().__init__(_ShadowSim(), process)
        self.evaluator = Evaluator(_ShadowResolver(self.scope, self.sim))
        self.cov = coverage

    # Bit/word stores read current state directly off the entry in the
    # base class; replay must read the shadow instead.

    def _resolve_index_store(self, target):
        index = self.evaluator.const_int(target.index)
        if isinstance(target.base, ast.Identifier):
            entry = self._lookup_target(target.base.name)
            if isinstance(entry, Memory):
                def store_word(value, m=entry, i=index):
                    self.sim.write_memory(m, i, value)

                return store_word
            if isinstance(entry, Signal):
                def store_bit(value, e=entry, i=index):
                    if i is None:
                        return
                    current = self.sim.read_signal(e)
                    self.sim._write_signal(
                        e, current.replace_bits(i, value.resize(1))
                    )

                return store_bit
        raise SimulationError("unsupported indexed assignment target")

    def _resolve_part_select_store(self, target):
        if not isinstance(target.base, ast.Identifier):
            raise SimulationError("unsupported part-select target")
        entry = self._lookup_target(target.base.name)
        if not isinstance(entry, Signal):
            raise SimulationError("part-select on non-signal target")
        if target.mode == ":":
            msb = self.evaluator.const_int(target.msb)
            lsb = self.evaluator.const_int(target.lsb)
        elif target.mode == "+:":
            lsb = self.evaluator.const_int(target.msb)
            width = self.evaluator.const_int(target.lsb) or 1
            msb = None if lsb is None else lsb + width - 1
        else:
            msb = self.evaluator.const_int(target.msb)
            width = self.evaluator.const_int(target.lsb) or 1
            lsb = None if msb is None else msb - width + 1

        def store_slice(value, e=entry, hi=msb, lo=lsb):
            if hi is None or lo is None:
                return
            current = self.sim.read_signal(e)
            self.sim._write_signal(
                e,
                current.replace_bits(
                    min(hi, lo), value.resize(abs(hi - lo) + 1)
                ),
            )

        return store_slice
