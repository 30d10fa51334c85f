"""Per-layer attribution from outside the program.

:class:`Tracer` wraps the public entry point of each ``repro`` layer
(:data:`LAYERS`) and records, per layer, the number of calls and the
self time: the wrapped call's duration minus the time of wrapped
layers it called.  Frequent per-transaction layers (``uvm.drive``,
``uvm.monitor``, ``uvm.scoreboard``) are aggregated — counted and
timed, but not stored as spans — so the span dump stays small.

Where a function is imported by name into other modules, every
``repro.*`` module attribute bound to it is patched, and
:meth:`Tracer.uninstall` puts every original object back.

For the layers with a key function the tracer also content-hashes each
call's inputs and counts the calls whose inputs exactly repeat an
earlier call (``<layer>.repeat_share``).  Hashing runs outside the
timed region and its time is reported on its own (``keys_s``).
"""

import hashlib
import importlib
import itertools
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Layer:
    """One wrapped entry point: ``target`` is ``"func"`` or
    ``"Class.method"`` inside ``module``."""

    name: str
    module: str
    target: str
    key: Optional[Callable] = None
    on_result: Optional[Callable] = None
    aggregate: bool = False


def _digest(*parts):
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        data = part if isinstance(part, str) else repr(part)
        h.update(data.encode("utf-8", "surrogatepass"))
        h.update(b"\x00")
    return h.digest()


def materialize(sequence):
    """The transactions of ``sequence`` as comparable tuples, without
    disturbing the program: the global transaction-id counter is
    restored afterwards, because ids reach logs and mismatch records.
    One-shot iterators cannot be replayed and yield ``None``."""
    if iter(sequence) is sequence:
        return None
    from repro.uvm import transaction

    resume = next(transaction._txn_counter)
    try:
        txns = list(sequence)
    finally:
        transaction._txn_counter = itertools.count(resume)
    return tuple(
        (tuple(sorted(t.fields.items())), t.hold_cycles,
         tuple(sorted(t.meta.items())))
        for t in txns
    )


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _source_key(tracer, args, kwargs):
    return _digest(_arg(args, kwargs, 0, "source"))


def _lint_key(tracer, args, kwargs):
    return _digest(_arg(args, kwargs, 1, "source"))


def _elaborate_key(tracer, args, kwargs):
    return _digest(_arg(args, kwargs, 0, "source_file"), args[1:],
                   sorted(kwargs.items()))


def _uvm_run_key(tracer, args, kwargs):
    test = args[0]
    txns = materialize(test.sequence)
    if txns is None:
        return None
    tracer.count("uvm.run.txns", len(txns))
    return _digest(test.source, txns, test.top, test.backend,
                   test.coverage is not None, test.code_coverage)


def _uvm_run_result(tracer, args, result):
    simulator = result.simulator
    if simulator is not None:
        tracer.count("uvm.run.sim_cycles", int(simulator.time) // 10)


def _lanes_result(tracer, args, result):
    results, info = result
    tracer.count("uvm.lanes.txns", sum(
        len(seq) if hasattr(seq, "__len__") else len(materialize(seq) or ())
        for seq in _arg(args, {}, 1, "sequences")))
    tracer.count("uvm.lanes.sim_cycles",
                 sum(int(r.simulator.time) // 10 for r in results
                     if r.simulator is not None))
    tracer.count("uvm.lanes.packed_batches" if info.get("packed")
                 else "uvm.lanes.demoted_batches")


#: The layers, their entry points, and (in ``README.md``) the
#: end-to-end metric each should move.
LAYERS = (
    Layer("hdl.parse", "repro.hdl.parser", "parse_source",
          key=_source_key),
    Layer("lint", "repro.lint.linter", "Linter.lint", key=_lint_key),
    Layer("locate", "repro.locate.engine", "LocalizationEngine.analyze"),
    Layer("core.preprocess", "repro.core.preprocess", "Preprocessor.run"),
    Layer("core.repair", "repro.core.repair", "RepairAgent.propose"),
    Layer("llm", "repro.llm.mock", "MockLLM.complete"),
    Layer("baselines", "repro.baselines.direct", "DirectLLM.repair"),
    Layer("baselines", "repro.baselines.meic", "MEIC.repair"),
    Layer("baselines", "repro.baselines.rtlrepair", "RTLRepair.repair"),
    Layer("baselines", "repro.baselines.strider", "Strider.repair"),
    Layer("errgen", "repro.errgen.generator", "generate_dataset"),
    Layer("sim.elaborate", "repro.sim.elaborate", "elaborate",
          key=_elaborate_key),
    Layer("sim.compile", "repro.sim.compile.cache", "get_kernel"),
    Layer("uvm.run", "repro.uvm.test", "UVMTest.run", key=_uvm_run_key,
          on_result=_uvm_run_result),
    Layer("uvm.drive", "repro.uvm.driver", "Driver.drive", aggregate=True),
    Layer("uvm.monitor", "repro.uvm.monitor", "Monitor.sample",
          aggregate=True),
    Layer("uvm.scoreboard", "repro.uvm.scoreboard", "Scoreboard.check",
          aggregate=True),
    Layer("uvm.lanes", "repro.uvm.lanes", "run_uvm_test_lanes",
          on_result=_lanes_result),
    Layer("cover", "repro.experiments.runner", "collect_unit_coverage"),
    Layer("experiments.fr_oracle", "repro.experiments.runner",
          "evaluate_fix"),
    Layer("runner.cache", "repro.runner.cache", "ResultCache.get"),
    Layer("runner.cache", "repro.runner.cache", "ResultCache.put"),
    Layer("runner.unit", "repro.experiments.runner", "run_unit"),
)

KEYED_LAYERS = tuple(dict.fromkeys(l.name for l in LAYERS if l.key))
EXTRA_COUNTERS = (
    "uvm.run.txns", "uvm.run.sim_cycles",
    "uvm.lanes.txns", "uvm.lanes.sim_cycles",
    "uvm.lanes.packed_batches", "uvm.lanes.demoted_batches",
)


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Wraps :data:`LAYERS` (or ``layers``) between :meth:`install`
    and :meth:`uninstall` and accumulates calls, self time, counters,
    repeat counts and spans."""

    def __init__(self, layers=LAYERS, clock=time.perf_counter):
        self.layers = tuple(layers)
        self.clock = clock
        names = tuple(dict.fromkeys(layer.name for layer in self.layers))
        self.calls = dict.fromkeys(names, 0)
        self.self_s = dict.fromkeys(names, 0.0)
        self.counters = dict.fromkeys(EXTRA_COUNTERS, 0)
        self.repeats = {}
        self._seen = {}
        self.keys_s = 0.0
        #: ``[name, start, end, parent]`` per recorded span; ``parent``
        #: is the index of the enclosing span or ``-1``.
        self.spans = []
        #: Frames of the calls in progress: ``[child_seconds, span]``.
        self._stack = []
        self._originals = []  # (owner, attribute, original, wrapper)

    # -- recording ---------------------------------------------------------

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _note_key(self, name, key):
        if key is None:
            return
        seen = self._seen.setdefault(name, set())
        if key in seen:
            self.repeats[name] = self.repeats.get(name, 0) + 1
        else:
            seen.add(key)

    def wrap(self, layer, fn):
        """A wrapper that times ``fn`` as a call of ``layer``."""
        tracer = self
        clock = self.clock
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        name = layer.name
        key_fn = layer.key
        on_result = layer.on_result
        aggregate = layer.aggregate

        def wrapper(*args, **kwargs):
            if key_fn is not None:
                started = clock()
                tracer._note_key(name, key_fn(tracer, args, kwargs))
                spent = clock() - started
                tracer.keys_s += spent
                if stack:
                    stack[-1][0] += spent
            parent = stack[-1][1] if stack else -1
            if aggregate:
                span = parent
            else:
                span = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                if not aggregate:
                    record = spans[span]
                    record[1] = start
                    record[2] = end
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        """Patch every layer's entry point (importing its module)."""
        for layer in self.layers:
            module = importlib.import_module(layer.module)
            if "." in layer.target:
                cls_name, attr = layer.target.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                wrapper = self.wrap(layer, original)
                self._patch(owner, attr, original, wrapper)
                continue
            original = getattr(module, layer.target)
            wrapper = self.wrap(layer, original)
            for other in _repro_modules():
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, attr, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, original, wrapper))

    def uninstall(self):
        """Restore every original, including module attributes bound to
        a wrapper by an import made while the tracer was installed."""
        restore = {}
        for owner, attr, original, wrapper in reversed(self._originals):
            setattr(owner, attr, original)
            restore[id(wrapper)] = (wrapper, original)
        self._originals.clear()
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                entry = restore.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])

    # -- reporting ---------------------------------------------------------

    def snapshot(self):
        """Total self time so far (for attributing a window)."""
        return sum(self.self_s.values()) + self.keys_s


def write_trace(path, spans):
    """Write ``spans`` as Chrome trace-event JSON, which Perfetto and
    ``chrome://tracing`` load; times are microseconds from the first
    span's start."""
    origin = min((span[1] for span in spans), default=0.0)
    events = [{
        "name": name, "ph": "X", "pid": 1, "tid": 1,
        "ts": round((start - origin) * 1e6, 3),
        "dur": round((end - start) * 1e6, 3),
        "args": {"id": index, "parent": parent},
    } for index, (name, start, end, parent) in enumerate(spans)]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
