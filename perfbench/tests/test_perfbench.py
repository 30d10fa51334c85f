"""Self-tests of the benchmark harness.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import workloads  # noqa: E402
from perfbench.checks import State  # noqa: E402
from perfbench.stats import beta_cdf, quantile, tail  # noqa: E402
from perfbench.tracer import LAYERS, Layer, Tracer, write_trace  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_wrapped_children(tmp_path):
    clock = FakeClock()
    outer_layer = Layer("outer", "m", "outer")
    inner_layer = Layer("inner", "m", "inner")
    leaf_layer = Layer("leaf", "m", "leaf", aggregate=True)
    tracer = Tracer(layers=(outer_layer, inner_layer, leaf_layer),
                    clock=clock)

    leaf = tracer.wrap(leaf_layer, lambda: clock.advance(0.5))

    def inner_body():
        clock.advance(2.0)
        leaf()

    inner = tracer.wrap(inner_layer, inner_body)

    def outer_body():
        clock.advance(1.0)
        inner()
        clock.advance(3.0)
        inner()

    tracer.wrap(outer_layer, outer_body)()

    assert tracer.calls == {"outer": 1, "inner": 2, "leaf": 2}
    assert tracer.self_s == {"outer": 4.0, "inner": 4.0, "leaf": 1.0}
    # Self times partition the outermost span exactly.
    assert sum(tracer.self_s.values()) == 9.0
    # Aggregated layers record no span; others name their parent.
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    assert tracer.spans[0][1:3] == [0.0, 9.0]

    path = tmp_path / "trace.json"
    write_trace(path, tracer.spans)
    events = json.loads(path.read_text())["traceEvents"]
    assert [(e["name"], e["ph"], e["args"]["parent"]) for e in events] == [
        ("outer", "X", -1), ("inner", "X", 0), ("inner", "X", 0)]
    assert [(e["ts"], e["dur"]) for e in events] == [
        (0.0, 9e6), (1e6, 2.5e6), (6.5e6, 2.5e6)]


def test_self_time_survives_exceptions_and_recursion():
    clock = FakeClock()
    layer = Layer("rec", "m", "rec")
    tracer = Tracer(layers=(layer,), clock=clock)

    def body(depth):
        clock.advance(1.0)
        if depth:
            wrapped(depth - 1)
        else:
            raise KeyError("bottom")

    wrapped = tracer.wrap(layer, body)
    with pytest.raises(KeyError):
        wrapped(2)
    assert tracer.calls == {"rec": 3}
    assert tracer.self_s == {"rec": 3.0}
    assert tracer._stack == []


def test_repeat_share_counts_exact_input_repeats():
    layer = Layer("parse", "m", "f",
                  key=lambda tracer, args, kwargs: args[0])
    tracer = Tracer(layers=(layer,))
    wrapped = tracer.wrap(layer, lambda text: len(text))
    for text in ("a", "b", "a", "a"):
        wrapped(text)
    assert tracer.repeats["parse"] / tracer.calls["parse"] == 0.5


@pytest.mark.parametrize("a, b, x, expected", [
    (1.0, 1.0, 0.3, 0.3),
    (4.0, 1.0, 0.5, 0.5 ** 4),
    (1.0, 3.0, 0.2, 1.0 - 0.8 ** 3),
    (639.0, 10.0, 1.0, 1.0),
])
def test_beta_cdf_matches_closed_forms(a, b, x, expected):
    assert beta_cdf(x, a, b) == pytest.approx(expected, rel=1e-12)


def test_quantile_is_a_smoothed_order_statistic():
    samples = [float(v) for v in range(101)][::-1]  # order must not matter
    assert quantile(samples, 0.5) == pytest.approx(50.0)
    assert quantile([7.0] * 30, 0.9) == pytest.approx(7.0)
    # A gap between two clusters moves the estimate smoothly instead of
    # jumping from one cluster to the other.
    gapped = [1.0] * 50 + [2.0] * 51
    assert 1.0 < quantile(gapped, 0.5) < 2.0


@pytest.mark.parametrize("n", [11, 100, 230, 648])
def test_tail_keeps_ten_samples_beyond(n):
    samples = [float(v) for v in range(n)]
    value, percentile = tail(samples)
    assert percentile == pytest.approx(100.0 * (n - 10) / n)
    # The estimate sits at the rank with ten samples beyond it.
    assert n - 14 < value < n - 7


def test_tail_rejects_short_runs():
    with pytest.raises(ValueError):
        tail(list(range(10)))


def _entry_points():
    import importlib

    found = []
    for layer in LAYERS:
        module = importlib.import_module(layer.module)
        if "." in layer.target:
            cls_name, attr = layer.target.split(".")
            owner = getattr(module, cls_name)
            found.append((owner, attr, owner.__dict__[attr]))
        else:
            found.append((module, layer.target,
                          getattr(module, layer.target)))
    return found


def _tiny_uvm_run():
    from repro.bench.registry import get_module, make_hr_sequence
    from repro.uvm.test import run_uvm_test

    bench = get_module("adder_8bit")
    return run_uvm_test(bench.source, make_hr_sequence(bench), bench.protocol,
                        bench.model(), bench.compare_signals, top=bench.top)


def test_uninstall_restores_every_entry_point():
    before = _entry_points()
    # ``repro.sim`` re-exports functions under their submodules' names,
    # so reach the modules through ``sys.modules``.
    backend = sys.modules["repro.sim.backend"]
    elaborate = sys.modules["repro.sim.elaborate"].elaborate
    assert backend.elaborate is elaborate

    tracer = Tracer()
    tracer.install()
    try:
        assert backend.elaborate is not elaborate
        traced = _tiny_uvm_run()
    finally:
        tracer.uninstall()

    assert tracer.calls["uvm.run"] == 1
    assert tracer.calls["sim.elaborate"] == 1
    assert tracer.calls["uvm.drive"] > 0
    assert tracer.counters["uvm.run.sim_cycles"] > 0
    for owner, attr, original in before:
        current = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        assert current is original, f"{owner}.{attr} still wrapped"
    assert backend.elaborate is elaborate

    # The untraced run executes unpatched code: the tracer sees nothing,
    # and the verdict is the traced one.
    calls = dict(tracer.calls)
    untraced = _tiny_uvm_run()
    assert tracer.calls == calls
    assert (untraced.pass_rate, untraced.checked) == (traced.pass_rate,
                                                     traced.checked)


def test_repair_seed_reaches_dataset_and_every_driver(monkeypatch):
    from repro.errgen import generator
    from repro.experiments import fig5, fig6, fig7, table2, table3

    workload = workloads.WORKLOADS["repair-interp"]
    parts = workload.parts(7, 2 * workloads.REPAIR_SECONDS_PER_CAMPAIGN)
    assert parts == [{"dataset_seed": 14}, {"dataset_seed": 15}]
    assert workload.parts(0, 1) == [{"dataset_seed": 0}]

    seen = []
    monkeypatch.setattr(generator, "generate_dataset",
                        lambda **kw: seen.append(("dataset", kw["seed"])))
    for driver in (fig5, fig6, table2, table3, fig7):
        monkeypatch.setattr(
            driver, "run",
            lambda _name=driver.__name__, **kw: seen.append(
                (_name, kw["seed"], kw["jobs"], kw["backend"])))
    workload.run(parts[1], "unused", lambda start: None)
    assert seen[0] == ("dataset", 15)
    assert [entry[1:] for entry in seen[1:]] == [(15, 1, "interp")] * 5


def _soak(name, seed, monkeypatch, stimulus_seeds):
    from repro.bench import registry

    monkeypatch.undo()
    make = registry.make_fr_sequence

    def recording(bench, seed):
        stimulus_seeds.append(seed)
        return make(bench, seed=seed)

    monkeypatch.setattr(registry, "all_modules",
                        lambda: [registry.get_module("adder_8bit")])
    monkeypatch.setattr(registry, "make_fr_sequence", recording)
    workload = workloads.WORKLOADS[name]
    parts = workload.parts(seed, 2 * workloads.SOAK_SECONDS_PER_BLOCK)
    return [workload.run(part, "unused", lambda start: None)
            for part in parts]


def test_soak_seed_sets_stimulus_base_and_lanes_match(monkeypatch):
    scalar_seeds, lane_seeds, other_seeds = [], [], []
    scalar = _soak("verify-soak", 3, monkeypatch, scalar_seeds)
    lanes = _soak("verify-soak-lanes", 3, monkeypatch, lane_seeds)
    _soak("verify-soak", 4, monkeypatch, other_seeds)

    base = workloads.SOAK_SEED_BASE + workloads.SOAK_SEED_STRIDE * 3
    assert scalar_seeds == lane_seeds
    assert sorted(scalar_seeds) == list(range(base, base + 16))
    assert not set(other_seeds) & set(scalar_seeds)
    assert len(scalar) == len(lanes) == 2  # two parts of one block each
    for part in scalar + lanes:
        assert part.problems == []
        assert part.passed == part.judged == 8
    assert [len(p.latencies) for p in scalar + lanes] == [8, 8, 1, 1]

    def outputs(run):
        return [o for part in run for o in part.outputs]

    assert workloads.digest(outputs(scalar)) == workloads.digest(
        outputs(lanes))
    assert sum(p.sim_cycles for p in scalar) == sum(
        p.sim_cycles for p in lanes) > 0


def test_state_flags_changed_counters_and_outputs(tmp_path):
    state = State(tmp_path, "code")
    args = SimpleNamespace(workload="repair-compiled", seed=0, seconds=15)
    assert state.check_counters(args, {"items": 230}, "trace0") == []
    assert state.check_counters(args, {"items": 230}, "trace0") == []
    assert state.check_counters(args, {"items": 231}, "trace0")
    traced = {"items": 230, "llm.calls": 9}
    assert state.check_counters(args, traced, "trace1") == []
    assert state.check_counters(args, {**traced, "llm.calls": 8}, "trace1")
    # Tracing must not change the untraced counters.
    assert state.check_counters(args, {**traced, "items": 229}, "trace1")

    assert state.check_outputs(args, "repair", "d1") == []
    interp = SimpleNamespace(**{**vars(args), "workload": "repair-interp"})
    assert state.check_outputs(interp, "repair", "d2")
    # Another code version is never compared against.
    assert State(tmp_path, "other").check_outputs(interp, "repair",
                                                  "d2") == []


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "repair-compiled", "--seed", "0", "--seconds", "15",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""
    assert "no program sources" in completed.stderr
