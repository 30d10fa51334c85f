"""Compatibility shim for the retired lane-packed UVM runner.

``perfbench/`` (the ``verify-soak-lanes`` workload and its tracer)
still calls :func:`run_uvm_test_lanes`; it stays until a later
benchmark change retires that workload.  Each "lane" is now one scalar
compiled-backend run, so results equal the scalar runs by
construction.
"""

from repro.uvm.test import run_uvm_test


def run_uvm_test_lanes(source, sequences, protocol, model_factory,
                       compare_signals, top=None):
    """Run one UVM test of ``source`` per sequence on the compiled
    backend (``model_factory`` builds a fresh reference model per
    run); returns ``(results, {"lanes": n, "packed": False})``."""
    results = [
        run_uvm_test(source, sequence, protocol, model_factory(),
                     compare_signals, top=top, backend="compiled")
        for sequence in sequences
    ]
    return results, {"lanes": len(results), "packed": False}
