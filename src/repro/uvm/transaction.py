"""Sequence items (transactions)."""

import itertools

#: Not read by the program: transaction ids are stimulus positions (see
#: :class:`Transaction`).  ``perfbench/tracer.py`` still saves and
#: restores this counter around materializing a sequence; delete both
#: together.
_txn_counter = itertools.count()


class Transaction:
    """One stimulus item: a mapping of DUT input fields to values.

    ``hold_cycles`` lets a single transaction occupy several clock
    cycles (e.g. waiting for a divider's ``done``); the driver holds the
    inputs stable for that many cycles while the monitor samples each
    cycle.  ``meta`` carries free-form annotations (e.g. "reset burst").
    """

    __slots__ = ("fields", "txn_id", "hold_cycles", "meta")

    def __init__(self, fields=None, hold_cycles=1, meta=None):
        self.fields = dict(fields or {})
        self.txn_id = None
        self.hold_cycles = max(1, hold_cycles)
        self.meta = dict(meta or {})

    def __getitem__(self, key):
        return self.fields[key]

    def get(self, key, default=None):
        return self.fields.get(key, default)

    def __contains__(self, key):
        return key in self.fields

    def items(self):
        return self.fields.items()

    def copy(self):
        clone = Transaction(self.fields, self.hold_cycles, self.meta)
        return clone

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return f"Transaction#{self.txn_id}({inner})"
