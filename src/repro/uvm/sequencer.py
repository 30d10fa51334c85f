"""The sequencer: arbitration between sequences and the driver."""


class Sequencer:
    """Feeds transactions from a sequence to the driver.

    In SystemVerilog UVM the sequencer arbitrates between competing
    sequences; here a single in-order stream suffices, but the component
    is kept so the agent wiring matches Fig. 3 and so tests can insert
    recording/filtering hooks.
    """

    def __init__(self, sequence):
        self.sequence = sequence
        self.issued = 0
        self._recorded = []

    def item_stream(self):
        """Yield transactions, recording each one issued and numbering
        it by its position in the stimulus (``txn_id``)."""
        for txn in self.sequence:
            txn.txn_id = self.issued
            self.issued += 1
            self._recorded.append(txn)
            yield txn

    @property
    def history(self):
        """All transactions issued so far (for replay/debug)."""
        return list(self._recorded)
