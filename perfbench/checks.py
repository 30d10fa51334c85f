"""Checks that span runs: deterministic counters and output digests.

Every run stores what it measured under ``.perfbench-out/state/``,
keyed by a fingerprint of the program and benchmark sources, and
compares with what an earlier run of the same code stored:

- the work counters of a workload and seed must repeat exactly, run
  after run; a traced run must also agree with the untraced counters
  (tracing is a pure observer);
- the output digest must be identical for every workload of a family
  at one seed: ``repair-compiled`` equals ``repair-interp`` (backend
  invariance) and ``verify-soak-lanes`` equals ``verify-soak`` (lane
  packing is bit-identical per seed).

A changed source tree gets a new fingerprint, so earlier runs of other
code are never compared against.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path


def fingerprint(root):
    """Content hash of the program (``src/``) and the benchmark."""
    root = Path(root)
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class State:
    def __init__(self, directory, code):
        self.directory = Path(directory) / code
        self.directory.mkdir(parents=True, exist_ok=True)

    def _load(self, name):
        try:
            with open(self.directory / name) as handle:
                return json.load(handle)
        except FileNotFoundError:
            return {}

    def _store(self, name, value):
        fd, tmp = tempfile.mkstemp(dir=self.directory)
        with os.fdopen(fd, "w") as handle:
            json.dump(value, handle, sort_keys=True)
        os.replace(tmp, self.directory / name)

    def check_counters(self, args, counters, mode, scope="run"):
        """Compare ``counters`` with earlier runs of this workload, seed,
        length and ``scope`` (the whole run, or the one part a traced
        run measures), in either ``mode``; returns the list of
        problems."""
        name = (f"counters-{args.workload}-{args.seed}-{args.seconds}"
                f"-{scope}.json")
        stored = self._load(name)
        problems = []
        for other_mode, earlier in stored.items():
            for key, value in counters.items():
                if key in earlier and earlier[key] != value:
                    problems.append(
                        f"counter {key} is {value}, an earlier "
                        f"{other_mode} run counted {earlier[key]}")
        if mode not in stored:
            stored[mode] = counters
            self._store(name, stored)
        return problems

    def check_outputs(self, args, family, digest, scope="run"):
        """Compare the output digest with every workload of the same
        family that ran at this seed, length and scope."""
        name = f"outputs-{family}-{args.seed}-{args.seconds}-{scope}.json"
        stored = self._load(name)
        problems = [
            f"output digest differs from {workload}'s"
            for workload, earlier in sorted(stored.items())
            if earlier != digest
        ]
        if args.workload not in stored:
            stored[args.workload] = digest
            self._store(name, stored)
        return problems
