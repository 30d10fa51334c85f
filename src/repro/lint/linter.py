"""The linter: syntax checking plus a rule engine for semantic warnings.

Diagnostics mimic Verilator's log format::

    %Error: dut.v:12:9: expected ';' but found 'endmodule'
    %Warning-COMBDLY: dut.v:8:14: non-blocking assignment in combinational block

so that prompt-construction code (and tests) can pattern-match the same
way UVLLM's scripts match real Verilator output.
"""

import functools
from dataclasses import dataclass, field
from typing import List

from repro.hdl.errors import HdlSyntaxError, SourceLocation
from repro.hdl.parser import parse_source
from repro.lint import rules


@dataclass
class Diagnostic:
    """One linter finding."""

    severity: str  # "error" | "warning"
    code: str
    message: str
    location: SourceLocation = field(default_factory=SourceLocation)
    hint: str = ""

    def format(self, filename="dut.v"):
        place = f"{filename}:{self.location.line}:{self.location.column}"
        if self.severity == "error":
            return f"%Error: {place}: {self.message}"
        return f"%Warning-{self.code}: {place}: {self.message}"


@dataclass
class LintReport:
    """All findings for one source text."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    parse_ok: bool = True

    @property
    def errors(self):
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self):
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def clean(self):
        return not self.diagnostics

    def format(self, filename="dut.v"):
        if not self.diagnostics:
            return "%Lint: clean"
        return "\n".join(d.format(filename) for d in self.diagnostics)

    def warnings_with_code(self, *codes):
        return [d for d in self.warnings if d.code in codes]


#: How many distinct ``(text, rules)`` pairs :meth:`Linter.lint`
#: remembers, like :data:`repro.hdl.parser.PARSE_MEMO_SIZE`.
LINT_MEMO_SIZE = 64


class Linter:
    """Runs the syntax check and all semantic rules.

    ``enabled_rules`` restricts which semantic rules run (by code); the
    default is everything in :data:`repro.lint.rules.ALL_RULES`.
    """

    def __init__(self, enabled_rules=None):
        self.rules = [
            rule for rule in rules.ALL_RULES
            if enabled_rules is None or rule.code in enabled_rules
        ]

    def lint(self, source):
        """Lint Verilog text and return a :class:`LintReport`.

        Reports are memoized per process by the text and the enabled
        rules, so a repeated call returns the same report object:
        treat it as read-only.  Every call opens a ``lint`` span whose
        ``memo`` attribute is ``"hit"`` or ``"miss"``.
        """
        from repro.obs import trace

        with trace.span("lint", cat="lint", chars=len(source)) as span:
            hits = _lint.cache_info().hits
            report = _lint(source, tuple(self.rules))
            span.set(memo="hit" if _lint.cache_info().hits > hits
                     else "miss")
            return report


@functools.lru_cache(maxsize=LINT_MEMO_SIZE)
def _lint(source, selected):
    """The report of the ``selected`` rules on ``source``."""
    report = LintReport()
    try:
        source_file = parse_source(source)
    except HdlSyntaxError as exc:
        report.parse_ok = False
        report.diagnostics.append(
            Diagnostic(
                severity="error",
                code="SYNTAX",
                message=exc.message,
                location=exc.location,
            )
        )
        return report

    for module in source_file.modules:
        context = rules.RuleContext(module, source_file)
        for rule in selected:
            for diagnostic in rule.check(context):
                report.diagnostics.append(diagnostic)
    report.diagnostics.sort(key=lambda d: (d.location.line, d.location.column))
    return report


def lint_source(source, enabled_rules=None):
    """Convenience wrapper: lint text, return the report."""
    return Linter(enabled_rules).lint(source)
