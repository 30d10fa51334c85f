"""Linter rule and template tests."""

import pytest

from repro.bench import all_modules
from repro.lint import (
    FIXABLE_WARNINGS,
    apply_warning_templates,
    lint_source,
)


def codes(source):
    return [d.code for d in lint_source(source).diagnostics]


class TestSyntaxDetection:
    def test_parse_error_reported(self):
        report = lint_source("module m(input a; endmodule")
        assert not report.parse_ok
        assert report.errors[0].code == "SYNTAX"

    def test_clean_module(self):
        report = lint_source(
            "module m(input a, output y);\nassign y = a;\nendmodule"
        )
        assert report.clean

    def test_verilator_style_format(self):
        report = lint_source("module m(input a; endmodule")
        assert report.format().startswith("%Error: dut.v:")


class TestRules:
    def test_undeclared_procedural_target_is_error(self):
        source = (
            "module m(input clk);\n"
            "always @(posedge clk) ghost <= 1'b1;\nendmodule"
        )
        assert "UNDECLARED" in codes(source)

    def test_implicit_wire_warning(self):
        source = (
            "module m(input a, output y);\nassign y = a & ghost;\nendmodule"
        )
        assert "IMPLICIT" in codes(source)

    def test_procedural_assign_to_wire(self):
        source = (
            "module m(input clk);\nwire w;\n"
            "always @(posedge clk) w <= 1'b1;\nendmodule"
        )
        assert "PROCASSWIRE" in codes(source)

    def test_continuous_assign_to_reg(self):
        source = "module m(input a);\nreg r;\nassign r = a;\nendmodule"
        assert "CONTASSREG" in codes(source)

    def test_combdly(self):
        source = (
            "module m(input a, output reg y);\n"
            "always @(*) y <= a;\nendmodule"
        )
        assert "COMBDLY" in codes(source)

    def test_blkseq(self):
        source = (
            "module m(input clk, input a, output reg y);\n"
            "always @(posedge clk) y = a;\nendmodule"
        )
        assert "BLKSEQ" in codes(source)

    def test_blkseq_ignores_loop_index(self):
        source = (
            "module m(input clk, output reg [3:0] y);\ninteger i;\n"
            "always @(posedge clk) begin\n"
            "for (i = 0; i < 4; i = i + 1) y[i] <= 1'b0;\nend\nendmodule"
        )
        assert "BLKSEQ" not in codes(source)

    def test_sensmiss(self):
        source = (
            "module m(input a, input b, output reg y);\n"
            "always @(a) y = a & b;\nendmodule"
        )
        assert "SENSMISS" in codes(source)

    def test_syncasync_missing_reset_edge(self):
        source = (
            "module m(input clk, input rst_n, output reg q);\n"
            "always @(posedge clk) begin\n"
            "if (!rst_n) q <= 1'b0; else q <= ~q;\nend\nendmodule"
        )
        assert "SYNCASYNC" in codes(source)

    def test_syncasync_not_fired_when_edge_present(self):
        source = (
            "module m(input clk, input rst_n, output reg q);\n"
            "always @(posedge clk or negedge rst_n) begin\n"
            "if (!rst_n) q <= 1'b0; else q <= ~q;\nend\nendmodule"
        )
        assert "SYNCASYNC" not in codes(source)

    def test_width_truncation(self):
        source = (
            "module m(input [8:0] a, output [3:0] y);\n"
            "assign y = a;\nendmodule"
        )
        assert "WIDTHTRUNC" in codes(source)

    def test_width_param_truncation(self):
        source = (
            "module m(input clk, output reg s);\n"
            "localparam BIG = 2'd2;\n"
            "always @(posedge clk) s <= BIG;\nendmodule"
        )
        assert "WIDTHTRUNC" in codes(source)

    def test_latch_inference(self):
        source = (
            "module m(input s, input a, output reg y);\n"
            "always @(*) begin\nif (s) y = a;\nend\nendmodule"
        )
        assert "LATCH" in codes(source)

    def test_no_latch_with_else(self):
        source = (
            "module m(input s, input a, output reg y);\n"
            "always @(*) begin\nif (s) y = a; else y = 1'b0;\nend\nendmodule"
        )
        assert "LATCH" not in codes(source)

    def test_multidriven(self):
        source = (
            "module m(input a, input b, output y);\n"
            "assign y = a;\nassign y = b;\nendmodule"
        )
        assert "MULTIDRIVEN" in codes(source)

    def test_case_incomplete(self):
        source = (
            "module m(input [1:0] s, output reg y);\n"
            "always @(*) begin\ncase (s) 2'd0: y = 1'b0;"
            " 2'd1: y = 1'b1; endcase\nend\nendmodule"
        )
        assert "CASEINCOMPLETE" in codes(source)

    def test_unused_input(self):
        source = (
            "module m(input a, input b, output y);\nassign y = a;\nendmodule"
        )
        assert "UNUSEDSIGNAL" in codes(source)

    def test_undriven_output(self):
        source = "module m(input a, output y);\nendmodule"
        assert "UNDRIVEN" in codes(source)

    def test_port_connect_unknown_port(self):
        source = (
            "module sub(input x, output y); assign y = x; endmodule\n"
            "module m(input a, output y);\nsub u(.nope(a), .y(y));\n"
            "endmodule"
        )
        assert "PORTCONNECT" in codes(source)

    def test_module_not_found(self):
        source = "module m(input a);\nghost u(.x(a));\nendmodule"
        assert "MODNOTFOUND" in codes(source)


class TestTemplates:
    def test_combdly_fix(self):
        source = (
            "module m(input a, output reg y);\n"
            "always @(*) y <= a;\nendmodule"
        )
        report = lint_source(source)
        fixed, n = apply_warning_templates(source, report.warnings)
        assert n == 1
        assert "COMBDLY" not in codes(fixed)

    def test_blkseq_fix(self):
        source = (
            "module m(input clk, input a, output reg y);\n"
            "always @(posedge clk) y = a;\nendmodule"
        )
        report = lint_source(source)
        fixed, n = apply_warning_templates(source, report.warnings)
        assert n == 1
        assert "BLKSEQ" not in codes(fixed)

    def test_sensmiss_fix_rewrites_to_star(self):
        source = (
            "module m(input a, input b, output reg y);\n"
            "always @(a) y = a & b;\nendmodule"
        )
        report = lint_source(source)
        fixed, n = apply_warning_templates(source, report.warnings)
        assert "@(*)" in fixed

    def test_syncasync_fix_adds_edge(self):
        source = (
            "module m(input clk, input rst_n, output reg q);\n"
            "always @(posedge clk) begin\n"
            "if (!rst_n) q <= 1'b0; else q <= ~q;\nend\nendmodule"
        )
        report = lint_source(source)
        fixed, n = apply_warning_templates(source, report.warnings)
        assert "negedge rst_n" in fixed
        assert "SYNCASYNC" not in codes(fixed)

    def test_combdly_fix_preserves_comparison(self):
        line_source = (
            "module m(input [3:0] a, output reg y);\n"
            "always @(*) if (a <= 4'd3) y <= 1'b1; else y <= 1'b0;\n"
            "endmodule"
        )
        report = lint_source(line_source)
        fixed, _ = apply_warning_templates(line_source, report.warnings)
        assert "a <= 4'd3" in fixed  # the comparison must survive

    def test_fix_rate_zero_for_unfixable(self):
        source = "module m(input a, output y);\nendmodule"  # UNDRIVEN
        report = lint_source(source)
        fixed, n = apply_warning_templates(source, report.warnings)
        assert n == 0
        assert fixed == source


class TestGoldenDesignsClean:
    @pytest.mark.parametrize("name", [b.name for b in all_modules()])
    def test_golden_has_no_errors_or_fixable_warnings(self, name):
        from repro.bench import get_module

        report = lint_source(get_module(name).source)
        assert not report.errors
        assert not report.warnings_with_code(*FIXABLE_WARNINGS)


class TestLintMemo:
    SOURCE = (
        "module m(input clk, input [7:0] a, output reg [3:0] y,\n"
        "         output reg z);\n"
        "always @(*) z <= a[0];\n"
        "always @(posedge clk) y <= a;\n"
        "endmodule"
    )

    def test_rule_subsets_get_their_own_reports(self):
        from repro.lint.linter import Linter, _lint

        width, full = Linter(enabled_rules=["WIDTH"]), Linter()
        reports = {}
        for linter in (width, full, width, full):
            report = linter.lint(self.SOURCE)
            assert report == _lint.__wrapped__(self.SOURCE,
                                               tuple(linter.rules))
            reports.setdefault(id(linter), report)
            assert report is reports[id(linter)]
        width_codes = {d.code for d in reports[id(width)].diagnostics}
        full_codes = {d.code for d in reports[id(full)].diagnostics}
        assert width_codes == {"WIDTHTRUNC"}
        assert {"WIDTHTRUNC", "COMBDLY"} <= full_codes

    def test_memo_holds_at_most_its_bound(self):
        from repro.lint.linter import LINT_MEMO_SIZE, _lint

        for index in range(LINT_MEMO_SIZE + 8):
            lint_source(f"module bound_{index}; endmodule")
            lint_source(f"module bound_{index}; endmodule", ["WIDTH"])
        info = _lint.cache_info()
        assert info.maxsize == LINT_MEMO_SIZE
        assert info.currsize <= LINT_MEMO_SIZE
