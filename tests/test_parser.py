"""Parser unit tests."""

import pytest

from repro.hdl import ast
from repro.hdl.errors import HdlSyntaxError
from repro.hdl.parser import parse_based_number, parse_module, parse_source


class TestModuleStructure:
    def test_empty_module(self):
        module = parse_module("module m; endmodule")
        assert module.name == "m"
        assert module.ports == []

    def test_non_ansi_ports(self):
        module = parse_module(
            "module m(a, b); input a; output b; endmodule"
        )
        assert module.port_names() == ["a", "b"]

    def test_ansi_ports(self):
        module = parse_module(
            "module m(input [7:0] a, output reg b); endmodule"
        )
        assert module.port_names() == ["a", "b"]
        decl = module.find_decl("b")
        assert decl.kind == "reg"
        assert decl.direction == "output"

    def test_ansi_direction_inherited(self):
        module = parse_module("module m(input a, b, output c); endmodule")
        decls = {n: d for n, d in module.port_decls()}
        assert decls["b"].direction == "input"
        assert decls["c"].direction == "output"

    def test_missing_endmodule(self):
        with pytest.raises(HdlSyntaxError) as err:
            parse_module("module m(a); input a;")
        assert "endmodule" in str(err.value)

    def test_module_parameters(self):
        module = parse_module(
            "module m #(parameter WIDTH = 8)(input [WIDTH-1:0] a); endmodule"
        )
        params = [i for i in module.items if isinstance(i, ast.ParamDecl)]
        assert params[0].name == "WIDTH"

    def test_multiple_modules(self):
        source = parse_source(
            "module a; endmodule\nmodule b; endmodule"
        )
        assert [m.name for m in source.modules] == ["a", "b"]
        assert source.find_module("b").name == "b"

    def test_empty_source_rejected(self):
        with pytest.raises(HdlSyntaxError):
            parse_source("")


class TestDeclarations:
    def test_wire_with_range(self):
        module = parse_module("module m; wire [7:0] w; endmodule")
        decl = module.find_decl("w")
        assert decl.kind == "wire"
        assert decl.range is not None

    def test_multi_name_decl_merged(self):
        module = parse_module("module m; reg a, b, c; endmodule")
        decl = module.find_decl("b")
        assert set(decl.names) == {"a", "b", "c"}

    def test_memory_decl(self):
        module = parse_module("module m; reg [7:0] mem [0:15]; endmodule")
        decl = module.find_decl("mem")
        assert decl.array is not None

    def test_integer_decl(self):
        module = parse_module("module m; integer i; endmodule")
        assert module.find_decl("i").kind == "integer"

    def test_localparam_list(self):
        module = parse_module(
            "module m; localparam A = 2'd0, B = 2'd1; endmodule"
        )
        params = [i for i in module.items if isinstance(i, ast.ParamDecl)]
        assert [p.name for p in params] == ["A", "B"]
        assert all(p.local for p in params)

    def test_signed_decl(self):
        module = parse_module("module m; reg signed [7:0] s; endmodule")
        assert module.find_decl("s").signed


class TestStatements:
    def _always_body(self, body):
        module = parse_module(
            f"module m(input clk); reg r, a, b; integer i;\n"
            f"always @(posedge clk) {body}\nendmodule"
        )
        always = [i for i in module.items if isinstance(i, ast.Always)][0]
        return always.body

    def test_nonblocking_assign(self):
        stmt = self._always_body("r <= 1'b1;")
        assert isinstance(stmt, ast.Assign)
        assert not stmt.blocking

    def test_blocking_assign(self):
        stmt = self._always_body("r = 1'b1;")
        assert stmt.blocking

    def test_if_else(self):
        stmt = self._always_body("if (a) r <= 1; else r <= 0;")
        assert isinstance(stmt, ast.If)
        assert stmt.else_stmt is not None

    def test_case_with_default(self):
        stmt = self._always_body(
            "case (a) 1'b0: r <= 0; default: r <= 1; endcase"
        )
        assert isinstance(stmt, ast.Case)
        assert stmt.items[1].is_default

    def test_case_multiple_labels(self):
        stmt = self._always_body(
            "case (a) 1'b0, 1'b1: r <= 0; endcase"
        )
        assert len(stmt.items[0].labels) == 2

    def test_for_loop(self):
        stmt = self._always_body(
            "for (i = 0; i < 4; i = i + 1) r <= a;"
        )
        assert isinstance(stmt, ast.For)

    def test_named_block(self):
        stmt = self._always_body("begin : blk r <= 1; end")
        assert stmt.name == "blk"

    def test_missing_end_reports_block(self):
        with pytest.raises(HdlSyntaxError) as err:
            parse_module(
                "module m(input clk); reg r;\n"
                "always @(posedge clk) begin r <= 1;\nendmodule"
            )
        assert "end" in str(err.value)

    def test_system_task(self):
        stmt = self._always_body('$display("x", a);')
        assert isinstance(stmt, ast.SystemTaskCall)


class TestExpressions:
    def _expr(self, text):
        module = parse_module(
            f"module m; wire a, b, c; wire [7:0] v;\n"
            f"assign a = {text};\nendmodule"
        )
        assign = [
            i for i in module.items if isinstance(i, ast.ContinuousAssign)
        ][-1]
        return assign.value

    def test_precedence_mul_over_add(self):
        expr = self._expr("a + b * c")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_shift_below_add(self):
        expr = self._expr("a + b << c")
        assert expr.op == "<<"

    def test_ternary(self):
        expr = self._expr("a ? b : c")
        assert isinstance(expr, ast.Ternary)

    def test_nested_ternary_right_assoc(self):
        expr = self._expr("a ? b : c ? a : b")
        assert isinstance(expr.otherwise, ast.Ternary)

    def test_concat(self):
        expr = self._expr("{a, b, c}")
        assert isinstance(expr, ast.Concat)
        assert len(expr.parts) == 3

    def test_replication(self):
        expr = self._expr("{4{a}}")
        assert isinstance(expr, ast.Repeat)

    def test_bit_select(self):
        expr = self._expr("v[3]")
        assert isinstance(expr, ast.Index)

    def test_part_select(self):
        expr = self._expr("v[7:4]")
        assert isinstance(expr, ast.PartSelect)
        assert expr.mode == ":"

    def test_indexed_part_select(self):
        expr = self._expr("v[a +: 4]")
        assert expr.mode == "+:"

    def test_unary_reduction(self):
        expr = self._expr("&v")
        assert isinstance(expr, ast.Unary)
        assert expr.op == "&"

    def test_system_function(self):
        expr = self._expr("$signed(v)")
        assert isinstance(expr, ast.FunctionCall)
        assert expr.name == "$signed"

    def test_parenthesized(self):
        expr = self._expr("(a + b) * c")
        assert expr.op == "*"
        assert expr.left.op == "+"


class TestInstances:
    def test_named_connections(self):
        module = parse_module(
            "module m(input a, output b);\n"
            "sub u1(.x(a), .y(b));\nendmodule"
        )
        inst = [i for i in module.items if isinstance(i, ast.Instance)][0]
        assert inst.module_name == "sub"
        assert inst.connections[0].name == "x"

    def test_positional_connections(self):
        module = parse_module("module m(input a); sub u1(a, a); endmodule")
        inst = [i for i in module.items if isinstance(i, ast.Instance)][0]
        assert inst.connections[0].name == ""

    def test_parameter_override(self):
        module = parse_module(
            "module m; sub #(.W(4)) u1(); endmodule"
        )
        inst = [i for i in module.items if isinstance(i, ast.Instance)][0]
        assert inst.param_overrides[0].name == "W"

    def test_unconnected_port(self):
        module = parse_module("module m; sub u1(.x()); endmodule")
        inst = [i for i in module.items if isinstance(i, ast.Instance)][0]
        assert inst.connections[0].expr is None


class TestBasedNumbers:
    def test_hex_value(self):
        num = parse_based_number("8'hFF")
        assert num.value == 255
        assert num.width == 8

    def test_x_digits(self):
        num = parse_based_number("4'b1x0x")
        assert num.xmask == 0b0101
        assert num.value == 0b1000

    def test_signed_marker(self):
        assert parse_based_number("8'sd5").signed

    def test_decimal(self):
        assert parse_based_number("10'd1023").value == 1023

    def test_truncation_to_width(self):
        assert parse_based_number("4'hFF").value == 15

    def test_question_mark_is_wildcard(self):
        num = parse_based_number("4'b1?1?")
        assert num.xmask == 0b0101


class TestErrorMessages:
    def test_expected_semicolon(self):
        with pytest.raises(HdlSyntaxError) as err:
            parse_module("module m; wire a\nendmodule")
        assert "';'" in str(err.value) or "expected" in str(err.value)

    def test_location_accuracy(self):
        with pytest.raises(HdlSyntaxError) as err:
            parse_module("module m;\nwire a\nendmodule")
        assert err.value.location.line == 3  # error detected at endmodule


class TestParseMemo:
    """``parse_source`` shares one tree per distinct text."""

    def test_consumers_leave_a_memoized_tree_unchanged(self):
        from repro.bench import all_modules, get_module, make_hr_sequence
        from repro.forensics.diverge import fanin_cone
        from repro.lint.linter import Linter
        from repro.locate.dfg import build_dfg
        from repro.locate.engine import LocalizationEngine
        from repro.sim.elaborate import elaborate
        from repro.uvm import run_uvm_test

        bench = get_module("adder_8bit")
        buggy = bench.source.replace("a + b + cin", "a - b + cin")
        tree = parse_source(buggy)
        before = repr(tree)
        Linter().lint(buggy)
        elaborate(buggy)
        elaborate(tree, top=bench.top)
        build_dfg(tree.modules[-1])
        result = run_uvm_test(buggy, make_hr_sequence(bench), bench.protocol,
                              bench.model(), bench.compare_signals)
        assert result.mismatches
        LocalizationEngine().analyze(buggy, result, iteration=5)
        fanin_cone(buggy, "sum")
        assert parse_source(buggy) is tree
        assert repr(tree) == before

        for golden in all_modules():
            tree = parse_source(golden.source)
            before = repr(tree)
            Linter().lint(golden.source)
            elaborate(golden.source, top=golden.top)
            for module in tree.modules:
                build_dfg(module)
            fanin_cone(golden.source, golden.compare_signals[0],
                       top=golden.top)
            assert parse_source(golden.source) is tree
            assert repr(tree) == before, golden.name

    def test_repeated_syntax_error_is_a_fresh_exception(self):
        text = "module m;\nassign y = ;\nendmodule"
        raised = []
        for _ in range(2):
            with pytest.raises(HdlSyntaxError) as err:
                parse_source(text)
            raised.append(err.value)
        first, second = raised
        assert first is not second
        assert (first.message, first.location) == \
            (second.message, second.location)
        assert first.location.line == 2

    def test_memo_holds_at_most_its_bound(self):
        from repro.hdl.parser import PARSE_MEMO_SIZE, _parse_or_error

        for index in range(PARSE_MEMO_SIZE + 8):
            parse_source(f"module bound_{index}; endmodule")
            with pytest.raises(HdlSyntaxError):
                parse_source(f"module bound_{index}; wire endmodule")
        info = _parse_or_error.cache_info()
        assert info.maxsize == PARSE_MEMO_SIZE
        assert info.currsize <= PARSE_MEMO_SIZE
