"""Lexer unit tests."""

import hashlib
import json
import os

import pytest

from repro.hdl.errors import HdlSyntaxError
from repro.hdl.lexer import Token, TokenKind, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]  # drop EOF


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_identifier(self):
        tokens = tokenize("foo_bar")
        assert tokens[0].kind == TokenKind.IDENT
        assert tokens[0].text == "foo_bar"

    def test_keyword(self):
        tokens = tokenize("module")
        assert tokens[0].kind == TokenKind.KEYWORD

    def test_eof_terminates(self):
        assert tokenize("")[-1].kind == TokenKind.EOF

    def test_decimal_number(self):
        tokens = tokenize("42")
        assert tokens[0].kind == TokenKind.NUMBER
        assert tokens[0].text == "42"

    def test_number_with_underscores(self):
        assert tokenize("1_000")[0].text == "1_000"

    def test_based_number_hex(self):
        tokens = tokenize("8'hFF")
        assert tokens[0].kind == TokenKind.BASED_NUMBER
        assert tokens[0].text == "8'hFF"

    def test_based_number_binary_with_x(self):
        tokens = tokenize("4'bxx01")
        assert tokens[0].kind == TokenKind.BASED_NUMBER

    def test_unsized_based_number(self):
        tokens = tokenize("'b101")
        assert tokens[0].kind == TokenKind.BASED_NUMBER

    def test_sized_number_with_space(self):
        tokens = tokenize("8 'hFF")
        assert tokens[0].kind == TokenKind.BASED_NUMBER
        assert tokens[0].text == "8'hFF"

    def test_system_identifier(self):
        tokens = tokenize("$display")
        assert tokens[0].kind == TokenKind.SYSTEM_IDENT
        assert tokens[0].text == "$display"

    def test_string_literal(self):
        tokens = tokenize('"hello world"')
        assert tokens[0].kind == TokenKind.STRING
        assert tokens[0].text == "hello world"


class TestOperators:
    @pytest.mark.parametrize("op", [
        "<=", ">=", "==", "!=", "===", "!==", "&&", "||", "<<", ">>",
        "<<<", ">>>", "+:", "-:", "**", "~&", "~|", "~^",
    ])
    def test_multichar_operator(self, op):
        tokens = tokenize(op)
        assert tokens[0].kind == TokenKind.PUNCT
        assert tokens[0].text == op

    def test_maximal_munch(self):
        # "<<<" must lex as one token, not "<<" + "<".
        assert texts("a <<< b") == ["a", "<<<", "b"]

    def test_le_vs_lt(self):
        assert texts("a <= b < c") == ["a", "<=", "b", "<", "c"]

    def test_single_punct(self):
        assert texts("(a)") == ["(", "a", ")"]


class TestTrivia:
    def test_line_comment_skipped(self):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(HdlSyntaxError):
            tokenize("/* never closed")

    def test_compiler_directive_skipped(self):
        assert texts("`timescale 1ns/1ps\nmodule") == ["module"]


class TestLocations:
    def test_line_tracking(self):
        tokens = tokenize("a\nb\nc")
        assert [t.location.line for t in tokens[:-1]] == [1, 2, 3]

    def test_column_tracking(self):
        tokens = tokenize("ab cd")
        assert tokens[0].location.column == 1
        assert tokens[1].location.column == 4

    def test_error_carries_location(self):
        with pytest.raises(HdlSyntaxError) as err:
            tokenize("a\n  \x01")
        assert err.value.location.line == 2


class TestErrors:
    def test_invalid_base(self):
        with pytest.raises(HdlSyntaxError):
            tokenize("8'q12")

    def test_number_missing_digits(self):
        with pytest.raises(HdlSyntaxError):
            tokenize("8'h ;")

    def test_bare_dollar(self):
        with pytest.raises(HdlSyntaxError):
            tokenize("$ ")

    def test_unterminated_string(self):
        with pytest.raises(HdlSyntaxError):
            tokenize('"unclosed')


def test_token_helpers():
    token = tokenize("module")[0]
    assert token.is_keyword("module")
    assert not token.is_punct("module")
    punct = tokenize(";")[0]
    assert punct.is_punct(";")


# Diagnostics pinned from the hand-written character-at-a-time lexer this
# one replaced: message, line, column.  The first case of each group hits
# one error branch; the rest are the places a regex lexer most easily
# drifts (trivia inside based literals, ``'`` at end of input).
ERROR_TABLE = [
    ("/* open", "unterminated block comment", 1, 1),
    ("a /* open\nb", "unterminated block comment", 1, 3),
    ("8'h /* open", "unterminated block comment", 1, 5),
    ("8 /* open", "unterminated block comment", 1, 3),
    ("8'q12", "invalid base specifier 'q' in number literal", 1, 1),
    ("8' hFF", "invalid base specifier ' ' in number literal", 1, 1),
    ("'sx", "invalid base specifier 'x' in number literal", 1, 1),
    ("8'h ;", "number literal is missing digits", 1, 1),
    ("'s", "number literal is missing digits", 1, 1),
    ("'", "number literal is missing digits", 1, 1),
    ("8'", "number literal is missing digits", 1, 1),
    ("8'h // ab", "number literal is missing digits", 1, 1),
    ("8'h /* a */ ; /* b */ 1", "number literal is missing digits", 1, 1),
    ('"unclosed', "unterminated string literal", 1, 1),
    ('"a\nb"', "unterminated string literal", 1, 1),
    ("$ ", "bare '$' is not a valid token", 1, 1),
    ("$", "bare '$' is not a valid token", 1, 1),
    ("a\n  \x01", "unexpected character '\\x01'", 2, 3),
    ("\x0c", "unexpected character '\\x0c'", 1, 1),
    ("\\", "unexpected character '\\\\'", 1, 1),
    # Identifiers and digits are ASCII (IEEE 1364): a non-ASCII character
    # outside comments and strings is unexpected at its own location.
    ("ⅷ", "unexpected character 'ⅷ'", 1, 1),
    ("x = ²;", "unexpected character '²'", 1, 5),
    ("abé", "unexpected character 'é'", 1, 3),
    ("8'hé", "unexpected character 'é'", 1, 4),
    ("8'h é", "unexpected character 'é'", 1, 5),
    ("$é", "unexpected character 'é'", 1, 2),
    ("'é", "unexpected character 'é'", 1, 2),
]


@pytest.mark.parametrize("source,message,line,column", ERROR_TABLE)
def test_error_table(source, message, line, column):
    with pytest.raises(HdlSyntaxError) as err:
        tokenize(source)
    assert (err.value.message, err.value.location.line,
            err.value.location.column) == (message, line, column)


@pytest.mark.parametrize("source,expected", [
    ("8 /* c */ 'h /* d */ FF", ["8'hFF"]),
    ("8'h // c\n FF", ["8'hFF"]),
    ("8 `define X\n 'h1", ["8'h1"]),
    ("// é\nx", ["x"]),
    ("/* é */ x", ["x"]),
    ("`define é\nx", ["x"]),
    ('"é"', ["é"]),
])
def test_trivia_and_non_ascii_outside_tokens(source, expected):
    assert texts(source) == expected


def _stream_digest(sources):
    digest = hashlib.sha256()
    for source in sources:
        rows = [(t.kind.value, t.text, t.location.line, t.location.column)
                for t in tokenize(source)]
        digest.update(repr(rows).encode())
    return digest.hexdigest()


def test_bench_token_streams_unchanged():
    from repro.bench import all_modules

    modules = sorted(all_modules(), key=lambda m: m.name)
    assert len(modules) == 27
    assert _stream_digest(m.source for m in modules) == (
        "767c1f1e977943f556fa9250ecbaf46605890e2f3afefc31d05ef5c9c74b0a33")


#: The corpus entries whose token streams are pinned below.
PINNED_CORPUS = (
    "lane-parity-3b8b30b72c8f", "lane-parity-8acdc330a893",
    "lane-parity-8ecbcc7ee5e4", "lane-parity-b2de8e54e83f",
    "reparse-error-08cfd35aecd8", "run-error-MemoryError-eb61061aad80",
    "xcheck-divergence-03bce1264fed", "xcheck-divergence-857020268ec9",
    "xcheck-divergence-8ad37bad6e3f", "xcheck-divergence-fe9eb6bf0f93",
)


def test_corpus_token_streams_unchanged():
    corpus = os.path.join(os.path.dirname(__file__), "corpus")
    sources = []
    for name in PINNED_CORPUS:
        with open(os.path.join(corpus, name + ".json")) as handle:
            sources.append(json.load(handle)["source"])
    assert _stream_digest(sources) == (
        "e992e1fb9cf102f0a2e1a7987d35fc237c760e261f7c18803c532e8187da7b93")
