"""Tokenizer for the supported Verilog subset.

One master regular expression (:data:`_MASTER`) splits the text into
tokens and trivia in a single left-to-right scan; token locations come
from a table of line-start offsets (``bisect``), so scanning never
counts columns.  Diagnostics carry the exact ``line:column`` of the
offending character — the same information Verilator feeds into its
error log, which the UVLLM pre-processing stage depends on.

As in IEEE 1364, identifiers and digits are ASCII.  A non-ASCII
character outside comments, string literals and directive lines is never
part of a token: it raises ``unexpected character`` at its own location.
"""

import enum
import re
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.hdl.errors import HdlSyntaxError, SourceLocation


class TokenKind(enum.Enum):
    """Lexical categories produced by :class:`Lexer`."""

    IDENT = "ident"
    KEYWORD = "keyword"
    NUMBER = "number"          # plain decimal: 42
    BASED_NUMBER = "based"     # sized/based: 8'hFF, 'b101, 4'bxx01
    STRING = "string"
    PUNCT = "punct"
    SYSTEM_IDENT = "system"    # $display, $signed ...
    EOF = "eof"


KEYWORDS = frozenset(
    """
    module endmodule input output inout wire reg integer real parameter
    localparam assign always initial begin end if else case casez casex
    endcase default for while repeat forever posedge negedge or and not
    function endfunction task endtask generate endgenerate genvar
    signed unsigned
    """.split()
)

# Multi-character operators, longest first so maximal munch works.
MULTI_PUNCT = [
    "<<<", ">>>", "===", "!==",
    "<=", ">=", "==", "!=", "&&", "||", "<<", ">>",
    "+:", "-:", "**", "~&", "~|", "~^", "^~",
]

SINGLE_PUNCT = set("()[]{};:,.#?@=+-*/%<>!&|^~")

# Whitespace, comments and compiler directives (a backtick skips the rest
# of its line).  Each alternative matches one whole construct in exactly
# one way, so the trivia run before a token is always the longest one —
# a based literal may not borrow its digits from inside a comment.
_TRIVIA = (
    r"(?:[ \t\r\n]|//[^\n]*(?![^\n])|/\*(?:[^*]|\*+[^*/])*\*+/"
    r"|`[^\n]*(?![^\n]))"
)
_GAP = re.compile(_TRIVIA + "*")
_NEWLINE = re.compile("\n")

_MASTER = re.compile(
    rf"(?P<skip>{_TRIVIA}+)"
    r"|(?P<open>/\*)"
    rf"|(?P<based>(?:(?P<size>[0-9][0-9_]*){_GAP.pattern})?"
    rf"'(?P<sign>[sS]?)(?P<base>[bBoOdDhH]){_GAP.pattern}"
    r"(?P<digits>[A-Za-z0-9_?]+))"
    rf"|(?P<badsized>[0-9][0-9_]*){_GAP.pattern}'"
    r"|(?P<number>[0-9][0-9_]*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_$]*)"
    r"|(?P<system>\$[A-Za-z0-9_]*)"
    r'|(?P<string>"[^"\n]*")'
    r"|(?P<punct>"
    + "|".join(re.escape(op) for op in MULTI_PUNCT)
    + "|[" + re.escape("".join(sorted(SINGLE_PUNCT))) + "])"
    r"|(?P<quote>')"
    r'|(?P<badstring>")'
)


@dataclass
class Token:
    """A single lexical token with its source location."""

    kind: TokenKind
    text: str
    location: SourceLocation = field(default_factory=SourceLocation)

    def is_punct(self, text):
        return self.kind == TokenKind.PUNCT and self.text == text

    def is_keyword(self, text):
        return self.kind == TokenKind.KEYWORD and self.text == text

    def __repr__(self):
        return f"Token({self.kind.name}, {self.text!r}, {self.location})"


class Lexer:
    """Converts Verilog source text into a token stream.

    Comments (``//`` and ``/* */``) and compiler directives on their own
    lines (backtick macros) are skipped; everything else must tokenize or
    a :class:`HdlSyntaxError` is raised with the location of the bad
    character.
    """

    def __init__(self, source):
        self.source = source
        #: Offset of the first character of each line.
        self._line_starts = [0]
        self._line_starts.extend(m.end() for m in _NEWLINE.finditer(source))

    def _location(self, pos):
        line = bisect_right(self._line_starts, pos)
        return SourceLocation(line, pos - self._line_starts[line - 1] + 1)

    def _error(self, message, pos):
        return HdlSyntaxError(message, self._location(pos))

    def _reject(self, pos, message, start):
        """Raise ``message`` for the token at ``start``, which failed on
        the character at ``pos`` — unless that character is non-ASCII,
        which is reported as unexpected at its own location."""
        ch = self.source[pos:pos + 1]
        if not ch.isascii():
            raise self._error(f"unexpected character {ch!r}", pos)
        raise self._error(message, start)

    def _bad_based(self, quote, start):
        """Raise the diagnostic for the malformed based literal whose
        apostrophe is at ``quote`` (the literal starts at ``start``)."""
        pos = quote + 1
        if self.source[pos:pos + 1] in ("s", "S"):
            pos += 1
        base = self.source[pos:pos + 1]
        if base and base not in "bBoOdDhH":
            self._reject(
                pos, f"invalid base specifier {base!r} in number literal",
                start,
            )
        pos = _GAP.match(self.source, pos + len(base)).end()
        if self.source.startswith("/*", pos):
            raise self._error("unterminated block comment", pos)
        self._reject(pos, "number literal is missing digits", start)

    def tokens(self):
        """Yield tokens until (and including) EOF."""
        source = self.source
        pos = 0
        # ``finditer`` searches past a character no alternative matches;
        # a match that does not start where the last one ended marks it.
        for match in _MASTER.finditer(source):
            start = match.start()
            if start != pos:
                break
            pos = match.end()
            group = match.lastgroup
            if group == "skip":
                continue
            loc = self._location(start)
            if group == "ident":
                text = match.group()
                kind = TokenKind.KEYWORD if text in KEYWORDS \
                    else TokenKind.IDENT
                yield Token(kind, text, loc)
            elif group == "punct":
                yield Token(TokenKind.PUNCT, match.group(), loc)
            elif group == "number":
                yield Token(TokenKind.NUMBER, match.group(), loc)
            elif group == "based":
                size, sign, base, digits = match.group(
                    "size", "sign", "base", "digits")
                yield Token(TokenKind.BASED_NUMBER,
                            f"{size or ''}'{sign}{base}{digits}", loc)
            elif group == "system":
                if pos - start == 1:
                    self._reject(pos, "bare '$' is not a valid token", start)
                yield Token(TokenKind.SYSTEM_IDENT, match.group(), loc)
            elif group == "string":
                yield Token(TokenKind.STRING, source[start + 1:pos - 1], loc)
            elif group == "badsized":
                self._bad_based(pos - 1, start)
            elif group == "quote":
                self._bad_based(start, start)
            elif group == "open":
                raise HdlSyntaxError("unterminated block comment", loc)
            else:  # badstring
                raise HdlSyntaxError("unterminated string literal", loc)
        if pos < len(source):
            raise self._error(f"unexpected character {source[pos]!r}", pos)
        yield Token(TokenKind.EOF, "", self._location(pos))


def tokenize(source):
    """Tokenize ``source`` into a list of tokens ending with EOF."""
    return list(Lexer(source).tokens())
