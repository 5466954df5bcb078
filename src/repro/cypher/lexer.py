"""Tokenizer for the Cypher subset.

The lexer is deliberately simple: a single pass producing a flat token
list.  Keywords are recognised case-insensitively (as in openCypher) but
identifiers preserve their original case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import CypherSyntaxError

#: Keywords recognised by the parser.  Multi-word constructs (e.g. ``ORDER
#: BY``, ``IS NOT NULL``) are assembled by the parser from single-word
#: keyword tokens.
KEYWORDS = {
    "MATCH", "OPTIONAL", "WHERE", "WITH", "RETURN", "CREATE", "MERGE", "SET",
    "REMOVE", "DELETE", "DETACH", "UNWIND", "FOREACH", "AS", "AND", "OR",
    "XOR", "NOT", "IN", "IS", "NULL", "TRUE", "FALSE", "ORDER", "BY", "ASC",
    "ASCENDING", "DESC", "DESCENDING", "LIMIT", "SKIP", "DISTINCT", "EXISTS",
    "CASE", "WHEN", "THEN", "ELSE", "END", "CONTAINS", "STARTS", "ENDS",
    "ON", "COUNT", "UNION", "ALL", "CALL", "YIELD",
}


class TokenType(enum.Enum):
    """Lexical categories."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    PARAMETER = "parameter"
    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    A keyword's ``value`` is upper-cased; ``text`` keeps it as written, for
    when the keyword is used as a name (a label, type, key or variable).
    """

    type: TokenType
    value: str
    position: int
    line: int
    text: str = ""

    def is_keyword(self, *names: str) -> bool:
        """True when this token is one of the given keywords."""
        return self.type == TokenType.KEYWORD and self.value in names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.value}, {self.value!r})"


_OPERATORS = [
    "<=", ">=", "<>", "!=", "=~", "+=", "..",
    "=", "<", ">", "+", "-", "*", "/", "%", "^", "|",
]
_PUNCTUATION = set("()[]{},.:;")


class Lexer:
    """Converts query text into a list of :class:`Token`."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.line = 1

    def tokenize(self) -> list[Token]:
        """Return the full token list, ending with an EOF token."""
        tokens: list[Token] = []
        while True:
            self._skip_whitespace_and_comments()
            if self.pos >= len(self.text):
                break
            tokens.append(self._next_token())
        tokens.append(Token(TokenType.EOF, "", self.pos, self.line))
        return tokens

    # ------------------------------------------------------------------

    def _skip_whitespace_and_comments(self) -> None:
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch == "\n":
                self.line += 1
                self.pos += 1
            elif ch.isspace():
                self.pos += 1
            elif text.startswith("//", self.pos):
                end = text.find("\n", self.pos)
                self.pos = len(text) if end == -1 else end
            elif text.startswith("/*", self.pos):
                end = text.find("*/", self.pos + 2)
                if end == -1:
                    raise CypherSyntaxError("unterminated block comment", self.pos, self.line)
                self.line += text.count("\n", self.pos, end)
                self.pos = end + 2
            else:
                return

    def _next_token(self) -> Token:
        text = self.text
        start = self.pos
        ch = text[start]

        if ch in "'\"":
            return self._string(ch)
        if ch.isdigit():
            return self._number()
        if ch == "$":
            return self._parameter()
        if ch == "`":
            return self._backquoted_identifier()
        if ch.isalpha() or ch == "_":
            return self._identifier_or_keyword()

        for op in _OPERATORS:
            if text.startswith(op, start):
                # ``..`` only appears inside variable-length bounds; make
                # sure a float like ``1.5`` is not split as ``1`` ``.`` ``5``.
                self.pos += len(op)
                return Token(TokenType.OPERATOR, op, start, self.line)
        if ch in _PUNCTUATION:
            self.pos += 1
            return Token(TokenType.PUNCTUATION, ch, start, self.line)
        raise CypherSyntaxError(f"unexpected character {ch!r}", start, self.line)

    def _string(self, quote: str) -> Token:
        start = self.pos
        self.pos += 1
        chars: list[str] = []
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch == "\\" and self.pos + 1 < len(text):
                escaped = text[self.pos + 1]
                mapping = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", "'": "'", '"': '"'}
                chars.append(mapping.get(escaped, escaped))
                self.pos += 2
                continue
            if ch == quote:
                self.pos += 1
                return Token(TokenType.STRING, "".join(chars), start, self.line)
            if ch == "\n":
                self.line += 1
            chars.append(ch)
            self.pos += 1
        raise CypherSyntaxError("unterminated string literal", start, self.line)

    def _number(self) -> Token:
        start = self.pos
        text = self.text
        while self.pos < len(text) and text[self.pos].isdigit():
            self.pos += 1
        is_float = False
        # A dot starts a fractional part only when followed by a digit; this
        # keeps the ``1..3`` range syntax and ``n.prop`` access unambiguous.
        if (
            self.pos < len(text)
            and text[self.pos] == "."
            and self.pos + 1 < len(text)
            and text[self.pos + 1].isdigit()
        ):
            is_float = True
            self.pos += 1
            while self.pos < len(text) and text[self.pos].isdigit():
                self.pos += 1
        if self.pos < len(text) and text[self.pos] in "eE":
            lookahead = self.pos + 1
            if lookahead < len(text) and text[lookahead] in "+-":
                lookahead += 1
            if lookahead < len(text) and text[lookahead].isdigit():
                is_float = True
                self.pos = lookahead
                while self.pos < len(text) and text[self.pos].isdigit():
                    self.pos += 1
        value = text[start:self.pos]
        return Token(TokenType.FLOAT if is_float else TokenType.INTEGER, value, start, self.line)

    def _parameter(self) -> Token:
        start = self.pos
        self.pos += 1
        text = self.text
        name_start = self.pos
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self.pos += 1
        if self.pos == name_start:
            raise CypherSyntaxError("empty parameter name", start, self.line)
        return Token(TokenType.PARAMETER, text[name_start:self.pos], start, self.line)

    def _backquoted_identifier(self) -> Token:
        start = self.pos
        end = self.text.find("`", start + 1)
        if end == -1:
            raise CypherSyntaxError("unterminated backquoted identifier", start, self.line)
        value = self.text[start + 1:end]
        self.pos = end + 1
        return Token(TokenType.IDENTIFIER, value, start, self.line)

    def _identifier_or_keyword(self) -> Token:
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self.pos += 1
        word = text[start:self.pos]
        upper = word.upper()
        if upper in KEYWORDS:
            return Token(TokenType.KEYWORD, upper, start, self.line, word)
        return Token(TokenType.IDENTIFIER, word, start, self.line)


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into a list of tokens (convenience wrapper)."""
    return Lexer(text).tokenize()
