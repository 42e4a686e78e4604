r"""Parity of ``dsl.parse`` with the front end it replaced.

``_reference_parse`` is that front end: the character-by-character
tokenizer (``_tokenize`` emitting frozen ``_Token``s) and the method-per-
token ``_Parser``.  On every input below both must give equal ASTs with the
same ``(line, col)`` on every node, or the same :class:`ParseError` message
and position.  Number and name characters are decided by ``str.isdigit``
and ``str.isalpha`` there, which regex ``\d`` and ``\w`` do not match
exactly (``²`` is a digit but not decimal), so non-ASCII text is part of
the fuzzing.
"""

import ast
import itertools
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extgauss import dsl
from extgauss.dsl import (
    RESERVED,
    Assign,
    Dist,
    Expr,
    Ident,
    NormalDist,
    Observe,
    ParseError,
    Program,
    Sample,
    Stmt,
    Term,
    UniformDist,
    parse,
)

from test_bench_oracle import workloads
from test_dsl import _random_observed_source


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


_SYMBOLS = ("==", "~", "=", "+", "-", "*", "(", ")", ",", ";")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < len(text) and text[i + 1].isdigit()):
            start = i
            while i < len(text) and (text[i].isdigit() or text[i] == "."):
                i += 1
            if i < len(text) and text[i] in "eE":
                j = i + 1
                if j < len(text) and text[j] in "+-":
                    j += 1
                if j < len(text) and text[j].isdigit():
                    i = j
                    while i < len(text) and text[i].isdigit():
                        i += 1
            word = text[start:i]
            try:
                finite = bool(np.isfinite(float(word)))
            except ValueError:
                raise ParseError(f"malformed number {word!r}", line, col) from None
            if not finite:
                raise ParseError(f"number {word!r} is not finite", line, col)
            tokens.append(_Token("number", word, line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            tokens.append(_Token("ident", word, line, col))
            col += i - start
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(_Token(sym, sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        return self.next()

    def expect_name(self) -> _Token:
        tok = self.expect("ident")
        if tok.text in RESERVED:
            raise ParseError(f"{tok.text!r} is a reserved word", tok.line, tok.col)
        return tok

    def program(self) -> Program:
        statements: list[Stmt] = []
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                raise ParseError("missing 'return' at end of program", tok.line, tok.col)
            if tok.kind == "ident" and tok.text == "return":
                break
            statements.append(self.statement())
            self._skip_semi()
        self.next()  # return
        returns = [self._return_ident()]
        while self.peek().kind == ",":
            self.next()
            returns.append(self._return_ident())
        self._skip_semi()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(
                f"unexpected {tok.text!r} after return statement", tok.line, tok.col
            )
        return Program(tuple(statements), tuple(returns))

    def _return_ident(self) -> Ident:
        tok = self.expect_name()
        return Ident(tok.text, tok.line, tok.col)

    def _skip_semi(self):
        while self.peek().kind == ";":
            self.next()

    def statement(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "observe":
            self.next()
            lhs = self.expr()
            self.expect("==")
            rhs = self.expr()
            return Observe(lhs, rhs, tok.line, tok.col)
        name = self.expect_name()
        op = self.peek()
        if op.kind == "~":
            self.next()
            return Sample(name.text, self.dist(), name.line, name.col)
        if op.kind == "=":
            self.next()
            return Assign(name.text, self.expr(), name.line, name.col)
        raise ParseError(
            f"expected '~' or '=' after {name.text!r}", op.line, op.col
        )

    def dist(self) -> Dist:
        tok = self.expect("ident")
        if tok.text == "normal":
            self.expect("(")
            mean = self.expr()
            self.expect(",")
            var_tok = self.expect("number")
            self.expect(")")
            return NormalDist(mean, float(var_tok.text), tok.line, tok.col)
        if tok.text == "uniform":
            self.expect("(")
            self.expect(")")
            return UniformDist(tok.line, tok.col)
        raise ParseError(
            f"expected 'normal' or 'uniform', found {tok.text!r}", tok.line, tok.col
        )

    def expr(self) -> Expr:
        start = self.peek()
        terms = list(self.term(1.0))
        while self.peek().kind in ("+", "-"):
            sign = 1.0 if self.next().kind == "+" else -1.0
            terms.extend(self.term(sign))
        return Expr(tuple(terms), start.line, start.col)

    def term(self, sign: float) -> tuple[Term, ...]:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            value = float(tok.text)
            if self.peek().kind == "*":
                self.next()
                name = self.expect_name()
                return (Term(sign * value, name.text, name.line, name.col),)
            return (Term(sign * value, None, tok.line, tok.col),)
        if tok.kind == "ident":
            name = self.expect_name()
            return (Term(sign, name.text, name.line, name.col),)
        if tok.kind == "(":
            self.next()
            inner = self.expr()
            self.expect(")")
            return tuple(
                Term(sign * t.coeff, t.var, t.line, t.col) for t in inner.terms
            )
        raise ParseError(
            f"expected a number, variable or '(', found {tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
        )


def _reference_parse(text: str) -> Program:
    return _Parser(_tokenize(text)).program()


def _outcome(parse_text, text):
    """The AST's repr, which shows every field (positions and the sign of a
    zero included), or the error's message and position."""
    try:
        return repr(parse_text(text))
    except ParseError as exc:
        return "ParseError", str(exc), exc.line, exc.col


def _assert_parity(text):
    assert _outcome(parse, text) == _outcome(_reference_parse, text), repr(text)
    _assert_scanner_agrees_or_declines(text)


def _assert_scanner_agrees_or_declines(text):
    # parse tries the scanner first: where it takes a text, its AST must be
    # the token parser's, positions and signs of zero included
    program = dsl._scan(text)
    if program is not None:
        assert repr(program) == _outcome(dsl._parse_tokens, text), repr(text)


@pytest.mark.parametrize("workload", ["chain", "mix", "flatreg"])
def test_bench_programs(workload):
    # the first two rounds of seeds 1-3, as in test_bench_oracle.py
    for seed in (1, 2, 3):
        for models in itertools.islice(workloads.rounds(workload, seed), 2):
            for model in models:
                _assert_parity(workloads.render(model))


def test_test_dsl_sources():
    # every string literal in test_dsl.py, and the random programs its
    # TestDeferredObservations runs
    tree = ast.parse((Path(__file__).parent / "test_dsl.py").read_text(encoding="utf-8"))
    texts = [n.value for n in ast.walk(tree)
             if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    for seed in range(60):
        texts.append(_random_observed_source(np.random.default_rng(8200 + seed))[0])
    for seed in range(40):
        rng = np.random.default_rng(8300 + seed)
        conflicts, overflows = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        texts.append(_random_observed_source(rng, conflicts, overflows)[0])
    assert len(texts) > 200
    for text in texts:
        _assert_parity(text)


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("é ~ normal(0, 1)\nreturn é", None),
        ("x ~ normal(٣, 1)\nreturn x", None),
        ("x ~ normal(0, ²)\nreturn x", "1:15: malformed number '²'"),
        ("x = 2²\nreturn x", "1:5: malformed number '2²'"),
        ("x½ = 1\nreturn x½", None),
        ("½ = 1\nreturn ½", "1:1: unexpected character '½'"),
    ],
)
def test_non_ascii(text, outcome):
    # é is a letter, ٣ a decimal digit (the number 3), ² a digit that float()
    # rejects and ½ numeric but neither
    _assert_parity(text)
    if outcome is None:
        parse(text)
    else:
        with pytest.raises(ParseError, match=f"^{outcome}$"):
            parse(text)


def test_arabic_indic_digit_is_a_number():
    assert parse("x ~ normal(٣, 1)\nreturn x").statements[0].dist.mean == Expr((Term(3.0, None),))


FRAGMENTS = [
    "x", "y", "_a1", "é", "return", "observe", "normal", "uniform",
    "0", "1", "2.5", ".5", "1e", "1e-3", "1E+2", "1e400", "1.2.3", "٣", "²",
    "==", "~", "=", "+", "-", "*", "(", ")", ",", ";", ".", "$",
    " ", "\t", "\n", "\r\n", "# note", "#",
    # what the scanner must read as the tokens do, or hand back
    "2 * x", "2*\nx", "x~normal(0,1)", ";;", "x-1", "1.*x", "1e5x", "0 - 0*x",
    "observe(x)==1", "returnx", "observex == 1", "normalx ~ uniform()",
]

STATEMENTS = [
    "x ~ normal(0, 1)", "y ~ uniform()", "z = 2*x - (y - .5)", "observe x + y == 1e-3",
    "é = ٣*x - (0 - (y + 2))", "w ~ normal(x, 2.5e2)", "observe (x) == 0 - y",
    "x~normal(0,1)", "u = 2 * x", "v = 2*\nx", "t = x-1", "s = 1.*x", "n = 0 - 0*x",
    "observe(x)==1", "normalx ~ uniform()", "returnx = 1e5 - x",
]

SEPARATORS = [";", "\n", "\r\n", " # note\n", "\t", "  ", ";\n", "", ";;"]


def _fuzz(examples):
    return settings(derandomize=True, deadline=None, max_examples=examples)


@_fuzz(150)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=30))
def test_fragment_soup(fragments):
    _assert_parity("".join(fragments))


@_fuzz(100)
@given(st.text(st.sampled_from("".join(FRAGMENTS) + "½①") | st.characters(), max_size=40))
def test_character_soup(text):
    _assert_parity(text)


@_fuzz(100)
@given(
    st.lists(st.tuples(st.sampled_from(STATEMENTS), st.sampled_from(SEPARATORS)), max_size=8),
    st.sampled_from(["return x", "return x, y", "return é;", "return", "return x # end"]),
    st.sampled_from(["", "\n", "\r\n", " ", "1", "# c"]),
)
def test_statement_soup(statements, returns, tail):
    # mostly well-formed programs, so that positions are compared on ASTs
    _assert_parity("".join(s + sep for s, sep in statements) + returns + tail)


# The scanner must take the common texts, or it keeps parity and loses its
# speed: a scanner that always hands back would pass every test above.


@pytest.mark.parametrize("workload", ["chain", "mix", "flatreg"])
def test_scanner_takes_the_bench_programs(workload):
    for seed in (1, 2, 3):
        for models in itertools.islice(workloads.rounds(workload, seed), 2):
            for model in models:
                assert dsl._scan(workloads.render(model)) is not None


def test_scanner_takes_the_random_observed_sources():
    # the random programs of test_test_dsl_sources, overflowing ones included
    texts = [_random_observed_source(np.random.default_rng(8200 + seed))[0] for seed in range(60)]
    for seed in range(40):
        rng = np.random.default_rng(8300 + seed)
        conflicts, overflows = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        texts.append(_random_observed_source(rng, conflicts, overflows)[0])
    for text in texts:
        assert dsl._scan(text) is not None, repr(text)


def test_scanner_takes_the_parenthesis_free_statements():
    # every ASCII statement on one line with no parentheses but a
    # distribution's, one after another on every separator that ends a
    # statement, then each return statement
    plain = [s for s in STATEMENTS if s.isascii() and "\n" not in s
             and "(" not in s.replace("normal(", "").replace("uniform(", "")]
    assert len(plain) >= 10
    ends = [sep for sep in SEPARATORS if ";" in sep or "\n" in sep]
    for sep, returns in itertools.product(ends, ["return x", "return x, y", "return x;", "return x # end"]):
        for statements in [plain, plain[::-1], plain[:1]]:
            text = sep.join(statements) + sep + returns
            assert dsl._scan(text) is not None, repr(text)
            _assert_parity(text)


@pytest.mark.parametrize(
    "text",
    [
        # terms that touch: a name, a number or a reserved word runs on
        "x = y2.5\nreturn x", "x = 2x\nreturn x", "x = 1e5x\nreturn x", "x = 2*x.5\nreturn x",
        "x = 1.2.3\nreturn x", "x = y.\nreturn x", "x = 1..5\nreturn x", "x = e-3\nreturn x",
        "x = .\nreturn x", "x = 1 + .*y\nreturn x", "x ~ normal(0, 1..5)\nreturn x", "x ~ normal(.., 1)\nreturn x",
        "x = 2e-y\nreturn x", "x = 1_0\nreturn x", "x = 2*normal\nreturn x", "x = uniform\nreturn x",
        "return = 1\nreturn x", "observe = 1\nreturn x", "x = 1\nreturn normal", "observe.5 == x\nreturn x",
        "observex == 1\nreturn x", "observe1 == x\nreturn x", "x = 1\nreturnx", "normalx ~ uniform()\nreturn x",
        # numbers float rejects or cannot hold, and the largest it can
        "x = 1e400*y\nreturn x", "x = " + "9" * 400 + "\nreturn x", "x ~ normal(0, 1e400)\nreturn x",
        "x ~ normal(1e309, 1)\nreturn x", "x ~ normal(0, " + "9" * 400 + ")\nreturn x",
        "x = 1e308*y + 1.7976931348623157e308\nreturn x", "x = 1e-400 + 1e+5 - 2E-3*y\nreturn x",
        # statements across pieces, and pieces that are not one statement
        "x = 1 y = 2\nreturn x", "x = 1\n- y\nreturn x", "x = 2\n*y\nreturn x", "x = 1 +\n2\nreturn x",
        "observe x\n== 1\nreturn x", "x ~ normal(0,\n1)\nreturn x", "x = 1\nreturn x\n, y",
        "x = -1\nreturn x", "x == 1\nreturn x", "observe x == 1 == 2\nreturn x", "x = 1\nreturn x y",
        # separators, comments and blanks
        "; x = 1\nreturn x", "\n;x = 1\nreturn x", "x = 1;;\n;return x;;", "return x;\n;", "; return x",
        "x = 1\nreturn x\ny = 2", "return x\nreturn y", "x = 1 # c; y = 2\nreturn x", "x=1;y=x;return x,y",
        "x = 1\r\nreturn x\r\n", "x = 1\rreturn x", "x\f= 1\nreturn x", "x =\v1\nreturn x",
        "x = 1\n\n  \t\nreturn x # end", "x = 1\nreturn x #", "#\nx = 1\nreturn x",
    ],
)
def test_scanner_edge_cases(text):
    # each guard of the scanner: without it, it takes one of these texts
    # and reads it otherwise than the tokens do
    _assert_parity(text)


@pytest.mark.parametrize(
    "text",
    [
        "x = 1" + " " * 40_000 + "y\nreturn x",  # a gap after a long blank run in an expression
        "x = " + "1" * 40_000 + "x\nreturn x",  # a long number that runs on into a name
        "x = " + "a" * 40_000 + ".\nreturn x",  # a long name that runs on into a dot
        " " * 40_000 + "$",  # a long blank piece, then a character no piece takes
    ],
)
def test_scanner_time_is_linear(text):
    # a scanner that searched on past a gap, or that let two blank runs meet,
    # took 10 to 60 s on each of these; both parsers take milliseconds
    start = time.perf_counter()
    _outcome(parse, text)
    assert time.perf_counter() - start < 1.0
    _assert_parity(text)


@pytest.mark.parametrize(
    "text",
    [
        "x = " + "(" * 300 + "1" + ")" * 300 + "\nreturn x",
        "x = " + "(" * 300 + "1" + ")" * 299 + "\nreturn x",
        "x = " + "(" * 300 + "1" + ")" * 301 + "\nreturn x",
        "x = 0 - " + "(y - " * 300 + "2*z" + ")" * 300 + "; return x",
        "x = " + "(" * 300 + ")" * 300 + "\nreturn x",
        "x = " + "(1 + " * 300 + "\nreturn x",
    ],
)
def test_nested_parentheses(text):
    # deep enough to exercise the stack of signs, shallow enough for the
    # recursive reference parser
    _assert_parity(text)
