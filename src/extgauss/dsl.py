"""A small probabilistic language over scalar Gaussian and uniform variables.

Grammar (whitespace-insensitive, ``#`` starts a line comment, a ``;``
may optionally separate statements)::

    program := stmt* "return" ident ("," ident)*
    stmt    := ident "~" dist | ident "=" expr | "observe" expr "==" expr
    dist    := "normal" "(" expr "," number ")" | "uniform" "(" ")"
    expr    := term (("+"|"-") term)*
    term    := number | ident | number "*" ident | "(" expr ")"

Expressions are affine combinations by construction.  ``observe e1 == e2``
conditions the model on the exact linear event e1 - e2 = 0.  The
interpreter maintains one joint extended Gaussian over all live variables
and conditions on all observations at once, after the last statement; for
jointly feasible observations the posterior does not depend on their order.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .extended import (
    ExtendedGaussian,
    InfeasibleObservation,
    NonFiniteInput,
    gaussian,
    marginal,
    observe,
    pushforward,
    tensor,
    uniform,
)
from .subspace import DEFAULT_TOL, Subspace, Tolerance

RESERVED = frozenset({"return", "observe", "normal", "uniform"})


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class TypeCheckError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Term:
    """One summand of an affine expression: ``coeff * var`` or a literal."""

    coeff: float
    var: Optional[str]
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Expr:
    terms: tuple[Term, ...]
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class NormalDist:
    mean: Expr
    variance: float
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class UniformDist:
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


Dist = Union[NormalDist, UniformDist]


@dataclass(frozen=True)
class Sample:
    name: str
    dist: Dist
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Assign:
    name: str
    expr: Expr
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Observe:
    lhs: Expr
    rhs: Expr
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


Stmt = Union[Sample, Assign, Observe]


@dataclass(frozen=True)
class Ident:
    name: str
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Program:
    statements: tuple[Stmt, ...]
    returns: tuple[Ident, ...]

    @property
    def returned_names(self) -> tuple[str, ...]:
        return tuple(i.name for i in self.returns)


# ---------------------------------------------------------------------------
# Lexer


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


# ---------------------------------------------------------------------------
# Parser (recursive descent)


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


def parse(text: str) -> Program:
    """Parse source text into a program AST.

    Raises :class:`ParseError` with a 1-based (line, column) position on
    malformed input.  Scope and shape violations are reported by
    :func:`typecheck`, not here.
    """
    return _Parser(_tokenize(text)).program()


# ---------------------------------------------------------------------------
# Type / scope checking


def _check_expr(expr: Expr, defined: set, what: str):
    for term in expr.terms:
        if term.var is not None and term.var not in defined:
            raise TypeCheckError(
                f"undefined variable {term.var!r} in {what}", term.line, term.col
            )


def typecheck(program: Program) -> None:
    """Verify scoping rules: definition before use, no redefinition,
    returned variables defined, nonnegative variances."""
    defined: set = set()
    for stmt in program.statements:
        if isinstance(stmt, Observe):
            _check_expr(stmt.lhs, defined, "observation")
            _check_expr(stmt.rhs, defined, "observation")
            continue
        if isinstance(stmt, Sample):
            if isinstance(stmt.dist, NormalDist):
                _check_expr(stmt.dist.mean, defined, "distribution parameter")
                if stmt.dist.variance < 0:
                    raise TypeCheckError(
                        f"negative variance {stmt.dist.variance}",
                        stmt.dist.line,
                        stmt.dist.col,
                    )
        else:
            _check_expr(stmt.expr, defined, "assignment")
        if stmt.name in defined:
            raise TypeCheckError(
                f"variable {stmt.name!r} is already defined", stmt.line, stmt.col
            )
        defined.add(stmt.name)
    for ident in program.returns:
        if ident.name not in defined:
            raise TypeCheckError(
                f"returned variable {ident.name!r} is not defined",
                ident.line,
                ident.col,
            )


# ---------------------------------------------------------------------------
# Interpreter


@dataclass(frozen=True)
class PosteriorReport:
    """The posterior over the returned variables of a program."""

    variables: tuple[str, ...]
    posterior: ExtendedGaussian
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "variables": list(self.variables),
            "mean": self.posterior.mean.tolist(),
            "cov": self.posterior.cov.tolist(),
            "nondet_basis": self.posterior.nondet.basis.T.tolist(),
            "tolerance": self.tolerance,
        }


def _lower_expr(expr: Expr, index: dict, what: str) -> tuple[np.ndarray, float]:
    """Affine expression over the live variables: (coefficients, constant)."""
    coeffs = np.zeros(len(index))
    const = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for term in expr.terms:
            if term.var is None:
                const += term.coeff
            else:
                coeffs[index[term.var]] += term.coeff
    return _finite_affine(coeffs, const, index, what)


def _finite_affine(coeffs, const, index: dict, what: str) -> tuple[np.ndarray, float]:
    """``(coeffs, const)``, or :class:`NonFiniteInput` naming what overflowed."""
    bad = np.flatnonzero(~np.isfinite(coeffs))
    if bad.size:
        raise NonFiniteInput(f"{what} has a non-finite coefficient of {list(index)[bad[0]]!r}")
    if not np.isfinite(const):
        raise NonFiniteInput(f"{what} has a non-finite constant")
    return coeffs, const


@contextmanager
def _located(node):
    """Prefix an inference error raised inside with ``node``'s ``line:col``."""
    try:
        yield
    except (InfeasibleObservation, NonFiniteInput) as exc:
        raise type(exc)(f"{node.line}:{node.col}: {exc}") from exc


def _step(state: ExtendedGaussian, stmt, index: dict, pending: list, tol: Tolerance):
    """Run one statement: defer an observation to ``pending`` as ``(statement,
    residual row, value)``, or tensor in a variable and, if its mean reads
    live ones, shear it in."""
    n = len(index)
    with _located(stmt):
        if isinstance(stmt, Observe):
            lc, l0 = _lower_expr(stmt.lhs, index, "left-hand side")
            rc, r0 = _lower_expr(stmt.rhs, index, "right-hand side")
            with np.errstate(over="ignore", invalid="ignore"):  # checked next
                c, v = lc - rc, r0 - l0
            pending.append((stmt, *_finite_affine(c, v, index, "observed residual")))
            return state
        dist = stmt.dist if isinstance(stmt, Sample) else NormalDist(stmt.expr, 0.0)
        if isinstance(dist, UniformDist):
            coeffs, fresh = np.zeros(n), uniform(1)
        else:
            coeffs, const = _lower_expr(dist.mean, index, f"expression for {stmt.name!r}")
            fresh = gaussian([const], [[dist.variance]], tol)
        state = tensor(state, fresh, tol)
        if np.any(coeffs):
            shear = np.eye(n + 1)
            shear[n, :n] = coeffs
            state = pushforward(shear, state, tol)
    index[stmt.name] = n
    return state


def _observe_all(state: ExtendedGaussian, pending: list, tol: Tolerance) -> ExtendedGaussian:
    """Condition on the pending ``(statement, row, value)`` in one stacked
    :func:`observe`, the rows zero-padded.  On failure, bisect for the
    shortest failing prefix (prefix feasibility is monotone) and raise at
    its last statement; an overflow there is retried after the rows before
    it, as in program order."""
    obs = np.array([np.concatenate((r, np.zeros(state.dim - r.size))) for _, r, _ in pending])
    value = np.array([v for _, _, v in pending])
    try:
        return observe(state, obs, value, tol)
    except (InfeasibleObservation, NonFiniteInput) as exc:
        ok, bad, err = 0, len(pending), exc  # the prefix of length ``ok`` passes
    while bad - ok > 1:
        mid = (ok + bad) // 2
        try:
            observe(state, obs[:mid], value[:mid], tol)
            ok = mid
        except (InfeasibleObservation, NonFiniteInput) as exc:
            bad, err = mid, exc
    if ok and isinstance(err, NonFiniteInput):
        return _observe_all(_observe_all(state, pending[:ok], tol), pending[ok:], tol)
    with _located(pending[ok][0]):
        raise err


def interpret(program: Program, tol: Tolerance = DEFAULT_TOL) -> PosteriorReport:
    """Run a program and return the posterior over its returned variables.

    The joint state over all live variables is one extended Gaussian.
    Sampling and assignment (a sample of variance 0) tensor in a fresh
    coordinate and, when its mean depends on live variables, shear it in;
    observations wait for one stacked :func:`observe` after the last
    statement (a statement that overflows conditions on them first and is
    run once more).
    An infeasible observation raises :class:`InfeasibleObservation`; a
    coefficient, constant or value that overflows raises
    :class:`NonFiniteInput` at the statement that made it, before numpy
    can warn.  Both are prefixed with the statement's ``line:col`` (for
    the final marginal, the first returned variable's).
    """
    typecheck(program)
    index: dict = {}  # name -> coordinate
    pending: list = []
    state = ExtendedGaussian(Subspace.zero(0), np.zeros(0), np.zeros((0, 0)), tol)
    for stmt in program.statements:
        try:
            state = _step(state, stmt, index, pending, tol)
        except NonFiniteInput:  # observing first, as in program order, may avoid it
            if not pending:
                raise
            state, pending = _observe_all(state, pending, tol), []
            state = _step(state, stmt, index, pending, tol)
    state = _observe_all(state, pending, tol) if pending else state
    with _located(program.returns[0]):
        posterior = marginal(state, [index[i.name] for i in program.returns], tol)
    return PosteriorReport(program.returned_names, posterior, tol.eq_abs_tol)


# ---------------------------------------------------------------------------
# Pretty printer


def _format_number(x: float) -> str:
    if float(x).is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(float(x))


def _format_expr(expr: Expr) -> str:
    if not expr.terms:
        return "0"
    parts = []
    for i, term in enumerate(expr.terms):
        coeff = term.coeff
        if i == 0:
            sign = ""
            if coeff < 0 or (coeff == 0 and np.signbit(coeff)):
                # the grammar has no unary minus; re-enter it via "0 - ..."
                parts.append("0")
                sign = " - "
                coeff = -coeff
        else:
            sign = " - " if coeff < 0 else " + "
            coeff = abs(coeff)
        if term.var is None:
            parts.append(f"{sign}{_format_number(coeff)}")
        elif coeff == 1.0:
            parts.append(f"{sign}{term.var}")
        else:
            parts.append(f"{sign}{_format_number(coeff)}*{term.var}")
    return "".join(parts)


def pretty(program: Program) -> str:
    """Render a program as source text that parses back to the same AST.

    (Hand-built ASTs whose expressions begin with a negative term are
    rendered through a leading literal zero, which re-parses to an extra
    zero term; parsed programs round-trip exactly.)
    """
    lines = []
    for stmt in program.statements:
        if isinstance(stmt, Sample):
            if isinstance(stmt.dist, UniformDist):
                lines.append(f"{stmt.name} ~ uniform()")
            else:
                lines.append(
                    f"{stmt.name} ~ normal({_format_expr(stmt.dist.mean)}, "
                    f"{_format_number(stmt.dist.variance)})"
                )
        elif isinstance(stmt, Assign):
            lines.append(f"{stmt.name} = {_format_expr(stmt.expr)}")
        else:
            lines.append(
                f"observe {_format_expr(stmt.lhs)} == {_format_expr(stmt.rhs)}"
            )
    lines.append("return " + ", ".join(program.returned_names))
    return "\n".join(lines) + "\n"
