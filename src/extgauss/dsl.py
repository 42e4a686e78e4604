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
interpreter pushes a Gaussian and a generator of the nondeterminism forward
apart, joins them after the last statement and conditions on all
observations at once; for jointly feasible ones the order does not matter.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .extended import (
    _DEC,
    ExtendedGaussian,
    InfeasibleObservation,
    NonFiniteInput,
    marginal,
    observe,
    pushforward,
    tensor,
)
from .subspace import DEFAULT_TOL, Subspace, Tolerance, _fix_signs

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


def _token_regex(digit: str = "", not_alpha: str = "") -> re.Pattern:
    r"""The master pattern: blanks, then one alternative per token kind.

    A comment is consumed with the line break that ends it, or with the end
    of input, whose token then sits at the ``#``.  A number starts at a
    ``str.isdigit`` character and a name at a ``str.isalpha`` one or ``_``.
    Regex ``\d`` is ``str.isdecimal``, which misses digits such as ``²``,
    and ``[^\W\d]`` admits numeric non-letters such as ``²`` and ``½``:
    ``digit`` and ``not_alpha`` list those of the text, so that both classes
    are exact (:func:`_token_pattern`).
    """
    d = rf"\d{digit}"
    return re.compile(
        rf"""[ \t\r]*(?:
            (?P<ident>[^\W\d{not_alpha}]\w*)
          | (?P<symbol>==|[~=+\-*(),;])
          | (?P<number>\.?[{d}][{d}.]*(?:[eE][+-]?[{d}]+)?)
          | (?P<newline>(?:\#[^\n]*)?\n)
          | (?P<eof>(?:\#[^\n]*)?\Z)
          | (?P<bad>.))""",
        re.VERBOSE,
    )


_ASCII_TOKEN = _token_regex()


def _token_pattern(text: str) -> re.Pattern:
    if text.isascii():
        return _ASCII_TOKEN
    odd = sorted({c for c in text if c.isnumeric() and not (c.isdecimal() or c.isalpha())})
    return _token_regex(re.escape("".join(filter(str.isdigit, odd))), re.escape("".join(odd)))


def _tokenize(text: str) -> list[tuple]:
    """``(kind, text, line, col)`` tuples from one pass of the master pattern,
    ending with an ``eof`` token; a symbol's kind is its text.  Lines and
    columns are 1-based and count characters.  Raises :class:`ParseError` on
    a character no token starts with and on a number that is not finite."""
    tokens = []
    append = tokens.append
    line, base = 1, -1  # base: the index before the line's first column
    for m in _token_pattern(text).finditer(text):  # every position matches
        kind = m.lastgroup
        word = m[kind]
        col = m.start(kind) - base
        if kind == "ident":
            append((kind, word, line, col))
        elif kind == "symbol":
            append((word, word, line, col))
        elif kind == "number":
            try:
                finite = math.isfinite(float(word))
            except ValueError:
                raise ParseError(f"malformed number {word!r}", line, col) from None
            if not finite:
                raise ParseError(f"number {word!r} is not finite", line, col)
            append((kind, word, line, col))
        elif kind == "newline":
            line, base = line + 1, m.end() - 1
        elif kind == "eof":
            append((kind, "", line, col))
            return tokens
        else:
            raise ParseError(f"unexpected character {word!r}", line, col)


# ---------------------------------------------------------------------------
# Parser: recursive descent over the token list.  Each function takes the
# index of its first token and returns the index after it.


def _expect(toks: list, i: int, kind: str) -> int:
    found, text, line, col = toks[i]
    if found != kind:
        raise ParseError(f"expected {kind!r}, found {text or 'end of input'!r}", line, col)
    return i + 1


def _name(toks: list, i: int) -> str:
    kind, text, line, col = toks[i]
    if kind != "ident" or text in RESERVED:
        _expect(toks, i, "ident")
        raise ParseError(f"{text!r} is a reserved word", line, col)
    return text


def _terms(toks: list, i: int, outer: float, out: list) -> int:
    """Append the terms of the expression at ``i`` to ``out``, each times
    ``outer`` (the sign of an enclosing parenthesis)."""
    sign = outer
    while True:
        kind, text, line, col = toks[i]
        if kind == "number":
            if toks[i + 1][0] == "*":
                i += 2
                out.append(Term(sign * float(text), _name(toks, i), toks[i][2], toks[i][3]))
            else:
                out.append(Term(sign * float(text), None, line, col))
        elif kind == "ident":
            out.append(Term(sign, _name(toks, i), line, col))
        elif kind == "(":
            i = _terms(toks, i + 1, sign, out)
            _expect(toks, i, ")")
        else:
            found = text or "end of input"
            raise ParseError(f"expected a number, variable or '(', found {found!r}", line, col)
        kind = toks[i + 1][0]
        if kind != "+" and kind != "-":
            return i + 1
        sign = outer if kind == "+" else -outer
        i += 2


def _expr(toks: list, i: int) -> tuple[Expr, int]:
    terms: list = []
    end = _terms(toks, i, 1.0, terms)
    return Expr(tuple(terms), toks[i][2], toks[i][3]), end


def _dist(toks: list, i: int) -> tuple[Dist, int]:
    _expect(toks, i, "ident")
    _, text, line, col = toks[i]
    if text == "normal":
        mean, i = _expr(toks, _expect(toks, i + 1, "("))
        i = _expect(toks, _expect(toks, i, ","), "number")
        return NormalDist(mean, float(toks[i - 1][1]), line, col), _expect(toks, i, ")")
    if text == "uniform":
        return UniformDist(line, col), _expect(toks, _expect(toks, i + 1, "("), ")")
    raise ParseError(f"expected 'normal' or 'uniform', found {text!r}", line, col)


def _statement(toks: list, i: int) -> tuple[Stmt, int]:
    kind, text, line, col = toks[i]
    if kind == "ident" and text == "observe":
        lhs, i = _expr(toks, i + 1)
        rhs, i = _expr(toks, _expect(toks, i, "=="))
        return Observe(lhs, rhs, line, col), i
    name, op = _name(toks, i), toks[i + 1]
    if op[0] == "~":
        dist, i = _dist(toks, i + 2)
        return Sample(name, dist, line, col), i
    if op[0] == "=":
        expr, i = _expr(toks, i + 2)
        return Assign(name, expr, line, col), i
    raise ParseError(f"expected '~' or '=' after {name!r}", op[2], op[3])


def parse(text: str) -> Program:
    """Parse source text into a program AST.

    Raises :class:`ParseError` with a 1-based (line, column) position on
    malformed input.  Scope and shape violations are reported by
    :func:`typecheck`, not here.
    """
    toks = _tokenize(text)
    statements: list = []
    i = 0
    while True:
        kind, word, line, col = toks[i]
        if kind == "eof":
            raise ParseError("missing 'return' at end of program", line, col)
        if kind == "ident" and word == "return":
            break
        stmt, i = _statement(toks, i)
        statements.append(stmt)
        while toks[i][0] == ";":
            i += 1
    returns: list = []
    while not returns or toks[i][0] == ",":  # "return" or "," before each name
        returns.append(Ident(_name(toks, i + 1), toks[i + 1][2], toks[i + 1][3]))
        i += 2
    while toks[i][0] == ";":
        i += 1
    kind, word, line, col = toks[i]
    if kind != "eof":
        raise ParseError(f"unexpected {word!r} after return statement", line, col)
    return Program(tuple(statements), tuple(returns))


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


def _normal(mean: float, variance: float) -> ExtendedGaussian:
    """``N(mean, variance)`` on R^1 as the checking constructor builds it,
    without its checks: the projector is ``[[1.]]`` and a 1-by-1 matrix is
    symmetric.  ``mean`` is finite (:func:`_finite_affine`) and ``variance``
    nonnegative (:func:`typecheck`); a parsed variance is finite, a
    hand-built one is checked here."""
    if not math.isfinite(variance):
        raise NonFiniteInput(f"variance {variance!r} is not finite")
    noise = (np.array([mean]), np.array([[variance + 0.0]]))  # -0.0 to 0.0, as the constructor
    return ExtendedGaussian._from_normal(_DEC, Subspace.zero(1), np.zeros((1, 0)), noise)


def _step(state: ExtendedGaussian, g, stmt, index: dict, pending: list, tol: Tolerance):
    """Run one statement: defer an observation to ``pending`` as ``(statement,
    residual row, value)``, or tensor in a variable, shear it in if its mean
    reads live ones, and give it a row of the generator ``g``."""
    n = len(index)
    with _located(stmt):
        if isinstance(stmt, Observe):
            lc, l0 = _lower_expr(stmt.lhs, index, "left-hand side")
            rc, r0 = _lower_expr(stmt.rhs, index, "right-hand side")
            with np.errstate(over="ignore", invalid="ignore"):  # checked next
                c, v = lc - rc, r0 - l0
            pending.append((stmt, *_finite_affine(c, v, index, "observed residual")))
            return state, g
        dist = stmt.dist if isinstance(stmt, Sample) else NormalDist(stmt.expr, 0.0)
        if isinstance(dist, UniformDist):  # a point mass at 0 and a unit column of g
            coeffs, fresh = np.zeros(n), _normal(0.0, 0.0)
            g = np.pad(g, ((0, n + 1 - len(g)), (0, 1)))  # rows are kept once g has a column
            g[n, -1] = 1.0
        else:
            coeffs, const = _lower_expr(dist.mean, index, f"expression for {stmt.name!r}")
            fresh = _normal(const, dist.variance)
            if g.size:
                with np.errstate(over="ignore", invalid="ignore"):  # checked next
                    g = np.vstack([g, coeffs @ g])
                if not np.isfinite(g[n]).all():
                    raise NonFiniteInput(f"nondeterministic part of {stmt.name!r} overflows")
                # each column's largest entry into [0.5, 1): exact, and the same span
                g = np.ldexp(g, -np.frexp(np.abs(g).max(axis=0))[1])
        state = tensor(state, fresh, tol)
        if np.any(coeffs):
            shear = np.eye(n + 1)
            shear[n, :n] = coeffs
            state = pushforward(shear, state, tol)
    index[stmt.name] = n
    return state, g


def _joint(state: ExtendedGaussian, g) -> ExtendedGaussian:
    """``state`` plus the span of ``g``, in normal form.  The ``uniform()``
    rows of ``g`` are diagonal and nonzero, so a thin SVD with no rank cut
    spans it."""
    if not g.shape[1]:
        return state
    nondet = Subspace._of(state.dim, _fix_signs(np.linalg.svd(g, full_matrices=False)[0]))
    noise = _DEC.push(nondet.complement_projector(), state.noise)
    return ExtendedGaussian._from_normal(_DEC, nondet, state.lin, noise)


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

    The state is a Gaussian part plus a generator ``g`` of the
    nondeterminism, a column per ``uniform()``.  A definition (an assignment
    is a sample of variance 0) tensors in a fresh coordinate, shears it in
    when its mean reads live variables and adds its row of ``g``.  Last,
    ``g`` is orthonormalized once, with no rank cut, and one stacked
    :func:`observe` conditions the joint (a statement that overflows
    conditions on the pending observations first and is run once more).
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
    g = np.zeros((0, 0))
    for stmt in program.statements:
        try:
            state, g = _step(state, g, stmt, index, pending, tol)
        except NonFiniteInput:  # observing first, as in program order, may avoid it
            if not pending:
                raise
            post, pending = _observe_all(_joint(state, g), pending, tol), []
            state = ExtendedGaussian(Subspace.zero(post.dim), post.mean, post.cov, tol)
            state, g = _step(state, post.nondet.basis, stmt, index, pending, tol)
    state = _joint(state, g)
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
