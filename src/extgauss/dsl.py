"""A small probabilistic language over scalar Gaussian and uniform variables.

Grammar (blanks are space, tab, CR and LF, and may go between any two
tokens; ``#`` starts a line comment, a ``;`` may optionally separate
statements)::

    program := stmt* "return" ident ("," ident)*
    stmt    := ident "~" dist | ident "=" expr | "observe" expr "==" expr
    dist    := "normal" "(" expr "," number ")" | "uniform" "(" ")"
    expr    := term (("+"|"-") term)*
    term    := number | ident | number "*" ident | "(" expr ")"

Expressions are affine combinations by construction.  ``observe e1 == e2``
conditions the model on the exact linear event e1 - e2 = 0.  The
interpreter lowers each definition into a row of a mean, of a factor of
the Gaussian part and of a generator of the nondeterminism, then
conditions the joint of the observed and the returned rows on all
observations at once; for jointly feasible ones the order does not matter.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .extended import ExtendedGaussian, InfeasibleObservation, NonFiniteInput, _condition_rows
from .subspace import DEFAULT_TOL, Tolerance, _check_finite

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
# AST.  The nodes are named tuples, which build at less than half the cost of
# frozen dataclasses (a program builds hundreds).  A node equals a node of its
# own class whose fields before ``line`` and ``col`` are equal, and has no order.


def _unordered(a, b):
    raise TypeError(f"{type(a).__name__} nodes are not ordered")


def _node(cls):
    k = len(cls._fields) - 2 * ("line" in cls._fields)  # the fields that compare
    cls.__eq__ = lambda a, b: type(b) is type(a) and a[:k] == b[:k]
    cls.__ne__ = lambda a, b: type(b) is not type(a) or a[:k] != b[:k]
    cls.__hash__ = lambda a: hash(a[:k])
    cls.__lt__ = cls.__le__ = cls.__gt__ = cls.__ge__ = _unordered
    return cls


@_node
class Term(NamedTuple):
    """One summand of an affine expression: ``coeff * var`` or a literal."""

    coeff: float
    var: Optional[str]
    line: int = 0
    col: int = 0


@_node
class Expr(NamedTuple):
    terms: tuple[Term, ...]
    line: int = 0
    col: int = 0


@_node
class NormalDist(NamedTuple):
    mean: Expr
    variance: float
    line: int = 0
    col: int = 0


@_node
class UniformDist(NamedTuple):
    line: int = 0
    col: int = 0


Dist = Union[NormalDist, UniformDist]


@_node
class Sample(NamedTuple):
    name: str
    dist: Dist
    line: int = 0
    col: int = 0


@_node
class Assign(NamedTuple):
    name: str
    expr: Expr
    line: int = 0
    col: int = 0


@_node
class Observe(NamedTuple):
    lhs: Expr
    rhs: Expr
    line: int = 0
    col: int = 0


Stmt = Union[Sample, Assign, Observe]


@_node
class Ident(NamedTuple):
    name: str
    line: int = 0
    col: int = 0


@_node
class Program(NamedTuple):
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


def _terms(toks: list, i: int) -> tuple[list, int]:
    """The terms of the expression at ``i``, each times the sign its parentheses
    give it (a stack, not recursion, so that any depth parses), and the index after."""
    out, outer, sign = [], [1.0], 1.0  # outer: the sign of each open parenthesis
    while True:
        while toks[i][0] == "(":
            outer.append(sign)
            i += 1
        kind, text, line, col = toks[i]
        if kind == "number":
            if toks[i + 1][0] == "*":
                i += 2
                out.append(Term(sign * float(text), _name(toks, i), toks[i][2], toks[i][3]))
            else:
                out.append(Term(sign * float(text), None, line, col))
        elif kind == "ident":
            out.append(Term(sign, _name(toks, i), line, col))
        else:
            found = text or "end of input"
            raise ParseError(f"expected a number, variable or '(', found {found!r}", line, col)
        while toks[i + 1][0] not in ("+", "-"):  # close parentheses up to the next sign
            if len(outer) == 1:
                return out, i + 1
            i = _expect(toks, i + 1, ")") - 1
            outer.pop()
        sign = outer[-1] if toks[i + 1][0] == "+" else -outer[-1]
        i += 2


def _expr(toks: list, i: int) -> tuple[Expr, int]:
    terms, end = _terms(toks, i)
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


def _parse_tokens(text: str) -> Program:
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
# Scanner: one match per statement and one ``findall`` per expression.

_B = r"[ \t\r]*"
_WORD = r"[A-Za-z_]\w*"
_NAME = rf"(?!(?:return|observe|normal|uniform)\b){_WORD}(?![\w.])"  # whole, not reserved
_NUM = r"[\d.]+(?:[eE][+-]?\d+)?(?![\w.])"  # whole; float may reject it (1.2.3) or give inf
_SPAN = r"[\w.](?:[\w.*+ \t\r-]*[\w.])?"  # an expression's extent; _TERMS reads it
_PIECE = re.compile(  # a statement takes its trailing blanks: two runs in a row backtrack in n²
    rf"""{_B}(?:(?:(?P<observe>observe)\b{_B}(?P<lhs>{_SPAN}){_B}=={_B}(?P<rhs>{_SPAN})
      | return\b{_B}(?P<names>{_NAME}(?:{_B},{_B}{_NAME})*)
      | (?P<name>{_NAME}){_B}(?:={_B}(?P<expr>{_SPAN}) | ~{_B}(?:(?P<uniform>uniform){_B}\({_B}\)
          | (?P<normal>normal){_B}\({_B}(?P<mean>{_SPAN}){_B},{_B}(?P<var>{_NUM}){_B}\))))
      {_B})?(?:\#[^\n]*)?(?P<end>[;\n]|\Z)""",
    re.VERBOSE,
)
# a term and its sign: as no number or name runs on into the next character, the terms
# tile an expression, or the rest is one match of no group (findall never searches)
_TERMS = re.compile(rf"({_B}[+-]{_B}|)(?:({_NUM})(?:({_B}\*{_B})({_NAME}))?|({_NAME}))|.+")
_WORDS = re.compile(_WORD)


def _scan_expr(text: str, m: re.Match, group: str, line: int, base: int) -> Optional[Expr]:
    """``m``'s ``group`` as an expression, columns from the lengths of the groups
    (``base`` is the index before the line); ``None`` at a gap or an overflow."""
    terms, (at, end) = [], m.span(group)
    for sep, num, star, var, name in _TERMS.findall(text, at, end):
        at += len(sep) + len(num) + len(star) if var else len(sep)
        c = float(num) if num else 1.0
        if c == math.inf:
            return None
        terms.append(Term(-c if "-" in sep else c, var or name or None, line, at - base))
        at += len(var or name or num)
    return Expr(tuple(terms), line, m.start(group) - base) if at == end else None


def _scan(text: str) -> Optional[Program]:
    """The program, one piece (the text between line breaks and ``;``, less its
    comment) per statement; ``None`` hands the text to the token parser: non-ASCII
    text, parentheses, a statement across pieces, or any piece that does not match."""
    if not text.isascii():
        return None
    statements, returns, pos, line, base = [], (), 0, 1, -1
    try:
        while m := _PIECE.match(text, pos):
            name, lhs, names, end = m.group("name", "lhs", "names", "end")
            if (stated := name or lhs or names) and returns or end == ";" and not (stated or statements):
                return None
            if m["uniform"]:
                dist = UniformDist(line, m.start("uniform") - base)
                statements.append(Sample(name, dist, line, m.start("name") - base))
            elif name:
                expr = _scan_expr(text, m, "expr" if m["expr"] else "mean", line, base)
                variance, col = float(m["var"] or 0), m.start("name") - base
                if expr is None or variance == math.inf:
                    return None
                statements.append(Assign(name, expr, line, col) if m["expr"] else Sample(
                    name, NormalDist(expr, variance, line, m.start("normal") - base), line, col))
            elif lhs:
                lhs, rhs = _scan_expr(text, m, "lhs", line, base), _scan_expr(text, m, "rhs", line, base)
                if lhs is None or rhs is None:
                    return None
                statements.append(Observe(lhs, rhs, line, m.start("observe") - base))
            elif names:
                returns = tuple(Ident(w[0], line, w.start() - base)
                                for w in _WORDS.finditer(text, m.start("names"), m.end("names")))
            if end == "\n":
                line, base = line + 1, m.end() - 1
            elif not end:
                return Program(tuple(statements), returns) if returns else None
            pos = m.end()
    except ValueError:  # a number float rejects, such as 1.2.3
        pass
    return None


def parse(text: str) -> Program:
    """Parse source text into a program AST, by the scanner or, for a text it hands
    back, by the token parser: the one source of :class:`ParseError`, with a 1-based
    (line, column) position.  Scope and shape violations are :func:`typecheck`'s."""
    return _scan(text) or _parse_tokens(text)


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


def _affine(expr: Expr, index: dict, what: str) -> tuple[dict, float]:
    """Affine expression over the live variables, ``({coordinate: coefficient},
    constant)``, in Python floats (they overflow without a warning), checked."""
    acc: dict = {}
    const = 0.0
    for term in expr.terms:
        if term.var is None:
            const += term.coeff
        else:
            j = index[term.var]
            acc[j] = acc.get(j, 0.0) + term.coeff
    return _finite(acc, const, index, what)


def _finite(acc: dict, const: float, index: dict, what: str) -> tuple[dict, float]:
    """``(acc, const)``, or :class:`NonFiniteInput` naming what overflowed."""
    if not all(map(math.isfinite, acc.values())):
        bad = min(j for j, c in acc.items() if not math.isfinite(c))
        raise NonFiniteInput(f"{what} has a non-finite coefficient of {list(index)[bad]!r}")
    if not math.isfinite(const):
        raise NonFiniteInput(f"{what} has a non-finite constant")
    return acc, const


def _at(node, exc):
    """The inference error ``exc`` prefixed with ``node``'s ``line:col``."""
    return type(exc)(f"{node.line}:{node.col}: {exc}")


class _Lowered:
    """A program's definitions as rows over its N coordinates, written in
    order: ``w = [mean | f | g]``, viewed as the ``mean``, the Gaussian
    part's factor ``f`` (N by V, covariance ``f fᵀ``) and the generator
    ``g`` of the nondeterminism (N by U), the first ``v`` and ``u`` columns in
    use, each with its largest entry in [0.5, 1) after every statement.  No
    entry's magnitude before cancellation is stored: each statement takes it
    from its own terms."""

    __slots__ = ("w", "mean", "f", "g", "v", "u")

    def __init__(self, size: int, normals: int, uniforms: int):
        w = self.w = np.zeros((size, 1 + normals + uniforms))
        self.mean, self.f, self.g = w[:, 0], w[:, 1 : 1 + normals], w[:, 1 + normals :]
        self.v = self.u = 0


def _step(s: _Lowered, stmt, index: dict, pending: list, tol: Tolerance):
    """Run one statement: defer an observation to ``pending`` as ``(statement,
    {coordinate: residual coefficient}, value)``, or write a definition's row
    of ``w``, ``c @ w[idx]`` over the rows ``idx`` it reads, its ``g`` part
    cut of the residue below its terms' magnitude ``|c| @ |g[idx]|`` (not if
    it reads one row: one product's ``|c g|`` is that magnitude, and
    ``rank_rel_tol < 1``); a positive variance v adds a column of ``f``.  A
    ``uniform()`` enters at 0.5, so only a new row can reach 1: where it does,
    a power of two rescales its columns, exactly, into [0.5, 1).  The row of
    ``g``, the mean and the variance ``‖f[n]‖² + v`` (as ``cov``) are
    checked, so numpy's overflow warnings may be off."""
    n = len(index)
    try:
        if isinstance(stmt, Observe):
            lhs, l0 = _affine(stmt.lhs, index, "left-hand side")
            rhs, r0 = _affine(stmt.rhs, index, "right-hand side")
            lhs.update({j: lhs.get(j, 0.0) - c for j, c in rhs.items()})
            pending.append((stmt, *_finite(lhs, r0 - l0, index, "observed residual")))
            return
        dist = stmt.dist if isinstance(stmt, Sample) else NormalDist(stmt.expr, 0.0)
        if isinstance(dist, UniformDist):  # mean and f stay 0: a new column of g
            s.g[n, s.u] = 0.5
            index[stmt.name], s.u = n, s.u + 1
            return
        acc, const = _affine(dist.mean, index, f"expression for {stmt.name!r}")
        variance = dist.variance + 0.0  # -0.0 to 0.0, as the checking constructor
        if not math.isfinite(variance):  # a parsed one is; a hand-built one may not be
            raise NonFiniteInput(f"variance {dist.variance!r} is not finite")
        row, u = s.w[n], s.u
        if acc:  # take and dot: a third of the cost of fancy indexing and @
            idx, c = list(acc), np.array(list(acc.values()))
            row[:] = c.dot(s.w.take(idx, axis=0))
        if u and acc:
            g = s.g[: n + 1, :u]
            if len(idx) > 1:  # one product's |c g| is its own magnitude |c| |g|
                _drop_residue(g[n], np.abs(c).dot(np.abs(g.take(idx, axis=0))), tol)
            top = np.maximum.reduce(np.abs(g[n]))  # NaN if any entry is
            if not top < math.inf:
                raise NonFiniteInput(f"nondeterministic part of {stmt.name!r} overflows")
            if top >= 1.0:  # the columns this row leads, back into [0.5, 1)
                np.ldexp(g, -np.maximum(np.frexp(g[n])[1], 0), out=g)
        row[0] += const
        f = s.f[n, : s.v]
        _check_finite(mean=row[0], cov=f.dot(f) + variance)
        if variance:
            s.f[n, s.v], s.v = math.sqrt(variance), s.v + 1
    except (InfeasibleObservation, NonFiniteInput) as exc:
        raise _at(stmt, exc) from exc
    index[stmt.name] = n


def _condition(s: _Lowered, n: int, pending: list, rows, tol: Tolerance, at):
    """Coordinates ``rows`` of the first ``n`` of ``s`` given the pending
    ``(statement, row, value)``, and the posterior's factor, by one
    :func:`_condition_rows` of the rows ``p @ w``.  On failure, bisect for
    the shortest failing prefix of the observed rows (prefix feasibility is
    monotone) and raise at its last statement, or at ``at`` if there is
    none; an overflow there is retried after the rows before it."""
    k, g0 = len(pending), 1 + s.f.shape[1]  # g's first column in w
    p = np.zeros((k + len(rows), n))
    ps = [row for _, row, _ in pending] + [{j: 1.0} for j in rows]
    p.put([i * n + j for i, row in enumerate(ps) for j in row], [c for row in ps for c in row.values()])
    value = np.array([v for _, _, v in pending])
    with np.errstate(over="ignore", invalid="ignore"):  # checked in _condition_rows
        y = p @ s.w[:n]
        mean, f_y, g_y = y[:, 0], y[:, 1 : 1 + s.v], y[:, g0 : g0 + s.u]
        mag = np.abs(p) @ np.abs(s.g[:n, : s.u])
        _drop_residue(g_y, mag, tol)
        scale = float(np.square(s.f[:n]).sum(axis=1).max(initial=0.0))  # largest variance

    def prefix(j):  # the first j observed rows and the returned rows
        keep = slice(None) if j == k else np.r_[:j, k : len(p)]
        return _condition_rows(mean[keep], f_y[keep], g_y[keep], j, value[:j],
                               mag[keep].max(axis=1, initial=0.0), tol, scale)

    ok, bad = 0, k  # the prefix of length ``ok`` passes
    try:
        return prefix(k)
    except (InfeasibleObservation, NonFiniteInput) as exc:
        err = exc
    while bad - ok > 1:
        mid = (ok + bad) // 2
        try:
            prefix(mid)
            ok = mid
        except (InfeasibleObservation, NonFiniteInput) as exc:
            bad, err = mid, exc
    if ok and isinstance(err, NonFiniteInput):
        _refill(s, n, pending[:ok], tol, at)
        return _condition(s, n, pending[ok:], rows, tol, at)
    raise _at(pending[ok][0] if pending else at, err) from err


def _refill(s: _Lowered, n: int, pending: list, tol: Tolerance, at) -> None:
    """The overflow flush: the first ``n`` coordinates of ``s`` conditioned on
    ``pending``, in place.  All of ``w`` is zeroed, as the posterior may fill
    fewer columns than the old rows did and the overflowing statement may have
    half-written its row.  It then holds the posterior: ``f`` its factor and
    ``g`` its orthonormal basis, each row cut of the residue below the largest
    |g| of the coordinate's old row, so that the residue of the conditioning
    is dropped and a small row is kept, and each column scaled by a power of
    two into [0.5, 1)."""
    old = np.abs(s.g[:n, : s.u]).max(axis=1, initial=0.0)
    post, fac = _condition(s, n, pending, range(n), tol, at)
    s.w[:], s.u = 0.0, post.nondet.dim
    g = s.g[:n, : s.u]
    s.mean[:n], s.f[:n, : fac.shape[1]], g[:] = post.mean, fac, post.nondet.basis
    _drop_residue(g, np.repeat(old[:, None], s.u, axis=1), tol)
    np.ldexp(g, -np.frexp(np.abs(g).max(axis=0, initial=0.0))[1], out=g)


def _drop_residue(g, mag, tol: Tolerance) -> None:
    """Zero, in place, each entry of ``g`` below ``rank_rel_tol`` times its
    magnitude ``mag`` (its terms' in the statement that made it), and that
    magnitude: cancellation residue, or a magnitude that overflowed.  An entry
    of ``g`` that overflowed stays.  Noise built up over several statements,
    each cancelling above the cut, is not caught."""
    res = np.abs(g) < tol.rank_rel_tol * mag
    g[res] = mag[res] = 0.0


def interpret(program: Program, tol: Tolerance = DEFAULT_TOL) -> PosteriorReport:
    """Run a program and return the posterior over its returned variables.

    Each definition writes one row of ``[mean | f | g]`` (an assignment is
    a sample of variance 0): the factor ``f`` of the Gaussian part has a
    column per ``normal`` of positive variance and the generator ``g`` a
    column per ``uniform()``; no definition makes a factorization.  Last,
    one :func:`_condition_rows` conditions the observed and the returned
    rows on every observation at once, in factor form.  A statement that
    overflows conditions on the pending observations in place and runs again.
    An infeasible observation raises :class:`InfeasibleObservation`, an
    overflow :class:`NonFiniteInput` before numpy can warn, each prefixed
    with its statement's ``line:col`` (with no observation, the first
    returned variable's).
    """
    typecheck(program)
    defs = [stmt for stmt in program.statements if not isinstance(stmt, Observe)]
    dists = [d.dist for d in defs if isinstance(d, Sample)]
    s = _Lowered(len(defs), sum(isinstance(d, NormalDist) and d.variance > 0 for d in dists),
                 sum(isinstance(d, UniformDist) for d in dists))
    index: dict = {}  # name -> coordinate
    pending: list = []
    with np.errstate(over="ignore", invalid="ignore"):  # _step checks every result
        for stmt in program.statements:
            try:
                _step(s, stmt, index, pending, tol)
            except NonFiniteInput:  # observing first, as in program order, may avoid it
                if not pending:
                    raise
                _refill(s, len(index), pending, tol, program.returns[0])
                pending = []
                _step(s, stmt, index, pending, tol)
    rows = [index[r.name] for r in program.returns]
    posterior, _ = _condition(s, len(index), pending, rows, tol, program.returns[0])
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
        coeff = abs(term.coeff)
        if math.copysign(1.0, term.coeff) < 0:  # -0.0 too
            sign = " - "
            if i == 0:  # the grammar has no unary minus; re-enter it via "0 - ..."
                parts.append("0")
        else:
            sign = " + " if i else ""
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
