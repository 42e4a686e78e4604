import math
import operator
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extgauss import dsl
from extgauss import extended as E
from extgauss.dsl import (
    Assign,
    Expr,
    Ident,
    NormalDist,
    Observe,
    ParseError,
    Program,
    Sample,
    Term,
    TypeCheckError,
    UniformDist,
    interpret,
    parse,
    pretty,
    typecheck,
)
from extgauss.extended import ExtendedGaussian, InfeasibleObservation, NonFiniteInput
from extgauss.subspace import Subspace, Tolerance

from _gen import LOOSE_RANK, gauss_observe_oracle, span_above
from test_extended import _max_gap, _reference_interpret
from test_linalg_budget import _chain_program, _count_factorizations

EXAMPLE_2_1 = (
    "x1 ~ normal(0,1); x2 ~ normal(0,1); y ~ uniform(); "
    "z1 = x1 + y; z2 = x2 + y; return z1, z2"
)


class TestParse:
    def test_two_node_program(self):
        program = parse("x ~ normal(0,1)\nreturn x")
        assert len(program.statements) == 1
        assert program.returned_names == ("x",)

    def test_observe_before_definition_is_type_error(self):
        program = parse("observe x == y\nreturn x")
        with pytest.raises(TypeCheckError):
            typecheck(program)

    def test_golden_ast_shared_offset_program(self):
        program = parse(EXAMPLE_2_1)
        assert len(program.statements) + 1 == 6
        expected = Program(
            statements=(
                Sample("x1", NormalDist(Expr((Term(0.0, None),)), 1.0)),
                Sample("x2", NormalDist(Expr((Term(0.0, None),)), 1.0)),
                Sample("y", UniformDist()),
                Assign("z1", Expr((Term(1.0, "x1"), Term(1.0, "y")))),
                Assign("z2", Expr((Term(1.0, "x2"), Term(1.0, "y")))),
            ),
            returns=(Ident("z1"), Ident("z2")),
        )
        assert program == expected

    def test_whitespace_and_comments_are_free(self):
        a = parse("x ~ normal(0,1) y ~ normal(2,3) return x, y")
        b = parse("# prior\nx ~ normal(0, 1)\n\ny ~ normal(2, 3)  # second\nreturn x, y")
        assert a == b

    def test_parenthesized_terms_distribute(self):
        program = parse("a ~ normal(0,1)\nx = 2 - (a - 3)\nreturn x")
        expr = program.statements[1].expr
        assert expr == Expr((Term(2.0, None), Term(-1.0, "a"), Term(3.0, None)))

    def test_scaled_variables(self):
        program = parse("a ~ normal(0,1)\nx = 2*a + 0.5*a\nreturn x")
        assert program.statements[1].expr == Expr((Term(2.0, "a"), Term(0.5, "a")))

    @pytest.mark.parametrize(
        "text,line,col",
        [
            ("x ~\nreturn x", 2, 1),
            ("x normal(0,1)\nreturn x", 1, 3),
            ("x ~ gamma(0,1)\nreturn x", 1, 5),
            ("x ~ normal(0,)\nreturn x", 1, 14),
            ("x ~ normal(0, 1)", 1, 17),
            ("x = (1\nreturn x", 2, 1),
            ("return x $", 1, 10),
            ("x ~ normal(0, 1)\nreturn x,", 2, 10),
        ],
    )
    def test_error_positions(self, text, line, col):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize("literal", ["1e400", "1e309", "2.5e99999"])
    def test_non_finite_number_rejected(self, literal):
        with pytest.raises(ParseError, match="not finite") as err:
            parse(f"x ~ normal(0, {literal})\nreturn x")
        assert (err.value.line, err.value.col) == (1, 15)

    def test_reserved_words_rejected_as_names(self):
        with pytest.raises(ParseError):
            parse("observe ~ normal(0,1)\nreturn observe")
        with pytest.raises(ParseError):
            parse("return ~ normal(0,1)\nreturn return")

    def test_variance_must_be_literal(self):
        with pytest.raises(ParseError):
            parse("x ~ normal(0, 1)\ny ~ normal(0, x)\nreturn y")

    def test_missing_return(self):
        with pytest.raises(ParseError):
            parse("x ~ normal(0,1)\n")

    def test_deep_parentheses_parse(self):
        # x = 1 - (2 - (3 - ... (2000))): each parenthesis flips the sign of
        # what it holds, at a depth no recursive parser reaches
        depth = 2000
        text = "x = " + "".join(f"{k} - (" for k in range(1, depth)) + f"{depth}" + ")" * (depth - 1)
        program = parse(text + "\nreturn x")
        terms = tuple(Term(float((-1) ** (k - 1) * k), None) for k in range(1, depth + 1))
        assert program == Program((Assign("x", Expr(terms)),), (Ident("x"),))
        last = program.statements[0].expr.terms[-1]
        assert (last.line, last.col) == (1, text.index(f"({depth})") + 2)
        assert program.returns[0].line == 2

    def test_unclosed_deep_parentheses_report_their_position(self):
        text = "x = " + "(" * 2000 + "1" + ")" * 1999 + "\nreturn x"
        with pytest.raises(ParseError, match="^2:1: expected '\\)', found 'return'$"):
            parse(text)


class TestTypecheck:
    def test_redefinition(self):
        with pytest.raises(TypeCheckError):
            typecheck(parse("x ~ normal(0,1)\nx = 2\nreturn x"))

    def test_undefined_in_distribution_mean(self):
        with pytest.raises(TypeCheckError):
            typecheck(parse("x ~ normal(z, 1)\nreturn x"))

    def test_undefined_return(self):
        with pytest.raises(TypeCheckError):
            typecheck(parse("x ~ normal(0,1)\nreturn y"))

    def test_self_reference(self):
        with pytest.raises(TypeCheckError):
            typecheck(parse("x = x + 1\nreturn x"))

    def test_negative_variance_in_hand_built_ast(self):
        program = Program(
            statements=(Sample("x", NormalDist(Expr((Term(0.0, None),)), -1.0)),),
            returns=(Ident("x"),),
        )
        with pytest.raises(TypeCheckError):
            typecheck(program)


def _nodes(line, col):
    """One node of every class, each at ``(line, col)`` (a program has none)."""
    expr = Expr((Term(2.0, "x", line, col),), line, col)
    return [expr.terms[0], expr, NormalDist(expr, 1.0, line, col), UniformDist(line, col),
            Sample("x", UniformDist(line, col), line, col), Assign("y", expr, line, col),
            Observe(expr, expr, line, col), Ident("y", line, col),
            Program((Assign("y", expr, line, col),), (Ident("y", line, col),))]


class TestNodes:
    """The AST nodes' contract: equality and hash compare the fields before
    the position, a node equals only a node of its own class, and nodes are
    immutable and unordered."""

    _SOURCE = "a ~ normal(0, 1); u ~ uniform()\nx = 2*a - u + 0.5  # c\nobserve x == 1\nreturn x, a"

    @pytest.mark.parametrize("i", range(9))
    def test_positions_do_not_compare(self, i):
        a, b = _nodes(1, 2)[i], _nodes(3, 4)[i]
        assert a == b and not a != b and hash(a) == hash(b)
        assert repr(a) != repr(b)

    def test_fields_before_the_position_compare(self):
        assert Term(2.0, "x") != Term(2.0, "z") and not Term(2.0, "x") == Term(3.0, "x")
        assert Ident("x", 1, 1) != Ident("y", 1, 1)
        assert Assign("y", Expr(())) != Assign("y", Expr((Term(0.0, None),)))

    def test_a_node_equals_no_plain_tuple_and_no_other_class(self):
        assert Ident("x") != ("x", 0, 0) and ("x", 0, 0) != Ident("x")
        assert not Ident("x") == ("x", 0, 0) and not ("x", 0, 0) == Ident("x")
        assert UniformDist() != (0, 0) and Program((), ()) != ((), ())
        expr = Expr(())
        assert Assign("y", expr) != Sample("y", expr) and not Assign("y", expr) == Sample("y", expr)

    def test_a_uniform_equals_every_uniform(self):
        assert UniformDist(1, 2) == UniformDist() and hash(UniformDist(1, 2)) == hash(UniformDist())

    def test_construction_by_keyword_and_position(self):
        term = Term(coeff=2.0, var="x")
        assert term == Term(2.0, "x") and (term.line, term.col) == (0, 0)
        program = Program(statements=(), returns=(Ident("x", 3, 4),))
        assert program.returned_names == ("x",) and program.returns[0].col == 4

    @pytest.mark.parametrize("front_end", [parse, dsl._parse_tokens])
    def test_repr_shows_every_field(self, front_end):
        assert repr(front_end(self._SOURCE)) == (
            "Program(statements=(Sample(name='a', dist=NormalDist(mean=Expr(terms=(Term("
            "coeff=0.0, var=None, line=1, col=12),), line=1, col=12), variance=1.0, line=1, "
            "col=5), line=1, col=1), Sample(name='u', dist=UniformDist(line=1, col=23), line=1, "
            "col=19), Assign(name='x', expr=Expr(terms=(Term(coeff=2.0, var='a', line=2, col=7), "
            "Term(coeff=-1.0, var='u', line=2, col=11), Term(coeff=0.5, var=None, line=2, "
            "col=15)), line=2, col=5), line=2, col=1), Observe(lhs=Expr(terms=(Term(coeff=1.0, "
            "var='x', line=3, col=9),), line=3, col=9), rhs=Expr(terms=(Term(coeff=1.0, "
            "var=None, line=3, col=14),), line=3, col=14), line=3, col=1)), returns=(Ident("
            "name='x', line=4, col=8), Ident(name='a', line=4, col=11)))")

    @pytest.mark.parametrize("i", range(9))
    def test_fields_cannot_be_assigned(self, i):
        node = _nodes(1, 2)[i]
        for name in (*type(node).__annotations__, "extra"):
            with pytest.raises(AttributeError):
                setattr(node, name, None)

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_nodes_are_not_ordered(self, op):
        for a, b in [(Term(1.0, None), Term(2.0, None)), (Ident("a"), Ident("b")),
                     (Ident("a"), ("a", 0, 0))]:
            with pytest.raises(TypeError):
                op(a, b)
            with pytest.raises(TypeError):
                op(b, a)


def _rescaled(raises):
    """Known wrong answer of the generator's column rescaling: the x1 row
    underflows to 0 beside a column scaled for 1e400."""
    return pytest.mark.xfail(strict=True, raises=raises,
                             reason="column rescaling underflows the x1 row")


def _filter(q: float, steps: int = 400):
    """A filter of four states, uniform at first, ``x_t ~ normal(A x_{t-1},
    q)`` (an assignment for q = 0) with A of spectral radius 0.95 and mixed
    signs, observed twice a step as ``H x_t`` plus noise of variance 0.1, in
    3-decimal literals: ``(A, H, values, source)``."""
    rng = np.random.RandomState(3)
    a = rng.uniform(-1, 1, (4, 4))
    a = np.round(a * 0.95 / np.abs(np.linalg.eigvals(a)).max(), 3)
    h = np.round(rng.uniform(-1, 1, (2, 4)), 3)
    x, values, lines = rng.uniform(-1, 1, 4), [], [f"x0_{i} ~ uniform()" for i in range(4)]
    for t in range(1, steps + 1):
        x = a @ x + rng.normal(0, math.sqrt(q), 4)
        values.append(np.round(h @ x + rng.normal(0, math.sqrt(0.1), 2), 3) + 0.0)
        for i in range(4):
            mean = "".join(["0", *map(_signed, a[i].tolist(), [f"x{t - 1}_{j}" for j in range(4)])])
            lines.append(f"x{t}_{i} ~ normal({mean}, {q})" if q else f"x{t}_{i} = {mean}")
        for k in range(2):
            lines += [f"e{t}_{k} ~ normal(0, 0.1)", "".join(
                [f"observe e{t}_{k}", *map(_signed, h[k].tolist(), [f"x{t}_{j}" for j in range(4)]),
                 f" == {_literal(values[-1][k])}"])]
    assert 0.95 < np.abs(np.linalg.eigvals(a)).max() < 0.951
    return a, h, values, "\n".join(lines) + "\nreturn " + ", ".join(f"x{steps}_{i}" for i in range(4))


def _stable_2x2(count: int = 200, steps: int = 80):
    """``(M, source)`` for ``count`` matrices of entries U(-1.2, 1.2) to two
    decimals and spectral radius in (0.85, 0.99), each with the program that
    runs ``(x, y) <- M (x, y)`` for ``steps`` steps from uniform x0 and y0."""
    rng, out = np.random.RandomState(0), []
    while len(out) < count:
        m = np.round(rng.uniform(-1.2, 1.2, (2, 2)), 2) + 0.0
        if not 0.85 < np.abs(np.linalg.eigvals(m)).max() < 0.99:
            continue
        lines = ["x0 ~ uniform(); y0 ~ uniform()"]
        for t in range(1, steps + 1):
            last = (f"x{t - 1}", f"y{t - 1}")
            lines += ["".join([f"{v}{t} = 0", *map(_signed, row, last)])
                      for v, row in zip("xy", m.tolist())]
        out.append((m, "\n".join(lines) + f"\nreturn x{steps}, y{steps}"))
    return out


class TestInterpret:
    def test_exact_equality_posterior(self):
        report = interpret(parse("x ~ normal(0,1); y ~ normal(0,1); observe x == y; return x"))
        np.testing.assert_allclose(report.posterior.mean, [0.0], atol=1e-10)
        np.testing.assert_allclose(report.posterior.cov, [[0.5]], atol=1e-10)
        assert report.posterior.nondet.dim == 0

    def test_uninformative_partner(self):
        report = interpret(parse("y ~ uniform(); x ~ normal(0,1); observe x == y; return x"))
        assert report.posterior.equals(E.gaussian([0.0], [[1.0]]))

    def test_shared_offset_joint(self):
        report = interpret(parse(EXAMPLE_2_1))
        diag = Subspace.span([[1.0, 1.0]])
        assert report.posterior.equals(ExtendedGaussian(diag, [0, 0], np.eye(2)))
        assert report.posterior.equals(
            ExtendedGaussian(diag, [0, 0], np.diag([0.0, 2.0]))
        )

    def test_hierarchical_mean(self):
        report = interpret(parse("x ~ normal(0,1)\ny ~ normal(2*x + 1, 4)\nreturn y"))
        np.testing.assert_allclose(report.posterior.mean, [1.0], atol=1e-12)
        np.testing.assert_allclose(report.posterior.cov, [[8.0]], atol=1e-12)

    def test_constant_assignment(self):
        report = interpret(parse("x = 3\nreturn x"))
        assert report.posterior.equals(E.dirac([3.0]))

    def test_infeasible_observation_carries_location(self):
        program = parse("x = 0\nobserve x == 1\nreturn x")
        with pytest.raises(InfeasibleObservation) as err:
            interpret(program)
        assert str(err.value).startswith("2:1")

    def test_non_finite_observation_carries_location(self):
        # the overflow is caught where the assignment lowers it, not at the
        # observation that would first read it
        program = parse(
            "x ~ normal(0, 1)\ny = 1e308*x + 1e308*x\nz ~ normal(0, 1)\n"
            "observe z == y\nreturn z"
        )
        with np.errstate(all="ignore"), pytest.raises(NonFiniteInput) as err:
            interpret(program)
        assert str(err.value).startswith("2:1: ")

    def test_non_finite_marginal_carries_return_location(self, monkeypatch):
        def overflowing(*args, **kwargs):
            raise NonFiniteInput("cov has a NaN or infinite entry")

        monkeypatch.setattr("extgauss.dsl._condition_rows", overflowing)
        with pytest.raises(NonFiniteInput, match="^2:8: cov has a NaN or infinite entry$"):
            interpret(parse("x ~ normal(0, 1)\nreturn x"))

    @pytest.mark.parametrize("variance", [float("nan"), float("inf")])
    def test_non_finite_variance_in_hand_built_ast(self, variance):
        # typecheck passes it (nan < 0 is false); the parser never makes one
        mean = Expr((Term(0.0, None),))
        program = Program(
            statements=(
                Sample("x", NormalDist(mean, 1.0), 1, 1),
                Sample("y", NormalDist(mean, variance), 2, 1),
            ),
            returns=(Ident("x", 3, 8),),
        )
        typecheck(program)
        with pytest.raises(NonFiniteInput, match=f"^2:1: variance {variance!r} is not finite$"):
            interpret(program)

    def test_tolerance_is_reported(self):
        tol = Tolerance(eq_abs_tol=1e-6)
        report = interpret(parse("x ~ normal(0,1)\nreturn x"), tol)
        assert report.tolerance == 1e-6

    def test_returned_order_and_duplicates(self):
        report = interpret(parse("a ~ normal(1,1)\nb ~ normal(2,1)\nreturn b, a, b"))
        np.testing.assert_allclose(report.posterior.mean, [2.0, 1.0, 2.0], atol=1e-12)

    # The shear that defines y has norm 1e11; a rank cut of the pushed
    # nondeterminism relative to it (rank_rel_tol * 1e11 = 10) would drop
    # w's direction, which the invertible shear maps to norm 1.
    @pytest.mark.parametrize("prior", ["uniform()", "normal(0, 1)"])
    def test_steep_assignment_keeps_other_nondeterminism(self, prior):
        report = interpret(parse(f"x ~ {prior}; w ~ uniform(); y = 1e11*x; return w"))
        assert report.posterior.equals(E.uniform(1))

    def test_huge_coefficients_on_a_uniform_chain_stay_finite(self):
        # x3 = 1e400*x1: an unrescaled generator row overflows here
        report = interpret(parse(
            "x1 ~ uniform(); x2 = 1e200*x1; x3 = 1e200*x2; w ~ uniform(); return x1, x3, w"))
        assert report.posterior.nondet.dim == 2
        assert report.posterior.equals(ExtendedGaussian(
            Subspace.span([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), np.zeros(3), np.zeros((3, 3))))

    # x1 and x2 stay independent and completely unknown.  At 1e10 the
    # returned rows of the generator are 2^-34 times the identity, and
    # their rank is cut relative to their own norm.  At 1e200 the known
    # wrong answer remains: the generator's power-of-two column rescaling
    # after z underflows the x1 and x2 rows to 0, so the posterior keeps
    # no nondeterminism.
    @pytest.mark.parametrize("shear", [
        "y = 1e10*x1 + 1e10*x2",
        pytest.param("y = 1e200*x1 + 1e200*x2; z = 1e200*y", marks=pytest.mark.xfail(
            strict=True, reason="column rescaling underflows the returned rows")),
    ])
    def test_large_shears_keep_independent_nondeterminism(self, shear):
        report = interpret(parse(f"x1 ~ uniform(); x2 ~ uniform(); {shear}; return x1, x2"))
        assert report.posterior.nondet.dim == 2

    # z and z2 cancel exactly, leaving x2: a sum of the generator's terms
    # aligned at the largest column exponent would put x2 2^-1329 below z
    # and lose it before the cancellation
    _CANCELLING = ("x1 ~ uniform(); x2 ~ uniform(); w = 1e200*x1; z = 1e200*w; "
                   "z2 = 1e200*w; a = z - z2 + x2; ")

    def test_cross_column_cancellation_keeps_the_small_column(self):
        report = interpret(parse(self._CANCELLING + "return a"))
        assert report.posterior.equals(E.uniform(1))

    def test_cross_column_cancellation_then_observe(self):
        report = interpret(parse(self._CANCELLING + "observe a == 1; return x2"))
        assert report.posterior.equals(E.dirac([1.0]))

    # y's row of the generator holds entries 2^1993 apart, more than one
    # exponent per row can: each column keeps its own power of two, so the
    # observation pins x2 to rounding, and unobserved, y and x2 stay two
    # unknown directions
    _WIDE = "x1 ~ uniform(); x2 ~ uniform(); y = 1e300*x1 + 1e-300*x2; "

    def test_a_row_wider_than_one_exponent_is_observed(self):
        report = interpret(parse(self._WIDE + "observe y - 1e300*x1 == 1e-300; return x2"))
        assert report.posterior.nondet.dim == 0
        assert abs(report.posterior.mean[0] - 1.0) <= 1e-15

    def test_a_row_wider_than_one_exponent_keeps_both_directions(self):
        assert interpret(parse(self._WIDE + "return y, x2")).posterior.equals(E.uniform(2))

    # x1 stays completely unknown, or pinned at 1 when observed, however
    # steep the definitions after it; the generator's power-of-two column
    # rescaling after z underflows the x1 row to 0 instead
    _STEEP = "x1 ~ uniform(); y = 1e200*x1; z = 1e200*y; "

    @_rescaled(AssertionError)  # the point mass at 0
    def test_steep_chain_keeps_the_unknown(self):
        report = interpret(parse(self._STEEP + "return x1"))
        assert report.posterior.equals(E.uniform(1))

    @_rescaled(InfeasibleObservation)
    def test_steep_chain_observed(self):
        report = interpret(parse(self._STEEP + "observe x1 == 1; return x1"))
        assert report.posterior.equals(E.dirac([1.0]))

    @_rescaled(InfeasibleObservation)
    def test_steep_chain_observed_overflows(self):
        # z = 1e400 once x1 is pinned at 1
        with pytest.raises(NonFiniteInput):
            interpret(parse(self._STEEP + "observe x1 == 1; return z"))

    # In a stable recurrence with mixed-sign coefficients the generator's
    # entries decay like 0.894^t while their magnitudes before cancellation,
    # compounded over the statements, would grow like 2^t: each entry is
    # judged against the terms of its own statement, so none is residue
    @pytest.mark.parametrize("steps", [40, 60])
    def test_a_stable_recurrence_keeps_its_answer(self, steps):
        lines = ["x0 ~ uniform(); x1 ~ uniform(); observe x0 == 1; observe x1 == 0"]
        lines += [f"x{t} = 1.6*x{t - 1} - 0.8*x{t - 2}" for t in range(2, steps + 1)]
        x = [Fraction(1), Fraction(0)]  # exact, with the literals' float values
        for _ in range(steps - 1):
            x.append(Fraction(1.6) * x[-1] - Fraction(0.8) * x[-2])
        assert round(float(x[-1]), 7) == {40: 0.0178964, 60: -0.0022009}[steps]
        report = interpret(parse("\n".join(lines) + f"\nreturn x{steps}"))
        assert report.posterior.nondet.dim == 0
        assert abs(report.posterior.mean[0] - float(x[-1])) <= 1e-9 * abs(float(x[-1]))

    # a rotation by 32.5 degrees shrunk by 0.8 a step: no cancellation is residue
    @pytest.mark.parametrize("steps", [80, 160])
    def test_a_stable_rotation_keeps_its_answer(self, steps):
        lines = ["x0 ~ uniform(); y0 ~ uniform(); observe x0 == 1; observe y0 == 0"]
        lines += [f"x{t} = 0.8*x{t - 1} - 0.5*y{t - 1}; y{t} = 0.5*x{t} + 0.8*y{t - 1}"
                  for t in range(1, steps + 1)]
        x, y = Fraction(1), Fraction(0)
        for _ in range(steps):
            x = Fraction(0.8) * x - Fraction(0.5) * y
            y = Fraction(0.5) * x + Fraction(0.8) * y
        report = interpret(parse("\n".join(lines) + f"\nreturn x{steps}, y{steps}"))
        assert report.posterior.nondet.dim == 0
        exact = np.array([float(x), float(y)])
        assert np.abs(report.posterior.mean - exact).max() <= 1e-9 * np.abs(exact).max()

    def test_a_long_filter_matches_the_library(self):
        a, h, values, source = _filter(1e-4)
        state = E.uniform(4)
        step = E.ExtendedGaussianMap(Subspace.zero(4), a, np.zeros(4), 1e-4 * np.eye(4))
        noise, observed = E.gaussian(np.zeros(2), 0.1 * np.eye(2)), np.hstack([h, np.eye(2)])
        for z in values:
            state = E.tensor(E.compose(step, state), noise)
            state = E.marginal(E.observe(state, observed, z), range(4))
        report = interpret(parse(source))
        assert report.posterior.nondet.dim == state.nondet.dim == 0
        for got, expected in ((report.posterior.mean, state.mean), (report.posterior.cov, state.cov)):
            assert np.abs(got - expected).max() <= 1e-9 * np.abs(expected).max()

    # A known loss of accuracy: with no process noise the magnitudes of the
    # observed rows' generators span 2^30, and the conditioning scales each
    # row by its magnitude, which leaves the mean 8.5e-9 off where unscaled
    # rows give 1.3e-15.  The oracle is the dense least-squares estimate of x_0 from
    # the rows H A^t, carried to the last step by A^400.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the conditioning's row scaling amplifies rounding")
    def test_a_long_noiseless_filter_matches_least_squares(self):
        a, h, values, source = _filter(0.0)
        power, rows = np.eye(4), []
        for _ in values:
            power = a @ power
            rows.append(h @ power)
        mean = power @ np.linalg.lstsq(np.vstack(rows), np.concatenate(values), rcond=None)[0]
        report = interpret(parse(source))
        assert report.posterior.nondet.dim == 0
        assert np.abs(report.posterior.mean - mean).max() <= 1e-9 * np.abs(mean).max()

    # 200 stable 2 x 2 recurrences of 80 steps, observed at the start or not
    def test_stable_2x2_recurrences_keep_their_answer(self):
        wrong = []
        for m, source in _stable_2x2():
            f = [[Fraction(c) for c in row] for row in m.tolist()]
            x, y = Fraction(1), Fraction(0)
            for _ in range(80):
                x, y = f[0][0] * x + f[0][1] * y, f[1][0] * x + f[1][1] * y
            report = interpret(parse(source.replace("\n", "\nobserve x0 == 1; observe y0 == 0\n", 1)))
            exact = np.array([float(x), float(y)])
            if (report.posterior.nondet.dim or np.abs(report.posterior.mean - exact).max()
                    > 1e-9 * np.abs(exact).max()):
                wrong.append(m.tolist())
        assert not wrong, wrong

    def test_stable_2x2_recurrences_keep_their_nondeterminism(self):
        # only where M^80 has full rank beyond doubt: a triangular M with a
        # small diagonal entry, as [[0.06, 0], [1.05, 0.91]], has exact rank 2
        # and no cancellation, however large its condition number
        wrong, count = [], 0
        for m, source in _stable_2x2():
            if np.linalg.cond(np.linalg.matrix_power(m, 80)) < 1e8:
                count += 1
                if interpret(parse(source)).posterior.nondet.dim != 2:
                    wrong.append(m.tolist())
        assert count == 88 and not wrong, wrong

    _OVERFLOWING_ROW = "y = 1e308*x + 1e308*a + 1e308*b + 1e308*c"

    def test_overflowing_nondeterminism_is_located(self):
        # each of x, a, b, c carries half the one uniform column: 4 * 0.5e308
        program = parse(f"x ~ uniform(); a = x; b = x; c = x; {self._OVERFLOWING_ROW}; return y")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput,
                               match="^1:37: nondeterministic part of 'y' overflows$"):
                interpret(program)

    def test_overflowing_observed_row_is_reported(self):
        # the same sum, observed: an overflow, not residue of a cancellation
        program = parse("x ~ uniform(); a = x; b = x; c = x; "
                        f"observe {self._OVERFLOWING_ROW[4:]} == 1; return x")
        with pytest.raises(NonFiniteInput,
                           match="^1:37: nondeterministic part of the observed residual overflows$"):
            interpret(program)

    def test_overflowing_nondeterminism_is_retried_after_observing(self):
        report = interpret(parse(
            f"x ~ uniform(); v ~ uniform(); a = x; b = x; c = x; observe x == 0; "
            f"{self._OVERFLOWING_ROW} + v; return y, v"))
        assert report.posterior.equals(
            ExtendedGaussian(Subspace.span([[1.0, 1.0]]), np.zeros(2), np.zeros((2, 2))))

    # A subnormal coefficient puts the observed row's binary exponent 1064
    # below the returned one's, so the conditioner's power-of-two maps
    # between the rows span more than a float holds.
    # Both programs are feasible (x = 1, and x = 0 with z = 0); the first is
    # still refused, as the gain overflows, but neither makes numpy warn or
    # hands an infinite entry to an SVD.
    _SUBNORMAL = "x ~ uniform(); y = 1e-320*x; observe y == 1e-320; return x"
    _SUBNORMAL_BASIS = ("x ~ uniform(); z ~ normal(0, 1); y = 1e-320*x + z; "
                        "observe y == 0; observe x == 0; return z")

    def test_a_subnormal_gain_overflows_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput, match="^1:30: mean has a NaN or infinite entry$"):
                interpret(parse(self._SUBNORMAL))

    def test_a_subnormal_row_scales_the_returned_basis_without_a_warning(self, monkeypatch):
        svd, seen = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: seen.append(
            np.isfinite(a).all()) or svd(a, *args, **kwargs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = interpret(parse(self._SUBNORMAL_BASIS))
        assert report.posterior.equals(E.dirac([0.0]))
        assert seen and all(seen), seen

    def test_report_json_fields(self):
        report = interpret(parse("x ~ normal(0,1)\nreturn x"))
        assert set(report.to_dict()) == {
            "variables",
            "mean",
            "cov",
            "nondet_basis",
            "tolerance",
        }


class TestArrayLowering:
    """Each definition writes its mean and its rows of the Gaussian factor
    and of the generator as one combination of the rows it reads, with no
    covariance and no factorization; the sequential reference shears every
    definition in."""

    @pytest.mark.parametrize("source", [
        "z = 0; y ~ normal(2*z + 1, 3); return y",
        "x ~ uniform(); a = x; y ~ normal(2*a + 1, 2); observe y == 3; return x, a, y",
        "x ~ uniform(); observe x == 2; y ~ normal(3*x - 1, 1); return x, y",
        "x ~ uniform(); a = x; b = 2*a; w ~ normal(b, 1); u ~ normal(w + a, 1); return u, b",
        "x ~ uniform(); observe 1e-11*x == 2e-11; return x",
    ])
    def test_point_masses_match_the_reference(self, source):
        program = parse(source)
        got, expected = interpret(program), _reference_interpret(program)
        assert _max_gap(got.posterior, expected.posterior) <= 1e-12

    def test_every_coordinate_is_live_after_the_overflow_retry(self):
        # the retry conditions on the pending observations, so v, a uniform
        # before it, has the Gaussian part N(1, 0) when w reads it
        program = parse(
            "x ~ uniform(); v ~ uniform(); a = x; b = x; c = x; observe x == 0; "
            "observe v == 1; y = 1e308*x + 1e308*a + 1e308*b + 1e308*c + v; "
            "w ~ normal(2*v, 1); return y, w")
        report = interpret(program)
        assert report.posterior.equals(E.gaussian([1.0, 2.0], [[0.0, 0.0], [0.0, 1.0]]))
        assert _max_gap(report.posterior, _reference_interpret(program).posterior) <= 1e-12

    @pytest.mark.parametrize("source", [
        "x ~ uniform(); a = x; z = 0; y ~ normal(3*a + 2*z + 1, 2); return y",
        "x ~ uniform(); u ~ normal(x, 1); y ~ normal(u + x, 2); observe y == 1; return u",
    ])
    def test_lowering_makes_no_factorization(self, monkeypatch, source):
        counts, before = _count_factorizations(monkeypatch), []
        condition = dsl._condition
        monkeypatch.setattr(dsl, "_condition",
                            lambda *args: before.append(sum(counts.values())) or condition(*args))
        interpret(parse(source))
        assert before == [0], counts

    def test_no_extended_gaussian_is_built_per_statement(self):
        for name in ("tensor", "pushforward", "_normal"):
            assert not hasattr(dsl, name)

    @staticmethod
    def _watch_columns(monkeypatch) -> list:
        """Check after every statement that returns, and after every overflow
        flush, that each used column of g has its largest entry in [0.5, 1),
        over every row, as observed rows hold columns too; the coordinates
        of each flush are appended to the returned list."""
        def check(s, n):
            top = np.abs(s.g[:, : s.u]).max(axis=0, initial=0.0)
            assert np.all((0.5 <= top) & (top < 1.0)), top

        def step(s, stmt, index, *args):
            run_step(s, stmt, index, *args)
            check(s, len(index))

        def refill(s, n, *args):
            run_refill(s, n, *args)
            flushes.append(n)
            check(s, n)

        flushes, run_step, run_refill = [], dsl._step, dsl._refill
        monkeypatch.setattr(dsl, "_step", step)
        monkeypatch.setattr(dsl, "_refill", refill)
        return flushes

    @pytest.mark.parametrize("seed", range(40))
    def test_generator_columns_stay_normalized(self, seed, monkeypatch):
        # a uniform enters its column at 0.5 and a definition rescales the
        # columns its row leads by a power of two, so no column maximum
        # needs storing: each lies in [0.5, 1) after every statement
        rng = np.random.default_rng(8400 + seed)
        self._watch_columns(monkeypatch)
        try:
            interpret(parse(_steep_source(rng)))
        except InfeasibleObservation:
            pass  # the columns were lowered all the same

    def test_generator_columns_stay_normalized_after_each_flush(self, monkeypatch):
        # the flush writes the posterior's generator rows with each column
        # scaled into [0.5, 1), and the retried statement keeps it there
        flushes = self._watch_columns(monkeypatch)
        retry, small = TestDeferredObservations._RETRY, TestDeferredObservations._SMALL
        row = TestInterpret._OVERFLOWING_ROW
        sources = [source for source, _ in OVERFLOW_AND_INFEASIBLE] + [
            retry + "return w, a", retry + "return w, x", retry + "observe a == 2; return w, a",
            small + "observe x1 == 1; return y", small + "return x1",
            f"x ~ uniform(); v ~ uniform(); a = x; b = x; c = x; observe x == 0; {row} + v; "
            "return y, v",
            f"x ~ uniform(); v ~ uniform(); a = x; b = x; c = x; observe x == 0; observe v == 1; "
            f"{row} + v; w ~ normal(2*v, 1); return y, w",
        ]
        for source in sources:
            try:
                interpret(parse(source))
            except (InfeasibleObservation, NonFiniteInput):
                pass  # the flushes before the error were checked all the same
        assert len(flushes) >= len(sources) - len(OVERFLOW_AND_INFEASIBLE), flushes

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
                    min_size=1, max_size=4),
           st.data(),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_a_one_term_row_loses_nothing_to_the_residue_cut(self, c, w, data, rank_rel_tol):
        # |fl(c g)| = fl(|c| |g|) for one product, so the row is its own
        # magnitude and a cut below 1 keeps every entry: _step skips it
        j = data.draw(st.integers(min_value=0, max_value=len(w) - 1))
        c, w = np.array([c]), np.array(w)
        with np.errstate(over="ignore"):
            g = c.dot(w.take([j], axis=0))
            mag = np.abs(c).dot(np.abs(w.take([j], axis=0)))
        before = g.copy()
        dsl._drop_residue(g, mag, Tolerance(rank_rel_tol=rank_rel_tol))
        assert g.tobytes() == before.tobytes()

    def test_the_definitions_of_a_chain_make_no_residue_cut(self, monkeypatch):
        # every definition of a chain reads one row, and every observation
        # observes one variable, so it writes no row: nothing is cut
        calls = []
        drop = dsl._drop_residue
        monkeypatch.setattr(dsl, "_drop_residue", lambda *args: calls.append(1) or drop(*args))
        interpret(parse(_chain_program(12)))
        assert not calls


def _steep_source(rng) -> str:
    """A random program of uniforms, samples and assignments whose
    coefficients span sixteen orders of magnitude, with an observation or
    two: no sum can overflow, and the columns of ``g`` are rescaled often."""
    lines, names = [], []
    for i in range(int(rng.integers(3, 10))):
        kind = rng.choice(["uniform", "normal", "assign"] if names else ["uniform"])
        if kind == "uniform":
            lines.append(f"v{i} ~ uniform()")
        else:
            terms = "".join(
                f"{float(rng.choice([3e-8, 0.3, 0.7, 1.0, 3.0, 1e8]))!r}*{names[j]} + "
                for j in rng.choice(len(names), size=min(len(names), int(rng.integers(1, 4))),
                                    replace=False))
            lines.append(f"v{i} ~ normal({terms}1, 0.5)" if kind == "normal" else f"v{i} = {terms}1")
        names.append(f"v{i}")
        if rng.random() < 0.2:
            lines.append(f"observe {names[int(rng.integers(0, len(names)))]} == 1")
    return "\n".join(lines) + f"\nreturn {names[-1]}\n"


def _random_straightline(rng, n_stmts):
    """A random observe-free program plus its law computed independently,
    by tracking every variable as an affine combination of primitive
    noise sources."""
    stmts = []
    names = []
    source_kinds = []  # 'g' with variance, or 'u'
    rows = []  # per variable: coefficients over sources
    consts = []

    def random_expr():
        terms = []
        coeffs = {}
        const = 0.0
        if names:
            for _ in range(int(rng.integers(0, 3))):
                coeff = float(rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]))
                var = names[int(rng.integers(0, len(names)))]
                terms.append(Term(coeff, var))
                coeffs[var] = coeffs.get(var, 0.0) + coeff
        c = float(rng.integers(-3, 4))
        terms.append(Term(c, None))
        const += c
        return Expr(tuple(terms)), coeffs, const

    for i in range(n_stmts):
        name = f"v{i}"
        kind = rng.choice(["normal", "uniform", "assign"] if names else ["normal", "uniform"])
        if kind == "uniform":
            stmts.append(Sample(name, UniformDist()))
            source_kinds.append(("u", None))
            row = np.zeros(len(source_kinds))
            row[-1] = 1.0
            rows = [np.append(r, 0.0) for r in rows]
            rows.append(row)
            consts.append(0.0)
        else:
            expr, coeffs, const = random_expr()
            combo = np.zeros(len(source_kinds))
            base = const
            for var, coeff in coeffs.items():
                combo = combo + coeff * rows[names.index(var)]
                base += coeff * consts[names.index(var)]
            if kind == "normal":
                variance = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
                stmts.append(Sample(name, NormalDist(expr, variance)))
                source_kinds.append(("g", variance))
                rows = [np.append(r, 0.0) for r in rows]
                rows.append(np.append(combo, 1.0))
                consts.append(base)
            else:
                stmts.append(Assign(name, expr))
                rows.append(combo.copy())
                consts.append(base)
        names.append(name)

    count = int(rng.integers(1, len(names) + 1))
    returned = [names[int(i)] for i in rng.choice(len(names), size=count, replace=False)]
    program = Program(tuple(stmts), tuple(Ident(r) for r in returned))

    sel = [names.index(r) for r in returned]
    coeff_matrix = np.array([rows[i] for i in sel]) if sel else np.zeros((0, 0))
    if coeff_matrix.size == 0:
        coeff_matrix = coeff_matrix.reshape(len(sel), len(source_kinds))
    mean = np.array([consts[i] for i in sel])
    g_cols = [j for j, (k, _) in enumerate(source_kinds) if k == "g"]
    u_cols = [j for j, (k, _) in enumerate(source_kinds) if k == "u"]
    g_vars = np.array([source_kinds[j][1] for j in g_cols])
    cg = coeff_matrix[:, g_cols] if g_cols else np.zeros((len(sel), 0))
    cov = (cg * g_vars) @ cg.T if g_cols else np.zeros((len(sel), len(sel)))
    nondet = Subspace.span(
        [coeff_matrix[:, j] for j in u_cols], ambient_dim=len(sel)
    )
    return program, ExtendedGaussian(nondet, mean, cov)


class TestInterpreterEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_straightline_matches_source_tracking(self, seed):
        rng = np.random.default_rng(8000 + seed)
        program, expected = _random_straightline(rng, int(rng.integers(1, 7)))
        report = interpret(program)
        assert report.posterior.equals(expected, Tolerance(eq_abs_tol=1e-7))

    @pytest.mark.parametrize("seed", range(15))
    def test_observation_order_invariance(self, seed):
        rng = np.random.default_rng(8100 + seed)
        base = (
            "a ~ normal(1,2)\n"
            "b ~ normal(0,1)\n"
            "u ~ uniform()\n"
            "s = a + b + u\n"
            "t = a - b\n"
        )
        obs = ["observe s == 2", "observe t == a - 1"]
        if rng.random() < 0.5:
            obs.reverse()
        one = interpret(parse(base + "\n".join(obs) + "\nreturn a, b, u"))
        two = interpret(parse(base + "\n".join(reversed(obs)) + "\nreturn a, b, u"))
        assert one.posterior.equals(two.posterior, Tolerance(eq_abs_tol=1e-7))


def _affine_text(rng, names, truth, count):
    """A random affine expression over ``count`` distinct names (constant
    first: the grammar has no unary minus) and its value at ``truth``."""
    const = float(rng.integers(0, 4))
    text, value = repr(const), const
    for j in rng.choice(len(names), size=min(count, len(names)), replace=False):
        coeff = float(rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]))
        text += f" {'-' if coeff < 0 else '+'} {abs(coeff)!r}*{names[j]}"
        value += coeff * truth[names[j]]
    return text, float(value)


def _literal(x: float) -> str:
    x = float(x)
    return repr(x) if x >= 0 else f"0 - {-x!r}"


def _random_observed_source(rng, conflicts=0, overflows=0):
    """A random program of samples, uniforms, assignments and observations,
    one statement per line, and the first error it must raise.

    Every observation holds at one simulated draw, so together they are
    feasible.  Each of ``conflicts`` repeats an earlier observation at a
    value off by one (infeasible); each of ``overflows`` is an assignment or
    an observation whose coefficient overflows.  Unit-scale variances and
    coefficients keep every rank decision far from the cutoff.  Returns
    ``(source, error)``, ``error`` being ``(exception type, line)`` or None.
    """
    lines, names, truth, observed, error = [], [], {}, [], None
    extra = ["conflict"] * conflicts + ["overflow"] * overflows
    for i in range(int(rng.integers(2, 9))):
        name = f"v{i}"
        kind = rng.choice(["normal", "uniform", "assign"] if names else ["normal", "uniform"])
        if kind == "uniform":
            lines.append(f"{name} ~ uniform()")
            truth[name] = float(rng.uniform(-2.0, 2.0))
        elif kind == "normal":
            mean, value = _affine_text(rng, names, truth, int(rng.integers(0, 3)))
            variance = float(rng.choice([0.5, 1.0, 2.0]))
            lines.append(f"{name} ~ normal({mean}, {variance!r})")
            truth[name] = value + np.sqrt(variance) * float(rng.standard_normal())
        else:
            expr, truth[name] = _affine_text(rng, names, truth, int(rng.integers(1, 3)))
            lines.append(f"{name} = {expr}")
        names.append(name)
        while rng.random() < 0.5:
            lhs, value = _affine_text(rng, names, truth, int(rng.integers(1, 4)))
            lines.append(f"observe {lhs} == {_literal(value)}")
            observed.append((lhs, value))
        if extra and rng.random() < 0.3 and (observed or "overflow" in extra):
            what = extra.pop(int(rng.integers(0, len(extra))))
            if what == "conflict" and not observed:
                what = extra.pop(extra.index("overflow"))
                extra.append("conflict")
            if what == "conflict":
                lhs, value = observed[int(rng.integers(0, len(observed)))]
                lines.append(f"observe {lhs} == {_literal(value + 1.0)}")
                raised = InfeasibleObservation
            elif rng.random() < 0.5:
                lines.append(f"w{i} = 1e308*{name} + 1e308*{name}")
                raised = NonFiniteInput
            else:
                lines.append(f"observe 1e308*{name} == 0 - 1e308*{name}")
                raised = NonFiniteInput
            error = error or (raised, len(lines))
    returned = rng.choice(names, size=int(rng.integers(1, min(3, len(names)) + 1)), replace=False)
    lines.append("return " + ", ".join(returned))
    return "\n".join(lines) + "\n", error


def _outcome(run, program):
    """The posterior report, or the raised error's type and message."""
    try:
        return run(program)
    except (InfeasibleObservation, NonFiniteInput) as exc:
        return type(exc), str(exc)


def _multiscale_body(rng):
    """The statements of a random program whose variances span sixteen
    orders of magnitude, and its variable names.  Each observation reads
    one variable at its simulated value; one in ten is off by one."""
    lines, names, truth = [], [], {}
    coeffs = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 1e3, 1e-3]
    for i in range(int(rng.integers(2, 10))):
        name = f"v{i}"
        kind = rng.choice(["uniform", "normal", "assign"] if names else ["uniform", "normal"])
        if kind == "uniform":
            lines.append(f"{name} ~ uniform()")
            value = float(rng.uniform(-2.0, 2.0))
        else:
            text = repr(float(rng.integers(0, 4)))
            value = float(text)
            lo = 0 if kind == "normal" else 1
            for j in rng.choice(len(names), size=min(int(rng.integers(lo, 3)), len(names)),
                                replace=False):
                c = float(rng.choice(coeffs))
                text += f" {_signed(c, names[j])}"
                value += c * truth[names[j]]
            if kind == "normal":
                variance = 10.0 ** float(rng.uniform(-8.0, 8.0))
                lines.append(f"{name} ~ normal({text}, {variance!r})")
                value += np.sqrt(variance) * float(rng.standard_normal())
            else:
                lines.append(f"{name} = {text}")
        truth[name] = value
        names.append(name)
        if rng.random() < 0.4:
            seen = names[int(rng.integers(0, len(names)))]
            off = 1.0 if rng.random() < 0.1 else 0.0
            lines.append(f"observe {seen} == {_literal(truth[seen] + off)}")
    return "\n".join(lines) + "\n", names


class TestVerdictIgnoresTheReturnList:
    """Whether the observations are feasible is a property of the joint, so
    it cannot depend on which variables a program returns: the rank cuts
    are anchored at the largest variance of a definition or an observed
    row, never at a norm of the returned rows."""

    MOTIVATION = ("x ~ normal(0, 1); d ~ normal(0, 5e-10); y = x + d; "
                  "observe x == 1; observe y == 1.00001; return ")

    @pytest.mark.parametrize("returns", ["x", "x, x, x, x", "d", "x, d"])
    def test_a_tiny_variance_beside_a_unit_one_is_answered(self, returns):
        # y - x = d is a 0.45 sigma draw of d, feasible whatever is returned
        report = interpret(parse(self.MOTIVATION + returns))
        expected = {"x": 1.0, "d": 1e-5}
        for name, mean in zip(report.variables, report.posterior.mean):
            assert abs(mean - expected[name]) <= 1e-12, (name, mean)
        assert report.posterior.nondet.dim == 0

    # y reads x2 through 3e-10, above the cut: the returned nondeterminism is
    # cut at rank_rel_tol on the magnitude-scaled rows, so copies of x1, which
    # grow the largest singular value, drop no direction
    @pytest.mark.parametrize("returns", ["x1, y", "x1, x1, x1, x1, x1, x1, x1, x1, y"])
    def test_duplicated_returns_keep_every_unknown_direction(self, returns):
        report = interpret(parse("x1 ~ uniform(); x2 ~ uniform(); y = x1 + 3e-10*x2; "
                                 f"return {returns}"))
        assert report.posterior.nondet.dim == 2

    @staticmethod
    def _verdict(source):
        """The raised error's type and message, or None."""
        got = _outcome(interpret, parse(source))
        return got if isinstance(got, tuple) else None

    def test_first_variable_and_every_variable_thrice_agree(self):
        differ = []
        for seed in range(400):
            body, names = _multiscale_body(np.random.default_rng(seed))
            one = self._verdict(body + f"return {names[0]}\n")
            every = self._verdict(body + "return " + ", ".join(names * 3) + "\n")
            if one != every:
                differ.append((seed, one, every))
        assert differ == []


# Programs whose inference overflows, infeasible programs whose first
# failure must be found among several pending observations, and programs
# where observing first, in program order, keeps a definition finite.
OVERFLOW_AND_INFEASIBLE = [
    ("x ~ normal(0, 1e300); observe x == 0; y = 1e300*x; return y", None),
    ("x ~ normal(0, 1e300); y ~ normal(0, 1); observe 1e10*x == y; return x",
     (NonFiniteInput, "1:41: cov has a NaN or infinite entry")),
    ("x = 0\nobserve x == 0\na ~ normal(0,1)\nobserve a == 2\nobserve x == 1\n"
     "observe a == 3\nreturn x", (InfeasibleObservation, "5:1: ")),
    ("x ~ normal(0, 1e300); y = 1e300*x; return y",
     (NonFiniteInput, "1:23: cov has a NaN or infinite entry")),
    ("x ~ normal(0, 1); y = 1e200*x; return x",
     (NonFiniteInput, "1:19: cov has a NaN or infinite entry")),
    ("x ~ normal(0, 1e300); observe x == 0; observe 1e10*x == 0; return x", None),
    ("x ~ normal(0, 1e300); observe x == 0; observe 1e10*x == 0; y = 1e300*x; return y", None),
    ("x ~ normal(0, 1e300); z = 0; observe z == 1; y = 1e300*x; return y",
     (InfeasibleObservation, "1:30: ")),
    ("x ~ normal(0, 1e300); observe x == 1; z ~ normal(0, 1); observe 1e10*x == z; return z",
     None),
    ("a = 1; b = 2; observe a == 1; observe b == 2; observe a + b == 3; observe b == 1; "
     "observe a == 0; return a", (InfeasibleObservation, "1:67: ")),
]


_SPLIT_COEFFS = (0.1, 0.2, 0.3, 0.7, 1.1, 2.5)


def _signed(coeff: float, name: str) -> str:
    return f"{'-' if coeff < 0 else '+'} {abs(coeff)!r}*{name}"


@st.composite
def _deterministic_conflicts(draw):
    """A random program that observes deterministic combinations at wrong
    values, and the line of the first such observation.

    ``d = c + s1*x + s2*x + ...`` is observed as ``d - t*x - ... == c + off``
    with ``t`` the decimal ``s1 + s2``, whose float differs from the sum by
    rounding, so the observed row is rounding residue: off its support for
    any ``off`` of unit size.  Feasible observations in between each pin a
    fresh noisy normal, so no earlier observation shrinks the covariance to
    residue scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines, names, truth, first = [], [], {}, None
    for i in range(draw(st.integers(2, 7))):
        name = f"v{i}"
        if not names or rng.random() < 0.4:
            uniform = rng.random() < 0.4
            lines.append(f"{name} ~ {'uniform()' if uniform else 'normal(1.0, 0.5)'}")
            truth[name] = float(rng.uniform(-2.0, 2.0))
        else:
            mean, value = _affine_text(rng, names, truth, int(rng.integers(1, 3)))
            lines.append(f"{name} ~ normal({mean}, 1.0)")
            truth[name] = value + float(rng.standard_normal())
            if rng.random() < 0.5:
                lines.append(f"observe {name} == {_literal(truth[name])}")
        names.append(name)
        if rng.random() < 0.5:
            const = float(rng.integers(-3, 4))
            parts, rest = [f"d{i} = {_literal(const)}"], [f"d{i}"]
            for x in rng.choice(names, size=int(rng.integers(1, min(3, len(names)) + 1)),
                                replace=False):
                s1, s2 = (float(rng.choice(_SPLIT_COEFFS)) for _ in range(2))
                sign = float(rng.choice([-1.0, 1.0]))
                parts += [_signed(sign * s1, x), _signed(sign * s2, x)]
                rest.append(_signed(-sign * round(s1 + s2, 10), x))
            lines.append(" ".join(parts))
            off = float(rng.choice([-2.0, -1.0, 1.0, 2.5]))
            lines.append(f"observe {' '.join(rest)} == {_literal(const + off)}")
            first = first or len(lines)
    lines.append(f"return {names[-1]}")
    return "\n".join(lines) + "\n", first


class TestDeferredObservations:
    """The interpreter defers every observation to one conditional of the
    observed and returned rows; the sequential reference conditions at each
    observation.  They must agree."""

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_sequential_reference(self, seed):
        rng = np.random.default_rng(8200 + seed)
        source, error = _random_observed_source(rng)
        assert error is None
        program = parse(source)
        got, expected = interpret(program), _reference_interpret(program)
        assert got.variables == expected.variables
        assert _max_gap(got.posterior, expected.posterior) <= 1e-9, source

    @pytest.mark.parametrize("seed", range(40))
    def test_first_error_matches_sequential_reference(self, seed):
        rng = np.random.default_rng(8300 + seed)
        source, error = _random_observed_source(
            rng, conflicts=int(rng.integers(0, 3)), overflows=int(rng.integers(0, 3)))
        program = parse(source)
        got, expected = _outcome(interpret, program), _outcome(_reference_interpret, program)
        if error is None:
            assert _max_gap(got.posterior, expected.posterior) <= 1e-9, source
            return
        kind, line = error
        assert isinstance(got, tuple) and isinstance(expected, tuple), source
        assert got[0] is expected[0] is kind, source
        assert got[1].split(": ")[0] == expected[1].split(": ")[0] == f"{line}:1", source

    @pytest.mark.parametrize("source, error", OVERFLOW_AND_INFEASIBLE)
    def test_overflow_and_infeasible_programs(self, source, error):
        program = parse(source)
        got, expected = _outcome(interpret, program), _outcome(_reference_interpret, program)
        if error is None:
            assert _max_gap(got.posterior, expected.posterior) <= 1e-9
            return
        assert got == expected
        assert got[0] is error[0] and got[1].startswith(error[1])

    def test_overflow_after_an_observation_is_avoided(self):
        report = interpret(parse("x ~ normal(0, 1e300); observe x == 0; y = 1e300*x; return y"))
        assert report.posterior.equals(E.dirac([0.0]))

    # The overflow at w conditions on the two pending observations first, and
    # the run goes on from that posterior.  Its basis reads a's row as the
    # residue of 0.3*0.7 - 0.7*0.3, which must stay no rank: a is pinned at 1.
    # The sequential reference loses x's direction, so the x case is written out.
    _RETRY = ("x ~ uniform(); v ~ uniform(); a = 0.3*x + 0.7*v; observe a == 1; "
              "z ~ normal(0, 1e300); observe z == 0; w = 1e300*z; ")

    def test_overflow_retry_keeps_an_earlier_observation(self):
        program = parse(self._RETRY + "return w, a")
        report = interpret(program)
        assert report.posterior.equals(E.dirac([0.0, 1.0]))
        assert _max_gap(report.posterior, _reference_interpret(program).posterior) <= 1e-12
        xs = interpret(parse(self._RETRY + "return w, x")).posterior
        assert xs.equals(
            ExtendedGaussian(Subspace.span([[0.0, 1.0]]), np.zeros(2), np.zeros((2, 2))))

    # After y, x1's generator row is 2^-37, a real row far below
    # rank_rel_tol.  The refill keeps that scale in its magnitude, so x1
    # still has rank after the retry at w: observing it pins y, and
    # returning it leaves it unknown.  The refill writes the conditioner's
    # generator rows, each in its own row's units, so x1's row keeps its
    # relative accuracy and y is exact to rounding: an orthonormal basis
    # of the posterior holds x1's 1e-11 entry only to about 8e-8 relative.
    _SMALL = "x1 ~ uniform(); y = 1e11*x1; z ~ normal(0, 1e300); observe z == 0; w = 1e300*z; "

    def test_overflow_retry_keeps_a_small_row_observable(self):
        report = interpret(parse(self._SMALL + "observe x1 == 1; return y"))
        assert report.posterior.nondet.dim == 0
        np.testing.assert_allclose(report.posterior.mean, [1e11], rtol=1e-12)
        np.testing.assert_allclose(report.posterior.cov, [[0.0]], atol=0.0)

    def test_overflow_retry_keeps_a_small_row_unknown(self):
        report = interpret(parse(self._SMALL + "return x1"))
        assert report.posterior.equals(
            ExtendedGaussian(Subspace.full(1), np.zeros(1), np.zeros((1, 1))))

    @pytest.mark.parametrize("source", [
        "x ~ normal(0, 1e300); observe x == 0; y = 1e300*x; return y",
        _RETRY + "u ~ normal(w, 1); return w, a, u",
    ])
    def test_no_zero_factor_column_after_a_flush(self, monkeypatch, source):
        # the flush conditions away the observed normals' columns and keeps
        # only the posterior factor's width, so a later normal takes the
        # next column and no call conditions on a column of zeros
        calls = []
        monkeypatch.setattr("extgauss.dsl._condition_rows",
                            lambda *a: calls.append(a[1]) or E._condition_rows(*a))
        interpret(parse(source))
        assert len(calls) >= 2  # the flush and the final conditional
        for f in calls:
            assert not np.all(f == 0.0, axis=0).any(), f

    def test_overflow_retry_refuses_a_conflicting_observation(self):
        program = parse(self._RETRY + "observe a == 2; return w, a")
        for run in (interpret, _reference_interpret):
            with pytest.raises(InfeasibleObservation, match="^1:117: "):
                run(program)

    def test_rounding_residue_is_no_support(self):
        # the observed row is 2.8e-17 times x1's generator column: residue,
        # since the generator's columns are scaled to a largest entry near 1
        program = parse("x1 ~ uniform(); a = 0.1*x1 + 0.2*x1; observe a - 0.3*x1 == 5; return x1")
        for run in (interpret, _reference_interpret):
            with pytest.raises(InfeasibleObservation, match="^1:38: "):
                run(program)

    def test_observed_rows_of_different_scales(self):
        # the observed rows of the generator are cut at rank_rel_tol, not
        # relative to their largest singular value (1e11 here), which would
        # drop x2's direction and refuse the second observation
        program = parse(
            "x1 ~ uniform(); x2 ~ uniform(); observe 1e11*x1 == 1; observe x2 == 3; return x1, x2")
        report = interpret(program)
        assert report.posterior.equals(E.dirac([1e-11, 3.0]))
        assert _max_gap(report.posterior, _reference_interpret(program).posterior) <= 1e-12

    # After y, the generator's column rescaling leaves the x1 and x2 rows at
    # 2^-34.  Each observed row is scaled by the magnitude of its terms
    # before the rank cut, so x1 - x2 keeps its rank.  The statement-by-
    # statement reference refuses value 1 and loses x1 + x2 at value 0, so
    # the expected posteriors are written out.
    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_observed_row_scaled_down_by_a_steep_assignment(self, value):
        head = f"x1 ~ uniform(); x2 ~ uniform(); y = 1e10*x1 + 1e10*x2; observe x1 - x2 == {value}; "
        assert interpret(parse(head + "return y")).posterior.nondet.dim == 1
        xs = interpret(parse(head + "return x1, x2")).posterior
        assert xs.equals(ExtendedGaussian(
            Subspace.span([[1.0, 1.0]]), np.array([value, -value]) / 2, np.zeros((2, 2))))

    @pytest.mark.parametrize("steep", [1e10, 1e12])
    def test_observed_uniform_read_by_a_steep_assignment(self, steep):
        report = interpret(parse(f"x1 ~ uniform(); y = {steep!r}*x1; observe x1 == 1; return y"))
        assert report.posterior.nondet.dim == 0
        np.testing.assert_allclose(report.posterior.mean, [steep], rtol=1e-15)

    def test_steep_and_scaled_down_rows_together(self):
        head = "x1 ~ uniform(); x2 ~ uniform(); y = 1e10*x1 + 1e10*x2; "
        xs = interpret(parse(head + "observe y == 5; observe x1 - x2 == 1; return x1, x2"))
        assert xs.posterior.nondet.dim == 0
        np.testing.assert_allclose(xs.posterior.mean, [0.5 + 2.5e-10, -0.5 + 2.5e-10], rtol=1e-12)
        # x1 - x2 is completely unknown, so observing x1 - x2 + z tells nothing of z
        z = interpret(parse(head + "z ~ normal(0, 1); observe x1 - x2 + z == 1; return z"))
        assert z.posterior.equals(E.gaussian([0.0], [[1.0]]))

    def test_a_small_row_has_rank_and_cancellation_residue_has_none(self):
        report = interpret(parse("x1 ~ uniform(); y = 1e-11*x1; observe y == 1e-11; return x1"))
        assert report.posterior.nondet.dim == 0
        np.testing.assert_allclose(report.posterior.mean, [1.0], rtol=1e-15)
        # the same residue, made in an assignment or by a steep row
        for source, at in (
            ("x1 ~ uniform(); a = 0.1*x1 + 0.2*x1; b = a - 0.3*x1; observe b == 5; return a", 54),
            ("x1 ~ uniform(); a = 0.1*x1 + 0.2*x1; b = 1e10*a; observe b - 3e9*x1 == 5; return a",
             50),
        ):
            with pytest.raises(InfeasibleObservation, match=f"^1:{at}: "):
                interpret(parse(source))

    def test_a_returned_row_of_residue_is_a_point_mass(self):
        # b's generator row is the residue of 0.1 + 0.2 - 0.3, cut relative
        # to the 0.6 its terms had: b is 0, as observing it refuses b == 5
        report = interpret(parse("x1 ~ uniform(); a = 0.1*x1 + 0.2*x1; b = a - 0.3*x1; return b"))
        assert report.posterior.equals(E.dirac([0.0]))

    def test_residue_is_dropped_where_the_row_is_written(self):
        # b's row is residue, dropped with its magnitude when b is written, so
        # d's row is its own 1e-16, judged against d's own magnitude; kept, the
        # residue would carry b's 0.6 of magnitude into d, and d's whole row
        # would be cut as residue when the program is conditioned
        head = "x1 ~ uniform(); a = 0.1*x1 + 0.2*x1; b = a - 0.3*x1; d = b + 1e-16*x1; "
        assert interpret(parse(head + "return d")).posterior.equals(E.uniform(1))
        report = interpret(parse(head + "observe d == 1; return x1"))
        assert report.posterior.nondet.dim == 0
        np.testing.assert_allclose(report.posterior.mean, [1e16], rtol=1e-15)

    # y's x column cancels to 0 from terms of 2e300 (2e308 overflows), while
    # its v column is v's own 0.5: each entry is judged against its own
    # magnitude, so y is v, unknown, and observing y, or the same sum, pins v
    @pytest.mark.parametrize("steep", ["1e300", "1e308"])
    def test_residue_in_one_column_hides_no_other_column(self, steep):
        head = "x ~ uniform(); v ~ uniform(); a = x; b = x; c = x; "
        y = f"{steep}*x + {steep}*a - {steep}*b - {steep}*c + v"
        assert interpret(parse(head + f"y = {y}; return y")).posterior.equals(
            ExtendedGaussian(Subspace.full(1), np.zeros(1), np.zeros((1, 1))))
        for body in (f"y = {y}; observe y == 3; ", f"observe {y} == 3; "):
            assert interpret(parse(head + body + "return v")).posterior.equals(E.dirac([3.0]))

    def test_an_overflowed_magnitude_leaves_other_rows_alone(self):
        # y's magnitude overflows in v's column; the residue drops it, so
        # x1's row of 2^-37 keeps its own scale and x1 == 1 pins t
        report = interpret(parse(
            "x1 ~ uniform(); t = 1e11*x1; v ~ uniform(); a = v; b = v; c = v; "
            "y = 1e308*v + 1e308*a - 1e308*b - 1e308*c; observe x1 == 1; return t"))
        assert report.posterior.nondet.dim == 0
        np.testing.assert_allclose(report.posterior.mean, [1e11], rtol=1e-15)

    # After w, the generator's column rescaling leaves x1's row at 2^-37
    # beside x2's 1.  Each returned row is scaled by its magnitude before the
    # rank cut, so the steep row hides neither: both stay unknown.
    @pytest.mark.parametrize("tail", ["return x1, x2", "y = x1 + 1e-11*w; return y, x2"])
    def test_a_steep_returned_row_hides_no_other(self, tail):
        report = interpret(parse(f"x1 ~ uniform(); w = 1e11*x1; x2 ~ uniform(); {tail}"))
        assert report.posterior.equals(E.uniform(2))

    def test_a_residue_row_hides_no_small_returned_row(self):
        # a's row is 0 beside y's 0.73 of magnitude, x's row is 2^-37: each
        # row is judged against its own magnitude, so x stays unknown
        report = interpret(parse("x ~ uniform(); y = 1e11*x; a = y - 1e11*x; return a, x"))
        assert report.posterior.equals(
            ExtendedGaussian(Subspace.span([[0.0, 1.0]]), np.zeros(2), np.zeros((2, 2))))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(_deterministic_conflicts())
    def test_infeasible_programs_fail_where_the_reference_does(self, case):
        source, line = case
        program = parse(source)
        got, expected = _outcome(interpret, program), _outcome(_reference_interpret, program)
        if line is None:
            assert _max_gap(got.posterior, expected.posterior) <= 1e-9, source
            return
        assert isinstance(got, tuple) and isinstance(expected, tuple), source
        assert got[0] is expected[0] is InfeasibleObservation, source
        assert got[1].split(": ")[0] == expected[1].split(": ")[0] == f"{line}:1", source

    def test_one_observe_per_program(self, monkeypatch):
        calls = []
        monkeypatch.setattr("extgauss.dsl._condition_rows",
                            lambda *a: calls.append(a) or E._condition_rows(*a))
        source = "u ~ uniform()\n" + "".join(
            f"x{i} ~ normal(u, 1)\nobserve x{i} == {i}\n" for i in range(8)) + "return u"
        interpret(parse(source))
        assert len(calls) == 1

    def test_rank_decisions_are_relative_to_the_whole_program(self):
        # a diffuse variable sets the covariance scale of the stacked
        # observation, wherever it is defined: a unit-scale observation
        # then looks deterministic and off its support
        before = "w ~ normal(0, 1e12)\nx ~ normal(0, 1)\nobserve x == 1\nreturn x"
        after = "x ~ normal(0, 1)\nobserve x == 1\nw ~ normal(0, 1e12)\nreturn x"
        for source, line in ((before, "3:1"), (after, "2:1")):
            with pytest.raises(InfeasibleObservation, match=f"^{line}: "):
                interpret(parse(source))
        # conditioning in program order sees only the prefix's scale
        with pytest.raises(InfeasibleObservation, match="^3:1: "):
            _reference_interpret(parse(before))
        assert _reference_interpret(parse(after)).posterior.equals(E.dirac([1.0]))

    def test_each_prefix_is_anchored_at_the_definitions(self):
        # the second observed row, 1e10*x - z, has variance 1e32, and the
        # Gaussian rank cut anchors at the largest variance of the rows a
        # prefix conditions or of a definition (1e12): so the first
        # observation alone passes, and the refusal (ROADMAP item 6) falls
        # at the second; an observed row among the definitions would anchor
        # every prefix at 1e32 and move it to 1:22
        source = "x ~ normal(0, 1e12); observe x == 1; z ~ normal(0, 1); observe 1e10*x == z; return z"
        with pytest.raises(InfeasibleObservation, match="^1:56: "):
            interpret(parse(source))

    def test_a_dominant_later_variance_keeps_the_small_one_exact(self):
        # x1's column of F comes second; unless the SVD of the observed rows
        # takes it first, its Householder step cancels and the covariance
        # loses 3.9e-10 relative
        v = 1e12
        post = interpret(parse("x2 ~ normal(0, 1); x1 ~ normal(0, 1e12); "
                               "observe x1 + x2 == 0; return x1, x2")).posterior
        expected = v / (v + 1) * np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.max(np.abs(post.cov - expected)) <= 1e-14 * np.max(np.abs(expected))


def _tau_posterior(program, tau):
    """Mean and covariance of the returned variables when every uniform()
    reads as normal(0, tau): the program lowered in plain numpy to affine
    functions of independent sources, conditioned by the Joseph-form oracle
    (no engine code, so no engine rank decision)."""
    rows, consts, variances, obs_rows, obs_values = {}, {}, [], [], []

    def affine(expr):
        row, const = np.zeros(len(variances)), 0.0
        for term in expr.terms:
            if term.var is None:
                const += term.coeff
            else:
                row[:len(rows[term.var])] += term.coeff * rows[term.var]
                const += term.coeff * consts[term.var]
        return row, const

    for stmt in program.statements:
        if isinstance(stmt, Observe):
            (lhs, lc), (rhs, rc) = affine(stmt.lhs), affine(stmt.rhs)
            obs_rows.append(lhs - rhs)
            obs_values.append(rc - lc)
        elif isinstance(stmt, Assign):
            rows[stmt.name], consts[stmt.name] = affine(stmt.expr)
        elif isinstance(stmt.dist, UniformDist):
            rows[stmt.name], consts[stmt.name] = np.append(np.zeros(len(variances)), 1.0), 0.0
            variances.append(tau)
        else:
            row, consts[stmt.name] = affine(stmt.dist.mean)
            rows[stmt.name] = np.append(row, 1.0)
            variances.append(stmt.dist.variance)

    def pad(row):
        return np.pad(row, (0, len(variances) - len(row)))

    mean, cov = np.zeros(len(variances)), np.diag(variances)
    if obs_rows:
        obs = np.array([pad(row) for row in obs_rows])
        mean, cov = gauss_observe_oracle(mean, cov, obs, obs_values, LOOSE_RANK)
    ret = np.array([pad(rows[r.name]) for r in program.returns])
    return ret @ mean + [consts[r.name] for r in program.returns], ret @ cov @ ret.T


class TestLargeVarianceOracleOnPrograms:
    """Criterion 11 on random programs: reading every uniform() as
    normal(0, tau) gives a Gaussian posterior that matches the extended one
    on the complement of its nondeterminism, and whose variance is large
    exactly along it.  tau = 1e6, not criterion 11's 1e8: the error is
    O(1/tau), and at 1e8 the whole-program rank cutoff (README, "Rank
    decisions of a program") can reach unit-scale variances."""

    TAU = 1e6

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_the_tau_stand_in(self, seed):
        source, error = _random_observed_source(np.random.default_rng(seed))
        assert error is None
        program = parse(source)
        ext = interpret(program).posterior
        mean, cov = _tau_posterior(program, self.TAU)
        p = ext.nondet.complement_projector()
        # the O(1/tau) error grows with the posterior's own scale, which
        # chained coefficients of 2 can take to about 1e2
        scale = 1.0 + max(float(np.max(np.abs(ext.mean))), float(np.max(np.abs(ext.cov))))
        assert float(np.max(np.abs(p @ mean - ext.mean))) <= 1e-4 * scale, source
        assert float(np.max(np.abs(p @ cov @ p - ext.cov))) <= 1e-4 * scale, source
        assert span_above(cov, np.sqrt(self.TAU)).equals(ext.nondet, LOOSE_RANK), source
        support = Subspace.span(
            list(span_above(ext.cov, 1e-3).basis.T) + list(ext.nondet.basis.T), ext.dim)
        assert span_above(cov, 1e-3).equals(support, LOOSE_RANK), source


def _sign_bits(program):
    """Every coefficient's sign bit, in program order: ``==`` cannot see it, as -0.0 == 0.0."""
    exprs = []
    for stmt in program.statements:
        if isinstance(stmt, Observe):
            exprs += [stmt.lhs, stmt.rhs]
        elif isinstance(stmt, Assign):
            exprs.append(stmt.expr)
        elif isinstance(stmt.dist, NormalDist):
            exprs.append(stmt.dist.mean)
    return [math.copysign(1.0, term.coeff) < 0 for expr in exprs for term in expr.terms]


class TestPretty:
    @pytest.mark.parametrize(
        "source",
        [
            "x ~ normal(0, 1)\ny ~ normal(0, 1)\nobserve x == y\nreturn x",
            "y ~ uniform()\nx ~ normal(0, 1)\nobserve x == y\nreturn x",
            EXAMPLE_2_1,
            "a ~ normal(0,1)\nx = 2*a - (3 - a) + 0.5\nreturn x, a",
        ],
    )
    def test_parse_pretty_parse_fixed_point(self, source):
        program = parse(source)
        assert parse(pretty(program)) == program
        # and pretty itself is then stable
        assert pretty(parse(pretty(program))) == pretty(program)

    def test_empty_expression_is_zero(self):
        program = Program((Sample("x", UniformDist()), Assign("y", Expr(()))), (Ident("y"),))
        assert pretty(program) == "x ~ uniform()\ny = 0\nreturn y\n"

    def test_leading_negative_term_goes_through_zero(self):
        # the grammar has no unary minus: a hand-built expression that starts
        # with a negative term renders as "0 - ...", one zero term longer
        expr = Expr((Term(-2.0, "x"), Term(1.5, None)))
        program = Program((Sample("x", UniformDist()), Assign("y", expr)), (Ident("y"),))
        text = pretty(program)
        assert text == "x ~ uniform()\ny = 0 - 2*x + 1.5\nreturn y\n"
        assert parse(text).statements[1].expr.terms == (Term(0.0, None),) + expr.terms

    def test_a_negative_zero_keeps_its_sign(self):
        program = parse("y ~ uniform()\nx = 0 - 0*y - 0\nreturn x")
        assert pretty(program) == "y ~ uniform()\nx = 0 - 0*y - 0\nreturn x\n"
        assert _sign_bits(parse(pretty(program))) == _sign_bits(program) == [False, True, True]

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(0, 2))
    def test_round_trip_on_random_programs(self, seed, conflicts, overflows):
        source, _ = _random_observed_source(np.random.default_rng(seed), conflicts, overflows)
        program = parse(source)
        assert parse(pretty(program)) == program
        assert _sign_bits(parse(pretty(program))) == _sign_bits(program)
