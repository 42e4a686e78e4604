import warnings

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
from extgauss.gauss import psd_normalize
from extgauss.subspace import Subspace, Tolerance

from _gen import LOOSE_RANK, gauss_observe_oracle, span_above
from test_extended import _max_gap, _reference_interpret

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

        monkeypatch.setattr("extgauss.dsl.marginal", overflowing)
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

    # Known wrong answers: x1 and x2 stay independent and completely unknown,
    # but the posterior keeps one direction of their nondeterminism at 1e10
    # and none at 1e200.  At 1e10 the joint keeps both, and the final
    # marginal's image drops (1, 1), which the projection maps to norm
    # 7e-11, below rank_rel_tol.  At 1e200 the generator's power-of-two
    # column scaling leaves x1 and x2 at 1e-200 and 0 against z's entry.
    # Orthonormalizing the returned rows of the generator fixes both.
    @pytest.mark.xfail(strict=True, reason="large shears lose returned nondeterminism")
    @pytest.mark.parametrize("shear", [
        "y = 1e10*x1 + 1e10*x2",
        "y = 1e200*x1 + 1e200*x2; z = 1e200*y",
    ])
    def test_large_shears_keep_independent_nondeterminism(self, shear):
        report = interpret(parse(f"x1 ~ uniform(); x2 ~ uniform(); {shear}; return x1, x2"))
        assert report.posterior.nondet.dim == 2

    _OVERFLOWING_ROW = "y = 1e308*x + 1e308*a + 1e308*b + 1e308*c"

    def test_overflowing_nondeterminism_is_located(self):
        # each of x, a, b, c carries half the one uniform column: 4 * 0.5e308
        program = parse(f"x ~ uniform(); a = x; b = x; c = x; {self._OVERFLOWING_ROW}; return y")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput,
                               match="^1:37: nondeterministic part of 'y' overflows$"):
                interpret(program)

    def test_overflowing_nondeterminism_is_retried_after_observing(self):
        report = interpret(parse(
            f"x ~ uniform(); v ~ uniform(); a = x; b = x; c = x; observe x == 0; "
            f"{self._OVERFLOWING_ROW} + v; return y, v"))
        assert report.posterior.equals(
            ExtendedGaussian(Subspace.span([[1.0, 1.0]]), np.zeros(2), np.zeros((2, 2))))

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
    """A definition that reads only point masses at 0 (``uniform()``
    variables, and definitions of them with no constant or variance) writes
    its mean and variance with no PSD check; the sequential reference
    shears every definition in."""

    @pytest.mark.parametrize("source", [
        "z = 0; y ~ normal(2*z + 1, 3); return y",
        "x ~ uniform(); a = x; y ~ normal(2*a + 1, 2); observe y == 3; return x, a, y",
        "x ~ uniform(); observe x == 2; y ~ normal(3*x - 1, 1); return x, y",
        "x ~ uniform(); a = x; b = 2*a; w ~ normal(b, 1); u ~ normal(w + a, 1); return u, b",
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

    @pytest.mark.parametrize("source, checks", [
        ("x ~ uniform(); a = x; z = 0; y ~ normal(3*a + 2*z + 1, 2); return y", 0),
        ("x ~ uniform(); u ~ normal(x, 1); y ~ normal(u + x, 2); return y", 1),
    ])
    def test_one_psd_check_per_definition_that_reads_a_live_variable(
            self, monkeypatch, source, checks):
        calls = []
        monkeypatch.setattr(dsl, "psd_normalize",
                            lambda cov, tol: calls.append(cov.shape) or psd_normalize(cov, tol))
        interpret(parse(source))
        assert len(calls) == checks

    def test_no_extended_gaussian_is_built_per_statement(self):
        for name in ("tensor", "pushforward", "_normal"):
            assert not hasattr(dsl, name)


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
    ("x ~ normal(0, 1e300); observe x == 0; observe 1e10*x == 0; return x", None),
    ("x ~ normal(0, 1e300); observe x == 0; observe 1e10*x == 0; y = 1e300*x; return y", None),
    ("x ~ normal(0, 1e300); z = 0; observe z == 1; y = 1e300*x; return y",
     (InfeasibleObservation, "1:30: ")),
    ("x ~ normal(0, 1e300); observe x == 1; z ~ normal(0, 1); observe 1e10*x == z; return z",
     None),
    ("a = 1; b = 2; observe a == 1; observe b == 2; observe a + b == 3; observe b == 1; "
     "observe a == 0; return a", (InfeasibleObservation, "1:67: ")),
]


class TestDeferredObservations:
    """The interpreter defers every observation to one stacked observe; the
    sequential reference conditions at each observation.  They must agree."""

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

    def test_one_observe_per_program(self, monkeypatch):
        calls = []
        monkeypatch.setattr("extgauss.dsl.observe", lambda *a: calls.append(a) or E.observe(*a))
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

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(0, 2))
    def test_round_trip_on_random_programs(self, seed, conflicts, overflows):
        source, _ = _random_observed_source(np.random.default_rng(seed), conflicts, overflows)
        program = parse(source)
        assert parse(pretty(program)) == program
