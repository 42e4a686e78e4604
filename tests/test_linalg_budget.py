"""Guard on the number of LAPACK factorizations a program or an observation costs.

Every ``numpy.linalg`` factorization is counted, and so is every spectral
norm (an SVD in disguise).  The count for a fixed program is
deterministic, so it is pinned: a change that brings back per-call
factorizations (for example an ``image`` and an ``annihilator`` SVD for
every definition) fails here before any timing would show it.
"""

import numpy as np
import pytest

from extgauss.dsl import interpret, parse
from extgauss import extended as E
from extgauss.extended import ExtendedGaussian, observe
from extgauss.gauss import GaussianMap
from extgauss.subspace import Subspace, image

from test_bench_oracle import workloads
from test_extended import _NONDET_SHAPES, _conditional_case

STEPS = 12

# Measured for this program when the conditional's rank cuts began to
# take their scale from the rows' variances and row norms, with no
# spectral norm: one SVD of the observed generator rows and one of the
# observed factor rows projected off them (3 before, with the spectral
# norm of the observed and returned factor rows; 6 before the conditional
# began to work on the factor of those rows, with no eigh; 29 before the
# interpreter began to lower each definition's Gaussian part as a row of
# a factor, with no covariance and no PSD check per definition; 33 before it began to condition only the
# observed and returned rows, with one SVD of the observed generator rows;
# 34 before it lowered the program into arrays, with no PSD check for a
# definition that reads only point masses; 104 before it carried the
# nondeterminism as a generator matrix and orthonormalized it once per
# program; 121 before psd_normalize began to decide and clamp with one
# eigh and observe stopped making a rank cut on the image of its
# injective [obs; I]; 146 before the interpreter built each fresh
# coordinate without the checking constructor; 148 before it deferred
# every observation to one stacked observe at the end; 181 before the
# graph decomposition of a conditional came from one SVD and observe
# stopped building its joint through the public constructor; 312 before
# covariances were checked for PSD only where they enter and in the Schur
# complement of a conditional, 376 before conditionals removed the
# nondeterminism with the projector from the graph decomposition, 535
# before extended Gaussian maps became decorated relations, and 1,080
# before the complement of a subspace became a write-once cache).  Lower
# it when a change saves more.
MAX_FACTORIZATIONS = 2

# Measured for the regression program below with the same change (4
# before, with two spectral norms; 7 before the factor conditional, 14
# before the factor lowering, 18 before the array lowering, 28 before the
# generator matrix, 33 before the one-eigh psd_normalize, 43 before the
# fresh coordinates, 73 before the stacked observe, 121 before the
# one-SVD graph decomposition, 179 before the PSD change, 239 before the
# graph-decomposition conditional).
MAX_FLATREG_FACTORIZATIONS = 2

# Measured for one rank-1 observe at n = 30 with 5 nondeterministic
# directions with the same change, one eigh of which factors the
# covariance (5 before, with two spectral norms; 7 before the factor
# conditional; 8 before observe went through the row conditional; 10
# before, when the graph decomposition came from one SVD; 22 before that,
# 32 before the PSD change).
MAX_OBSERVE_FACTORIZATIONS = 3

# Measured for the dense mixing program below, at 30 and at 90 variables,
# with the same change (2 before, with a spectral norm; 4 before the
# factor conditional; 33 and 93 before the factor lowering, with one eigh
# per definition that read a live variable).
MAX_MIXING_FACTORIZATIONS = 1

# Measured for the conditional of the coupled pair of acceptance criterion
# 2 when conditionals began to condition the factor of the normal form:
# one eigh factors the covariance and one SVD splits the nondeterminism
# (3 before, with the graph decomposition's SVD, the eigh of the
# X-covariance and the eigh of the PSD check of the Schur complement).
MAX_CONDITIONAL_FACTORIZATIONS = 2

# Every numpy.linalg factorization, so that moving work from one onto
# another cannot fake a drop.
FACTORIZATIONS = (
    "svd", "eigh", "eigvalsh", "pinv", "solve",
    "qr", "cholesky", "lstsq", "inv", "det", "slogdet", "eig",
)


def _chain_program(steps: int) -> str:
    """Local-level model with a diffuse start, observed at every step."""
    lines = ["x0 ~ uniform()"]
    for i in range(1, steps + 1):
        q, r = 0.3 + 0.1 * (i % 5), 0.5 + 0.05 * i
        lines += [
            f"x{i} ~ normal(x{i - 1}, {q:.3f})",
            f"y{i} ~ normal(x{i}, {r:.3f})",
            f"observe y{i} == {1.0 + 0.5 * np.sin(i):.3f}",
        ]
    lines.append(f"return x{steps}")
    return "\n".join(lines) + "\n"


def _flatreg_program(p: int = 6, rows: int = 4) -> str:
    """Regression with flat priors on p coefficients and fewer observed rows
    than coefficients, so p - rows directions stay nondeterministic."""
    lines = [f"b{j} ~ uniform()" for j in range(1, p + 1)]
    for i in range(1, rows + 1):
        terms = " + ".join(
            f"{0.1 * ((i * j) % 7) + 0.2 * j / p:.3f}*b{j}" for j in range(1, p + 1)
        )
        lines += [f"y{i} ~ normal({terms}, 1)", f"observe y{i} == {0.5 * i + 0.25:.3f}"]
    lines.append("return " + ", ".join(f"b{j}" for j in range(1, p + 1)))
    return "\n".join(lines) + "\n"


def _mixing_program(n: int) -> str:
    """Dense affine mixing: each variable reads up to eight earlier ones with
    weights summing below 1, every seventh is an assignment, and two
    observations read every variable."""
    lines = []
    for i in range(1, n + 1):
        terms = "".join(f"{0.04 * ((i + j) % 3 + 1):.2f}*v{j} + " for j in range(max(1, i - 8), i))
        if terms and i % 7 == 0:
            lines.append(f"v{i} = {terms}1")
        else:
            lines.append(f"v{i} ~ normal({terms}{0.1 * (i % 5):.1f}, {0.2 + 0.1 * (i % 4):.1f})")
    for k in (1, 2):
        row = " + ".join(f"{0.1 * ((k * j) % 7) + 0.1:.1f}*v{j}" for j in range(1, n + 1))
        lines.append(f"observe {row} == {k}")
    lines.append("return " + ", ".join(f"v{j}" for j in range(n - 4, n + 1)))
    return "\n".join(lines) + "\n"


def _count_factorizations(monkeypatch) -> dict:
    counts = {}

    def counted(name, fn, when=lambda *a, **k: True):
        def wrapper(*args, **kwargs):
            if when(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)

    for name in FACTORIZATIONS:
        counted(name, getattr(np.linalg, name))

    def spectral(x, ord=None, *args, **kwargs):
        return ord == 2 and np.ndim(x) == 2

    counted("norm", np.linalg.norm, spectral)
    return counts


def test_chain_program_factorization_budget(monkeypatch):
    program = parse(_chain_program(STEPS))
    counts = _count_factorizations(monkeypatch)
    report = interpret(program)
    assert report.posterior.nondet.dim == 0
    total = sum(counts.values())
    assert total <= MAX_FACTORIZATIONS, counts


def test_chain_program_rank_decisions_do_not_grow_with_length(monkeypatch):
    # the nondeterminism is orthonormalized once per program and the
    # Gaussian part is lowered with no PSD check: no factorization grows
    # with the chain (52 SVDs + 25 norms at 12 steps when each shear ran
    # image and annihilator; one eigh per definition before the factor)
    decisions = []
    for steps in (6, 24):
        program = parse(_chain_program(steps))
        with monkeypatch.context() as m:
            counts = _count_factorizations(m)
            interpret(program)
        decisions.append(counts)
    assert decisions[0] == decisions[1], decisions


@pytest.mark.parametrize("n", [30, 90])
def test_mixing_program_factorization_budget(monkeypatch, n):
    program = parse(_mixing_program(n))
    counts = _count_factorizations(monkeypatch)
    report = interpret(program)
    assert report.posterior.dim == 5
    total = sum(counts.values())
    assert total <= MAX_MIXING_FACTORIZATIONS, counts


def test_rank1_observe_factorization_budget(monkeypatch):
    rng = np.random.default_rng(30)
    n, k = 30, 5
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    psi = ExtendedGaussian(
        Subspace.span(rng.standard_normal((k, n)), ambient_dim=n),
        rng.standard_normal(n),
        (q * rng.uniform(0.3, 2.5, n)) @ q.T,
    )
    obs = rng.standard_normal((1, n))
    counts = _count_factorizations(monkeypatch)
    post = observe(psi, obs, obs @ psi.mean)
    assert post.nondet.dim == k - 1
    total = sum(counts.values())
    assert total <= MAX_OBSERVE_FACTORIZATIONS, counts


def test_flatreg_program_factorization_budget(monkeypatch):
    program = parse(_flatreg_program())
    counts = _count_factorizations(monkeypatch)
    report = interpret(program)
    assert report.posterior.nondet.dim == 2
    total = sum(counts.values())
    assert total <= MAX_FLATREG_FACTORIZATIONS, counts


_PROGRAMS = pytest.mark.parametrize("program", [
    _chain_program(STEPS), _mixing_program(30), _flatreg_program(),
], ids=["chain", "mixing", "flatreg"])


@_PROGRAMS
def test_interpret_makes_no_eigendecomposition(monkeypatch, program):
    # the conditional works on factors: no Schur complement, so no eigh of a
    # covariance and no PSD check anywhere on the path of a program
    program = parse(program)
    counts = _count_factorizations(monkeypatch)
    interpret(program)
    assert counts.get("eigh", 0) == counts.get("eigvalsh", 0) == 0, counts


@_PROGRAMS
def test_interpret_makes_no_spectral_norm(monkeypatch, program):
    # the rank cuts take their scale from the largest variance and the
    # largest row norm, which need no SVD
    program = parse(program)
    counts = _count_factorizations(monkeypatch)
    interpret(program)
    assert counts.get("norm", 0) == 0, counts


def test_coupled_pair_conditional_factorization_budget(monkeypatch):
    psi = ExtendedGaussian(Subspace.span([[1.0, 1.0]]), [0.0, 0.0], np.eye(2))
    counts = _count_factorizations(monkeypatch)
    cond = E.conditional(psi, 1)
    assert cond.nondet.dim == 0
    total = sum(counts.values())
    assert total <= MAX_CONDITIONAL_FACTORIZATIONS, counts


def test_conditional_makes_one_eigh(monkeypatch):
    # the factor of the covariance is the only eigendecomposition: no
    # eigh of the X-covariance and no PSD check of a Schur complement
    rng = np.random.default_rng(8450)
    cases = [_conditional_case(rng, _NONDET_SHAPES[i % 4]) for i in range(100)]
    counts = _count_factorizations(monkeypatch)
    for phi, nx in cases:
        counts.clear()
        E.conditional(phi, nx)
        assert counts.get("eigh", 0) <= 1 and counts.get("eigvalsh", 0) == 0, counts


_GAUSSIAN_MAP = GaussianMap(np.ones((2, 1)), np.ones(2), np.eye(2))
_REP = E.covariance_rep(ExtendedGaussian(Subspace.span([[1.0, 1.0, 0.0]]), np.ones(3), np.eye(3)))


# Closed forms are built in normal form, so they factor nothing; the
# conversion from a covariance rep makes one SVD, for its nondeterminism
# (the annihilator of the dual support).  Measured when they stopped going
# through the checking constructor (1 eigh each before, and 1 SVD more for
# uniform and for from_covariance_rep).
@pytest.mark.parametrize("build, expected", [
    pytest.param(lambda: E.identity(5), {}, id="identity"),
    pytest.param(lambda: E.copy(3), {}, id="copy"),
    pytest.param(lambda: E.uniform(5), {}, id="uniform"),
    pytest.param(lambda: E.dirac([1.0, 2.0]), {}, id="dirac"),
    pytest.param(lambda: E.from_gaussian(_GAUSSIAN_MAP), {}, id="from_gaussian"),
    pytest.param(lambda: E.from_covariance_rep(_REP), {"svd": 1}, id="from_covariance_rep"),
])
def test_closed_form_factorization_budget(monkeypatch, build, expected):
    counts = _count_factorizations(monkeypatch)
    build()
    assert counts == expected


_RNG = np.random.default_rng(6)
_NONDET = Subspace.span(_RNG.standard_normal((2, 6)))
_FACTOR = _RNG.standard_normal((6, 6))
_PSI = ExtendedGaussian(_NONDET, _RNG.standard_normal(6), _FACTOR @ _FACTOR.T)
_MAP = E.ExtendedGaussianMap(Subspace.zero(4), _RNG.standard_normal((4, 6)), np.zeros(4), np.eye(4))


# An extended Gaussian on R^6 with 2 nondeterministic directions.  The
# normal form projects with I - P, which needs no factorization: the
# constructor's only one is its PSD check, translate makes none, and compose
# keeps the SVDs of its image and of the combined nondeterminism (1 SVD more
# each before, for the complement's basis).  observe and conditional factor
# the covariance once and condition it in factor form.
@pytest.mark.parametrize("build, expected", [
    pytest.param(lambda: ExtendedGaussian(_NONDET, np.zeros(6), _FACTOR @ _FACTOR.T),
                 {"eigh": 1}, id="constructor"),
    pytest.param(lambda: E.compose(_MAP, _PSI), {"svd": 2}, id="compose"),
    pytest.param(lambda: E.pushforward(_MAP.lin, _PSI), {"svd": 2}, id="pushforward"),
    pytest.param(lambda: E.marginal(_PSI, [0, 2, 4]), {"svd": 2}, id="marginal"),
    pytest.param(lambda: E.translate(_PSI, np.ones(6)), {}, id="translate"),
    pytest.param(lambda: E.observe(_PSI, np.ones((1, 6)), [0.3]), {"eigh": 1, "svd": 2},
                 id="observe"),
    pytest.param(lambda: E.conditional(_PSI, 2), {"eigh": 1, "svd": 1}, id="conditional"),
])
def test_library_factorization_budget(monkeypatch, build, expected):
    counts = _count_factorizations(monkeypatch)
    build()
    assert counts == expected


def test_image_makes_one_factorization(monkeypatch):
    # the cut is anchored at the largest row norm, which needs no SVD (a
    # spectral norm of the matrix before)
    rng = np.random.default_rng(31)
    a, u = rng.standard_normal((4, 5)), Subspace.span(rng.standard_normal((3, 5)))
    counts = _count_factorizations(monkeypatch)
    assert image(a, u).dim == 3
    assert counts == {"svd": 1}


class _Forbidden:
    """Stands in for a numpy helper and raises when called or indexed."""

    def __init__(self, name):
        self.name = name

    def __call__(self, *args, **kwargs):
        raise AssertionError(f"numpy.{self.name} was used")

    __getitem__ = __call__


@pytest.mark.parametrize("workload", ["chain", "mix", "flatreg"])
def test_interpret_uses_no_numpy_python_helper(monkeypatch, workload):
    # per call, numpy's Python-level split, ptp and r_ cost more than the
    # small arrays they work on; the engine slices, and compares max and min
    programs = [parse(workloads.render(m)) for m in next(workloads.rounds(workload, 1))]
    for name in ("split", "ptp", "r_"):
        monkeypatch.setattr(np, name, _Forbidden(name))
    for program in programs:
        interpret(program)
