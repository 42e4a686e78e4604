"""A subspace basis is checked where it enters the library, and nowhere else.

The public ``Subspace(n, basis, tol)``, ``Subspace.span``,
``Subspace.from_dict`` and ``column_space`` check their input.  Every
subspace the library builds itself goes through the unchecked
``Subspace._of``, whose contract (an orthonormal, sign-canonical,
C-ordered basis) is checked here on random inputs instead.  The public
value constructors reject NaN and Inf with :class:`NonFiniteInput`.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from extgauss import NonFiniteInput
from extgauss import extended as E
from extgauss import linrel
from extgauss.dsl import interpret, parse
from extgauss.extended import ExtendedGaussian, ExtendedGaussianMap, PrecisionRep
from extgauss.gauss import GaussianMap
from extgauss.subspace import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _fix_signs,
    _is_orthonormal,
    column_space,
    image,
    intersect,
    minkowski_sum,
    oblique_projector,
    product,
    structured_complement,
)

from _gen import (
    random_extended,
    random_extended_map,
    random_linear_relation,
    random_psd,
    random_subspace,
    support_point,
)

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _bench_programs(rounds: int = 1):
    """The first rounds of seed 1 of every benchmark family, as source text."""
    spec = importlib.util.spec_from_file_location("_bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    for name in ("chain", "mix", "flatreg"):
        for models in itertools.islice(workloads.rounds(name, 1), rounds):
            for model in models:
                yield workloads.render(model)


def _nondet(rng, nx, ny):
    """Nondeterminism on R^{nx} x R^{ny} of every shape: random, pure output
    noise, or a coupled part plus output noise."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return random_subspace(rng, nx + ny)
    noise = product(Subspace.zero(nx), random_subspace(rng, ny))
    if kind == 1:
        return noise
    return minkowski_sum(random_subspace(rng, nx + ny, int(rng.integers(0, nx + 1))), noise)


def _engine_cases(seed: int, count: int):
    """Thunks running every extended-Gaussian operation on random inputs.

    The inputs are built here, before any thunk runs."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        na, nx, ny = (int(rng.integers(0, 4)) for _ in range(3))
        phi = ExtendedGaussianMap(_nondet(rng, nx, ny), rng.standard_normal((nx + ny, na)),
                                  rng.standard_normal(nx + ny), random_psd(rng, nx + ny))
        n = int(rng.integers(1, 6))
        psi = random_extended(rng, n)
        obs = rng.standard_normal((int(rng.integers(1, n + 2)), n))
        value = obs @ support_point(rng, psi)
        f = random_extended_map(rng, n, int(rng.integers(0, 4)))
        g = random_extended_map(rng, int(rng.integers(0, 4)), n)
        a = rng.standard_normal((int(rng.integers(0, 5)), n))
        coords = list(rng.integers(0, n, size=int(rng.integers(0, n + 2))))
        cases += [
            lambda phi=phi, nx=nx: E.conditional(phi, nx),
            lambda psi=psi, obs=obs, value=value: E.observe(psi, obs, value),
            lambda f=f, g=g: E.compose(f, g),
            lambda f=f, phi=phi: E.tensor(f, phi),
            lambda a=a, psi=psi: E.pushforward(a, psi),
            lambda psi=psi, coords=coords: E.marginal(psi, coords),
            lambda psi=psi: E.to_covariance(E.to_precision(psi)),
        ]
    return cases


def _subspace_cases(seed: int, count: int):
    """Thunks running every subspace and linear-relation operation."""
    rng = np.random.default_rng(seed)
    # reordering the rows of a basis with tied magnitudes can move its lead
    tie = linrel.LinearRelation(1, 1, Subspace(2, np.sqrt(0.5) * np.array([[1.0], [-1.0]])))
    cases = [lambda: linrel.conditional(tie, 1)]
    for _ in range(count):
        n, m = int(rng.integers(0, 6)), int(rng.integers(0, 4))
        u, v = random_subspace(rng, n), random_subspace(rng, n)
        w = random_subspace(rng, m)
        a = rng.standard_normal((m, n))
        k = random_subspace(rng, n)
        r1 = random_linear_relation(rng, n, m)
        r2 = random_linear_relation(rng, m, int(rng.integers(0, 4)))
        nx = int(rng.integers(0, m + 1))
        cases += [
            lambda u=u: u.annihilator().annihilator(),
            lambda u=u, v=v: minkowski_sum(u, v),
            lambda u=u, v=v: intersect(u, v),
            lambda a=a, u=u: image(a, u),
            lambda a=a: column_space(a.T),
            lambda u=u, w=w: product(u, w),
            lambda u=u, w=w, n=n, m=m: structured_complement(product(u, w), n, m),
            lambda k=k: oblique_projector(k, k.annihilator()),
            lambda n=n, m=m: (Subspace.zero(n), Subspace.full(m)),
            lambda a=a: linrel.LinearRelation.from_matrix(a),
            lambda r1=r1, r2=r2: linrel.compose(r2, r1),
            lambda r1=r1, nx=nx: linrel.conditional(r1, nx),
            lambda r1=r1: linrel.from_quotient_form(linrel.to_quotient_form(r1)),
            lambda r1=r1, nx=nx: linrel.graph_decompose(r1.graph, r1.dom_dim + nx),
        ]
    return cases


class TestInside:
    """Nothing the library computes goes back through the checking
    ``Subspace.__init__``, and every basis the unchecked ``Subspace._of``
    receives is one that check would accept and that sign canonicalization
    leaves bit for bit unchanged."""

    @pytest.fixture
    def inside(self, monkeypatch):
        """Call it once the inputs are built: it forbids ``__init__`` and
        returns the ``(ambient_dim, basis)`` pairs ``_of`` receives."""
        original = Subspace.__dict__["_of"].__func__
        seen = []

        def forbidden(self, *args, **kwargs):
            raise AssertionError("a library operation called the checking Subspace constructor")

        def recorded(cls, ambient_dim, basis):
            seen.append((ambient_dim, basis))
            return original(cls, ambient_dim, basis)

        def start():
            monkeypatch.setattr(Subspace, "__init__", forbidden)
            monkeypatch.setattr(Subspace, "_of", classmethod(recorded))
            return seen

        return start

    @staticmethod
    def _assert_contract(seen):
        assert seen
        for ambient_dim, basis in seen:
            assert basis.dtype == np.float64 and basis.ndim == 2
            assert basis.shape[0] == ambient_dim >= basis.shape[1]
            assert basis.flags.c_contiguous
            assert _is_orthonormal(basis, DEFAULT_TOL.eq_abs_tol)
            fixed = _fix_signs(basis)
            assert fixed.shape == basis.shape and fixed.tobytes() == basis.tobytes()

    def test_bench_programs(self, inside):
        programs = [parse(text) for text in _bench_programs()]
        assert len(programs) == 5 + 7 + 15
        seen = inside()
        for program in programs:
            interpret(program)
        self._assert_contract(seen)

    @pytest.mark.parametrize("seed", range(3))
    def test_engine_operations(self, seed, inside):
        cases = _engine_cases(9100 + seed, 30)
        seen = inside()
        for run in cases:
            run()
        self._assert_contract(seen)

    @pytest.mark.parametrize("seed", range(3))
    def test_subspace_operations(self, seed, inside):
        cases = _subspace_cases(9200 + seed, 30)
        seen = inside()
        for run in cases:
            run()
        self._assert_contract(seen)

    def test_loose_rank_cutoff(self, inside):
        # the largest singular value of D's X-part is between 4e-3 and 9e-3,
        # below a 1e-2 cutoff, so D counts as output noise whose basis vectors
        # are short of unit length by up to 4e-5 until the split rescales them
        loose = Tolerance(rank_rel_tol=1e-2)
        rng = np.random.default_rng(9500)
        cases = []
        for _ in range(50):
            nx, ny = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            k = int(rng.integers(1, ny + 1))
            a = rng.standard_normal((nx, k))
            a *= rng.uniform(4e-3, 9e-3) / np.linalg.norm(a, 2)
            b = np.linalg.qr(rng.standard_normal((ny, k)))[0]
            cases.append((column_space(np.vstack([a, b]), loose), nx, k))
        seen = inside()
        for d, nx, k in cases:
            _, h_sub, d_x, _ = linrel.graph_decompose(d, nx, loose)
            assert (d_x.dim, h_sub.dim) == (0, k)
        self._assert_contract(seen)


class TestPublicBoundary:
    """The checking constructors still reject what they rejected, and name
    a non-finite argument."""

    @pytest.mark.parametrize("n, basis", [
        (3, np.eye(2)),                 # rows do not match the ambient dimension
        (2, np.ones((2, 3)) / 2),       # more vectors than dimensions
        (2, np.ones(2)),                # not a matrix
        (2, [[1.0], [1.0]]),            # not unit length
        (2, [[1.0, 1.0], [0.0, 1e-3]]),  # not orthogonal
    ])
    def test_bad_basis_rejected(self, n, basis):
        with pytest.raises(ValueError) as err:
            Subspace(n, basis)
        assert not isinstance(err.value, NonFiniteInput)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("build, name", [
        (lambda x: Subspace(2, [[1.0, 0.0], [0.0, x]]), "basis"),
        (lambda x: Subspace.span([[x, 1.0]]), "vectors"),
        (lambda x: Subspace.from_dict({"ambient_dim": 2, "basis": [[1.0, x]]}), "vectors"),
        (lambda x: column_space([[1.0], [x]]), "matrix"),
        (lambda x: GaussianMap([[x]], [0.0], [[1.0]]), "lin"),
        (lambda x: GaussianMap([[1.0]], [x], [[1.0]]), "mean"),
        (lambda x: GaussianMap([[1.0]], [0.0], [[x]]), "cov"),
        (lambda x: ExtendedGaussianMap(Subspace.zero(1), [[x]], [0.0], [[1.0]]), "lin"),
        (lambda x: ExtendedGaussian(Subspace.zero(1), [x], [[1.0]]), "mean"),
        (lambda x: E.gaussian([0.0], [[x]]), "cov"),
        (lambda x: ExtendedGaussian.from_dict(
            {"dim": 1, "mean": [0.0], "cov": [[x]], "nondet_basis": []}), "cov"),
        (lambda x: PrecisionRep(Subspace.full(1), [[x]]), "form"),
        (lambda x: image([[x, 1.0]], Subspace.full(2)), "a"),
        (lambda x: image([[x, 1.0]], Subspace.zero(2)), "a"),
        (lambda x: E.pushforward([[x, 1.0]], E.uniform(2)), "a"),
        (lambda x: E.pushforward([[x, 1.0]], E.gaussian([0.0, 0.0], np.eye(2))), "a"),
    ])
    def test_non_finite_rejected_by_name(self, build, name, bad):
        with pytest.raises(NonFiniteInput, match=f"^{name} has a NaN or infinite entry$"):
            build(bad)

    @pytest.mark.parametrize("lin, mean, cov, name", [
        ([[1e200]], [0.0], [[0.0]], "lin"),
        ([[0.0]], [1e200], [[0.0]], "mean"),
        ([[0.0]], [0.0], [[1e200]], "cov"),
    ])
    def test_compose_overflow_rejected_by_name(self, lin, mean, cov, name):
        # the composite is built unchecked, so its overflow is caught there
        f = ExtendedGaussianMap(Subspace.zero(1), [[1e200]], [0.0], [[0.0]])
        g = ExtendedGaussianMap(Subspace.zero(1), lin, mean, cov)
        with np.errstate(over="raise", invalid="raise"), \
                pytest.raises(NonFiniteInput, match=f"^{name} has a NaN or infinite entry$"):
            E.compose(f, g)

    def test_observe_overflow_on_the_nondeterminism_rejected_by_name(self):
        # mean and cov are zero along D, but obs maps D's unit vector past
        # the largest float
        psi = ExtendedGaussian(Subspace.span([[1.0, 1.0]]), [0.0, 0.0], np.zeros((2, 2)))
        with np.errstate(over="raise", invalid="raise"), \
                pytest.raises(NonFiniteInput, match="^nondet has a NaN or infinite entry$"):
            E.observe(psi, [[1.5e308, 1.5e308]], [0.0])

    def test_one_class_everywhere(self):
        import extgauss
        from extgauss import subspace

        assert E.NonFiniteInput is subspace.NonFiniteInput is extgauss.NonFiniteInput
        assert issubclass(NonFiniteInput, ValueError)

    def test_init_stays_the_checking_constructor(self):
        assert "__init__" in Subspace.__dict__
        u = Subspace(2, -np.eye(2))
        assert np.array_equal(u.basis, np.eye(2)) and not u.basis.flags.writeable
