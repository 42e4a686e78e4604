import ast
import inspect
import json
import math
import re
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extgauss import decorated, dsl
from extgauss import extended as E
from extgauss import gauss
from extgauss.decorated import DecoratedRelation, congruent
from extgauss.dsl import (
    Assign,
    NormalDist,
    PosteriorReport,
    Sample,
    UniformDist,
    interpret,
    parse,
    typecheck,
)
from extgauss.extended import (
    ExtendedGaussian,
    ExtendedGaussianMap,
    InfeasibleObservation,
    NonFiniteInput,
    PrecisionRep,
    as_distribution,
    condition_equal,
    covariance_rep,
    dirac,
    from_covariance_rep,
    from_gaussian,
    gaussian,
    observe,
    to_covariance,
    to_precision,
    uniform,
)
from extgauss.gauss import NotPSD
from extgauss.gauss import GaussianMap
from extgauss.linrel import graph_decompose
from extgauss.subspace import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    column_space,
    image,
    intersect,
    minkowski_sum,
    oblique_projector,
    product,
    pseudoinverse,
    structured_complement,
)

from _gen import (
    LOOSE_RANK,
    gauss_observe_oracle,
    nullspace_oracle,
    random_extended,
    random_extended_map,
    random_gaussian_map,
    random_psd,
    random_subspace,
    reconstruct_extended,
    span_above,
    support_point,
    tau_conditioning_problem,
    tau_regularized,
)

DIAG = Subspace.span([[1.0, 1.0]])
LOOSE_EQ = Tolerance(eq_abs_tol=1e-4)


class TestNormalFormAndEquality:
    def test_translation_absorbed_three_ways(self):
        a = ExtendedGaussian(Subspace.full(1), [10.0], [[0.0]])
        b = uniform(1)
        c = ExtendedGaussian(Subspace.full(1), [0.0], [[10.0]])
        assert a.equals(b) and b.equals(c) and a.equals(c)

    def test_joint_representations_identified(self):
        a = ExtendedGaussian(DIAG, [0, 0], np.eye(2))
        b = ExtendedGaussian(DIAG, [0, 0], np.diag([0.0, 2.0]))
        assert a.equals(b)

    def test_distinct_variances_differ(self):
        assert not gaussian([0.0], [[1.0]]).equals(gaussian([0.0], [[2.0]]))

    @pytest.mark.parametrize("seed", range(25))
    def test_translation_invariance_random(self, seed):
        rng = np.random.default_rng(7000 + seed)
        psi = random_extended(rng, int(rng.integers(1, 6)))
        inside = psi.nondet.basis @ rng.standard_normal(psi.nondet.dim)
        assert E.translate(psi, inside).equals(psi)
        off = psi.nondet.annihilator()
        if off.dim:
            outside = off.basis @ (0.5 + rng.random(off.dim))
            assert not E.translate(psi, outside).equals(psi)

    @pytest.mark.parametrize("seed", range(25))
    def test_translated_mean_stays_orthogonal_to_nondet(self, seed):
        rng = np.random.default_rng(7050 + seed)
        psi = random_extended(rng, int(rng.integers(1, 6)))
        v = 10.0 * rng.standard_normal(psi.dim)
        out = E.translate(psi, v)
        gap = psi.nondet.basis.T @ out.mean
        assert np.abs(gap).max(initial=0.0) <= 1e-13 * (1.0 + np.linalg.norm(v))
        assert out.nondet is psi.nondet and np.array_equal(out.cov, psi.cov)
        assert out.equals(ExtendedGaussian(psi.nondet, psi.mean + v, psi.cov))

    def test_translate_rejects_a_shift_of_another_shape(self):
        psi = gaussian([0.0, 1.0, 2.0], np.eye(3))
        for shift in ([5.0], [1.0, 2.0], np.ones((3, 1)), 5.0):
            with pytest.raises(ValueError, match="shift of shape"):
                E.translate(psi, shift)
        np.testing.assert_array_equal(E.translate(psi, [5.0, 5.0, 5.0]).mean, [5.0, 6.0, 7.0])

    def test_json_round_trip(self):
        psi = random_extended(np.random.default_rng(1), 3)
        blob = json.dumps(psi.to_dict())
        back = ExtendedGaussian.from_dict(json.loads(blob))
        assert back.equals(psi)
        assert set(psi.to_dict()) == {"dim", "mean", "cov", "nondet_basis"}


class TestPushforward:
    def test_identity(self):
        psi = random_extended(np.random.default_rng(2), 3)
        assert E.pushforward(np.eye(3), psi).equals(psi)

    def test_nonuniqueness_collapse(self):
        psi = ExtendedGaussian(DIAG, [0, 0], np.eye(2))
        assert E.pushforward(np.eye(2), psi).equals(
            ExtendedGaussian(DIAG, [0, 0], np.diag([0.0, 2.0]))
        )

    def test_difference_removes_ignorance(self):
        psi = ExtendedGaussian(DIAG, [0, 0], np.eye(2))
        out = E.pushforward([[1.0, -1.0]], psi)
        assert out.nondet.dim == 0
        np.testing.assert_allclose(out.cov, [[2.0]], atol=1e-10)
        # large-variance oracle: the same result for any tau
        for tau in (1e4, 1e8):
            mean, cov = tau_regularized(psi, tau)
            a = np.array([[1.0, -1.0]])
            np.testing.assert_allclose(a @ cov @ a.T, [[2.0]], atol=1e-6)

    def test_uniform_pushforward_has_column_space_ignorance(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 2)) @ np.array([[1.0, 0.0], [0.0, 0.0]])
        out = E.pushforward(a, uniform(2))
        assert out.nondet == column_space(a)
        assert out.equals(ExtendedGaussian(column_space(a), np.zeros(3), np.zeros((3, 3))))


class TestComposeTensorMarginal:
    def test_identity_unit(self):
        rng = np.random.default_rng(4)
        f = random_extended_map(rng, 2, 3)
        assert E.compose(E.identity(3), f).equals(f)
        assert E.compose(f, E.identity(2)).equals(f)

    def test_shared_offset_construction(self):
        # two unit normals with an unknown common offset along the diagonal
        pair = as_distribution(E.tensor(gaussian([0.0], [[1.0]]), gaussian([0.0], [[1.0]])))
        add_unknown = ExtendedGaussianMap(DIAG, np.eye(2), [0, 0], np.zeros((2, 2)))
        out = as_distribution(E.compose(add_unknown, pair))
        assert out.equals(ExtendedGaussian(DIAG, [0, 0], np.eye(2)))
        assert out.equals(ExtendedGaussian(DIAG, [0, 0], np.diag([0.0, 2.0])))

    def test_marginal_of_coupled_pair_is_uniform(self):
        psi = ExtendedGaussian(DIAG, [0, 0], np.eye(2))
        assert E.marginal(psi, [0]).equals(uniform(1))
        # large-variance oracle: the first coordinate's variance diverges
        for tau in (1e4, 1e6, 1e8):
            _, cov = tau_regularized(psi, tau)
            assert cov[0, 0] > tau / 4

    @pytest.mark.parametrize("seed", range(20))
    def test_associativity(self, seed):
        rng = np.random.default_rng(7100 + seed)
        dims = [int(rng.integers(0, 4)) for _ in range(4)]
        f = random_extended_map(rng, dims[0], dims[1])
        g = random_extended_map(rng, dims[1], dims[2])
        h = random_extended_map(rng, dims[2], dims[3])
        assert E.compose(h, E.compose(g, f)).equals(E.compose(E.compose(h, g), f))

    @pytest.mark.parametrize("seed", range(10))
    def test_comonoid_and_delete_naturality(self, seed):
        rng = np.random.default_rng(7200 + seed)
        n, m = int(rng.integers(1, 4)), int(rng.integers(0, 4))
        cpy, ident = E.copy(n), E.identity(n)
        drop_left = E.tensor(E.delete(n), ident)
        assert E.compose(drop_left, cpy).equals(ident)
        f = random_extended_map(rng, n, m)
        assert E.compose(E.delete(m), f).equals(E.delete(n))


class TestDuality:
    def test_uniform_has_zero_precision(self):
        p = to_precision(uniform(3))
        assert p.support == Subspace.full(3)
        np.testing.assert_allclose(p.form, np.zeros((3, 3)))
        rep = covariance_rep(uniform(3))
        assert rep.dual_support.dim == 0
        np.testing.assert_allclose(rep.form, np.zeros((3, 3)))

    def test_rank_deficient_gaussian(self):
        p = to_precision(gaussian([0, 0], np.diag([0.0, 2.0])))
        assert p.support == Subspace.span([[0.0, 1.0]])
        np.testing.assert_allclose(p.form, np.diag([0.0, 0.5]), atol=1e-12)

    def test_full_rank_is_matrix_inverse(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        p = to_precision(gaussian([0, 0], cov))
        assert p.support == Subspace.full(2)
        np.testing.assert_allclose(p.form, np.linalg.inv(cov), atol=1e-10)

    def test_rejects_non_psd_form(self):
        with pytest.raises(NotPSD):
            PrecisionRep(Subspace.full(1), [[-1.0]])

    def test_rejects_form_off_support(self):
        with pytest.raises(ValueError):
            PrecisionRep(Subspace.span([[1.0, 0.0]]), np.eye(2))

    @pytest.mark.parametrize("seed", range(80))
    def test_round_trip_and_kernel_identities(self, seed):
        rng = np.random.default_rng(7300 + seed)
        n = int(rng.integers(0, 7))
        d_dim = int(rng.integers(0, n + 1))
        rank = int(rng.integers(0, n - d_dim + 1))
        psi = random_extended(rng, n, nondet_dim=d_dim, rank=rank)
        centered = ExtendedGaussian(psi.nondet, np.zeros(n), psi.cov)
        prec = to_precision(psi)
        back = to_covariance(prec)
        assert back.equals(centered, Tolerance(eq_abs_tol=1e-7))
        # the form's kernel inside the support is the nondeterminism
        kernel = intersect(prec.support, column_space(prec.form).annihilator())
        assert kernel == psi.nondet
        # support identity against the round-tripped covariance
        assert prec.support == minkowski_sum(column_space(back.cov), back.nondet)
        # covariance-side round trip
        assert from_covariance_rep(covariance_rep(psi)).equals(centered)
        rep = covariance_rep(psi)
        k = intersect(rep.dual_support, column_space(rep.form).annihilator())
        assert k == prec.support.annihilator()


    @pytest.mark.parametrize("seed", range(40))
    def test_forms_are_exactly_symmetric(self, seed):
        # the form on a subspace is symmetrized after its projection, as a
        # pushed covariance is, so both reps and the rebuilt covariance equal
        # their transposes bit for bit (p @ form @ p alone did not)
        rng = np.random.default_rng(7400 + seed)
        psi = random_extended(rng, int(rng.integers(2, 6)))
        back = from_covariance_rep(covariance_rep(psi))
        for form in (to_precision(psi).form, covariance_rep(psi).form, back.cov):
            assert np.array_equal(form, form.T)


class TestConditional:
    def test_reduces_to_gaussian_case(self):
        rng = np.random.default_rng(5)
        f = random_gaussian_map(rng, 2, 4)
        got = E.conditional(from_gaussian(f), 2)
        expected = from_gaussian(gauss.conditional(f, 2))
        assert got.equals(expected)

    def test_coupled_pair_conditional(self):
        psi = ExtendedGaussian(DIAG, [0, 0], np.eye(2))
        cond = E.conditional(psi, 1)
        assert cond.nondet.dim == 0
        np.testing.assert_allclose(cond.lin, [[1.0]], atol=1e-9)
        np.testing.assert_allclose(cond.cov, [[2.0]], atol=1e-9)
        np.testing.assert_allclose(cond.mean, [0.0], atol=1e-9)

    def test_pure_output_ignorance(self):
        nondet = product(Subspace.zero(1), Subspace.full(2))
        phi = ExtendedGaussianMap(
            nondet, np.random.default_rng(6).standard_normal((3, 2)), np.zeros(3), np.eye(3)
        )
        cond = E.conditional(phi, 1)
        assert cond.nondet == Subspace.full(2)
        np.testing.assert_allclose(cond.lin, np.zeros((2, 3)), atol=1e-10)
        # large-variance oracle: conditional covariance diverges on Y
        mean = np.zeros(3)
        cov = np.eye(3) + 1e8 * nondet.projector()
        g = gauss.conditional(gauss.distribution(mean, cov, LOOSE_RANK), 1, LOOSE_RANK)
        assert np.linalg.eigvalsh(g.cov)[0] > 1e7

    @pytest.mark.parametrize("nx", [-1, 3])
    def test_split_out_of_range(self, nx):
        with pytest.raises(ValueError, match="out of range"):
            E.conditional(uniform(2), nx)

    def test_a_unit_scale_joint_of_rank_three(self):
        # the Schur complement of this joint's covariance form reads an
        # eigenvalue of -4.1e-6 (NotPSD); Y is a function of X exactly
        f = np.array([[-0.137, -0.063, -0.115], [4.572, -8.158, 4.088],
                      [-0.131, -0.054, -0.111], [11.76, 0.716, -9.095]])
        cov = f @ f.T
        cond = E.conditional(gaussian(np.zeros(4), cov), 3)
        gain = f[3] @ np.linalg.inv(f[:3])
        assert np.max(np.abs(cond.lin[0] - gain)) <= 1e-9 * np.max(np.abs(gain))
        assert np.max(np.abs(cond.cov)) <= 1e-12 * np.max(np.abs(cov))

    def test_a_rank_one_joint_is_a_function_of_x0(self):
        # the covariance form, a Schur complement of the clamped input,
        # leaves 0.80 in a Y-variance and 2.8e-5 relative in the gain
        f = np.array([[3.6219160929404137e-4], [-0.05795544616434533], [4.560408608748837],
                      [0.005265489755454017], [170.16439245674098]])
        cov = f @ f.T
        cond = E.conditional(gaussian(np.zeros(5), cov), 1)
        gain = f[1:] / f[0]
        assert np.max(np.abs(cond.lin - gain)) <= 1e-12 * np.max(np.abs(gain))
        assert np.max(np.abs(np.diag(cond.cov))) <= 1e-12 * np.max(np.abs(cov))

    def test_the_engine_shares_no_conditioner_with_the_oracles(self):
        # linrel and gauss.conditional are the references of
        # TestClosedFormConditional: the engine and the language must not call them
        for module in (E, dsl):
            for node in ast.walk(ast.parse(inspect.getsource(module))):
                if isinstance(node, ast.ImportFrom):
                    names = {alias.name for alias in node.names}
                    assert "linrel" not in (node.module or "").split(".") + list(names), module
                    if (node.module or "").split(".")[-1] == "gauss":
                        assert not names & {"conditional", "_conditional"}, module
                elif isinstance(node, ast.Import):
                    assert not any("linrel" in a.name.split(".") for a in node.names), module
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    assert (node.value.id, node.attr) not in {
                        ("gauss", "conditional"), ("gauss", "_conditional")}, module

    def test_only_the_interpreter_flushes(self):
        # an observation is a row like a definition's: the conditioner only
        # reads rows, so it neither cuts residue nor flushes, and the one
        # overflow flush runs from the interpreter's loop
        calls = {}
        for fn in ast.walk(ast.parse(inspect.getsource(dsl))):
            if isinstance(fn, ast.FunctionDef):
                calls[fn.name] = {node.func.id for node in ast.walk(fn) if isinstance(node, ast.Call)
                                  and isinstance(node.func, ast.Name)}
        assert not calls["_condition"] & {"_refill", "_drop_residue"}, calls["_condition"]
        assert [name for name, called in calls.items() if "_refill" in called] == ["interpret"]

    @pytest.mark.parametrize("seed", range(60))
    def test_reconstruction_random(self, seed):
        rng = np.random.default_rng(7400 + seed)
        na, nx, ny = (int(rng.integers(0, 4)) for _ in range(3))
        phi = random_extended_map(rng, na, nx + ny)
        out = reconstruct_extended(phi, nx, DEFAULT_TOL)
        assert out.equals(phi, Tolerance(eq_abs_tol=1e-6)), f"seed {seed}"


class TestExactConditioning:
    def test_equality_of_two_unit_normals(self):
        joint = as_distribution(E.tensor(gaussian([0.0], [[1.0]]), gaussian([0.0], [[1.0]])))
        post = condition_equal(joint)
        np.testing.assert_allclose(post.cov, [[0.5, 0.5], [0.5, 0.5]], atol=1e-10)
        u_marg = E.marginal(post, [0])
        np.testing.assert_allclose(u_marg.cov, [[0.5]], atol=1e-10)
        assert u_marg.nondet.dim == 0

    @pytest.mark.parametrize("seed", range(30))
    def test_uniform_partner_changes_nothing(self, seed):
        rng = np.random.default_rng(7500 + seed)
        n = int(rng.integers(1, 5))
        psi = random_extended(rng, n)
        joint = as_distribution(E.tensor(psi, uniform(n)))
        post = condition_equal(joint)
        assert E.marginal(post, range(n)).equals(psi, Tolerance(eq_abs_tol=1e-7))
        # afterwards the two halves are exactly equal
        assert E.marginal(post, range(n, 2 * n)).equals(psi, Tolerance(eq_abs_tol=1e-7))

    def test_infeasible_dirac(self):
        with pytest.raises(InfeasibleObservation):
            observe(dirac([0.0]), [[1.0]], [5.0])

    @pytest.mark.parametrize("where", ["obs", "value", "mean", "cov"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_rejected(self, where, bad):
        psi = gaussian([0.0, 1.0], np.eye(2))
        obs, value = np.array([[1.0, 1.0]]), np.array([1.0])
        mean, cov = psi.mean.copy(), psi.cov.copy()
        {"obs": obs, "value": value, "mean": mean, "cov": cov}[where].flat[0] = bad
        psi = ExtendedGaussian._from_normal(psi.dec, psi.nondet, psi.lin, (mean, cov))
        with pytest.raises(NonFiniteInput, match="NaN or infinite"):
            observe(psi, obs, value)

    def test_overflowing_observed_quantity_is_rejected(self):
        # finite inputs whose joint with obs @ x overflows: a typed error,
        # not an SVD that fails to converge, and no numpy warning
        psi = gaussian([0.0, 0.0], np.diag([1e300, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput, match="^cov has a NaN or infinite entry$"):
                observe(psi, [[1e10, -1.0]], [0.0])
            with pytest.raises(NonFiniteInput, match="^mean has a NaN or infinite entry$"):
                E.translate(gaussian([1e308, 0.0], np.eye(2)), np.array([1e308, 0.0]))

    def test_feasibility_scale_anchoring(self):
        # residual variance twelve orders below the joint scale is not support
        psi = gaussian([0.0, 0.0], np.diag([1.0, 1e-16]))
        with pytest.raises(InfeasibleObservation):
            observe(psi, [[0.0, 1.0]], [5.0])

    def test_observation_of_uniform_is_dirac(self):
        post = observe(uniform(1), [[1.0]], [4.0])
        assert post.equals(dirac([4.0]))

    @pytest.mark.parametrize("seed", range(20))
    def test_observation_order_invariance(self, seed):
        rng = np.random.default_rng(7600 + seed)
        n = int(rng.integers(2, 5))
        psi = random_extended(rng, n)
        l1 = rng.standard_normal((1, n))
        l2 = rng.standard_normal((1, n))
        x0 = support_point(rng, psi)
        c1, c2 = l1 @ x0, l2 @ x0
        a = observe(observe(psi, l1, c1), l2, c2)
        b = observe(observe(psi, l2, c2), l1, c1)
        assert a.equals(b, Tolerance(eq_abs_tol=1e-6))

    def test_uniform_on_zero_space(self):
        assert uniform(0).equals(dirac(np.zeros(0)))


class TestLargeVarianceOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_observe_matches_tau_limit(self, seed):
        rng = np.random.default_rng(7700 + seed)
        psi, obs, value = tau_conditioning_problem(rng)
        ext = observe(psi, obs, value)
        p = ext.nondet.complement_projector()
        for tau, budget in ((1e4, 1e-2), (1e6, 1e-3), (1e8, 1e-4)):
            mean, cov = tau_regularized(psi, tau)
            post_mean, post_cov = gauss_observe_oracle(mean, cov, obs, value, LOOSE_RANK)
            err = max(
                float(np.max(np.abs(p @ post_mean - ext.mean))),
                float(np.max(np.abs(p @ post_cov @ p - ext.cov))),
            )
            assert err <= budget, f"tau={tau}: {err}"
        # support comparison at the tightest tau; both sides resolved at the
        # oracle's variance floor
        got = span_above(post_cov, 1e-3)
        expected = minkowski_sum(span_above(ext.cov, 1e-3), ext.nondet)
        assert got.equals(expected, LOOSE_EQ)


class TestSupportAndFunctorPaths:
    def test_support_of_extended_map(self):
        rng = np.random.default_rng(8)
        m = random_extended_map(rng, 2, 3)
        s = E.support(m)
        assert s.noise_space == minkowski_sum(column_space(m.cov), m.nondet)

    @pytest.mark.parametrize("seed", range(30))
    def test_paths_into_affine_relations_agree(self, seed):
        # support of the embedded Gaussian map equals the embedding of its
        # support: the two functor paths agree on underlying affine data
        rng = np.random.default_rng(7800 + seed)
        n, m = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        f = random_gaussian_map(rng, n, m)
        via_extended = E.support(from_gaussian(f))
        direct = gauss.support(f)
        assert via_extended.equals(direct)
        # embedding the support map itself (noise as pure nondeterminism, no
        # covariance left) and taking its affine shadow changes nothing
        embedded = E.ExtendedGaussianMap(
            direct.noise_space, direct.lin, direct.offset,
            np.zeros((m, m)),
        )
        assert E.support(embedded).equals(direct)

    @pytest.mark.parametrize("seed", range(20))
    def test_support_functorial_on_extended_maps(self, seed):
        rng = np.random.default_rng(7900 + seed)
        n, p, m = (int(rng.integers(0, 4)) for _ in range(3))
        g = random_extended_map(rng, n, p)
        f = random_extended_map(rng, p, m)
        lhs = E.support(E.compose(f, g))
        rhs = gauss.compose_support(E.support(f), E.support(g))
        assert lhs.equals(rhs)


def _single_normal_form_cases(rng):
    """(name, thunk) pairs: compose, tensor and as_distribution on random
    operands, distributions and maps mixed on both sides, and the closed
    forms, of dimension 0 too.  Operands are built here, so a thunk runs
    only the operation under test."""
    n, m, p = (int(rng.integers(1, 4)) for _ in range(3))
    f, g = random_extended_map(rng, n, m), random_extended_map(rng, m, p)
    psi, chi = random_extended(rng, n), random_extended(rng, m)
    flat = ExtendedGaussianMap(chi.nondet, np.zeros((m, 0)), chi.mean, chi.cov)
    drop = E.delete(m)
    gmap, rep = random_gaussian_map(rng, n, m), covariance_rep(psi)
    return [
        ("compose map map", lambda: E.compose(g, f)),
        ("compose map dist", lambda: E.compose(f, psi)),
        ("compose dist delete", lambda: E.compose(psi, drop)),
        ("tensor map map", lambda: E.tensor(f, g)),
        ("tensor dist dist", lambda: E.tensor(psi, chi)),
        ("tensor dist map", lambda: E.tensor(psi, f)),
        ("tensor map dist", lambda: E.tensor(f, psi)),
        ("as_distribution dist", lambda: as_distribution(psi)),
        ("as_distribution flat map", lambda: as_distribution(flat)),
        ("as_distribution composite", lambda: as_distribution(E.compose(f, psi))),
        ("identity", lambda: E.identity(n - 1)),
        ("copy", lambda: E.copy(m - 1)),
        ("delete", lambda: E.delete(p - 1)),
        ("uniform", lambda: uniform(n - 1)),
        ("dirac", lambda: dirac(chi.mean)),
        ("from_gaussian", lambda: from_gaussian(gmap)),
        ("from_covariance_rep", lambda: from_covariance_rep(rep)),
    ]


def _count_own_numerics(monkeypatch) -> dict:
    """Count ``psd_normalize`` and ``numpy.linalg`` calls made outside the
    subspace operations (image, sum, product, complement) the engine uses."""
    counts = {}
    inside = [0]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if not inside[0]:
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def exempt(fn):
        def wrapper(*args, **kwargs):
            inside[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] -= 1

        return wrapper

    for name in ("svd", "eigh", "eigvalsh", "pinv", "solve", "norm", "qr", "lstsq"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    for module in (E, decorated, gauss):
        monkeypatch.setattr(module, "psd_normalize", counted("psd_normalize", gauss.psd_normalize))
    for name in ("image", "minkowski_sum", "product"):
        monkeypatch.setattr(decorated, name, exempt(getattr(decorated, name)))
    monkeypatch.setattr(Subspace, "annihilator", exempt(Subspace.annihilator))
    return counts


class TestSingleNormalForm:
    """Composite values are built once, by the relation engine."""

    @pytest.mark.parametrize("seed", range(15))
    def test_results_are_normal_forms_of_the_right_class(self, seed):
        rng = np.random.default_rng(8100 + seed)
        for name, build in _single_normal_form_cases(rng):
            out = build()
            assert isinstance(out, DecoratedRelation), name
            expected = ExtendedGaussian if out.dom_dim == 0 else ExtendedGaussianMap
            assert type(out) is expected, name
            rebuilt = ExtendedGaussianMap(out.nondet, out.lin, out.mean, out.cov)
            assert congruent(out, rebuilt), name
            for array in (out.lin, out.mean, out.cov):
                assert not array.flags.writeable, name
            assert np.array_equal(out.cov, out.cov.T), name

    def test_as_distribution_keeps_a_distribution(self):
        psi = random_extended(np.random.default_rng(8200), 3)
        assert as_distribution(psi) is psi

    @pytest.mark.parametrize("seed", range(5))
    def test_no_factorization_of_their_own(self, seed, monkeypatch):
        cases = _single_normal_form_cases(np.random.default_rng(8300 + seed))
        counts = _count_own_numerics(monkeypatch)
        for name, build in cases:
            build()
            assert counts == {}, (name, counts)


def _reference_conditional(phi, nx, tol=DEFAULT_TOL):
    """The conditional through a structured complement K = U x W of the
    nondeterminism D and the oblique projector onto K along D."""
    ny = phi.cod_dim - nx
    k, u, _ = structured_complement(phi.nondet, nx, ny, tol)
    p_k = oblique_projector(k, phi.nondet, tol)
    g = gauss.conditional(
        GaussianMap(p_k @ phi.lin, p_k @ phi.mean, p_k @ phi.cov @ p_k.T, tol), nx, tol
    )
    h, h_sub, _, _ = graph_decompose(phi.nondet, nx, tol)
    p_u = u.projector()
    p_dx = np.eye(nx) - p_u
    g_x, g_a = g.lin[:, :nx], g.lin[:, nx:]
    lin = np.hstack([g_x @ p_u + h @ p_dx, g_a])
    return ExtendedGaussianMap(h_sub, lin, g.mean, g.cov, tol)


def _reference_observe(psi, obs, value, tol=DEFAULT_TOL):
    """Exact conditioning through the X-marginal of the joint for the
    support check and composition of :func:`_reference_conditional` with a
    Dirac for the evaluation, so it shares no conditioner with ``observe``."""
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    value = np.asarray(value, dtype=float).reshape(-1)
    k, n = obs.shape
    joint = E.pushforward(np.vstack([obs, np.eye(n)]), psi, tol)
    zm = E.marginal(joint, range(k), tol)
    cov_scale = float(np.linalg.norm(joint.cov, 2)) if joint.cov.size else 0.0
    supp = minkowski_sum(column_space(zm.cov, tol, scale=cov_scale), zm.nondet, tol)
    resid = value - zm.mean
    off = resid - supp.basis @ (supp.basis.T @ resid)
    if float(np.linalg.norm(off)) > tol.eq_abs_tol * (1.0 + float(np.linalg.norm(value))):
        raise InfeasibleObservation("off the support")
    return as_distribution(E.compose(_reference_conditional(joint, k, tol), dirac(value), tol))


def _lower_expr(expr, index, what):
    """Dense affine expression over the live variables: (coefficients,
    constant), summed in Python floats and checked by :func:`_finite_affine`."""
    acc = {}
    const = 0.0
    for term in expr.terms:
        if term.var is None:
            const += term.coeff
        else:
            j = index[term.var]
            acc[j] = acc.get(j, 0.0) + term.coeff
    coeffs = np.zeros(len(index))
    coeffs[list(acc)] = list(acc.values())
    return _finite_affine(coeffs, const, index, what)


def _finite_affine(coeffs, const, index, what):
    """``(coeffs, const)``, or :class:`NonFiniteInput` naming what overflowed."""
    if not np.isfinite(coeffs).all():
        bad = np.flatnonzero(~np.isfinite(coeffs))
        raise NonFiniteInput(f"{what} has a non-finite coefficient of {list(index)[bad[0]]!r}")
    if not math.isfinite(const):
        raise NonFiniteInput(f"{what} has a non-finite constant")
    return coeffs, const


@contextmanager
def _located(node):
    """Prefix an inference error raised inside with ``node``'s ``line:col``."""
    try:
        yield
    except (InfeasibleObservation, NonFiniteInput) as exc:
        raise type(exc)(f"{node.line}:{node.col}: {exc}") from exc


def _reference_interpret(program, tol=DEFAULT_TOL):
    """The sequential interpreter: each statement acts on the joint state
    in program order, and each observation conditions it where it stands."""
    typecheck(program)
    index = {}
    state = ExtendedGaussian(Subspace.zero(0), np.zeros(0), np.zeros((0, 0)), tol)
    for stmt in program.statements:
        with _located(stmt):
            if isinstance(stmt, (Sample, Assign)):
                n = len(index)
                dist = stmt.dist if isinstance(stmt, Sample) else NormalDist(stmt.expr, 0.0)
                if isinstance(dist, UniformDist):
                    coeffs, fresh = np.zeros(n), uniform(1)
                else:
                    coeffs, const = _lower_expr(dist.mean, index, f"expression for {stmt.name!r}")
                    fresh = gaussian([const], [[dist.variance]], tol)
                state = E.tensor(state, fresh, tol)
                if np.any(coeffs):
                    shear = np.eye(n + 1)
                    shear[n, :n] = coeffs
                    state = E.pushforward(shear, state, tol)
                index[stmt.name] = n
            else:
                lc, l0 = _lower_expr(stmt.lhs, index, "left-hand side")
                rc, r0 = _lower_expr(stmt.rhs, index, "right-hand side")
                with np.errstate(over="ignore", invalid="ignore"):  # checked next
                    c, v = lc - rc, r0 - l0
                c, v = _finite_affine(c, v, index, "observed residual")
                state = observe(state, c.reshape(1, -1), [v], tol)
    with _located(program.returns[0]):
        posterior = E.marginal(state, [index[i.name] for i in program.returns], tol)
    return PosteriorReport(program.returned_names, posterior, tol.eq_abs_tol)


def _relative_gap(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b))) / (1.0 + float(np.max(np.abs(b))))


def _max_gap(got, expected) -> float:
    """Largest relative gap between two normal forms, field by field; the
    nondeterminism is compared through its orthogonal projector."""
    return max(
        _relative_gap(got.lin, expected.lin),
        _relative_gap(got.mean, expected.mean),
        _relative_gap(got.cov, expected.cov),
        _relative_gap(got.nondet.projector(), expected.nondet.projector()),
    )


_NONDET_SHAPES = ("any", "dx_zero", "dx_full", "dx_partial")


def _conditional_case(rng, shape):
    """A random map into R^{nx} x R^{ny} whose nondeterminism D has the
    given X-projection D_X: any, 0, all of R^{nx}, or a proper part
    together with output noise H = {y : (0, y) in D}.  Covariances take
    every rank."""
    na, nx, ny = (int(rng.integers(0, 4)) for _ in range(3))
    m = nx + ny
    if shape == "any":
        d = random_subspace(rng, m)
    elif shape == "dx_zero":
        d = product(Subspace.zero(nx), random_subspace(rng, ny))
    elif shape == "dx_full":
        d = random_subspace(rng, m, int(rng.integers(nx, m + 1)))
    else:
        coupled = random_subspace(rng, m, int(rng.integers(0, max(nx, 1))))
        d = minkowski_sum(coupled, product(Subspace.zero(nx), random_subspace(rng, ny)))
    phi = ExtendedGaussianMap(
        d, rng.standard_normal((m, na)), rng.standard_normal(m), random_psd(rng, m)
    )
    return phi, nx


class TestClosedFormConditional:
    """``conditional`` conditions the factor of the normal form; the
    structured-complement construction with the covariance-form
    ``gauss.conditional`` is the reference."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_structured_complement_construction(self, seed):
        rng = np.random.default_rng(8400 + seed)
        seen = set()
        for i in range(100):
            phi, nx = _conditional_case(rng, _NONDET_SHAPES[i % 4])
            got = E.conditional(phi, nx)
            gap = _max_gap(got, _reference_conditional(phi, nx))
            assert gap <= 1e-9, (seed, i, gap)
            d_x = phi.nondet.dim - got.nondet.dim
            seen.add(("D_X = 0", d_x == 0))
            seen.add(("D_X = X", d_x == nx))
            seen.add(("H != 0", got.nondet.dim > 0))
        assert len(seen) == 6, seen


def _zero_section(graph: Subspace, nx: int, tol: Tolerance) -> Subspace:
    """The subspace {y : (0, y) in graph} of the last ny coordinates, by an
    intersection and a direct image."""
    ny = graph.ambient_dim - nx
    walls = product(Subspace.zero(nx), Subspace.full(ny))
    py = np.eye(nx + ny)[nx:]
    return image(py, intersect(graph, walls, tol), tol)


class TestGraphSplit:
    """``graph_decompose`` takes h, H, D_X and U = D_X^perp from one SVD;
    the zero section, the direct image and the pseudoinverse are the
    references."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_references(self, seed):
        rng = np.random.default_rng(9000 + seed)
        for i in range(40):
            phi, nx = _conditional_case(rng, _NONDET_SHAPES[i % 4])
            d = phi.nondet
            h, h_sub, d_x, u = graph_decompose(d, nx)
            assert h_sub.equals(_zero_section(d, nx, DEFAULT_TOL))
            assert d_x.equals(image(np.eye(d.ambient_dim)[:nx], d))
            # pinv's cutoff is relative to the largest singular value, so
            # off D_X it can invert rounding noise; compare on D_X only
            on_dx = d.basis[nx:] @ pseudoinverse(d.basis[:nx]) @ d_x.projector()
            np.testing.assert_allclose(h, on_dx, atol=1e-9 * (1 + np.abs(on_dx).max(initial=0)))
            assert d.dim == d_x.dim + h_sub.dim
            assert u.dim + d_x.dim == nx
            np.testing.assert_allclose(u.basis.T @ d_x.basis, 0.0, atol=1e-12)
            for x in d_x.basis.T:
                assert d.contains(np.concatenate([x, h @ x]))
            for eta in h_sub.basis.T:
                assert d.contains(np.concatenate([np.zeros(nx), eta]))
            np.testing.assert_allclose(h @ u.basis, 0.0, atol=1e-9)

    def test_loose_rank_cutoff_keeps_an_orthonormal_output_noise(self):
        # the X-part of D has singular value 5e-3, below a 1e-2 cutoff: D
        # counts as output noise, whose basis by v has norm sqrt(1 - 2.5e-5)
        d = Subspace.span([[5e-3, 1.0]])
        h, h_sub, d_x, u = graph_decompose(d, 1, Tolerance(rank_rel_tol=1e-2))
        assert (d_x.dim, h_sub.dim, u.dim) == (0, 1, 1)
        np.testing.assert_array_equal(h, [[0.0]])
        # the split's subspaces are built unchecked, so test the basis itself
        np.testing.assert_allclose(h_sub.basis.T @ h_sub.basis, np.eye(1), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("nx, dim", [(0, 2), (3, 0), (0, 0)])
    def test_empty_x_block_closed_forms(self, nx, dim, monkeypatch):
        d = Subspace(nx + 2, np.eye(nx + 2)[:, nx:nx + dim])
        monkeypatch.setattr(np.linalg, "svd", None)
        h, h_sub, d_x, u = graph_decompose(d, nx)
        assert h.shape == (2, nx) and not h.any()
        assert h_sub.equals(Subspace(2, np.eye(2)[:, :dim]))
        assert (d_x.dim, u.dim) == (0, nx)


class TestObserveAtAPoint:
    """``observe`` evaluates the conditional at the observed value and
    checks feasibility on the joint's first coordinates."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_composition_with_dirac(self, seed):
        rng = np.random.default_rng(8500 + seed)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, n + 2))
            psi = random_extended(rng, n)
            obs = rng.standard_normal((k, n))
            value = obs @ support_point(rng, psi)
            got = observe(psi, obs, value)
            assert type(got) is ExtendedGaussian
            assert _max_gap(got, _reference_observe(psi, obs, value)) <= 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_infeasible_on_both_paths(self, seed):
        rng = np.random.default_rng(8600 + seed)
        n = int(rng.integers(2, 6))
        psi = random_extended(rng, n, nondet_dim=int(rng.integers(0, 2)), rank=1)
        k = psi.nondet.dim + 2  # more rows than the support of obs @ x has dimensions
        obs = rng.standard_normal((k, n))
        seen = np.hstack([obs @ psi.cov, obs @ psi.nondet.basis])
        off = nullspace_oracle(seen.T)[:, 0]
        value = obs @ support_point(rng, psi) + 1e-3 * off
        for path in (observe, _reference_observe):
            with pytest.raises(InfeasibleObservation):
                path(psi, obs, value)

    def test_redundant_rows_on_the_nondeterminism(self):
        # two proportional rows that read only a nondeterministic coordinate:
        # their covariance is rounding residue of the normal form, which a
        # pseudoinverse relative to its own scale turns into a gain (NotPSD)
        psi = interpret(parse(
            "v0 ~ uniform(); v1 ~ normal(3, 2); v2 ~ uniform(); "
            "v3 ~ normal(2 - 0.5*v1 + 2*v2, 1); v4 = 3 + v2; return v0, v1, v2, v3, v4"
        )).posterior
        obs = np.zeros((2, 5))
        obs[:, 0] = [-1.0, 0.5]
        both = observe(psi, obs, [-0.25, 0.125])
        assert _max_gap(both, observe(psi, obs[:1], [-0.25])) <= 1e-12
        assert _max_gap(both, _reference_observe(psi, obs, [-0.25, 0.125])) <= 1e-12

    @pytest.mark.parametrize("scale", [1.0, 1e11, 1e150])
    def test_large_coefficients_keep_every_direction_of_d(self, scale):
        # [obs; I] is injective, so its image of D has D's dimension however
        # large obs is; a cut relative to its norm dropped the second direction
        post = observe(uniform(2), [[scale, 0.0]], [1.0])
        assert post.nondet.equals(Subspace.span([[0.0, 1.0]]))
        np.testing.assert_allclose(post.mean, [1.0 / scale, 0.0], rtol=1e-12, atol=0.0)

    def test_a_small_coefficient_has_rank(self):
        # the row 1e-11 reads a coordinate of D with unit magnitude, so it is
        # scaled to unit size before the rank cut and pins x
        post = observe(uniform(1), [[1e-11]], [2e-11])
        assert post.nondet.dim == 0
        np.testing.assert_allclose(post.mean, [2.0], rtol=1e-15)

    def test_a_large_coefficient_of_a_gaussian_coordinate_scales_nothing(self):
        # only coordinates that D spans count towards a row's magnitude: x1's
        # unit coefficient keeps its rank beside x0's 1e12, so x1 absorbs the
        # observation and x0 keeps its prior
        psi = ExtendedGaussian(Subspace.span([[0.0, 1.0]]), np.zeros(2), np.diag([1.0, 0.0]))
        post = observe(psi, [[1e12, 1.0]], [5.0])
        assert post.nondet.dim == 0
        np.testing.assert_allclose(post.mean, [0.0, 5.0], atol=1e-12)
        np.testing.assert_allclose(post.cov, [[1.0, -1e12], [-1e12, 1e24]], rtol=1e-12)

    def test_a_residue_row_of_the_basis_gains_no_rank(self):
        # x0 has no nondeterminism, but an orthonormal basis computed for D
        # can read rounding residue on its row (3e-15 here, 2.7e-15 on seed
        # 55983465 of TestConditionRows); such a row enters with magnitude 0,
        # so the observation of x0 stays residue on D and conditions x0
        psi = ExtendedGaussian(Subspace(2, [[3e-15], [1.0]]), np.zeros(2), np.diag([1.0, 0.0]))
        post = observe(psi, [[1.0, 0.0]], [0.5])
        assert post.nondet.equals(Subspace.span([[0.0, 1.0]]))
        np.testing.assert_allclose(post.mean, [0.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(post.cov, np.zeros((2, 2)), atol=1e-12)

    # x0's row of the basis, 1e-11, is real but below rank_rel_tol, and it
    # enters with magnitude 0 as the residue row above does: the
    # observation of x0 is then judged against no nondeterminism
    # (ROADMAP item 6)
    @pytest.mark.xfail(strict=True, raises=InfeasibleObservation,
                       reason="a small row of the basis is taken for residue")
    def test_a_small_row_of_the_basis_is_observed(self):
        psi = ExtendedGaussian(Subspace.span([[1e-11, 1.0]]), np.zeros(2), np.zeros((2, 2)))
        assert observe(psi, [[1.0, 0.0]], [1.0]).equals(E.dirac([1.0, 1e11]))

    def test_a_dominant_variance_keeps_the_small_one_exact(self):
        # eigh orders the factor's columns by ascending variance, so x0's
        # comes second; the SVD of the observed rows must take it first
        v = 1e12
        post = observe(gaussian([0.0, 0.0], np.diag([v, 1.0])), [[1.0, 1.0]], [0.0])
        expected = v / (v + 1) * np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.max(np.abs(post.cov - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_no_svd_without_nondeterminism(self, monkeypatch):
        psi = E.gaussian([0.0, 1.0], [[2.0, 0.5], [0.5, 1.0]])
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
        observe(psi, [[1.0, 1.0]], [0.5])
        # with D = 0 its image is empty and gets no SVD
        assert all(min(np.shape(a[0])) > 0 for a in calls)

    def test_builds_no_marginal_dirac_or_composition(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("observe called a value-building helper")

        for name in ("marginal", "dirac", "compose", "as_distribution", "rel_compose"):
            monkeypatch.setattr(E, name, forbidden)
        post = observe(uniform(2), [[1.0, 1.0]], [4.0])
        assert post.nondet.dim == 1
        np.testing.assert_allclose(post.mean, [2.0, 2.0], atol=1e-12)


def _low_rank(rng, rows, cols, rank):
    """A random rows-by-cols matrix of rank at most ``rank``."""
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


class TestConditionRows:
    """``_condition_rows`` conditions a joint given in generator form, as
    unit rows and their exponents, with the Gaussian part as a factor, and
    keeps the returned rows.  ``conditional`` goes through the same conditioner
    from the normal form, with an orthonormal basis and an ``eigh`` factor,
    so this checks the generator-form input against that path, at the
    value; ``TestClosedFormConditional`` checks the conditioner against an
    independent oracle.  Seeds 169 and 414 left up to 1.6e-9 of rounding
    noise in a covariance whose exact value is 0 when the generator-form
    path subtracted a Schur complement."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(0, 2**32 - 1))
    @example(169)
    @example(414)
    def test_matches_the_conditional_at_the_value(self, seed):
        rng = np.random.default_rng(seed)
        k, r, u = (int(rng.integers(lo, 5)) for lo in (1, 1, 0))
        # rank-deficient observed and returned blocks of the generator, every
        # row scaled apart (which takes the orthonormalization of U and of
        # H), and a covariance of any rank
        g = np.vstack([_low_rank(rng, k, u, int(rng.integers(0, min(k, u) + 1))),
                       _low_rank(rng, r, u, int(rng.integers(0, min(r, u) + 1)))])
        g = np.ldexp(g, -rng.integers(0, 8, (k + r, 1)))  # rows of different scales
        f = rng.standard_normal((k + r, int(rng.integers(0, k + r + 1))))
        mean, cov = rng.standard_normal(k + r), f @ f.T
        value = mean[:k] + g[:k] @ rng.standard_normal(u) + f[:k] @ rng.standard_normal(f.shape[1])
        # unit rows and their exponents; no row is cancellation residue
        e = np.frexp(np.abs(g).max(axis=1, initial=0.0))[1]
        got = E._condition_rows(mean, f, np.ldexp(g, -e[:, None]), k, value, e, DEFAULT_TOL, 0.0)[0]
        psi = ExtendedGaussian(Subspace.span(list(g.T), ambient_dim=k + r), mean, cov)
        supp = E.support(E.marginal(psi, range(k)))
        assert supp.noise_space.contains(value - supp.offset)
        cond = E.conditional(psi, k)
        expected = ExtendedGaussian(cond.nondet, cond.lin @ value + cond.mean, cond.cov)
        assert got.nondet.dim == expected.nondet.dim
        assert _max_gap(got, expected) <= 1e-9

    def test_an_infinite_scale_is_refused(self):
        # the singular values are compared with the square root of the
        # anchor, which must not turn an infinite scale into rank 0
        f, g = np.eye(2), np.zeros((2, 0))
        with pytest.raises(NonFiniteInput, match="^scale has a NaN or infinite entry$"):
            E._condition_rows(np.zeros(2), f, g, 1, np.zeros(1), np.zeros(2, int), DEFAULT_TOL, math.inf)


def _assert_psd_to_rounding(cov, what):
    assert np.array_equal(cov, cov.T), what
    if cov.size:
        bound = DEFAULT_TOL.eq_abs_tol * max(1.0, float(np.max(np.abs(cov))))
        assert float(np.linalg.eigvalsh(cov)[0]) >= -bound, what


class TestCheckWhereCreated:
    """A covariance is checked for PSD where it enters a public constructor,
    and nowhere else: ``conditional`` and ``observe`` condition a factor
    and subtract nothing, and ``pushforward``, ``marginal`` and
    ``translate`` build their results through the engine."""

    @pytest.mark.parametrize("seed", range(5))
    def test_psd_normalize_calls(self, seed, monkeypatch):
        rng = np.random.default_rng(8700 + seed)
        cases = []
        for i in range(8):
            phi, nx = _conditional_case(rng, _NONDET_SHAPES[i % 4])
            psi = random_extended(rng, int(rng.integers(1, 6)))
            obs = rng.standard_normal((1, psi.dim))
            g = GaussianMap(phi.lin, phi.mean, phi.cov)
            cases.append((phi, nx, psi, obs, obs @ support_point(rng, psi), g, covariance_rep(psi)))
        counts = _count_own_numerics(monkeypatch)
        for phi, nx, psi, obs, value, g, rep in cases:
            for run, expected in (
                (lambda: ExtendedGaussianMap(phi.nondet, phi.lin, phi.mean, phi.cov), 1),
                (lambda: E.identity(psi.dim), 0),
                (lambda: E.copy(psi.dim), 0),
                (lambda: E.delete(psi.dim), 0),
                (lambda: uniform(psi.dim), 0),
                (lambda: dirac(psi.mean), 0),
                (lambda: from_gaussian(g), 0),
                (lambda: from_covariance_rep(rep), 0),
                (lambda: E.conditional(phi, nx), 0),
                (lambda: observe(psi, obs, value), 0),
                (lambda: E.pushforward(obs, psi), 0),
                (lambda: E.translate(psi, obs[0]), 0),
                (lambda: E.marginal(psi, range(psi.dim)[::-1]), 0),
            ):
                counts.clear()
                run()
                assert counts.get("psd_normalize", 0) == expected, counts

    def test_conditional_builds_no_gaussian_map_or_public_constructor(self, monkeypatch):
        rng = np.random.default_rng(8800)
        cases = [_conditional_case(rng, _NONDET_SHAPES[i % 4]) for i in range(40)]
        joints = [E.compose(phi, uniform(phi.dom_dim)) for phi, _ in cases]

        def forbidden(self, *args, **kwargs):
            raise AssertionError("conditional called a checking constructor")

        monkeypatch.setattr(GaussianMap, "__init__", forbidden)
        monkeypatch.setattr(ExtendedGaussianMap, "__init__", forbidden)
        for (phi, nx), joint in zip(cases, joints):
            E.conditional(phi, nx)
            # and the X-marginal, once as a marginal and once as an image
            E.marginal(joint, range(nx))
            E.pushforward(np.eye(nx, joint.dim), joint)
            E.translate(joint, np.ones(joint.dim))

    def test_observe_builds_no_gaussian_map_or_public_constructor(self, monkeypatch):
        rng = np.random.default_rng(8850)
        cases = []
        for _ in range(200):
            psi = random_extended(rng, int(rng.integers(1, 6)))
            obs = rng.standard_normal((int(rng.integers(1, psi.dim + 2)), psi.dim))
            cases.append((psi, obs, obs @ support_point(rng, psi)))

        def forbidden(self, *args, **kwargs):
            raise AssertionError("observe called a checking constructor")

        monkeypatch.setattr(GaussianMap, "__init__", forbidden)
        monkeypatch.setattr(ExtendedGaussianMap, "__init__", forbidden)
        for psi, obs, value in cases:
            observe(psi, obs, value)
            E.pushforward(obs, psi)
            E.translate(psi, obs[0])
            E.marginal(psi, range(psi.dim)[::-1])

    @pytest.mark.parametrize("seed", range(20))
    def test_results_stay_psd_to_rounding(self, seed):
        rng = np.random.default_rng(8900 + seed)
        for i in range(100):
            shape = _NONDET_SHAPES[i % 4]
            phi, nx = _conditional_case(rng, shape)
            psi = E.compose(phi, random_extended(rng, phi.dom_dim))
            results = {"constructor": phi, "compose": psi, "conditional": E.conditional(phi, nx)}
            if psi.dim:
                k = int(rng.integers(1, psi.dim + 1))
                obs = rng.standard_normal((k, psi.dim))
                results["observe"] = observe(psi, obs, obs @ support_point(rng, psi))
            for name, out in results.items():
                _assert_psd_to_rounding(out.cov, (seed, i, shape, name))


_G2 = gaussian(np.zeros(2), np.eye(2))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ExtendedGaussianMap(Subspace.zero(2), np.zeros(2), np.zeros(2), np.eye(2)),
                 "linear part must be a matrix", id="ExtendedGaussianMap-matrix"),
    pytest.param(lambda: ExtendedGaussianMap(Subspace.zero(2), np.eye(2), np.zeros(3), np.eye(2)),
                 "mean of shape (3,), expected (2,)", id="ExtendedGaussianMap-mean"),
    pytest.param(lambda: ExtendedGaussianMap(Subspace.zero(2), np.eye(2), np.zeros(2), np.eye(3)),
                 "cov of shape (3, 3), expected (2, 2)", id="ExtendedGaussianMap-cov"),
    pytest.param(lambda: as_distribution(E.identity(2)),
                 "not a distribution: domain dimension is nonzero", id="as_distribution"),
    pytest.param(lambda: E.pushforward(np.eye(3), _G2),
                 "matrix of shape (3, 3) applied to R^2", id="pushforward"),
    pytest.param(lambda: observe(_G2, np.ones((1, 3)), [0.0]),
                 "observation matrix of shape (1, 3) on R^2", id="observe-matrix"),
    pytest.param(lambda: observe(_G2, np.ones((1, 2)), [0.0, 1.0]),
                 "observed value of shape (2,), expected (1,)", id="observe-value"),
    pytest.param(lambda: condition_equal(gaussian(np.zeros(3), np.eye(3))),
                 "condition_equal needs an even-dimensional joint", id="condition_equal"),
    pytest.param(lambda: PrecisionRep(Subspace.full(2), np.eye(3)),
                 "form shape does not match the support's ambient space", id="form-shape"),
    pytest.param(lambda: E.CovarianceRep(Subspace.span([[1.0, 0.0]]), np.eye(2)),
                 "form is not supported on the given subspace", id="form-support"),
])
def test_invalid_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
