import re

import numpy as np
import pytest

from extgauss import gauss, linrel
from extgauss.gauss import (
    AffineSupportMap,
    GaussianMap,
    NotPSD,
    compose_support,
    distribution,
    support,
)
from extgauss.subspace import DEFAULT_TOL, Subspace

from _gen import random_gaussian_map, reconstruct_gauss


class TestConstruction:
    def test_symmetrize_and_clamp(self):
        f = GaussianMap(np.zeros((2, 0)), [0, 0], [[1.0, 1e-10], [0.0, 1.0]])
        np.testing.assert_allclose(f.cov, f.cov.T)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            distribution([0.0], [[-1.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(NotPSD):
            distribution([0, 0], [[1.0, 0.5], [-0.5, 1.0]])

    def test_tiny_negative_eigenvalue_clamped(self):
        eps = 1e-12
        f = distribution([0.0, 0.0], [[eps, 2 * eps], [2 * eps, eps]])
        assert np.linalg.eigvalsh(f.cov)[0] >= 0.0

    @pytest.mark.parametrize("last", [1.0, -1.0], ids=["symmetrized", "clamped"])
    def test_entries_near_the_largest_float(self, last):
        # halving before adding: 1e308 + 1e308 overflows
        with np.errstate(all="raise"):
            cov = gauss.psd_normalize(np.diag([1e308, last]))
        np.testing.assert_array_equal(cov, np.diag([1e308, max(last, 0.0)]))

    def test_asymmetry_near_the_largest_float(self):
        # the symmetry defect is measured on the halves: 1e308 - (-1e308)
        # overflows
        with np.errstate(all="raise"), pytest.raises(NotPSD, match="not symmetric"):
            gauss.psd_normalize([[1.0, 1e308], [-1e308, 1.0]])

    def test_one_eigh_decides_and_clamps(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        eps = 1e-12
        for cov in ([[1.0, 0.0], [0.0, 2.0]], [[eps, 2 * eps], [2 * eps, eps]]):
            gauss.psd_normalize(cov)
        assert len(calls) == 2

    def test_json_round_trip(self):
        f = GaussianMap([[1.0, 2.0]], [3.0], [[4.0]])
        back = GaussianMap.from_dict(f.to_dict())
        assert back.equals(f)


class TestCompose:
    def test_projection_collapses_copied_noise(self):
        # pushing an isotropic pair through the difference-only projection
        proj = GaussianMap([[0.0, 0.0], [-1.0, 1.0]], [0, 0], np.zeros((2, 2)))
        out = gauss.compose(proj, distribution([0, 0], np.eye(2)))
        np.testing.assert_allclose(out.cov, np.diag([0.0, 2.0]), atol=1e-12)
        np.testing.assert_allclose(out.mean, [0.0, 0.0], atol=1e-12)

    def test_identity_unit(self):
        rng = np.random.default_rng(5)
        f = random_gaussian_map(rng, 3, 2)
        assert gauss.compose(gauss.identity(2), f).equals(f)
        assert gauss.compose(f, gauss.identity(3)).equals(f)

    def test_scalar_chain_frozen_values(self):
        # oracle below confirms the variance by simulation
        f1 = GaussianMap([[3.0]], [0.0], [[4.0]])
        f2 = GaussianMap([[2.0]], [0.0], [[1.0]])
        out = gauss.compose(f2, f1)
        np.testing.assert_allclose(out.lin, [[6.0]])
        np.testing.assert_allclose(out.cov, [[17.0]])

    def test_scalar_chain_monte_carlo(self):
        rng = np.random.default_rng(42)
        n = 1_000_000
        x = 0.7
        samples = 2.0 * (3.0 * x + rng.normal(0, 2.0, n)) + rng.normal(0, 1.0, n)
        emp_var = float(np.var(samples))
        # standard error of a variance estimate is about var * sqrt(2/n)
        assert abs(emp_var - 17.0) <= 3.0 * 17.0 * np.sqrt(2.0 / n)
        assert abs(float(np.mean(samples)) - 6.0 * x) <= 4.0 * np.sqrt(17.0 / n)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gauss.compose(gauss.identity(2), gauss.identity(3))


class TestTensorCopyDelete:
    def test_product_of_standards(self):
        out = gauss.tensor(distribution([0.0], [[1.0]]), distribution([0.0], [[1.0]]))
        np.testing.assert_allclose(out.cov, np.eye(2))

    def test_copy_of_standard_normal(self):
        # pushforward A Sigma A^T with A = (1, 1)^T stacked
        out = gauss.compose(gauss.copy(1), distribution([0.0], [[1.0]]))
        np.testing.assert_allclose(out.cov, [[1.0, 1.0], [1.0, 1.0]], atol=1e-12)

    def test_delete_naturality(self):
        rng = np.random.default_rng(6)
        f = random_gaussian_map(rng, 3, 2)
        lhs = gauss.compose(gauss.delete(2), f)
        assert lhs.equals(gauss.delete(3))


class TestPushforward:
    def test_identity(self):
        psi = distribution([1.0, 2.0], np.diag([1.0, 3.0]))
        assert gauss.pushforward(np.eye(2), psi).equals(psi)

    def test_projection_matrix(self):
        out = gauss.pushforward([[0.0, 0.0], [-1.0, 1.0]], distribution([0, 0], np.eye(2)))
        np.testing.assert_allclose(out.cov, np.diag([0.0, 2.0]), atol=1e-12)

    def test_sum_of_coordinates(self):
        out = gauss.pushforward([[1.0, 1.0]], distribution([0, 0], np.eye(2)))
        np.testing.assert_allclose(out.cov, [[2.0]], atol=1e-12)

    def test_rejects_maps(self):
        with pytest.raises(ValueError):
            gauss.pushforward(np.eye(2), gauss.identity(2))


class TestConditional:
    def test_deterministic_copy(self):
        psi = distribution([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
        g = gauss.conditional(psi, 1)
        np.testing.assert_allclose(g.lin, [[1.0]], atol=1e-10)
        np.testing.assert_allclose(g.cov, [[0.0]], atol=1e-10)

    def test_independent_components(self):
        g = gauss.conditional(distribution([0, 0], np.eye(2)), 1)
        np.testing.assert_allclose(g.lin, [[0.0]], atol=1e-12)
        np.testing.assert_allclose(g.cov, [[1.0]], atol=1e-12)

    def test_difference_then_condition_at_zero(self):
        # joint of (z, u) for u, v independent unit normals, z = u - v
        joint = gauss.pushforward([[1.0, -1.0], [1.0, 0.0]], distribution([0, 0], np.eye(2)))
        g = gauss.conditional(joint, 1)
        posterior_mean = g.lin @ [0.0] + g.mean
        np.testing.assert_allclose(posterior_mean, [0.0], atol=1e-12)
        np.testing.assert_allclose(g.cov, [[0.5]], atol=1e-12)

    def test_x_variance_at_rounding_level_is_zero(self):
        # an X-block far below the rounding level of the joint carries no
        # information: its pseudoinverse would be an arbitrarily large gain
        cov = np.diag([1e-64, 1e-65, 1.0])
        cov[2, :2] = cov[:2, 2] = 1e-33
        g = gauss.conditional(distribution([0.0, 0.0, 0.0], cov), 2)
        np.testing.assert_array_equal(g.lin, np.zeros((1, 2)))
        np.testing.assert_allclose(g.cov, [[1.0]], atol=1e-15)

    @pytest.mark.parametrize("seed", range(200))
    def test_reconstruction_random(self, seed):
        rng = np.random.default_rng(1000 + seed)
        na = int(rng.integers(0, 3))
        nx = int(rng.integers(0, 4))
        ny = int(rng.integers(0, 4))
        rank = int(rng.integers(0, nx + ny + 1))  # mixes full and deficient
        f = random_gaussian_map(rng, na, nx + ny, rank=rank)
        out = reconstruct_gauss(f, nx, DEFAULT_TOL)
        assert out.equals(f), f"reconstruction failed at seed {seed}"


class TestMarkovLaws:
    @pytest.mark.parametrize("seed", range(20))
    def test_associativity(self, seed):
        rng = np.random.default_rng(2000 + seed)
        dims = [int(rng.integers(0, 4)) for _ in range(4)]
        f = random_gaussian_map(rng, dims[0], dims[1])
        g = random_gaussian_map(rng, dims[1], dims[2])
        h = random_gaussian_map(rng, dims[2], dims[3])
        left = gauss.compose(h, gauss.compose(g, f))
        right = gauss.compose(gauss.compose(h, g), f)
        assert left.equals(right)

    @pytest.mark.parametrize("seed", range(10))
    def test_comonoid_laws(self, seed):
        rng = np.random.default_rng(2100 + seed)
        n = int(rng.integers(1, 4))
        cpy, dele, ident = gauss.copy(n), gauss.delete(n), gauss.identity(n)
        # counitality: dropping either copy recovers the identity
        drop_left = gauss.tensor(dele, ident)
        drop_right = gauss.tensor(ident, dele)
        assert gauss.compose(drop_left, cpy).equals(ident)
        assert gauss.compose(drop_right, cpy).equals(ident)
        # coassociativity
        lhs = gauss.compose(gauss.tensor(cpy, ident), cpy)
        rhs = gauss.compose(gauss.tensor(ident, cpy), cpy)
        assert lhs.equals(rhs)
        # cocommutativity via the swap matrix
        swap = np.zeros((2 * n, 2 * n))
        swap[:n, n:] = np.eye(n)
        swap[n:, :n] = np.eye(n)
        swap_map = GaussianMap(swap, np.zeros(2 * n), np.zeros((2 * n, 2 * n)))
        assert gauss.compose(swap_map, cpy).equals(cpy)


def _support_to_affine(s: AffineSupportMap) -> linrel.AffineRelation:
    q = linrel.AffineQuotientForm(s.noise_space, s.lin, s.offset)
    return linrel.from_quotient_form_affine(q)


class TestSupport:
    def test_dirac(self):
        s = support(distribution([2.0, -1.0], np.zeros((2, 2))))
        assert s.noise_space.dim == 0
        np.testing.assert_allclose(s.offset, [2.0, -1.0])

    def test_full_noise(self):
        s = support(GaussianMap(np.eye(2), [0, 0], np.eye(2)))
        assert s.noise_space == Subspace.full(2)

    def test_column_space_by_svd(self):
        s = support(distribution([0, 0], np.diag([0.0, 2.0])))
        assert s.noise_space == Subspace.span([[0.0, 1.0]])

    @pytest.mark.parametrize("seed", range(50))
    def test_functoriality(self, seed):
        rng = np.random.default_rng(3000 + seed)
        n, p, m = (int(rng.integers(0, 4)) for _ in range(3))
        g = random_gaussian_map(rng, n, p)
        f = random_gaussian_map(rng, p, m)
        lhs = support(gauss.compose(f, g))
        rhs = compose_support(support(f), support(g))
        assert lhs.equals(rhs)
        # cross-check support composition against affine-relation composition
        rel = linrel.compose_affine(_support_to_affine(support(f)),
                                    _support_to_affine(support(g)))
        assert rel.equals(_support_to_affine(rhs))


class TestMonteCarloConsistency:
    def test_compose_statistics(self):
        rng = np.random.default_rng(7_2024)
        n = 1_000_000
        f1 = random_gaussian_map(rng, 2, 3, rank=2)
        f2 = random_gaussian_map(rng, 3, 2, rank=2)
        comp = gauss.compose(f2, f1)
        # feed a standard normal input; compare with the analytic output law
        x = rng.standard_normal((n, 2))
        noise1 = rng.multivariate_normal(f1.mean, f1.cov, size=n)
        noise2 = rng.multivariate_normal(f2.mean, f2.cov, size=n)
        y = (x @ f1.lin.T + noise1) @ f2.lin.T + noise2
        mean = comp.mean
        cov = comp.lin @ comp.lin.T + comp.cov
        emp_mean = y.mean(axis=0)
        emp_cov = np.cov(y.T)
        se_mean = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(emp_mean - mean) <= 4.0 * se_mean)
        se_cov = np.sqrt(
            (np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n
        )
        assert np.all(np.abs(emp_cov - cov) <= 4.0 * se_cov)

    def test_tensor_statistics(self):
        rng = np.random.default_rng(8_2024)
        n = 1_000_000
        f = random_gaussian_map(rng, 1, 2, rank=1)
        g = random_gaussian_map(rng, 2, 1, rank=1)
        prod = gauss.tensor(f, g)
        x = rng.standard_normal((n, 3))
        noise = rng.multivariate_normal(prod.mean, prod.cov, size=n)
        y = x @ prod.lin.T + noise
        cov = prod.lin @ prod.lin.T + prod.cov
        emp_cov = np.cov(y.T)
        se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        assert np.all(np.abs(emp_cov - cov) <= 4.0 * se_cov)


_G2 = distribution(np.zeros(2), np.eye(2))
_S1 = AffineSupportMap(np.eye(1), [0.0], Subspace.zero(1))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: gauss.psd_normalize(np.ones((2, 3))),
                 "covariance must be square, got shape (2, 3)", id="psd_normalize"),
    pytest.param(lambda: GaussianMap(np.zeros(2), np.zeros(2), np.eye(2)),
                 "linear part must be a matrix", id="GaussianMap-matrix"),
    pytest.param(lambda: GaussianMap(np.eye(2), np.zeros(3), np.eye(2)),
                 "mean of shape (3,), expected (2,)", id="GaussianMap-mean"),
    pytest.param(lambda: GaussianMap(np.eye(2), np.zeros(2), np.eye(3)),
                 "cov of shape (3, 3), expected (2, 2)", id="GaussianMap-cov"),
    pytest.param(lambda: gauss.conditional(_G2, 3),
                 "split 3 out of range for codomain 2", id="conditional"),
    pytest.param(lambda: AffineSupportMap(np.eye(2), np.zeros(3), Subspace.zero(2)),
                 "offset of shape (3,), expected (2,)", id="AffineSupportMap-offset"),
    pytest.param(lambda: AffineSupportMap(np.eye(2), np.zeros(2), Subspace.zero(3)),
                 "noise_space ambient does not match codomain", id="AffineSupportMap-noise"),
    pytest.param(lambda: compose_support(_S1, support(_G2)),
                 "shape mismatch in support composition", id="compose_support"),
])
def test_invalid_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
        call()
    assert type(err.value) is ValueError


def test_equals_is_false_across_shapes_and_noise_spaces():
    assert not _G2.equals(distribution([0.0], [[1.0]]))
    assert not support(_G2).equals(_S1)
    assert not _S1.equals(AffineSupportMap(np.eye(1), [0.0], Subspace.full(1)))
