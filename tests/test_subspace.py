import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extgauss.subspace import (
    DEFAULT_TOL,
    NonFiniteInput,
    NotComplementary,
    Subspace,
    Tolerance,
    column_space,
    image,
    intersect,
    minkowski_sum,
    oblique_projector,
    orthonormal_columns,
    product,
    pseudoinverse,
    structured_complement,
)
from extgauss.subspace import _fix_signs, _is_orthonormal
from extgauss.dsl import interpret, parse
from extgauss.extended import ExtendedGaussian, observe
from extgauss.linrel import graph_decompose

from _gen import nullspace_oracle, random_subspace, rank_oracle


class TestSpan:
    def test_collinear_vectors(self):
        u = Subspace.span([[1, 0], [2, 0]])
        assert u.dim == 1
        np.testing.assert_allclose(u.projector(), np.diag([1.0, 0.0]), atol=1e-12)

    def test_empty_span(self):
        u = Subspace.span([], ambient_dim=3)
        assert u.ambient_dim == 3 and u.dim == 0

    def test_full_rank(self):
        u = Subspace.span([[1, 1], [1, -1]])
        np.testing.assert_allclose(u.projector(), np.eye(2), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Subspace.span([[1, 0], [1, 0, 0]])

    def test_deterministic_bitwise(self):
        vecs = [[0.3, -1.2, 0.7], [1.1, 0.4, -0.2], [1.4, -0.8, 0.5]]
        a = Subspace.span(vecs)
        b = Subspace.span(vecs)
        assert np.array_equal(a.basis, b.basis)


class TestMinkowskiSum:
    def test_direct_sum(self):
        s = minkowski_sum(Subspace.span([[1, 0]]), Subspace.span([[0, 1]]))
        assert s == Subspace.full(2)

    def test_idempotent(self):
        d = Subspace.span([[1.0, 2.0, -1.0]])
        assert minkowski_sum(d, d) == d

    def test_plane_from_line_and_plane(self):
        # expected dimension from the brute-force rank of the stacked bases
        u = Subspace.span([[1, 1, 0]])
        v = Subspace.span([[1, 0, 0], [0, 1, 0]])
        expected_dim = rank_oracle([[1, 1, 0], [1, 0, 0], [0, 1, 0]], 3)
        s = minkowski_sum(u, v)
        assert s.dim == expected_dim == 2
        assert s == Subspace.span([[1, 0, 0], [0, 1, 0]])

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            minkowski_sum(Subspace.full(2), Subspace.full(3))


class TestIntersect:
    def test_top_element(self):
        d = Subspace.span([[1.0, -3.0]])
        assert intersect(Subspace.full(2), d) == d

    def test_transverse_lines(self):
        s = intersect(Subspace.span([[1, 0]]), Subspace.span([[0, 1]]))
        assert s.dim == 0

    def test_planes_in_r3(self):
        xy = Subspace.span([[1, 0, 0], [0, 1, 0]])
        yz = Subspace.span([[0, 1, 0], [0, 0, 1]])
        # oracle: null space of the stacked normal constraints
        constraints = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        expected = Subspace(3, nullspace_oracle(constraints))
        got = intersect(xy, yz)
        assert got == expected
        assert got == Subspace.span([[0, 1, 0]])


class TestAnnihilator:
    def test_diagonal(self):
        ann = Subspace.span([[1, 1]]).annihilator()
        assert ann == Subspace.span([[1, -1]])

    def test_zero_subspace(self):
        assert Subspace.zero(4).annihilator() == Subspace.full(4)

    def test_row_vector(self):
        # oracle: SVD null space of the single constraint (1, 2, 2)
        expected = Subspace(3, nullspace_oracle(np.array([[1.0, 2.0, 2.0]])))
        got = Subspace.span([[1, 2, 2]]).annihilator()
        assert got.dim == 2
        assert got == expected


class TestImage:
    def test_identity(self):
        u = Subspace.span([[1.0, 0.5, 0.0]])
        assert image(np.eye(3), u) == u

    def test_full_space_gives_column_space(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert image(a, Subspace.full(2)) == column_space(a)

    def test_projection_kills_diagonal(self):
        a = np.array([[0.0, 0.0], [-1.0, 1.0]])
        assert image(a, Subspace.span([[1, 1]])).dim == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            image(np.eye(3), Subspace.full(2))


class TestStructuredComplement:
    def test_diagonal_of_r1_r1(self):
        k, u, w = structured_complement(Subspace.span([[1, 1]]), 1, 1)
        assert u.dim == 0 and w == Subspace.full(1)
        assert k == Subspace.span([[0, 1]])

    def test_zero_subspace(self):
        k, u, w = structured_complement(Subspace.zero(5), 2, 3)
        assert k == Subspace.full(5)
        assert u == Subspace.full(2) and w == Subspace.full(3)

    def test_pure_output_noise(self):
        v = product(Subspace.zero(2), Subspace.full(3))
        k, u, w = structured_complement(v, 2, 3)
        assert u == Subspace.full(2) and w.dim == 0
        # direct check of the decomposition
        assert minkowski_sum(k, v) == Subspace.full(5)
        assert intersect(k, v).dim == 0

    @pytest.mark.parametrize("seed", range(25))
    def test_random_direct_sums(self, seed):
        rng = np.random.default_rng(900 + seed)
        nx = int(rng.integers(0, 6))
        ny = int(rng.integers(0, 6))
        v = random_subspace(rng, nx + ny)
        k, u, w = structured_complement(v, nx, ny)
        px = np.hstack([np.eye(nx), np.zeros((nx, ny))])
        v_x = image(px, v)
        assert minkowski_sum(k, v) == Subspace.full(nx + ny)
        assert intersect(k, v).dim == 0
        assert k.dim + v.dim == nx + ny
        assert minkowski_sum(u, v_x) == Subspace.full(nx)
        assert intersect(u, v_x).dim == 0
        assert u.dim + v_x.dim == nx


class TestProjectors:
    def test_full_space(self):
        np.testing.assert_allclose(Subspace.full(3).projector(), np.eye(3))

    def test_oblique_difference_projection(self):
        p = oblique_projector(Subspace.span([[0, 1]]), Subspace.span([[1, 1]]))
        np.testing.assert_allclose(p, [[0.0, 0.0], [-1.0, 1.0]], atol=1e-12)

    def test_oblique_with_zero_is_orthogonal(self):
        k = Subspace.span([[1.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
        rest = k.annihilator()
        p = oblique_projector(k, rest)
        np.testing.assert_allclose(p, k.projector(), atol=1e-10)
        # degenerate split: a full space along the zero subspace
        np.testing.assert_allclose(
            oblique_projector(Subspace.full(3), Subspace.zero(3)), np.eye(3), atol=1e-12
        )

    def test_oblique_properties(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            k = random_subspace(rng, n)
            d_candidate = random_subspace(rng, n, n - k.dim)
            if intersect(k, d_candidate).dim != 0:
                continue
            p = oblique_projector(k, d_candidate)
            np.testing.assert_allclose(p @ p, p, atol=1e-8)
            np.testing.assert_allclose(p @ k.basis, k.basis, atol=1e-8)
            np.testing.assert_allclose(
                p @ d_candidate.basis, np.zeros((n, d_candidate.dim)), atol=1e-8
            )

    def test_not_complementary(self):
        with pytest.raises(NotComplementary):
            oblique_projector(Subspace.span([[1, 0]]), Subspace.span([[2, 0]]))
        with pytest.raises(NotComplementary):
            oblique_projector(Subspace.zero(2), Subspace.span([[1, 0]]))


class TestPseudoinverseMembership:
    def test_diagonal(self):
        np.testing.assert_allclose(
            pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-12
        )

    def test_contains_diagonal_point(self):
        assert Subspace.span([[1, 1]]).contains([3.0, 3.0])
        assert not Subspace.span([[1, 1]]).contains([3.0, 2.0])

    def test_penrose_identities_random(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            mp = pseudoinverse(m)
            np.testing.assert_allclose(mp @ m @ mp, mp, atol=1e-10)
            np.testing.assert_allclose(m @ mp @ m, m, atol=1e-10)


class TestLatticeProperties:
    @pytest.mark.parametrize("seed", range(20))
    def test_annihilator_involutive(self, seed):
        rng = np.random.default_rng(100 + seed)
        u = random_subspace(rng, int(rng.integers(0, 7)))
        assert u.annihilator().annihilator() == u
        assert u.dim + u.annihilator().dim == u.ambient_dim

    @pytest.mark.parametrize("seed", range(20))
    def test_annihilator_order_reversing(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(1, 7))
        small = random_subspace(rng, n)
        extra = random_subspace(rng, n)
        big = minkowski_sum(small, extra)
        ann_small, ann_big = small.annihilator(), big.annihilator()
        # containment: the bigger space has the smaller annihilator
        assert minkowski_sum(ann_big, ann_small) == ann_small

    @pytest.mark.parametrize("seed", range(20))
    def test_de_morgan(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(1, 7))
        u, v = random_subspace(rng, n), random_subspace(rng, n)
        lhs = minkowski_sum(u, v).annihilator()
        rhs = intersect(u.annihilator(), v.annihilator())
        assert lhs == rhs

    @pytest.mark.parametrize("seed", range(20))
    def test_image_annihilator_adjoint(self, seed):
        # image(A, D)^perp = {g : A^T g in D^perp}
        rng = np.random.default_rng(400 + seed)
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = rng.standard_normal((m, n))
        d = random_subspace(rng, n)
        lhs = image(a, d).annihilator()
        rhs = Subspace(m, nullspace_oracle(d.projector() @ a.T))
        assert lhs == rhs


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_annihilator_involutive_hypothesis(data):
    n = data.draw(st.integers(min_value=0, max_value=5))
    k = data.draw(st.integers(min_value=0, max_value=n))
    entries = st.floats(min_value=-10, max_value=10, allow_nan=False)
    vecs = [data.draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(k)]
    u = Subspace.span(vecs, ambient_dim=n)
    assert u.annihilator().annihilator() == u


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_projector_canonical_under_respan_hypothesis(data):
    # spanning the same vectors with extra multiples gives the same projector
    n = data.draw(st.integers(min_value=1, max_value=5))
    entries = st.floats(min_value=-10, max_value=10, allow_nan=False)
    vec = data.draw(
        st.lists(entries, min_size=n, max_size=n).filter(
            lambda v: max(abs(x) for x in v) > 1e-3
        )
    )
    scale = data.draw(st.floats(min_value=0.1, max_value=10))
    a = Subspace.span([vec])
    b = Subspace.span([vec, [scale * x for x in vec]])
    assert a == b


class TestDegenerateAmbient:
    def test_zero_ambient(self):
        z = Subspace.zero(0)
        assert z == Subspace.full(0)
        assert z.annihilator() == z
        assert minkowski_sum(z, z) == z
        assert intersect(z, z) == z
        assert z.projector().shape == (0, 0)

    def test_product_with_zero_ambient(self):
        u = Subspace.span([[1.0, 1.0]])
        assert product(u, Subspace.zero(0)) == u


class TestToleranceAndSerialization:
    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            Tolerance(rank_rel_tol=0.0)
        with pytest.raises(ValueError):
            Tolerance(eq_abs_tol=-1.0)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError):
                Tolerance(eq_abs_tol=bad)
            with pytest.raises(ValueError):
                Tolerance(rank_rel_tol=bad)

    def test_rank_cutoff_is_relative(self):
        # a tiny second direction below the relative cutoff is dropped
        u = Subspace.span([[1.0, 0.0], [1.0, 1e-13]])
        assert u.dim == 1
        v = Subspace.span([[1.0, 0.0], [1.0, 1e-5]])
        assert v.dim == 2

    def test_json_round_trip(self):
        u = Subspace.span([[1.0, 2.0, 2.0], [0.0, 1.0, -1.0]])
        blob = json.dumps(u.to_dict())
        back = Subspace.from_dict(json.loads(blob))
        assert back == u
        # re-canonicalization is deterministic
        again = Subspace.from_dict(json.loads(blob))
        assert np.array_equal(back.basis, again.basis)

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ValueError):
            Subspace(2, [[1.0], [1.0]])


def _fix_signs_loop(basis):
    """Reference sign convention: one column at a time."""
    basis = basis.copy()
    for j in range(basis.shape[1]):
        lead = int(np.argmax(np.abs(basis[:, j])))
        if basis[lead, j] < 0:
            basis[:, j] = -basis[:, j]
    return basis


def _accepts(basis, atol):
    try:
        Subspace(basis.shape[0], basis, Tolerance(eq_abs_tol=atol))
    except ValueError as exc:
        assert "orthonormal" in str(exc)
        return False
    return True


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestFastPaths:
    """Every shortcut agrees bit for bit with the general path it replaces."""

    @staticmethod
    def _sign_inputs():
        rng = np.random.default_rng(1234)
        yield rng.standard_normal((7, 4))
        yield rng.standard_normal((30, 30))
        # tied magnitudes: the first of the largest entries decides the sign
        yield np.array([[1.0, -1.0, 2.0], [-1.0, 1.0, -2.0], [0.5, 1.0, 2.0]])
        yield rng.integers(-2, 3, size=(6, 5)).astype(float)
        # signed zeros must come out with the same sign bits
        yield np.array([[-0.0, 0.0, -1.0], [0.0, -0.0, 0.0], [-0.0, 1.0, -0.0]])
        zero_col = rng.standard_normal((5, 3))
        zero_col[:, 1] = 0.0
        yield zero_col
        zero_row = rng.standard_normal((5, 3))
        zero_row[2] = -0.0
        yield zero_row
        yield np.zeros((4, 0))
        yield np.zeros((0, 0))
        # a view that is not C-ordered, as a slice of an SVD factor is
        yield np.asfortranarray(rng.standard_normal((6, 6)))[:, :3]
        nan_col = rng.standard_normal((4, 2))
        nan_col[1, 0] = np.nan
        yield nan_col

    def test_fix_signs_matches_loop(self):
        for basis in self._sign_inputs():
            got, want = _fix_signs(basis), _fix_signs_loop(basis)
            assert _same_bits(got, want)
            assert got.flags.c_contiguous and got is not basis

    @pytest.mark.parametrize("atol", [1e-8, 1e-3, 0.25])
    def test_orthonormality_boundary_matches_allclose(self, atol):
        def decisions(bases):
            out = []
            for basis in bases:
                want = np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=atol)
                assert _accepts(basis, atol) == want
                out.append(want)
            return out

        # diagonal: a single column of length sqrt(1 + atol + 1e-5), stepped
        # through the last bits on either side of the boundary
        diag = []
        a = np.sqrt(1.0 + atol + 1e-5)
        for step in range(-40, 41):
            x = a
            for _ in range(abs(step)):
                x = np.nextafter(x, np.inf if step > 0 else -np.inf)
            diag.append(np.array([[x], [0.0]]))
            diag.append(np.array([[x * np.sqrt(0.5)], [-x * np.sqrt(0.5)]]))
        # off-diagonal: two unit columns whose inner product is about atol
        off = []
        for e in (np.nextafter(atol, 0.0), atol, np.nextafter(atol, 1.0)):
            c = np.sqrt(1.0 - e * e)
            off.append(np.array([[1.0, e], [0.0, c]]))
            off.append(np.array([[1.0, -e], [0.0, c]]))
        for group in (diag, off):
            assert set(decisions(group)) == {True, False}

    def test_orthonormality_non_finite_rejected(self):
        for bad in (np.nan, np.inf):
            basis = np.array([[1.0, 0.0], [0.0, bad], [0.0, 0.0]])
            with np.errstate(invalid="ignore"):
                assert not np.allclose(basis.T @ basis, np.eye(2))
                assert not _is_orthonormal(basis, 1e-8)
            # the constructor rejects it before the Gram test, by name
            with pytest.raises(NonFiniteInput, match="^basis has a NaN or infinite entry$"):
                Subspace(3, basis)
        assert _accepts(np.zeros((3, 0)), 1e-8)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 60])
    def test_annihilator_matches_svd_path(self, n):
        rng = np.random.default_rng(n)
        cases = [Subspace.zero(n), Subspace.full(n)]
        if n > 1:
            cases.append(random_subspace(rng, n, n // 2))
        for u in cases:
            want = Subspace(n, np.linalg.svd(u.basis, full_matrices=True)[0][:, u.dim:])
            got = u.annihilator()
            assert _same_bits(got.basis, want.basis)
            assert u.annihilator() is got

    def test_immutable(self):
        u = Subspace.span([[1.0, 2.0]])
        u.annihilator()
        for name in ("basis", "ambient_dim", "_complement"):
            with pytest.raises(AttributeError):
                setattr(u, name, None)
        assert not u.basis.flags.writeable

    @pytest.mark.parametrize("m", [0, 1, 4])
    def test_image_of_zero_matches_general_path(self, m):
        a = np.random.default_rng(m).standard_normal((m, 3))
        scale = float(np.linalg.norm(a, 2)) if a.size else 0.0
        want = Subspace(m, orthonormal_columns(a @ np.zeros((3, 0)), DEFAULT_TOL, scale))
        got = image(a, Subspace.zero(3))
        assert got.ambient_dim == m and _same_bits(got.basis, want.basis)
        with pytest.raises(ValueError):
            image(np.eye(2), Subspace.zero(3))

    @pytest.mark.parametrize("rank_rel_tol", [1e-10, 0.9])
    def test_intersect_with_zero_matches_general_path(self, rank_rel_tol):
        tol = Tolerance(rank_rel_tol=rank_rel_tol)
        rng = np.random.default_rng(5)
        n = 4
        for u, v in [
            (Subspace.zero(n), random_subspace(rng, n, 2)),
            (random_subspace(rng, n, 3), Subspace.zero(n)),
            (Subspace.zero(n), Subspace.full(n)),
            (Subspace.zero(n), Subspace.zero(n)),
        ]:
            want = minkowski_sum(u.annihilator(), v.annihilator(), tol).annihilator()
            got = intersect(u, v, tol)
            assert got.ambient_dim == n and _same_bits(got.basis, want.basis)
        with pytest.raises(ValueError):
            intersect(Subspace.zero(2), Subspace.zero(3))


def test_column_space_when_the_svd_does_not_converge(monkeypatch):
    # LAPACK's gesdd can fail to converge on a benign matrix (the flatreg
    # witness in test_bench_oracle.py); the retry on reversed rows gives the
    # same column space, with an orthonormal, sign-canonical basis
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 5))
    want = column_space(a)
    svd, failed = np.linalg.svd, []

    def fails_once(m, *args, **kwargs):
        if not failed:
            failed.append(m)
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fails_once)
    got = column_space(a)
    assert failed and got.dim == 3 and got.equals(want)
    assert _is_orthonormal(got.basis, 1e-12) and _same_bits(_fix_signs(got.basis), got.basis)


class TestSvdRetry:
    """Every SVD the library makes directly goes through ``_svd``: when
    LAPACK does not converge, it retries on the reversed rows, and the
    result is the one the first call would have given
    (``orthonormal_columns``: ``test_column_space_when_the_svd_does_not_converge``)."""

    @staticmethod
    def _fail_first_svd(monkeypatch) -> list:
        """Make the next ``np.linalg.svd`` call raise; the list records the
        function that called ``_svd`` for it."""
        svd, failed = np.linalg.svd, []

        def fails_once(m, *args, **kwargs):
            if not failed:
                failed.append(sys._getframe(2).f_code.co_name)
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", fails_once)
        return failed

    def test_annihilator(self, monkeypatch):
        basis = random_subspace(np.random.default_rng(9), 6, 2).basis
        want = Subspace._of(6, basis.copy()).annihilator()
        failed = self._fail_first_svd(monkeypatch)
        got = Subspace._of(6, basis.copy()).annihilator()
        assert failed == ["annihilator"]
        assert got.dim == 4 and got.equals(want) and _is_orthonormal(got.basis, 1e-12)

    def test_graph_decompose(self, monkeypatch):
        d = random_subspace(np.random.default_rng(10), 7, 4)
        want = graph_decompose(d, 3)
        failed = self._fail_first_svd(monkeypatch)
        got = graph_decompose(d, 3)
        assert failed == ["graph_decompose"]
        assert np.allclose(got[0], want[0], atol=1e-12)
        assert all(g.dim == w.dim and g.equals(w) for g, w in zip(got[1:], want[1:]))

    def test_observe(self, monkeypatch):
        rng = np.random.default_rng(11)
        psi = ExtendedGaussian(random_subspace(rng, 5, 2), rng.standard_normal(5), np.eye(5))
        obs = rng.standard_normal((2, 5))
        want = observe(psi, obs, [1.0, -1.0])
        failed = self._fail_first_svd(monkeypatch)
        got = observe(psi, obs, [1.0, -1.0])
        assert failed == ["observe"]
        assert got.nondet.dim == want.nondet.dim and got.equals(want)

    def test_the_interpreters_generator(self, monkeypatch):
        program = parse("x ~ uniform(); y ~ normal(2*x, 1); w ~ uniform(); return x, y, w")
        want = interpret(program).posterior
        failed = self._fail_first_svd(monkeypatch)
        got = interpret(program).posterior
        assert failed == ["_joint"]
        assert got.nondet.dim == want.nondet.dim == 2 and got.equals(want)
