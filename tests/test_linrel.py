import json
import re

import numpy as np
import pytest

from extgauss.linrel import (
    AffineQuotientForm,
    AffineRelation,
    LinearRelation,
    NotLeftTotal,
    QuotientForm,
    compose,
    compose_affine,
    conditional,
    from_quotient_form,
    from_quotient_form_affine,
    graph_decompose,
    to_quotient_form,
    to_quotient_form_affine,
)
from extgauss.subspace import Subspace, image, minkowski_sum, product

from _gen import random_affine_relation, random_linear_relation, random_subspace


def delete_rel(n):
    return LinearRelation(n, 0, Subspace.full(n))


class TestConstruction:
    def test_left_totality_enforced(self):
        # graph of the partial relation {(0, y)} relates no x != 0
        with pytest.raises(NotLeftTotal):
            LinearRelation(1, 1, Subspace.span([[0.0, 1.0]]))

    def test_from_matrix_membership(self):
        r = LinearRelation.from_matrix([[2.0], [1.0]])
        assert r.relates([1.0], [2.0, 1.0])
        assert not r.relates([1.0], [2.0, 1.5])

    def test_json_round_trip(self):
        r = random_linear_relation(np.random.default_rng(0), 2, 3)
        back = LinearRelation.from_dict(json.loads(json.dumps(r.to_dict())))
        assert back.equals(r)


class TestCompose:
    def test_identity_unit(self):
        r = random_linear_relation(np.random.default_rng(1), 2, 3)
        assert compose(LinearRelation.identity(3), r).equals(r)
        assert compose(r, LinearRelation.identity(2)).equals(r)

    def test_functional_case(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        b = np.array([[3.0, -1.0]])
        got = compose(LinearRelation.from_matrix(b), LinearRelation.from_matrix(a))
        assert got.equals(LinearRelation.from_matrix(b @ a))

    def test_total_relation_absorbs(self):
        # anything into the total relation is total; checked pointwise on a
        # grid of rational points as an independent membership oracle
        r = random_linear_relation(np.random.default_rng(2), 1, 1)
        got = compose(LinearRelation.total(1, 1), r)
        for x in (-2.0, -0.5, 0.0, 1.0, 3.0):
            for z in (-1.0, 0.0, 0.25, 2.0):
                assert got.relates([x], [z])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compose(LinearRelation.identity(2), LinearRelation.identity(3))

    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_quotient_rule(self, seed):
        # composing graphs must match the quotient-form rule: the noise
        # spaces combine as E + f2[D] and the maps multiply modulo it
        rng = np.random.default_rng(4700 + seed)
        n, p, m = (int(rng.integers(0, 4)) for _ in range(3))
        r1 = random_linear_relation(rng, n, p)
        r2 = random_linear_relation(rng, p, m)
        q1, q2 = to_quotient_form(r1), to_quotient_form(r2)
        noise = minkowski_sum(q2.nondet, image(q2.lin, q1.nondet))
        expected = QuotientForm(noise, q2.lin @ q1.lin)
        assert to_quotient_form(compose(r2, r1)).equals(expected)


class TestQuotientForm:
    def test_diagonal_relation(self):
        q = to_quotient_form(LinearRelation.identity(1))
        assert q.nondet.dim == 0
        np.testing.assert_allclose(q.lin, [[1.0]], atol=1e-12)

    def test_total_relation(self):
        q = to_quotient_form(LinearRelation.total(1, 1))
        assert q.nondet == Subspace.full(1)
        np.testing.assert_allclose(q.lin, [[0.0]], atol=1e-12)

    def test_slope_with_noise_direction(self):
        # R = {(x, y) in R x R^2 : y - (2x, x) in span{(1, 0)}}
        noise = Subspace.span([[1.0, 0.0]])
        r = from_quotient_form(QuotientForm(noise, [[2.0], [1.0]]))
        q = to_quotient_form(r)
        assert q.nondet == noise
        np.testing.assert_allclose(q.lin, [[0.0], [1.0]], atol=1e-10)
        # membership oracle: (x, f(x) + d) must be related for sampled x, d
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(1)
            d = noise.basis @ rng.standard_normal(1)
            assert r.relates(x, q.lin @ x + d)

    @pytest.mark.parametrize("seed", range(30))
    def test_round_trips(self, seed):
        rng = np.random.default_rng(4000 + seed)
        n, m = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        r = random_linear_relation(rng, n, m)
        assert from_quotient_form(to_quotient_form(r)).equals(r)
        q = QuotientForm(random_subspace(rng, m), rng.standard_normal((m, n)))
        q2 = to_quotient_form(from_quotient_form(q))
        assert q2.equals(q)

    @pytest.mark.parametrize("seed", range(15))
    def test_images_are_cosets(self, seed):
        # R(x) is a coset of R(0): membership of f(x) + basis points
        rng = np.random.default_rng(4100 + seed)
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        r = random_linear_relation(rng, n, m)
        q = to_quotient_form(r)
        comp = q.nondet.annihilator()
        for _ in range(5):
            x = rng.standard_normal(n)
            fx = q.lin @ x
            assert r.relates(x, fx)
            for j in range(q.nondet.dim):
                assert r.relates(x, fx + q.nondet.basis[:, j])
            if comp.dim > 0:
                off = comp.basis @ (0.5 + rng.random(comp.dim))
                assert not r.relates(x, fx + off)


class TestConditional:
    def test_functional_joint(self):
        # (x, y) = g(a) with g = (a, 2a): conditional returns y = 2a given x, a
        r = LinearRelation.from_matrix([[1.0], [2.0]])
        c = conditional(r, 1)
        # the x-coordinate carries no extra information beyond a
        assert c.dom_dim == 2 and c.cod_dim == 1
        assert c.relates([1.0, 1.0], [2.0])

    def test_diagonal_for_all_inputs(self):
        # R(a) = diagonal of X x Y: conditional relates (x, a) to exactly {x}
        diag = product(Subspace.zero(1), Subspace.span([[1.0, 1.0]]))
        r = LinearRelation(1, 2, minkowski_sum(diag, Subspace.span([[1.0, 0.0, 0.0]])))
        c = conditional(r, 1)
        q = to_quotient_form(c)
        assert q.nondet.dim == 0
        rng = np.random.default_rng(9)
        for _ in range(10):
            x, a = rng.standard_normal(2)
            assert c.relates([x, a], [x])
            assert not c.relates([x, a], [x + 1.0])

    def test_total_output_stays_total(self):
        r = LinearRelation.total(2, 3)
        c = conditional(r, 1)
        assert to_quotient_form(c).nondet == Subspace.full(2)


class TestGraphDecompose:
    def test_diagonal(self):
        h, hsub, _, _ = graph_decompose(Subspace.span([[1.0, 1.0]]), 1)
        np.testing.assert_allclose(h, [[1.0]], atol=1e-12)
        assert hsub.dim == 0

    def test_pure_output_noise(self):
        d = product(Subspace.zero(2), Subspace.full(2))
        h, hsub, _, _ = graph_decompose(d, 2)
        np.testing.assert_allclose(h, np.zeros((2, 2)), atol=1e-12)
        assert hsub == Subspace.full(2)

    @pytest.mark.parametrize("nx", [-1, 3])
    def test_split_out_of_range(self, nx):
        with pytest.raises(ValueError, match="out of range"):
            graph_decompose(Subspace.full(2), nx)

    @pytest.mark.parametrize("seed", range(30))
    def test_reconstruction_random(self, seed):
        rng = np.random.default_rng(4200 + seed)
        nx, ny = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        d = random_subspace(rng, nx + ny)
        h, hsub, _, _ = graph_decompose(d, nx)
        px = np.hstack([np.eye(nx), np.zeros((nx, ny))])
        d_x = image(px, d)
        # dimension count: dim D = dim D_X + dim H
        assert d.dim == d_x.dim + hsub.dim
        # membership: every (x, h x + eta) with x in D_X, eta in H lies in D
        for j in range(d_x.dim):
            x = d_x.basis[:, j]
            assert d.contains(np.concatenate([x, h @ x]))
        for j in range(hsub.dim):
            assert d.contains(np.concatenate([np.zeros(nx), hsub.basis[:, j]]))


class TestAffine:
    def test_shift_composition(self):
        r1 = AffineRelation.from_affine_map([[1.0]], [3.0])
        r2 = AffineRelation.from_affine_map([[1.0]], [4.0])
        got = compose_affine(r2, r1)
        assert got.equals(AffineRelation.from_affine_map([[1.0]], [7.0]))

    def test_offset_absorbed_by_noise(self):
        # x -> x + 1 + span{(1)}: the shift disappears in the quotient
        direction = from_quotient_form(QuotientForm(Subspace.full(1), [[1.0]])).graph
        r = AffineRelation(1, 1, [0.0, 1.0], direction)
        q = to_quotient_form_affine(r)
        assert q.nondet == Subspace.full(1)
        np.testing.assert_allclose(q.lin, [[0.0]], atol=1e-12)
        np.testing.assert_allclose(q.offset, [0.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_homogenization_oracle(self, seed):
        # composing affine relations must match composing the linear
        # relations obtained by adjoining a constant-one coordinate
        rng = np.random.default_rng(4300 + seed)
        n, p, m = (int(rng.integers(1, 4)) for _ in range(3))
        r1 = random_affine_relation(rng, n, p)
        r2 = random_affine_relation(rng, p, m)
        got = compose_affine(r2, r1)
        h1 = _homogenize(r1)
        h2 = _homogenize(r2)
        expected = compose(h2, h1)
        assert _homogenize(got).equals(expected)

    @pytest.mark.parametrize("seed", range(20))
    def test_affine_quotient_round_trip(self, seed):
        rng = np.random.default_rng(4400 + seed)
        n, m = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        r = random_affine_relation(rng, n, m)
        assert from_quotient_form_affine(to_quotient_form_affine(r)).equals(r)
        q = AffineQuotientForm(
            random_subspace(rng, m), rng.standard_normal((m, n)), rng.standard_normal(m)
        )
        assert to_quotient_form_affine(from_quotient_form_affine(q)).equals(q)


def _homogenize(r: AffineRelation) -> LinearRelation:
    """Embed an affine relation R^n -> R^m as a linear one on (x, 1)-style
    coordinates: the span of {(base + v, 1-slot)} plus the direction."""
    n, m = r.dom_dim, r.cod_dim
    # coordinates ordered ((x, s), (y, s')) with the scalar slots carrying
    # the homogenizing constant on both sides
    vecs = []
    base_vec = np.zeros(n + 1 + m + 1)
    base_vec[:n] = r.base[:n]
    base_vec[n] = 1.0
    base_vec[n + 1: n + 1 + m] = r.base[n:]
    base_vec[-1] = 1.0
    vecs.append(base_vec)
    for j in range(r.direction.dim):
        col = r.direction.basis[:, j]
        v = np.zeros(n + 1 + m + 1)
        v[:n] = col[:n]
        v[n + 1: n + 1 + m] = col[n:]
        vecs.append(v)
    return LinearRelation(n + 1, m + 1, Subspace.span(vecs, ambient_dim=n + m + 2))


class TestMarkovLaws:
    @pytest.mark.parametrize("seed", range(15))
    def test_associativity(self, seed):
        rng = np.random.default_rng(4500 + seed)
        dims = [int(rng.integers(1, 4)) for _ in range(4)]
        f = random_linear_relation(rng, dims[0], dims[1])
        g = random_linear_relation(rng, dims[1], dims[2])
        h = random_linear_relation(rng, dims[2], dims[3])
        assert compose(h, compose(g, f)).equals(compose(compose(h, g), f))

    def test_copy_delete_laws(self):
        n = 2
        cpy = LinearRelation.from_matrix(np.vstack([np.eye(n), np.eye(n)]))
        ident = LinearRelation.identity(n)
        drop_left = _tensor_rel(delete_rel(n), ident)
        assert compose(drop_left, cpy).equals(ident)

    @pytest.mark.parametrize("seed", range(15))
    def test_delete_naturality(self, seed):
        rng = np.random.default_rng(4600 + seed)
        n, m = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        r = random_linear_relation(rng, n, m)
        assert compose(delete_rel(m), r).equals(delete_rel(n))


def _tensor_rel(r1: LinearRelation, r2: LinearRelation) -> LinearRelation:
    """Parallel composition, built directly on graph bases."""
    n1, m1, n2, m2 = r1.dom_dim, r1.cod_dim, r2.dom_dim, r2.cod_dim
    vecs = []
    for j in range(r1.graph.dim):
        col = r1.graph.basis[:, j]
        v = np.zeros(n1 + n2 + m1 + m2)
        v[:n1] = col[:n1]
        v[n1 + n2: n1 + n2 + m1] = col[n1:]
        vecs.append(v)
    for j in range(r2.graph.dim):
        col = r2.graph.basis[:, j]
        v = np.zeros(n1 + n2 + m1 + m2)
        v[n1: n1 + n2] = col[:n2]
        v[n1 + n2 + m1:] = col[n2:]
        vecs.append(v)
    graph = Subspace.span(vecs, ambient_dim=n1 + n2 + m1 + m2)
    return LinearRelation(n1 + n2, m1 + m2, graph)


_R2 = LinearRelation.from_matrix(np.eye(2))
_A1 = AffineRelation.from_affine_map([[2.0]], [1.0])  # the graph of x -> 2x + 1


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: LinearRelation(1, 1, Subspace.zero(3)),
                 ValueError, "graph lives in R^3, expected R^2", id="LinearRelation-graph"),
    pytest.param(lambda: QuotientForm(Subspace.zero(3), np.eye(2)),
                 ValueError, "noise subspace must live in the codomain", id="QuotientForm"),
    pytest.param(lambda: conditional(_R2, 3),
                 ValueError, "split 3 out of range for codomain 2", id="conditional"),
    pytest.param(lambda: AffineRelation(1, 1, np.zeros(3), Subspace.full(2)),
                 ValueError, "base point must live in R^{dom+cod}", id="AffineRelation-base"),
    pytest.param(lambda: AffineRelation(1, 1, np.zeros(2), Subspace.full(3)),
                 ValueError, "direction must live in R^{dom+cod}", id="AffineRelation-direction"),
    pytest.param(lambda: AffineRelation(1, 1, np.zeros(2), Subspace.span([[0.0, 1.0]])),
                 NotLeftTotal, "direction does not project onto the whole domain",
                 id="AffineRelation-left-total"),
    pytest.param(lambda: AffineQuotientForm(Subspace.zero(2), np.eye(2), np.zeros(3)),
                 ValueError, "offset must live in the codomain", id="AffineQuotientForm"),
    pytest.param(lambda: compose_affine(_A1, AffineRelation.from_affine_map(np.eye(2), np.zeros(2))),
                 ValueError, "shape mismatch in affine composition", id="compose_affine"),
])
def test_invalid_input_raises(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as err:
        call()
    assert type(err.value) is error


def test_affine_relates_on_the_graph_only():
    assert _A1.relates([1.0], [3.0]) and _A1.relates([-2.0], [-3.0])
    assert not _A1.relates([1.0], [3.5])
