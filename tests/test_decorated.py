import re

import numpy as np
import pytest

from extgauss import gauss, linrel
from extgauss.decorated import (
    CovDec,
    DecoratedMap,
    DecoratedRelation,
    PairDec,
    PointDec,
    SubDec,
    ZeroDec,
    absorb_subspace,
    congruent,
    copy_rel,
    cov_support_transform,
    delete_rel,
    drop_transform,
    generic_oplus,
    identity_rel,
    identity_transform,
    lin_compose,
    lin_identity,
    lin_tensor,
    normalize,
    pair_transform,
    rel_compose,
    rel_from_lin,
    rel_tensor,
    transform_lin,
    transform_rel,
)
from extgauss.subspace import Subspace, image, minkowski_sum

from _gen import random_gaussian_map, random_psd, random_subspace

ALL_DECS = [
    ZeroDec(),
    PointDec(),
    SubDec(),
    CovDec(),
    PairDec(PointDec(), CovDec()),
]

GAUSS_DEC = PairDec(PointDec(), CovDec())


def random_noise(rng, dec, m):
    if isinstance(dec, ZeroDec):
        return m
    if isinstance(dec, PointDec):
        return rng.standard_normal(m)
    if isinstance(dec, SubDec):
        return random_subspace(rng, m)
    if isinstance(dec, CovDec):
        return random_psd(rng, m)
    return (random_noise(rng, dec.first, m), random_noise(rng, dec.second, m))


def random_rel(rng, dec, n, m):
    return DecoratedRelation(
        dec, random_subspace(rng, m), rng.standard_normal((m, n)), random_noise(rng, dec, m)
    )


class TestNoiseModelLaws:
    @pytest.mark.parametrize("dec", ALL_DECS, ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("seed", range(5))
    def test_commutative_monoid(self, dec, seed):
        rng = np.random.default_rng(5000 + seed)
        m = int(rng.integers(0, 5))
        s, t, u = (random_noise(rng, dec, m) for _ in range(3))
        assert dec.eq(dec.add(dec.add(s, t), u), dec.add(s, dec.add(t, u)))
        assert dec.eq(dec.add(s, t), dec.add(t, s))
        assert dec.eq(dec.add(s, dec.zero(m)), s)

    @pytest.mark.parametrize("dec", ALL_DECS, ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("seed", range(5))
    def test_push_is_monoid_homomorphism(self, dec, seed):
        rng = np.random.default_rng(5100 + seed)
        m, k = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        a = rng.standard_normal((k, m))
        s, t = random_noise(rng, dec, m), random_noise(rng, dec, m)
        assert dec.eq(dec.push(a, dec.add(s, t)), dec.add(dec.push(a, s), dec.push(a, t)))
        assert dec.eq(dec.push(a, dec.zero(m)), dec.zero(k))

    @pytest.mark.parametrize("dec", ALL_DECS, ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("seed", range(5))
    def test_push_functoriality(self, dec, seed):
        rng = np.random.default_rng(5200 + seed)
        m, k, l = (int(rng.integers(0, 5)) for _ in range(3))
        a = rng.standard_normal((k, m))
        b = rng.standard_normal((l, k))
        s = random_noise(rng, dec, m)
        assert dec.eq(dec.push(b, dec.push(a, s)), dec.push(b @ a, s))
        assert dec.eq(dec.push(np.eye(m), s), s)

    @pytest.mark.parametrize("dec", ALL_DECS, ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("seed", range(5))
    def test_oplus_matches_inclusions(self, dec, seed):
        rng = np.random.default_rng(5300 + seed)
        m, k = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        s, t = random_noise(rng, dec, m), random_noise(rng, dec, k)
        assert dec.eq(dec.oplus(s, t), generic_oplus(dec, s, t))

    @pytest.mark.parametrize("dec", ALL_DECS, ids=lambda d: type(d).__name__)
    def test_zero_dimensional_noise_is_trivial(self, dec):
        # the condition for discarding to be lawful
        rng = np.random.default_rng(5400)
        s = random_noise(rng, dec, 0)
        assert dec.eq(s, dec.zero(0))


class TestLinCompose:
    def test_trivial_model_is_matrix_product(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((3, 2)), rng.standard_normal((2, 4))
        dec = ZeroDec()
        out = lin_compose(DecoratedMap(dec, a, 3), DecoratedMap(dec, b, 2))
        np.testing.assert_allclose(out.lin, a @ b)

    def test_affine_composition(self):
        # oracle: 2 * (3x + 5) + 1 = 6x + 11
        dec = PointDec()
        g1 = DecoratedMap(dec, [[3.0]], [5.0])
        g2 = DecoratedMap(dec, [[2.0]], [1.0])
        out = lin_compose(g2, g1)
        np.testing.assert_allclose(out.lin, [[6.0]])
        np.testing.assert_allclose(out.noise, [11.0])

    @pytest.mark.parametrize("seed", range(100))
    def test_point_cov_pair_matches_gaussian_maps(self, seed):
        rng = np.random.default_rng(5500 + seed)
        n, p, m = (int(rng.integers(0, 4)) for _ in range(3))
        f1 = random_gaussian_map(rng, n, p)
        f2 = random_gaussian_map(rng, p, m)
        d1 = DecoratedMap(GAUSS_DEC, f1.lin, (f1.mean, f1.cov))
        d2 = DecoratedMap(GAUSS_DEC, f2.lin, (f2.mean, f2.cov))
        out = lin_compose(d2, d1)
        expected = gauss.compose(f2, f1)
        np.testing.assert_allclose(out.lin, expected.lin, atol=1e-8)
        np.testing.assert_allclose(out.noise[0], expected.mean, atol=1e-8)
        np.testing.assert_allclose(out.noise[1], expected.cov, atol=1e-8)


class TestLinTensor:
    def test_identity_tensor_identity(self):
        dec = ZeroDec()
        out = lin_tensor(lin_identity(dec, 2), lin_identity(dec, 3))
        assert out.equals(lin_identity(dec, 5))

    def test_point_offsets_concatenate(self):
        dec = PointDec()
        out = lin_tensor(
            DecoratedMap(dec, [[1.0]], [3.0]), DecoratedMap(dec, [[1.0]], [4.0])
        )
        np.testing.assert_allclose(out.noise, [3.0, 4.0])

    @pytest.mark.parametrize("seed", range(25))
    def test_pair_tensor_matches_gaussian_maps(self, seed):
        rng = np.random.default_rng(5600 + seed)
        dims = [int(rng.integers(0, 4)) for _ in range(4)]
        f1 = random_gaussian_map(rng, dims[0], dims[1])
        f2 = random_gaussian_map(rng, dims[2], dims[3])
        out = lin_tensor(
            DecoratedMap(GAUSS_DEC, f1.lin, (f1.mean, f1.cov)),
            DecoratedMap(GAUSS_DEC, f2.lin, (f2.mean, f2.cov)),
        )
        expected = gauss.tensor(f1, f2)
        np.testing.assert_allclose(out.lin, expected.lin, atol=1e-10)
        np.testing.assert_allclose(out.noise[0], expected.mean, atol=1e-10)
        np.testing.assert_allclose(out.noise[1], expected.cov, atol=1e-10)


class TestRelCompose:
    @pytest.mark.parametrize("seed", range(100))
    def test_trivial_model_matches_linear_relations(self, seed):
        rng = np.random.default_rng(5700 + seed)
        n, p, m = (int(rng.integers(0, 4)) for _ in range(3))
        dec = ZeroDec()
        m1 = random_rel(rng, dec, n, p)
        m2 = random_rel(rng, dec, p, m)
        out = rel_compose(m2, m1)
        r1 = linrel.from_quotient_form(linrel.QuotientForm(m1.nondet, m1.lin))
        r2 = linrel.from_quotient_form(linrel.QuotientForm(m2.nondet, m2.lin))
        expected = linrel.to_quotient_form(linrel.compose(r2, r1))
        assert out.nondet == expected.nondet
        np.testing.assert_allclose(out.lin, expected.lin, atol=1e-8)

    @pytest.mark.parametrize("seed", range(20))
    def test_no_nondeterminism_reduces_to_lin(self, seed):
        rng = np.random.default_rng(5800 + seed)
        n, p, m = (int(rng.integers(0, 4)) for _ in range(3))
        dec = GAUSS_DEC
        a = DecoratedMap(dec, rng.standard_normal((p, n)), random_noise(rng, dec, p))
        b = DecoratedMap(dec, rng.standard_normal((m, p)), random_noise(rng, dec, m))
        out = rel_compose(rel_from_lin(b), rel_from_lin(a))
        expected = rel_from_lin(lin_compose(b, a))
        assert congruent(out, expected)

    @pytest.mark.parametrize("seed", range(100))
    def test_point_model_matches_affine_relations(self, seed):
        rng = np.random.default_rng(5900 + seed)
        n, p, m = (int(rng.integers(0, 4)) for _ in range(3))
        dec = PointDec()
        m1 = random_rel(rng, dec, n, p)
        m2 = random_rel(rng, dec, p, m)
        out = rel_compose(m2, m1)
        r1 = linrel.from_quotient_form_affine(
            linrel.AffineQuotientForm(m1.nondet, m1.lin, m1.noise)
        )
        r2 = linrel.from_quotient_form_affine(
            linrel.AffineQuotientForm(m2.nondet, m2.lin, m2.noise)
        )
        expected = linrel.to_quotient_form_affine(linrel.compose_affine(r2, r1))
        assert out.nondet == expected.nondet
        np.testing.assert_allclose(out.lin, expected.lin, atol=1e-8)
        np.testing.assert_allclose(out.noise, expected.offset, atol=1e-8)


class TestNormalFormAndCongruence:
    def test_zero_nondeterminism_unchanged(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((3, 2))
        s = random_psd(rng, 3)
        out = normalize(CovDec(), Subspace.zero(3), f, s)
        np.testing.assert_allclose(out.lin, f)
        np.testing.assert_allclose(out.noise, s)

    def test_point_offset_absorbed(self):
        # a point mass at 10 plus total ignorance equals ignorance alone
        dec = PointDec()
        a = normalize(dec, Subspace.full(1), np.zeros((1, 0)), [10.0])
        b = normalize(dec, Subspace.full(1), np.zeros((1, 0)), [0.0])
        assert congruent(a, b)

    def test_covariance_representations_identified(self):
        # isotropic noise and its diagonal-collapsed form agree modulo the
        # diagonal nondeterminism
        dec = CovDec()
        diag = Subspace.span([[1.0, 1.0]])
        a = normalize(dec, diag, np.zeros((2, 0)), np.eye(2))
        b = normalize(dec, diag, np.zeros((2, 0)), np.diag([0.0, 2.0]))
        assert congruent(a, b)


def perturb_inside_nondet(rng, dec, rel):
    """A different raw representative of the same annotated relation:
    the linear part and the noise are shifted in directions that vanish
    in the quotient by the nondeterminism subspace."""
    d = rel.nondet
    m, n = rel.cod_dim, rel.dom_dim
    shift = d.basis @ rng.standard_normal((d.dim, n))
    lin = rel.lin + shift
    noise = _perturb_noise(rng, dec, rel.noise, d)
    return lin, noise


def _perturb_noise(rng, dec, s, d):
    if isinstance(dec, ZeroDec):
        return s
    if isinstance(dec, PointDec):
        return np.asarray(s, dtype=float) + d.basis @ rng.standard_normal(d.dim)
    if isinstance(dec, SubDec):
        extra = image(d.basis, random_subspace(rng, d.dim)) if d.dim else d
        return minkowski_sum(s, extra)
    if isinstance(dec, CovDec):
        # congruence by I + (into-D) keeps positivity and the quotient part
        w = d.basis @ rng.standard_normal((d.dim, d.ambient_dim))
        t = np.eye(d.ambient_dim) + w
        bump = d.basis @ rng.standard_normal((d.dim, d.dim))
        return t @ np.asarray(s, dtype=float) @ t.T + bump @ bump.T
    return (
        _perturb_noise(rng, dec.first, s[0], d),
        _perturb_noise(rng, dec.second, s[1], d),
    )


CONGRUENCE_DECS = [GAUSS_DEC, SubDec(), ZeroDec()]


class TestCongruenceWellDefined:
    @pytest.mark.parametrize("dec", CONGRUENCE_DECS, ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("seed", range(40))
    def test_composition_respects_congruence(self, dec, seed):
        rng = np.random.default_rng(6000 + seed)
        n, p, m = (int(rng.integers(0, 4)) for _ in range(3))
        m1 = random_rel(rng, dec, n, p)
        m2 = random_rel(rng, dec, p, m)
        lin1, noise1 = perturb_inside_nondet(rng, dec, m1)
        lin2, noise2 = perturb_inside_nondet(rng, dec, m2)
        m1p = normalize(dec, m1.nondet, lin1, noise1)
        m2p = normalize(dec, m2.nondet, lin2, noise2)
        assert congruent(m1p, m1) and congruent(m2p, m2)
        assert congruent(rel_compose(m2p, m1p), rel_compose(m2, m1))

    @pytest.mark.parametrize("dec", CONGRUENCE_DECS, ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("seed", range(15))
    def test_tensor_respects_congruence(self, dec, seed):
        rng = np.random.default_rng(6100 + seed)
        dims = [int(rng.integers(0, 4)) for _ in range(4)]
        m1 = random_rel(rng, dec, dims[0], dims[1])
        m2 = random_rel(rng, dec, dims[2], dims[3])
        lin1, noise1 = perturb_inside_nondet(rng, dec, m1)
        lin2, noise2 = perturb_inside_nondet(rng, dec, m2)
        m1p = normalize(dec, m1.nondet, lin1, noise1)
        m2p = normalize(dec, m2.nondet, lin2, noise2)
        assert congruent(rel_tensor(m2p, m1p), rel_tensor(m2, m1))

    @pytest.mark.parametrize("seed", range(25))
    def test_composite_subspace_well_defined(self, seed):
        # V + f1[U] = V + f2[U] whenever f1 and f2 agree modulo V
        rng = np.random.default_rng(6200 + seed)
        p, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        v = random_subspace(rng, m)
        u = random_subspace(rng, p)
        f1 = rng.standard_normal((m, p))
        f2 = f1 + v.basis @ rng.standard_normal((v.dim, p))
        assert minkowski_sum(v, image(f1, u)) == minkowski_sum(v, image(f2, u))


class TestTransforms:
    def test_identity_transform(self):
        rng = np.random.default_rng(3)
        m = random_rel(rng, CovDec(), 2, 3)
        assert congruent(transform_rel(identity_transform(CovDec()), m), m)

    @pytest.mark.parametrize("seed", range(30))
    def test_support_transform_naturality(self, seed):
        # pushing then collapsing equals collapsing then mapping the subspace
        rng = np.random.default_rng(6300 + seed)
        m, k = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        sigma = random_psd(rng, m)
        a = rng.standard_normal((k, m))
        alpha = cov_support_transform()
        lhs = alpha(CovDec().push(a, sigma))
        rhs = image(a, alpha(sigma))
        assert lhs == rhs

    @pytest.mark.parametrize("seed", range(20))
    def test_transform_preserves_composition(self, seed):
        rng = np.random.default_rng(6400 + seed)
        n, p, m = (int(rng.integers(0, 4)) for _ in range(3))
        dec = CovDec()
        a = DecoratedMap(dec, rng.standard_normal((p, n)), random_psd(rng, p))
        b = DecoratedMap(dec, rng.standard_normal((m, p)), random_psd(rng, m))
        for t in (cov_support_transform(), drop_transform(dec)):
            lhs = transform_lin(t, lin_compose(b, a))
            rhs = lin_compose(transform_lin(t, b), transform_lin(t, a))
            assert lhs.equals(rhs)
            assert transform_lin(t, lin_identity(dec, p)).equals(lin_identity(t.dst, p))

    @pytest.mark.parametrize("seed", range(20))
    def test_transform_commutes_with_inclusion(self, seed):
        rng = np.random.default_rng(6500 + seed)
        n, m = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        dec = CovDec()
        t = cov_support_transform()
        f = DecoratedMap(dec, rng.standard_normal((m, n)), random_psd(rng, m))
        assert congruent(rel_from_lin(transform_lin(t, f)), transform_rel(t, rel_from_lin(f)))

    def test_drop_transform_forgets(self):
        rng = np.random.default_rng(4)
        m = random_rel(rng, GAUSS_DEC, 2, 3)
        out = transform_rel(drop_transform(GAUSS_DEC), m)
        assert isinstance(out.dec, ZeroDec)
        assert out.nondet == m.nondet

    @pytest.mark.parametrize("seed", range(30))
    def test_support_path_matches_gauss_support(self, seed):
        # converting covariance noise to its subspace and then absorbing it
        # reproduces the support of the Gaussian map, as affine-relation data
        rng = np.random.default_rng(6600 + seed)
        n, m = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        f = random_gaussian_map(rng, n, m)
        as_map = DecoratedMap(GAUSS_DEC, f.lin, (f.mean, f.cov))
        t = pair_transform(identity_transform(PointDec()), cov_support_transform())
        rel = absorb_subspace(transform_lin(t, as_map))
        s = gauss.support(f)
        expected = linrel.to_quotient_form_affine(
            linrel.from_quotient_form_affine(
                linrel.AffineQuotientForm(s.noise_space, s.lin, s.offset)
            )
        )
        assert rel.nondet == expected.nondet
        np.testing.assert_allclose(rel.lin, expected.lin, atol=1e-8)
        np.testing.assert_allclose(rel.noise, expected.offset, atol=1e-8)


class TestMarkovStructure:
    @pytest.mark.parametrize("dec", ALL_DECS, ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("seed", range(5))
    def test_copy_then_project_is_identity(self, dec, seed):
        rng = np.random.default_rng(6700 + seed)
        n = int(rng.integers(1, 4))
        proj = DecoratedRelation(
            dec,
            Subspace.zero(n),
            np.hstack([np.eye(n), np.zeros((n, n))]),
            dec.zero(n),
        )
        out = rel_compose(proj, copy_rel(dec, n))
        assert congruent(out, identity_rel(dec, n))

    @pytest.mark.parametrize("dec", ALL_DECS, ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("seed", range(5))
    def test_delete_naturality(self, dec, seed):
        rng = np.random.default_rng(6800 + seed)
        n, m = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        f = random_rel(rng, dec, n, m)
        lhs = rel_compose(delete_rel(dec, m), f)
        assert congruent(lhs, delete_rel(dec, n))

    @pytest.mark.parametrize("dec", ALL_DECS, ids=lambda d: type(d).__name__)
    def test_cocommutativity(self, dec):
        n = 2
        swap = np.zeros((2 * n, 2 * n))
        swap[:n, n:] = np.eye(n)
        swap[n:, :n] = np.eye(n)
        swap_rel = DecoratedRelation(dec, Subspace.zero(2 * n), swap, dec.zero(2 * n))
        assert congruent(rel_compose(swap_rel, copy_rel(dec, n)), copy_rel(dec, n))

    @pytest.mark.parametrize("seed", range(15))
    def test_rel_associativity(self, seed):
        rng = np.random.default_rng(6900 + seed)
        dims = [int(rng.integers(0, 4)) for _ in range(4)]
        dec = GAUSS_DEC
        f = random_rel(rng, dec, dims[0], dims[1])
        g = random_rel(rng, dec, dims[1], dims[2])
        h = random_rel(rng, dec, dims[2], dims[3])
        assert congruent(
            rel_compose(h, rel_compose(g, f)), rel_compose(rel_compose(h, g), f)
        )


_P2 = DecoratedMap(PointDec(), np.eye(2), np.zeros(2))
_Z2 = DecoratedMap(ZeroDec(), np.eye(2), 2)
_P3 = DecoratedMap(PointDec(), np.eye(3), np.zeros(3))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ZeroDec().add(2, 3),
                 "noise values live on different spaces", id="ZeroDec.add"),
    pytest.param(lambda: PairDec(PointDec(), CovDec()).dim((np.zeros(2), np.eye(3))),
                 "pair components live on different spaces", id="PairDec.dim"),
    pytest.param(lambda: DecoratedMap(PointDec(), np.zeros(2), np.zeros(2)),
                 "linear part must be a matrix", id="DecoratedMap-matrix"),
    pytest.param(lambda: DecoratedMap(PointDec(), np.eye(2), np.zeros(3)),
                 "noise does not live on the codomain", id="DecoratedMap-noise"),
    pytest.param(lambda: lin_compose(_P2, _Z2),
                 "cannot compose maps over different noise models", id="lin_compose-dec"),
    pytest.param(lambda: lin_compose(_P2, _P3),
                 "shape mismatch in composition", id="lin_compose-shape"),
    pytest.param(lambda: lin_tensor(_P2, _Z2),
                 "cannot tensor maps over different noise models", id="lin_tensor"),
    pytest.param(lambda: DecoratedRelation(PointDec(), Subspace.zero(2), np.zeros(2), np.zeros(2)),
                 "linear part must be a matrix", id="DecoratedRelation-matrix"),
    pytest.param(lambda: DecoratedRelation(PointDec(), Subspace.zero(3), np.eye(2), np.zeros(2)),
                 "nondeterminism subspace must live in the codomain", id="DecoratedRelation-nondet"),
    pytest.param(lambda: DecoratedRelation(PointDec(), Subspace.zero(2), np.eye(2), np.zeros(3)),
                 "noise does not live on the codomain", id="DecoratedRelation-noise"),
    pytest.param(lambda: rel_compose(rel_from_lin(_P2), rel_from_lin(_Z2)),
                 "cannot compose relations over different noise models", id="rel_compose-dec"),
    pytest.param(lambda: rel_compose(rel_from_lin(_P2), rel_from_lin(_P3)),
                 "shape mismatch in composition", id="rel_compose-shape"),
    pytest.param(lambda: rel_tensor(rel_from_lin(_P2), rel_from_lin(_Z2)),
                 "cannot tensor relations over different noise models", id="rel_tensor"),
    pytest.param(lambda: absorb_subspace(_P2),
                 "expected a map over PairDec(_, SubDec())", id="absorb_subspace"),
    pytest.param(lambda: transform_lin(identity_transform(ZeroDec()), _P2),
                 "map is not annotated over the transform source", id="transform_lin"),
    pytest.param(lambda: transform_rel(identity_transform(ZeroDec()), rel_from_lin(_P2)),
                 "relation is not annotated over the transform source", id="transform_rel"),
])
def test_invalid_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_decorations_are_dict_keys():
    # the hash agrees with ==: a fresh, equal decoration finds the entry
    table = {dec: i for i, dec in enumerate(ALL_DECS)}
    assert len(table) == len(ALL_DECS)
    fresh = [ZeroDec(), PointDec(), SubDec(), CovDec(), PairDec(PointDec(), CovDec())]
    assert [table[dec] for dec in fresh] == list(range(len(ALL_DECS)))
    assert PairDec(CovDec(), PointDec()) not in table
