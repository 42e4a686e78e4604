"""Linear maps and relations carrying monoid-valued noise annotations.

A noise model assigns to each dimension m a commutative monoid of
"noise" values together with a pushforward along matrices.  Annotated
linear maps compose by pushing the earlier noise through the later linear
part; annotated relations additionally carry a nondeterminism subspace D
of the codomain and keep their data in a normal form that only retains
what survives the quotient by D.

Picking the trivial model gives plain matrices; points give affine maps;
covariance forms give Gaussian maps; subspaces give linear relations.
The relation layer over the point/covariance pair is the engine behind
extended Gaussian maps.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .gauss import _block_diag, psd_normalize
from .subspace import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _Immutable,
    image,
    minkowski_sum,
    product,
)


class Decoration(ABC):
    """Interface for a noise model: a commutative monoid per dimension,
    pushed forward along matrices.

    Implementations must be stateless; values are treated as immutable.
    """

    @abstractmethod
    def zero(self, dim: int):
        """The neutral noise value on R^dim."""

    @abstractmethod
    def add(self, s, t):
        """Monoid addition of two noise values on the same space."""

    @abstractmethod
    def push(self, matrix: np.ndarray, s):
        """Transport a noise value along a linear map."""

    @abstractmethod
    def oplus(self, s, t):
        """Noise value on the product space combining s and t."""

    @abstractmethod
    def eq(self, s, t, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Tolerance-based equality of noise values."""

    @abstractmethod
    def dim(self, s) -> int:
        """Ambient dimension the value lives on."""

    def __eq__(self, other):
        return type(self) is type(other)

    def __hash__(self):
        return hash(type(self))


class ZeroDec(Decoration):
    """Trivial noise: values are just the dimension they live on."""

    def zero(self, dim):
        return int(dim)

    def add(self, s, t):
        if s != t:
            raise ValueError("noise values live on different spaces")
        return s

    def push(self, matrix, s):
        return int(np.asarray(matrix).shape[0])

    def oplus(self, s, t):
        return s + t

    def eq(self, s, t, tol=DEFAULT_TOL):
        return s == t

    def dim(self, s):
        return s


class PointDec(Decoration):
    """Additive offsets: noise values are vectors under addition."""

    def zero(self, dim):
        return np.zeros(dim)

    def add(self, s, t):
        return np.asarray(s, dtype=float) + np.asarray(t, dtype=float)

    def push(self, matrix, s):
        return np.asarray(matrix, dtype=float) @ np.asarray(s, dtype=float)

    def oplus(self, s, t):
        return np.concatenate([np.asarray(s, dtype=float), np.asarray(t, dtype=float)])

    def eq(self, s, t, tol=DEFAULT_TOL):
        return bool(np.allclose(s, t, atol=tol.eq_abs_tol))

    def dim(self, s):
        return np.asarray(s).shape[0]


class SubDec(Decoration):
    """Nondeterministic noise: subspaces under Minkowski sum."""

    def zero(self, dim):
        return Subspace.zero(dim)

    def add(self, s, t):
        return minkowski_sum(s, t)

    def push(self, matrix, s):
        return image(matrix, s)

    def oplus(self, s, t):
        return product(s, t)

    def eq(self, s, t, tol=DEFAULT_TOL):
        return s.equals(t, tol)

    def dim(self, s):
        return s.ambient_dim


class CovDec(Decoration):
    """Gaussian noise: positive semidefinite forms under addition."""

    def zero(self, dim):
        return np.zeros((dim, dim))

    def add(self, s, t):
        return np.asarray(s, dtype=float) + np.asarray(t, dtype=float)

    def push(self, matrix, s):
        # exactly symmetric, so sums of pushed forms need no re-symmetrizing
        matrix = np.asarray(matrix, dtype=float)
        s = matrix @ np.asarray(s, dtype=float) @ matrix.T
        return 0.5 * s + 0.5 * s.T  # halving first cannot overflow

    def oplus(self, s, t):
        return _block_diag(np.asarray(s, dtype=float), np.asarray(t, dtype=float))

    def eq(self, s, t, tol=DEFAULT_TOL):
        return bool(np.allclose(s, t, atol=tol.eq_abs_tol))

    def dim(self, s):
        return np.asarray(s).shape[0]


class PairDec(Decoration):
    """Componentwise product of two noise models; values are pairs."""

    def __init__(self, first: Decoration, second: Decoration):
        self.first = first
        self.second = second

    def zero(self, dim):
        return (self.first.zero(dim), self.second.zero(dim))

    def add(self, s, t):
        return (self.first.add(s[0], t[0]), self.second.add(s[1], t[1]))

    def push(self, matrix, s):
        return (self.first.push(matrix, s[0]), self.second.push(matrix, s[1]))

    def oplus(self, s, t):
        return (self.first.oplus(s[0], t[0]), self.second.oplus(s[1], t[1]))

    def eq(self, s, t, tol=DEFAULT_TOL):
        return self.first.eq(s[0], t[0], tol) and self.second.eq(s[1], t[1], tol)

    def dim(self, s):
        d = self.first.dim(s[0])
        if self.second.dim(s[1]) != d:
            raise ValueError("pair components live on different spaces")
        return d

    def __eq__(self, other):
        return (
            type(other) is PairDec
            and self.first == other.first
            and self.second == other.second
        )

    def __hash__(self):
        return hash((PairDec, self.first, self.second))


def generic_oplus(dec: Decoration, s, t):
    """Reference combination through the block inclusions; instances must
    agree with this (checked by tests, used as the oracle)."""
    nx, ny = dec.dim(s), dec.dim(t)
    ix = np.vstack([np.eye(nx), np.zeros((ny, nx))])
    iy = np.vstack([np.zeros((nx, ny)), np.eye(ny)])
    return dec.add(dec.push(ix, s), dec.push(iy, t))


class DecoratedMap(_Immutable):
    """A linear map together with a noise value on its codomain."""

    __slots__ = ("dec", "dom_dim", "cod_dim", "lin", "noise")

    def __init__(self, dec: Decoration, lin, noise):
        lin = np.asarray(lin, dtype=float)
        if lin.ndim != 2:
            raise ValueError("linear part must be a matrix")
        if dec.dim(noise) != lin.shape[0]:
            raise ValueError("noise does not live on the codomain")
        self._set(dec=dec, dom_dim=lin.shape[1], cod_dim=lin.shape[0], lin=lin, noise=noise)

    def equals(self, other: "DecoratedMap", tol: Tolerance = DEFAULT_TOL) -> bool:
        return (
            self.dec == other.dec
            and (self.dom_dim, self.cod_dim) == (other.dom_dim, other.cod_dim)
            and bool(np.allclose(self.lin, other.lin, atol=tol.eq_abs_tol))
            and self.dec.eq(self.noise, other.noise, tol)
        )

    def __repr__(self):
        return f"DecoratedMap({self.dom_dim} -> {self.cod_dim}, {type(self.dec).__name__})"


def lin_compose(m2: DecoratedMap, m1: DecoratedMap) -> DecoratedMap:
    """Sequential composition; earlier noise is pushed through the later map."""
    if m1.dec != m2.dec:
        raise ValueError("cannot compose maps over different noise models")
    if m1.cod_dim != m2.dom_dim:
        raise ValueError("shape mismatch in composition")
    dec = m1.dec
    return DecoratedMap(
        dec, m2.lin @ m1.lin, dec.add(m2.noise, dec.push(m2.lin, m1.noise))
    )


def lin_tensor(m1: DecoratedMap, m2: DecoratedMap) -> DecoratedMap:
    if m1.dec != m2.dec:
        raise ValueError("cannot tensor maps over different noise models")
    return DecoratedMap(
        m1.dec, _block_diag(m1.lin, m2.lin), m1.dec.oplus(m1.noise, m2.noise)
    )


def lin_identity(dec: Decoration, n: int) -> DecoratedMap:
    return DecoratedMap(dec, np.eye(n), dec.zero(n))


class DecoratedRelation(_Immutable):
    """A noise-annotated map into a quotient, in normal form.

    Data: a nondeterminism subspace D of the codomain, a linear part with
    columns in D^perp, and a noise value fixed by pushing along the
    projector onto D^perp.  Construction normalizes arbitrary
    representatives, so two constructions from equivalent data compare
    equal.  Values are immutable and their arrays read-only; operations
    build results of the class chosen by :meth:`_result_class`.
    """

    __slots__ = ("dec", "dom_dim", "cod_dim", "nondet", "lin", "noise")

    def __init__(self, dec: Decoration, nondet: Subspace, lin, noise):
        lin = np.asarray(lin, dtype=float)
        if lin.ndim != 2:
            raise ValueError("linear part must be a matrix")
        if nondet.ambient_dim != lin.shape[0]:
            raise ValueError("nondeterminism subspace must live in the codomain")
        if dec.dim(noise) != lin.shape[0]:
            raise ValueError("noise does not live on the codomain")
        p = nondet.complement_projector()
        self._fill(dec, nondet, p @ lin, dec.push(p, noise))

    def _fill(self, dec, nondet, lin, noise):
        self._set(dec=dec, dom_dim=lin.shape[1], cod_dim=lin.shape[0], nondet=nondet,
                  lin=lin, noise=noise)

    @classmethod
    def _result_class(cls, dom_dim: int) -> type:
        return cls

    @classmethod
    def _from_normal(cls, dec: Decoration, nondet: Subspace, lin, noise):
        """Wrap data that is already in normal form: no checks, no projection."""
        out = object.__new__(cls._result_class(lin.shape[1]))
        out._fill(dec, nondet, lin, noise)
        return out

    def __repr__(self):
        return (
            f"{type(self).__name__}({self.dom_dim} -> {self.cod_dim}, "
            f"{type(self.dec).__name__}, nondet dim {self.nondet.dim})"
        )


def normalize(dec: Decoration, nondet: Subspace, lin, noise) -> DecoratedRelation:
    """Reduce an arbitrary representative triple to normal form."""
    return DecoratedRelation(dec, nondet, lin, noise)


def congruent(a: DecoratedRelation, b: DecoratedRelation,
              tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether two normal forms present the same annotated relation."""
    return (
        a.dec == b.dec
        and (a.dom_dim, a.cod_dim) == (b.dom_dim, b.cod_dim)
        and a.nondet.equals(b.nondet, tol)
        and bool(np.allclose(a.lin, b.lin, atol=tol.eq_abs_tol))
        and a.dec.eq(a.noise, b.noise, tol)
    )


def rel_compose(m2: DecoratedRelation, m1: DecoratedRelation,
                tol: Tolerance = DEFAULT_TOL) -> DecoratedRelation:
    """Composition of annotated relations.

    The combined nondeterminism is E + f2[D]; both the linear part and the
    noise are transported into the quotient by it, which leaves them in
    normal form.  The class of ``m2`` chooses the class of the result.
    """
    if m1.dec != m2.dec:
        raise ValueError("cannot compose relations over different noise models")
    if m1.cod_dim != m2.dom_dim:
        raise ValueError("shape mismatch in composition")
    dec = m1.dec
    combined = minkowski_sum(m2.nondet, image(m2.lin, m1.nondet, tol), tol)
    p = combined.complement_projector()
    through = p @ m2.lin
    noise = dec.add(dec.push(through, m1.noise), dec.push(p, m2.noise))
    return type(m2)._from_normal(dec, combined, through @ m1.lin, noise)


def rel_tensor(m1: DecoratedRelation, m2: DecoratedRelation) -> DecoratedRelation:
    """Parallel composition; the class of ``m1`` chooses the result's."""
    if m1.dec != m2.dec:
        raise ValueError("cannot tensor relations over different noise models")
    return type(m1)._from_normal(
        m1.dec,
        product(m1.nondet, m2.nondet),
        _block_diag(m1.lin, m2.lin),
        m1.dec.oplus(m1.noise, m2.noise),
    )


def identity_rel(dec: Decoration, n: int) -> DecoratedRelation:
    return DecoratedRelation(dec, Subspace.zero(n), np.eye(n), dec.zero(n))


def copy_rel(dec: Decoration, n: int) -> DecoratedRelation:
    return DecoratedRelation(
        dec, Subspace.zero(2 * n), np.vstack([np.eye(n), np.eye(n)]), dec.zero(2 * n)
    )


def delete_rel(dec: Decoration, n: int) -> DecoratedRelation:
    return DecoratedRelation(dec, Subspace.zero(0), np.zeros((0, n)), dec.zero(0))


def rel_from_lin(m: DecoratedMap) -> DecoratedRelation:
    """Include an annotated map as a relation with no nondeterminism."""
    return DecoratedRelation(m.dec, Subspace.zero(m.cod_dim), m.lin, m.noise)


def absorb_subspace(m: DecoratedMap) -> DecoratedRelation:
    """Reinterpret the subspace half of a paired noise value as nondeterminism.

    Expects a map over ``PairDec(S, SubDec())``; the subspace component
    becomes the nondeterminism of a relation annotated over ``S``.
    """
    dec = m.dec
    if not isinstance(dec, PairDec) or not isinstance(dec.second, SubDec):
        raise ValueError("expected a map over PairDec(_, SubDec())")
    s, d = m.noise
    return DecoratedRelation(dec.first, d, m.lin, s)


@dataclass(frozen=True)
class NoiseTransform:
    """A dimensionwise conversion between noise models.

    ``fn`` must commute with pushforwards (checked empirically by tests,
    not enforced here).
    """

    src: Decoration
    dst: Decoration
    fn: Callable[[Any], Any]

    def __call__(self, s):
        return self.fn(s)


def transform_lin(t: NoiseTransform, m: DecoratedMap) -> DecoratedMap:
    """Convert the noise of a map, preserving its linear part."""
    if m.dec != t.src:
        raise ValueError("map is not annotated over the transform source")
    return DecoratedMap(t.dst, m.lin, t(m.noise))


def transform_rel(t: NoiseTransform, m: DecoratedRelation) -> DecoratedRelation:
    """Convert the noise of a relation, preserving nondeterminism and linear part."""
    if m.dec != t.src:
        raise ValueError("relation is not annotated over the transform source")
    return DecoratedRelation(t.dst, m.nondet, m.lin, t(m.noise))


def identity_transform(dec: Decoration) -> NoiseTransform:
    return NoiseTransform(dec, dec, lambda s: s)


def drop_transform(src: Decoration) -> NoiseTransform:
    """Forget all noise, landing in the trivial model."""
    return NoiseTransform(src, ZeroDec(), lambda s: src.dim(s))


def cov_support_transform(tol: Tolerance = DEFAULT_TOL) -> NoiseTransform:
    """Collapse a covariance form to the subspace carrying it."""
    from .subspace import column_space

    return NoiseTransform(
        CovDec(), SubDec(), lambda s: column_space(psd_normalize(s, tol), tol)
    )


def pair_transform(t1: NoiseTransform, t2: NoiseTransform) -> NoiseTransform:
    return NoiseTransform(
        PairDec(t1.src, t2.src),
        PairDec(t1.dst, t2.dst),
        lambda s: (t1(s[0]), t2(s[1])),
    )
