"""Numerically robust subspace arithmetic over R^n.

Subspaces are stored as orthonormal bases computed by SVD with a
deterministic sign convention, so identical inputs always produce
bitwise-identical results.  Equality is decided on orthogonal projectors,
which are invariant under change of basis.  Dual-space constructions
(annihilators) are realized as orthogonal complements under the standard
inner product; this fixes one concrete matrix realization of statements
that are basis-free in the abstract.

Every operation is a pure function and a :class:`Subspace` cannot be
changed after construction, except for one write-once cache: the first
call to :meth:`Subspace.annihilator` stores the complement it computes, and
later calls return that same object.  Two threads that race on the first
call both compute the same value and one of them is kept, so values are
still safe to share between threads.

Some constructions have shortcuts: the complement of the zero and of the
full subspace, and the image or intersection of a zero subspace.  Each
shortcut returns bit for bit what the general path returns for the same
input.

A basis is checked where it enters: ``Subspace(n, basis, tol)`` tests its
shape, finiteness and orthonormality, and ``Subspace.span``,
``Subspace.from_dict`` and :func:`column_space` reject a non-finite input
before their SVD.  Every subspace built inside the package comes from
:func:`column_space` or a closed form through the unchecked
``Subspace._of``.  A NaN or infinite input raises :class:`NonFiniteInput`,
which names the argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used throughout the package.

    rank_rel_tol: relative singular-value cutoff for rank decisions.
    eq_abs_tol: absolute entrywise bound for comparisons and membership.
    """

    rank_rel_tol: float = 1e-10
    eq_abs_tol: float = 1e-8

    def __post_init__(self):
        if not (0 < self.rank_rel_tol < math.inf and 0 < self.eq_abs_tol < math.inf):
            raise ValueError("tolerances must be finite and strictly positive")


DEFAULT_TOL = Tolerance()


class NotComplementary(ValueError):
    """The two subspaces do not form a direct-sum decomposition of R^n."""


class NonFiniteInput(ValueError):
    """An input has a NaN or infinite entry."""


def _check_finite(**arrays):
    """Raise :class:`NonFiniteInput`, naming the first non-finite argument."""
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise NonFiniteInput(f"{name} has a NaN or infinite entry")


def _as_float_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    return a


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive.

    The lead entry is the first one of largest magnitude.  Returns a new
    C-ordered array; a column with a NaN leads with it and is not flipped.
    """
    if basis.size == 0:
        return basis.copy()
    lead = basis[np.abs(basis).argmax(axis=0), np.arange(basis.shape[1])]
    return np.multiply(basis, 1.0 - 2.0 * (lead < 0), order="C")


def _is_orthonormal(basis: np.ndarray, atol: float) -> bool:
    """Whether ``np.allclose(basis.T @ basis, I, atol=atol)`` holds.

    Same entrywise test, ``|gram - I| <= atol + 1e-5 * I``, so the same
    bases are accepted and rejected, NaN ones included.
    """
    gram = basis.T @ basis
    if gram.size == 0:
        return True
    off = np.abs(gram)
    off.flat[:: gram.shape[0] + 1] = 0.0  # the diagonal, tested on its own below
    return bool(
        off.max() <= atol and np.abs(gram.diagonal() - 1.0).max() <= atol + 1e-5
    )


def _svd(m: np.ndarray, full_matrices: bool = True):
    """``np.linalg.svd(m, full_matrices)``; when it does not converge (gesdd
    can fail on benign input), the SVD of the reversed rows, which changes
    its bidiagonal, with the rows of ``u`` put back."""
    try:
        return np.linalg.svd(m, full_matrices=full_matrices)
    except np.linalg.LinAlgError:
        u, s, vt = np.linalg.svd(m[::-1], full_matrices=full_matrices)
        return u[::-1], s, vt


def orthonormal_columns(m, tol: Tolerance = DEFAULT_TOL, scale: float = 0.0) -> np.ndarray:
    """Canonical orthonormal basis of the column space of ``m``.

    Rank is decided by the relative singular-value cutoff
    ``tol.rank_rel_tol``; the sign of each basis vector is fixed
    deterministically.  ``scale`` raises the reference point of the
    cutoff: singular values are compared against
    ``rank_rel_tol * max(s_max, scale)``, so callers that know the
    magnitude of the data a matrix came from can prevent an all-noise
    matrix from faking full rank.
    """
    m = _as_float_matrix(m)
    if m.shape[1] == 0 or m.shape[0] == 0:
        return np.zeros((m.shape[0], 0))
    u, s, _ = _svd(m, full_matrices=False)
    cutoff = tol.rank_rel_tol * max(float(s[0]) if s.size else 0.0, scale)
    rank = int(np.sum(s > cutoff))
    return _fix_signs(u[:, :rank])


class Subspace:
    """A vector subspace of R^n, held as an n-by-k orthonormal basis.

    ``k`` may be 0 (the zero subspace) and ``n`` may be 0 (the zero
    ambient space).  Two subspaces are equal when their orthogonal
    projectors agree entrywise within tolerance.
    """

    __slots__ = ("ambient_dim", "basis", "_complement")

    def __init__(self, ambient_dim: int, basis, tol: Tolerance = DEFAULT_TOL):
        ambient_dim = int(ambient_dim)
        if ambient_dim < 0:
            raise ValueError("ambient_dim must be nonnegative")
        basis = _as_float_matrix(basis)
        if basis.shape[0] != ambient_dim:
            raise ValueError(
                f"basis has {basis.shape[0]} rows, expected {ambient_dim}"
            )
        if basis.shape[1] > ambient_dim:
            raise ValueError("more basis vectors than ambient dimensions")
        _check_finite(basis=basis)
        if not _is_orthonormal(basis, tol.eq_abs_tol):
            raise ValueError("basis columns are not orthonormal")
        self._store(ambient_dim, _fix_signs(basis))  # a new array that no caller holds

    @classmethod
    def _of(cls, ambient_dim: int, basis: np.ndarray) -> "Subspace":
        """Unchecked: ``basis`` is orthonormal, sign-canonical (``_fix_signs``
        leaves it unchanged), C-ordered, and held by no caller."""
        self = object.__new__(cls)
        self._store(ambient_dim, basis)
        return self

    def _store(self, ambient_dim: int, basis: np.ndarray):
        basis.setflags(write=False)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_complement", None)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(
        cls,
        vectors: Iterable[Sequence[float]],
        ambient_dim: int | None = None,
        tol: Tolerance = DEFAULT_TOL,
    ) -> "Subspace":
        """Subspace spanned by the given vectors of R^n.

        ``ambient_dim`` is required when ``vectors`` is empty and must
        agree with the vector length otherwise.
        """
        vs = [np.asarray(v, dtype=float) for v in vectors]
        if ambient_dim is None:
            if not vs:
                raise ValueError("ambient_dim is required for an empty span")
            ambient_dim = vs[0].shape[0]
        for v in vs:
            if v.shape != (ambient_dim,):
                raise ValueError(
                    f"vector of shape {v.shape} does not live in R^{ambient_dim}"
                )
        mat = np.column_stack(vs) if vs else np.zeros((ambient_dim, 0))
        _check_finite(vectors=mat)
        return column_space(mat, tol)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._of(ambient_dim, np.zeros((ambient_dim, 0)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._of(ambient_dim, np.eye(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """The orthogonal projector onto this subspace."""
        return self.basis @ self.basis.T

    def complement_projector(self) -> np.ndarray:
        """The orthogonal projector onto the orthogonal complement.

        Built from the complement's own basis rather than as I - P, so a
        full subspace yields an exactly zero matrix instead of rounding
        residue of unit-scale cancellations.
        """
        return self.annihilator().projector()

    def annihilator(self) -> "Subspace":
        """The orthogonal complement (the annihilator realized in R^n).

        Computed once and cached; every call returns the same object.
        """
        if self._complement is None:
            n = self.ambient_dim
            if self.dim == 0:
                basis = np.eye(n)  # what the SVD of an n-by-0 matrix returns as U
            elif self.dim == n:
                basis = np.zeros((n, 0))
            else:
                basis = _fix_signs(_svd(self.basis)[0][:, self.dim:])
            object.__setattr__(self, "_complement", Subspace._of(n, basis))
        return self._complement

    def contains(self, v, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Membership test: the residual off the subspace is small."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.ambient_dim,):
            raise ValueError(f"vector of shape {v.shape} in R^{self.ambient_dim}")
        resid = v - self.basis @ (self.basis.T @ v)
        return float(np.linalg.norm(resid)) <= tol.eq_abs_tol * (
            1.0 + float(np.linalg.norm(v))
        )

    def equals(self, other: "Subspace", tol: Tolerance = DEFAULT_TOL) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            return False
        diff = self.projector() - other.projector()
        if diff.size == 0:
            return True
        return float(np.max(np.abs(diff))) <= tol.eq_abs_tol

    def __eq__(self, other):
        return self.equals(other)

    __hash__ = None

    def __repr__(self):
        return f"Subspace(ambient_dim={self.ambient_dim}, dim={self.dim})"

    def to_dict(self) -> dict:
        """JSON form: the basis as a list of basis vectors."""
        return {"ambient_dim": self.ambient_dim, "basis": self.basis.T.tolist()}

    @classmethod
    def from_dict(cls, data: dict, tol: Tolerance = DEFAULT_TOL) -> "Subspace":
        """Rebuild from :meth:`to_dict` output; the basis is re-canonicalized."""
        return cls.span(data["basis"], ambient_dim=data["ambient_dim"], tol=tol)


def _check_same_ambient(u: Subspace, v: Subspace):
    if u.ambient_dim != v.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {u.ambient_dim} vs {v.ambient_dim}"
        )


def minkowski_sum(u: Subspace, v: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """The subspace U + V = {u + v : u in U, v in V}."""
    _check_same_ambient(u, v)
    return column_space(np.hstack([u.basis, v.basis]), tol)


def intersect(u: Subspace, v: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """The intersection U ∩ V, computed through orthogonal-complement duality.

    Uses (U ∩ V) = (U^perp + V^perp)^perp, which reduces the intersection
    to a single rank decision on stacked complements.
    """
    _check_same_ambient(u, v)
    if (u.dim == 0 or v.dim == 0) and tol.rank_rel_tol < 0.5:
        # the complement of the zero operand is R^n, so the stacked
        # complements [I | B] (B orthonormal) have singular values 1 and
        # sqrt(2): every cutoff below 1/sqrt(2) keeps rank n, and the
        # general path returns the zero subspace
        return Subspace.zero(u.ambient_dim)
    return minkowski_sum(u.annihilator(), v.annihilator(), tol).annihilator()


def image(a, u: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """The direct image A[U] = {A x : x in U} as a subspace of R^m.

    The rank cutoff is taken relative to the operator norm of A, so a
    matrix that annihilates U yields the zero subspace instead of a basis
    of rounding noise.  Raises :class:`NonFiniteInput` on NaN or Inf in A.
    """
    a = _as_float_matrix(a)
    _check_finite(a=a)
    if a.shape[1] != u.ambient_dim:
        raise ValueError(
            f"matrix with {a.shape[1]} columns applied to subspace of R^{u.ambient_dim}"
        )
    if u.dim == 0:
        return Subspace.zero(a.shape[0])
    scale = float(np.linalg.norm(a, 2)) if a.size else 0.0
    return column_space(a @ u.basis, tol, scale)


def column_space(a, tol: Tolerance = DEFAULT_TOL, scale: float = 0.0) -> Subspace:
    """The column space (range) of a matrix.

    ``scale`` optionally anchors the rank cutoff to a known data
    magnitude; see :func:`orthonormal_columns`.  Raises
    :class:`NonFiniteInput` on a NaN or infinite entry.
    """
    a = _as_float_matrix(a)
    _check_finite(matrix=a)
    return Subspace._of(a.shape[0], orthonormal_columns(a, tol, scale))


def product(u: Subspace, v: Subspace) -> Subspace:
    """The product subspace U x V inside R^{n_u + n_v}."""
    n, m = u.ambient_dim, v.ambient_dim
    basis = np.zeros((n + m, u.dim + v.dim))
    basis[:n, : u.dim] = u.basis
    basis[n:, u.dim:] = v.basis
    return Subspace._of(n + m, basis)


def structured_complement(
    v: Subspace, nx: int, ny: int, tol: Tolerance = DEFAULT_TOL
) -> tuple[Subspace, Subspace, Subspace]:
    """A complement K = U x W of V inside R^{nx+ny} that splits over the factors.

    Writing V_X = {x : (x, y) in V} and H = {y : (0, y) in V}, the returned
    triple (K, U, W) satisfies K ⊕ V = R^{nx+ny}, U ⊕ V_X = R^{nx} and
    W ⊕ H = R^{ny}.  U and W are taken to be the orthogonal complements of
    V_X and H, which keeps the induced projectors well conditioned.
    """
    if v.ambient_dim != nx + ny:
        raise ValueError(f"subspace of R^{v.ambient_dim} does not split as {nx}+{ny}")
    px = np.hstack([np.eye(nx), np.zeros((nx, ny))])
    py = np.hstack([np.zeros((ny, nx)), np.eye(ny)])
    v_x = image(px, v, tol)
    h = image(py, intersect(v, product(Subspace.zero(nx), Subspace.full(ny)), tol), tol)
    u = v_x.annihilator()
    w = h.annihilator()
    return product(u, w), u, w


def oblique_projector(k: Subspace, d: Subspace, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The projector onto K along D, for a direct sum K ⊕ D = R^n.

    Satisfies P x = x on K, P x = 0 on D and P @ P = P.  Raises
    :class:`NotComplementary` when K and D do not decompose R^n.
    """
    _check_same_ambient(k, d)
    n = k.ambient_dim
    if k.dim + d.dim != n or intersect(k, d, tol).dim != 0:
        raise NotComplementary(
            f"dim {k.dim} + dim {d.dim} subspaces do not decompose R^{n}"
        )
    if n == 0:
        return np.zeros((0, 0))
    mixed = np.hstack([k.basis, d.basis])
    coords = np.linalg.solve(mixed, np.eye(n))
    return k.basis @ coords[: k.dim]


def pseudoinverse(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the package-wide rank cutoff."""
    m = _as_float_matrix(m)
    return np.linalg.pinv(m, rcond=tol.rank_rel_tol)
