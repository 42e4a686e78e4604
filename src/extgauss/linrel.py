"""Left-total linear and affine relations between real vector spaces.

A linear relation R^n -> R^m is a subspace of R^{n+m}; left-totality
(every input is related to at least one output) makes discarding outputs
lawful and gives the equivalent description as a linear map into a
quotient: R(x) = f(x) + R(0).  Affine relations carry a base point on top
of a linear direction space.

Conditionals reorder a relation into A x (X x Y) -> (X x A) x Y form and
extend it by zero off its domain, which keeps the result left-total.
"""

from __future__ import annotations

import numpy as np

from .subspace import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _Immutable,
    _fix_signs,
    _svd,
    column_space,
    image,
    intersect,
)


class NotLeftTotal(ValueError):
    """The relation leaves some input unrelated to any output."""


class LinearRelation(_Immutable):
    """A left-total linear relation, stored as the subspace of its graph."""

    __slots__ = ("dom_dim", "cod_dim", "graph")

    def __init__(self, dom_dim: int, cod_dim: int, graph: Subspace,
                 tol: Tolerance = DEFAULT_TOL):
        dom_dim, cod_dim = int(dom_dim), int(cod_dim)
        if graph.ambient_dim != dom_dim + cod_dim:
            raise ValueError(
                f"graph lives in R^{graph.ambient_dim}, expected R^{dom_dim + cod_dim}"
            )
        px = np.eye(dom_dim + cod_dim)[:dom_dim]
        if image(px, graph, tol).dim != dom_dim:
            raise NotLeftTotal("graph does not project onto the whole domain")
        self._set(dom_dim=dom_dim, cod_dim=cod_dim, graph=graph)

    @classmethod
    def from_matrix(cls, a, tol: Tolerance = DEFAULT_TOL) -> "LinearRelation":
        """The graph of the linear function x -> a @ x."""
        a = np.asarray(a, dtype=float)
        m, n = a.shape
        cols = np.vstack([np.eye(n), a])
        return cls(n, m, column_space(cols, tol), tol)

    @classmethod
    def identity(cls, n: int) -> "LinearRelation":
        return cls.from_matrix(np.eye(n))

    @classmethod
    def total(cls, dom_dim: int, cod_dim: int) -> "LinearRelation":
        """The relation relating every input to every output."""
        return cls(dom_dim, cod_dim, Subspace.full(dom_dim + cod_dim))

    def relates(self, x, y, tol: Tolerance = DEFAULT_TOL) -> bool:
        x = np.asarray(x, dtype=float).reshape(-1)
        y = np.asarray(y, dtype=float).reshape(-1)
        return self.graph.contains(np.concatenate([x, y]), tol)

    def equals(self, other: "LinearRelation", tol: Tolerance = DEFAULT_TOL) -> bool:
        return (
            (self.dom_dim, self.cod_dim) == (other.dom_dim, other.cod_dim)
            and self.graph.equals(other.graph, tol)
        )

    def __repr__(self):
        return f"LinearRelation({self.dom_dim} -> {self.cod_dim})"

    def to_dict(self) -> dict:
        return {
            "dom": self.dom_dim,
            "cod": self.cod_dim,
            "graph_basis": self.graph.basis.T.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict, tol: Tolerance = DEFAULT_TOL) -> "LinearRelation":
        graph = Subspace.span(
            data["graph_basis"], ambient_dim=data["dom"] + data["cod"], tol=tol
        )
        return cls(data["dom"], data["cod"], graph, tol)


class QuotientForm(_Immutable):
    """A relation presented as a map into a quotient: x -> f(x) + D.

    ``nondet`` is the output-noise subspace D = R(0); ``lin`` is a matrix
    satisfying P_{D^perp} @ lin = lin, the canonical representative of the
    induced map into the quotient by D.
    """

    __slots__ = ("dom_dim", "cod_dim", "nondet", "lin")

    def __init__(self, nondet: Subspace, lin, tol: Tolerance = DEFAULT_TOL):
        lin = np.asarray(lin, dtype=float)
        m, n = lin.shape
        if nondet.ambient_dim != m:
            raise ValueError("noise subspace must live in the codomain")
        self._set(dom_dim=n, cod_dim=m, nondet=nondet, lin=nondet.complement_projector() @ lin)

    def equals(self, other: "QuotientForm", tol: Tolerance = DEFAULT_TOL) -> bool:
        return (
            (self.dom_dim, self.cod_dim) == (other.dom_dim, other.cod_dim)
            and self.nondet.equals(other.nondet, tol)
            and np.allclose(self.lin, other.lin, atol=tol.eq_abs_tol)
        )

    def __repr__(self):
        return (
            f"QuotientForm({self.dom_dim} -> {self.cod_dim}, "
            f"noise dim {self.nondet.dim})"
        )


def to_quotient_form(r: LinearRelation, tol: Tolerance = DEFAULT_TOL) -> QuotientForm:
    """Present a left-total relation as a map into the quotient by R(0):
    the function and the output noise of its graph's decomposition."""
    h, nondet, _, _ = graph_decompose(r.graph, r.dom_dim, tol)
    return QuotientForm(nondet, h, tol)


def from_quotient_form(q: QuotientForm, tol: Tolerance = DEFAULT_TOL) -> LinearRelation:
    """The unique left-total relation with graph {(x, q.lin @ x + d)}."""
    n, m = q.dom_dim, q.cod_dim
    cols = np.hstack([
        np.vstack([np.eye(n), q.lin]),
        np.vstack([np.zeros((n, q.nondet.dim)), q.nondet.basis]),
    ])
    return LinearRelation(n, m, column_space(cols, tol), tol)


def compose(r2: LinearRelation, r1: LinearRelation,
            tol: Tolerance = DEFAULT_TOL) -> LinearRelation:
    """Relational composition {(x, z) : exists y related through both}.

    Computed by intersecting cylinder extensions of the two graphs inside
    R^{n+p+m} and projecting out the middle coordinates.
    """
    if r1.cod_dim != r2.dom_dim:
        raise ValueError("shape mismatch in relation composition")
    n, p, m = r1.dom_dim, r1.cod_dim, r2.cod_dim
    total = n + p + m
    b1 = np.zeros((total, r1.graph.dim + m))
    b1[: n + p, : r1.graph.dim] = r1.graph.basis
    b1[n + p:, r1.graph.dim:] = np.eye(m)
    b2 = np.zeros((total, n + r2.graph.dim))
    b2[:n, :n] = np.eye(n)
    b2[n:, n:] = r2.graph.basis
    inter = intersect(Subspace._of(total, b1), Subspace._of(total, b2), tol)
    pxz = np.eye(total)[list(range(n)) + list(range(n + p, total))]
    return LinearRelation(n, m, image(pxz, inter, tol), tol)


def conditional(r: LinearRelation, nx: int, tol: Tolerance = DEFAULT_TOL) -> LinearRelation:
    """Reorder ``r : A -> X x Y`` into ``(X x A) -> Y`` and make it left-total.

    Inputs outside the reordered domain are related to H = {y : (0, y) in
    graph}; this is the zero extension, one of many valid choices, read off
    the reordered graph's decomposition, whose h vanishes off the domain.
    """
    na, ny = r.dom_dim, r.cod_dim - nx
    if not 0 <= nx <= r.cod_dim:
        raise ValueError(f"split {nx} out of range for codomain {r.cod_dim}")
    order = (
        list(range(na, na + nx)) + list(range(na)) + list(range(na + nx, na + nx + ny))
    )
    reordered = Subspace._of(na + nx + ny, _fix_signs(r.graph.basis[order]))
    h, nondet, _, _ = graph_decompose(reordered, nx + na, tol)
    return from_quotient_form(QuotientForm(nondet, h, tol), tol)


def graph_decompose(d: Subspace, nx: int, tol: Tolerance = DEFAULT_TOL
                    ) -> tuple[np.ndarray, Subspace, Subspace, Subspace]:
    """Split a subspace D of R^{nx+ny} into a function plus output noise.

    Returns (h, H, D_X, U): D = {(x, h @ x + eta) : x in D_X, eta in H}, D_X
    projects D onto the first factor, U = D_X^perp, H = {y : (0, y) in D} and
    h vanishes on U.  One SVD of the first nx rows of D's orthonormal basis
    gives all four; its singular values lie in [0, 1], so one cutoff decides.
    """
    if not 0 <= nx <= d.ambient_dim:
        raise ValueError(f"split {nx} out of range for R^{d.ambient_dim}")
    bx, by = d.basis[:nx], d.basis[nx:]
    # an empty block gets what numpy's SVD returns for it, without the call
    u, s, vt = _svd(bx)
    r = int(np.sum(s > tol.rank_rel_tol))
    h = (by @ vt[:r].T / s[:r]) @ u[:, :r].T
    eta = by @ vt[r:].T  # columns of norm sqrt(1 - s^2), s below the cutoff
    eta /= np.linalg.norm(eta, axis=0)
    return (h, *(Subspace._of(len(b), _fix_signs(b)) for b in (eta, u[:, :r], u[:, r:])))


class AffineRelation(_Immutable):
    """A left-total affine relation: base point plus a linear direction space.

    The base point is canonicalized to the minimum-norm point of the
    affine graph, so two equal relations have identical fields.
    """

    __slots__ = ("dom_dim", "cod_dim", "base", "direction")

    def __init__(self, dom_dim: int, cod_dim: int, base, direction: Subspace,
                 tol: Tolerance = DEFAULT_TOL):
        dom_dim, cod_dim = int(dom_dim), int(cod_dim)
        base = np.asarray(base, dtype=float).reshape(-1)
        if base.shape != (dom_dim + cod_dim,):
            raise ValueError("base point must live in R^{dom+cod}")
        if direction.ambient_dim != dom_dim + cod_dim:
            raise ValueError("direction must live in R^{dom+cod}")
        px = np.eye(dom_dim + cod_dim)[:dom_dim]
        if image(px, direction, tol).dim != dom_dim:
            raise NotLeftTotal("direction does not project onto the whole domain")
        base = base - direction.basis @ (direction.basis.T @ base)
        self._set(dom_dim=dom_dim, cod_dim=cod_dim, base=base, direction=direction)

    @classmethod
    def from_affine_map(cls, a, b, tol: Tolerance = DEFAULT_TOL) -> "AffineRelation":
        """The graph of x -> a @ x + b."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float).reshape(-1)
        m, n = a.shape
        lin = LinearRelation.from_matrix(a, tol)
        return cls(n, m, np.concatenate([np.zeros(n), b]), lin.graph, tol)

    def relates(self, x, y, tol: Tolerance = DEFAULT_TOL) -> bool:
        x = np.asarray(x, dtype=float).reshape(-1)
        y = np.asarray(y, dtype=float).reshape(-1)
        return self.direction.contains(np.concatenate([x, y]) - self.base, tol)

    def equals(self, other: "AffineRelation", tol: Tolerance = DEFAULT_TOL) -> bool:
        return (
            (self.dom_dim, self.cod_dim) == (other.dom_dim, other.cod_dim)
            and self.direction.equals(other.direction, tol)
            and bool(np.allclose(self.base, other.base, atol=tol.eq_abs_tol))
        )

    def __repr__(self):
        return f"AffineRelation({self.dom_dim} -> {self.cod_dim})"


class AffineQuotientForm(_Immutable):
    """Affine relation as x -> lin @ x + offset + D, offset orthogonal to D."""

    __slots__ = ("dom_dim", "cod_dim", "nondet", "lin", "offset")

    def __init__(self, nondet: Subspace, lin, offset, tol: Tolerance = DEFAULT_TOL):
        q = QuotientForm(nondet, lin, tol)
        offset = np.asarray(offset, dtype=float).reshape(-1)
        if offset.shape != (q.cod_dim,):
            raise ValueError("offset must live in the codomain")
        self._set(dom_dim=q.dom_dim, cod_dim=q.cod_dim, nondet=q.nondet, lin=q.lin,
                  offset=nondet.complement_projector() @ offset)

    def equals(self, other: "AffineQuotientForm", tol: Tolerance = DEFAULT_TOL) -> bool:
        return (
            (self.dom_dim, self.cod_dim) == (other.dom_dim, other.cod_dim)
            and self.nondet.equals(other.nondet, tol)
            and np.allclose(self.lin, other.lin, atol=tol.eq_abs_tol)
            and bool(np.allclose(self.offset, other.offset, atol=tol.eq_abs_tol))
        )

    def __repr__(self):
        return (
            f"AffineQuotientForm({self.dom_dim} -> {self.cod_dim}, "
            f"noise dim {self.nondet.dim})"
        )


def compose_affine(r2: AffineRelation, r1: AffineRelation,
                   tol: Tolerance = DEFAULT_TOL) -> AffineRelation:
    """Relational composition of affine relations.

    The direction spaces compose as linear relations; a base point of the
    composite is found by following any representative output of ``r1``
    through ``r2``.
    """
    if r1.cod_dim != r2.dom_dim:
        raise ValueError("shape mismatch in affine composition")
    n, p, m = r1.dom_dim, r1.cod_dim, r2.cod_dim
    dir1 = LinearRelation(n, p, r1.direction, tol)
    dir2 = LinearRelation(p, m, r2.direction, tol)
    direction = compose(dir2, dir1, tol)
    q2 = to_quotient_form(dir2, tol)
    b1x, b1y = r1.base[:n], r1.base[n:]
    b2x, b2z = r2.base[:p], r2.base[p:]
    z0 = b2z + q2.lin @ (b1y - b2x)
    return AffineRelation(n, m, np.concatenate([b1x, z0]), direction.graph, tol)


def to_quotient_form_affine(r: AffineRelation,
                            tol: Tolerance = DEFAULT_TOL) -> AffineQuotientForm:
    q = to_quotient_form(LinearRelation(r.dom_dim, r.cod_dim, r.direction, tol), tol)
    bx, by = r.base[: r.dom_dim], r.base[r.dom_dim:]
    return AffineQuotientForm(q.nondet, q.lin, by - q.lin @ bx, tol)


def from_quotient_form_affine(q: AffineQuotientForm,
                              tol: Tolerance = DEFAULT_TOL) -> AffineRelation:
    lin = from_quotient_form(QuotientForm(q.nondet, q.lin, tol), tol)
    base = np.concatenate([np.zeros(q.dom_dim), q.offset])
    return AffineRelation(q.dom_dim, q.cod_dim, base, lin.graph, tol)
