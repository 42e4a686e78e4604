"""Extended Gaussian distributions and maps.

An extended Gaussian on R^n is a Gaussian distribution combined with
complete ignorance along a subspace ``nondet``: written additively,
``N(mean, cov) + nondet``.  Translating the mean inside ``nondet`` does
not change the distribution, so values are kept in a normal form with
mean and covariance orthogonal to ``nondet``; equality then reduces to a
componentwise comparison.

Extended Gaussian maps ``x -> A x + N(mean, cov) + nondet`` are the
decorated relations over the point/covariance noise pair, so the relation
engine alone computes their normal form, composition and tensor.
Conditionals decompose the nondeterminism into a function plus output
noise, remove it from the Gaussian part with the closed-form projector
this decomposition gives, and condition what is left with the Gaussian
formulas.  Exact conditioning on linear events (``observe``) adjoins the
residual as auxiliary coordinates, conditions on them, and evaluates the
conditional at the observed value, failing loudly when the observation
is off the support.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import gauss
from .decorated import (CovDec, DecoratedRelation, PairDec, PointDec, congruent,
                        rel_compose, rel_tensor)
from .gauss import AffineSupportMap, GaussianMap, _ro, psd_normalize
from .linrel import graph_decompose
from .subspace import (
    DEFAULT_TOL,
    NonFiniteInput,
    Subspace,
    Tolerance,
    _check_finite,
    _fix_signs,
    _svd,
    column_space,
    image,
    intersect,
    minkowski_sum,
    pseudoinverse,
)

_DEC = PairDec(PointDec(), CovDec())


class InfeasibleObservation(ValueError):
    """An exact observation lies outside the support of the variable."""


class ExtendedGaussianMap(DecoratedRelation):
    """``x -> lin @ x + N(mean, cov) + nondet`` from R^n to R^m.

    The decorated relation over ``PairDec(PointDec(), CovDec())`` with
    noise ``(mean, cov)``: ``lin``, ``mean`` and ``cov`` are orthogonal to
    ``nondet``, so equivalent inputs produce equal values.  The given
    covariance is checked and clamped to PSD once, before the projection.
    Raises :class:`NonFiniteInput` on a NaN or infinite entry.
    """

    __slots__ = ()

    def __init__(self, nondet: Subspace, lin, mean, cov, tol: Tolerance = DEFAULT_TOL):
        lin = np.asarray(lin, dtype=float)
        if lin.ndim != 2:
            raise ValueError("linear part must be a matrix")
        m = lin.shape[0]
        mean = np.asarray(mean, dtype=float).reshape(-1)
        if mean.shape != (m,):
            raise ValueError(f"mean of shape {mean.shape}, expected ({m},)")
        cov = np.asarray(cov, dtype=float)
        _check_finite(lin=lin, mean=mean, cov=cov)
        cov = psd_normalize(cov, tol)
        if cov.shape != (m, m):
            raise ValueError(f"cov of shape {cov.shape}, expected ({m}, {m})")
        super().__init__(_DEC, nondet, lin, (mean, cov))

    @classmethod
    def _result_class(cls, dom_dim: int) -> type:
        return ExtendedGaussian if dom_dim == 0 else ExtendedGaussianMap

    @property
    def mean(self) -> np.ndarray:
        return self.noise[0]

    @property
    def cov(self) -> np.ndarray:
        return self.noise[1]

    equals = congruent


class ExtendedGaussian(ExtendedGaussianMap):
    """An extended Gaussian distribution: the domain-0 case of a map."""

    __slots__ = ()

    def __init__(self, nondet: Subspace, mean, cov, tol: Tolerance = DEFAULT_TOL):
        mean = np.asarray(mean, dtype=float).reshape(-1)
        super().__init__(nondet, np.zeros((mean.shape[0], 0)), mean, cov, tol)

    @property
    def dim(self) -> int:
        return self.cod_dim

    def __repr__(self):
        return f"ExtendedGaussian(dim={self.dim}, nondet dim {self.nondet.dim})"

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "mean": self.mean.tolist(),
            "cov": self.cov.tolist(),
            "nondet_basis": self.nondet.basis.T.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict, tol: Tolerance = DEFAULT_TOL) -> "ExtendedGaussian":
        nondet = Subspace.span(data["nondet_basis"], ambient_dim=data["dim"], tol=tol)
        return cls(nondet, data["mean"], data["cov"], tol)


def as_distribution(m: ExtendedGaussianMap) -> ExtendedGaussian:
    """View a map out of R^0 as a distribution; its normal form is kept."""
    if m.dom_dim != 0:
        raise ValueError("not a distribution: domain dimension is nonzero")
    if isinstance(m, ExtendedGaussian):
        return m
    return ExtendedGaussian._from_normal(m.dec, m.nondet, m.lin, m.noise)


def gaussian(mean, cov, tol: Tolerance = DEFAULT_TOL) -> ExtendedGaussian:
    """An ordinary Gaussian, i.e. with no nondeterministic directions."""
    mean = np.asarray(mean, dtype=float).reshape(-1)
    return ExtendedGaussian(Subspace.zero(mean.shape[0]), mean, cov, tol)


def dirac(point) -> ExtendedGaussian:
    point = np.asarray(point, dtype=float).reshape(-1)
    n = point.shape[0]
    return ExtendedGaussian(Subspace.zero(n), point, np.zeros((n, n)))


def uniform(n: int) -> ExtendedGaussian:
    """Complete ignorance on R^n: nondeterminism along every direction."""
    return ExtendedGaussian(Subspace.full(n), np.zeros(n), np.zeros((n, n)))


def from_gaussian(g: GaussianMap) -> ExtendedGaussianMap:
    return ExtendedGaussianMap(Subspace.zero(g.cod_dim), g.lin, g.mean, g.cov)


def to_gaussian(m: ExtendedGaussianMap) -> GaussianMap:
    if m.nondet.dim != 0:
        raise ValueError("map has nondeterministic directions")
    return GaussianMap(m.lin, m.mean, m.cov)


def identity(n: int) -> ExtendedGaussianMap:
    return ExtendedGaussianMap(
        Subspace.zero(n), np.eye(n), np.zeros(n), np.zeros((n, n))
    )


def copy(n: int) -> ExtendedGaussianMap:
    return ExtendedGaussianMap(
        Subspace.zero(2 * n),
        np.vstack([np.eye(n), np.eye(n)]),
        np.zeros(2 * n),
        np.zeros((2 * n, 2 * n)),
    )


def delete(n: int) -> ExtendedGaussianMap:
    return ExtendedGaussianMap(
        Subspace.zero(0), np.zeros((0, n)), np.zeros(0), np.zeros((0, 0))
    )


def compose(f2: ExtendedGaussianMap, f1: ExtendedGaussianMap,
            tol: Tolerance = DEFAULT_TOL) -> ExtendedGaussianMap:
    """Sequential composition: the relation engine's, on the pair noise;
    an overflow raises :class:`NonFiniteInput`, without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = rel_compose(f2, f1, tol)
    _check_finite(lin=out.lin, mean=out.mean, cov=out.cov)
    return out


def tensor(f: ExtendedGaussianMap, g: ExtendedGaussianMap,
           tol: Tolerance = DEFAULT_TOL) -> ExtendedGaussianMap:
    """Parallel composition: the relation engine's, on the pair noise."""
    return rel_tensor(f, g)


def pushforward(a, psi: ExtendedGaussian, tol: Tolerance = DEFAULT_TOL) -> ExtendedGaussian:
    """Image distribution under a matrix: the nondeterminism maps along.

    An overflow raises :class:`NonFiniteInput` from the constructor,
    without a numpy warning first; so does one in :func:`translate`.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != psi.dim:
        raise ValueError(f"matrix of shape {a.shape} applied to R^{psi.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, cov = a @ psi.mean, a @ psi.cov @ a.T
    return ExtendedGaussian(image(a, psi.nondet, tol), mean, cov, tol)


def translate(psi: ExtendedGaussian, v, tol: Tolerance = DEFAULT_TOL) -> ExtendedGaussian:
    """Shift by a constant vector; shifts inside ``nondet`` are absorbed."""
    if np.shape(v) != (psi.dim,):
        raise ValueError(f"shift of shape {np.shape(v)}, expected ({psi.dim},)")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = psi.mean + v
    return ExtendedGaussian(psi.nondet, mean, psi.cov, tol)


def marginal(psi: ExtendedGaussian, coords: Sequence[int],
             tol: Tolerance = DEFAULT_TOL) -> ExtendedGaussian:
    """Restriction to a subset of coordinates, in the given order."""
    return pushforward(np.eye(psi.dim)[list(coords)], psi, tol)


equals = congruent


def support(m: ExtendedGaussianMap, tol: Tolerance = DEFAULT_TOL) -> AffineSupportMap:
    """The affine-relation shadow: Gaussian noise widens to its support."""
    return AffineSupportMap(
        m.lin, m.mean, minkowski_sum(column_space(m.cov, tol), m.nondet, tol)
    )


def conditional(phi: ExtendedGaussianMap, nx: int,
                tol: Tolerance = DEFAULT_TOL) -> ExtendedGaussianMap:
    """Conditional of a map into R^{nx} x R^{ny}.

    For ``phi : A -> X x Y`` returns a map ``X x A -> Y`` reproducing the
    joint when composed with the X-marginal.  The graph decomposition
    ``D = {(x, h x + eta) : x in D_X, eta in H}`` of the nondeterminism
    gives the projector ``t = [[P_U, 0], [-h, I]]``, ``U = D_X^perp``,
    which sends ``(d_x, h d_x + eta)`` to ``(0, eta)``; the normal form on
    ``H`` drops ``eta``.  The Gaussian part ``t phi`` is conditioned with
    the usual formulas, and inputs in ``D_X`` act through ``h``.  Only its
    Schur complement is checked for PSD; the result is built by projection.
    """
    split = graph_decompose(phi.nondet, nx, tol)  # raises unless 0 <= nx <= cod_dim
    return ExtendedGaussianMap._from_normal(_DEC, *_conditional(phi.lin, phi.noise, split, tol))


def _conditional(lin, noise, split, tol: Tolerance):
    """``(H, lin, noise)`` of :func:`conditional`; ``noise`` may be unnormalized."""
    h, h_sub, _, u = split
    ny, nx = h.shape
    p_u = u.projector()  # not I - P_DX, whose residue fakes X-covariance rank if D_X = X
    t = np.block([[p_u, np.zeros((nx, ny))], [-h, np.eye(ny)]])
    g_lin, mean, cov = gauss._conditional(t @ lin, *_DEC.push(t, noise), nx, tol)
    lin = np.hstack([g_lin[:, :nx] @ p_u + h, g_lin[:, nx:]])
    p = h_sub.complement_projector()
    return h_sub, p @ lin, _DEC.push(p, (mean, cov))


def observe(psi: ExtendedGaussian, obs, value, tol: Tolerance = DEFAULT_TOL) -> ExtendedGaussian:
    """Condition on the exact linear event ``obs @ x = value``.

    The residual ``obs @ x`` is adjoined as k auxiliary coordinates by
    pushing the arrays along ``a = [obs; I]``, unnormalized and unchecked;
    ``a`` is injective, so one SVD with no rank cutoff gives a basis of
    ``a D``, whose graph decomposition serves the support check and the
    conditional on those coordinates, evaluated at the observed value.
    Raises :class:`InfeasibleObservation` when the value lies outside the
    support of ``obs @ x``, :class:`NonFiniteInput` on NaN or Inf input.
    """
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    value = np.asarray(value, dtype=float).reshape(-1)
    k, n = obs.shape
    if n != psi.dim:
        raise ValueError(f"observation matrix of shape {obs.shape} on R^{psi.dim}")
    if value.shape != (k,):
        raise ValueError(f"observed value of shape {value.shape}, expected ({k},)")
    _check_finite(obs=obs, value=value, mean=psi.mean, cov=psi.cov)
    a = np.vstack([obs, np.eye(n)])
    with np.errstate(over="ignore", invalid="ignore"):
        mean, cov = _DEC.push(a, psi.noise)
        pushed = a @ psi.nondet.basis
    _check_finite(mean=mean, cov=cov, nondet=pushed)  # the observed quantity can overflow
    d = Subspace.zero(k + n)
    if psi.nondet.dim:  # a is injective, so a D has the dimension of D: no rank cut
        d = Subspace._of(k + n, _fix_signs(_svd(pushed, full_matrices=False)[0]))
    split = graph_decompose(d, k, tol)
    # anchor the support's rank cutoff at the joint's covariance scale so
    # that rounding residue from earlier conditioning cannot fake support
    cov_scale = float(np.linalg.norm(cov, 2)) if cov.size else 0.0
    if not np.isfinite(cov_scale):  # finite entries such as 1e308 can overflow it
        raise NonFiniteInput("joint covariance has an infinite norm")
    supp = minkowski_sum(column_space(cov[:k, :k], tol, scale=cov_scale), split[2], tol)
    resid = value - mean[:k]
    off = resid - supp.basis @ (supp.basis.T @ resid)
    if float(np.linalg.norm(off)) > tol.eq_abs_tol * (1.0 + float(np.linalg.norm(value))):
        raise InfeasibleObservation(
            "observed value lies outside the support of the observed quantity"
        )
    nondet, lin, (mean, cov) = _conditional(np.zeros((k + n, 0)), (mean, cov), split, tol)
    return ExtendedGaussian._from_normal(_DEC, nondet, np.zeros((n, 0)), (mean + lin @ value, cov))


def condition_equal(psi: ExtendedGaussian, tol: Tolerance = DEFAULT_TOL) -> ExtendedGaussian:
    """Condition a distribution on R^k x R^k on both halves being equal."""
    if psi.dim % 2 != 0:
        raise ValueError("condition_equal needs an even-dimensional joint")
    k = psi.dim // 2
    diff = np.hstack([np.eye(k), -np.eye(k)])
    return observe(psi, diff, np.zeros(k), tol)


def _set_form(rep, name: str, space: Subspace, form, tol: Tolerance, ambient: str):
    """Store ``space`` as ``rep.<name>`` and a PSD form supported on it,
    projected onto it and read-only, as ``rep.form``."""
    form = np.asarray(form, dtype=float)
    _check_finite(form=form)
    form = psd_normalize(form, tol)
    if form.shape != (space.ambient_dim, space.ambient_dim):
        raise ValueError(f"form shape does not match {ambient}")
    p = space.projector()
    if form.size and float(np.max(np.abs(form - p @ form @ p))) > tol.eq_abs_tol:
        raise ValueError("form is not supported on the given subspace")
    object.__setattr__(rep, name, space)
    object.__setattr__(rep, "form", _ro(p @ form @ p if form.size else form))


class PrecisionRep:
    """Density-side description: a support subspace and a form on it.

    The form's kernel inside the support is exactly the nondeterminism of
    the corresponding distribution; zero precision is allowed.
    """

    __slots__ = ("support", "form")

    def __init__(self, support: Subspace, form, tol: Tolerance = DEFAULT_TOL):
        _set_form(self, "support", support, form, tol, "the support's ambient space")

    def __setattr__(self, name, value):
        raise AttributeError("PrecisionRep is immutable")

    def __repr__(self):
        return f"PrecisionRep(ambient {self.support.ambient_dim}, support dim {self.support.dim})"


class CovarianceRep:
    """Pushforward-side description: a covariance form on the subspace of
    directions that carry information (the complement of nondeterminism)."""

    __slots__ = ("dual_support", "form")

    def __init__(self, dual_support: Subspace, form, tol: Tolerance = DEFAULT_TOL):
        _set_form(self, "dual_support", dual_support, form, tol, "the ambient space")

    def __setattr__(self, name, value):
        raise AttributeError("CovarianceRep is immutable")

    def __repr__(self):
        return (
            f"CovarianceRep(ambient {self.dual_support.ambient_dim}, "
            f"dual support dim {self.dual_support.dim})"
        )


def to_precision(psi: ExtendedGaussian, tol: Tolerance = DEFAULT_TOL) -> PrecisionRep:
    """Precision-side description of the centered part of ``psi``.

    The support is col(cov) + nondet and the form is the pseudoinverse of
    the covariance, so its kernel inside the support is exactly the
    nondeterminism.  The mean is independent of this correspondence and is
    carried by the caller.
    """
    supp = minkowski_sum(column_space(psi.cov, tol), psi.nondet, tol)
    return PrecisionRep(supp, pseudoinverse(psi.cov, tol), tol)


def to_covariance(p: PrecisionRep, tol: Tolerance = DEFAULT_TOL) -> ExtendedGaussian:
    """Centered extended Gaussian described by a precision form.

    Directions of the support where the form vanishes become
    nondeterminism; on the rest the covariance is the pseudoinverse.
    """
    nondet = intersect(p.support, column_space(p.form, tol).annihilator(), tol)
    return ExtendedGaussian(nondet, np.zeros(p.support.ambient_dim),
                            pseudoinverse(p.form, tol), tol)


def covariance_rep(psi: ExtendedGaussian, tol: Tolerance = DEFAULT_TOL) -> CovarianceRep:
    """Covariance-side description of the centered part of ``psi``."""
    return CovarianceRep(psi.nondet.annihilator(), psi.cov, tol)


def from_covariance_rep(rep: CovarianceRep, tol: Tolerance = DEFAULT_TOL) -> ExtendedGaussian:
    return ExtendedGaussian(
        rep.dual_support.annihilator(),
        np.zeros(rep.dual_support.ambient_dim),
        rep.form,
        tol,
    )
