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
Conditionals and exact conditioning on linear events (``observe``)
condition a factor of the joint by one algorithm, with no Schur complement
(array square-root form); ``observe`` fails loudly off the support.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .decorated import (CovDec, DecoratedRelation, PairDec, PointDec, congruent,
                        rel_compose, rel_tensor)
from .gauss import AffineSupportMap, GaussianMap, psd_normalize
from .subspace import (
    DEFAULT_TOL,
    NonFiniteInput,
    Subspace,
    Tolerance,
    _Immutable,
    _check_finite,
    _fix_signs,
    _svd,
    column_space,
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
    Raises :class:`NonFiniteInput` on a NaN or infinite entry.  What the
    package builds itself, the closed forms too, is in normal form already.
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
    _check_finite(mean=point)
    n = point.shape[0]
    return ExtendedGaussian._from_normal(_DEC, Subspace.zero(n), np.zeros((n, 0)),
                                         (point, np.zeros((n, n))))


def uniform(n: int) -> ExtendedGaussian:
    """Complete ignorance on R^n: nondeterminism along every direction."""
    return ExtendedGaussian._from_normal(_DEC, Subspace.full(n), np.zeros((n, 0)), _DEC.zero(n))


def from_gaussian(g: GaussianMap) -> ExtendedGaussianMap:
    return ExtendedGaussianMap._from_normal(_DEC, Subspace.zero(g.cod_dim), g.lin, (g.mean, g.cov))


def identity(n: int) -> ExtendedGaussianMap:
    return ExtendedGaussianMap._from_normal(_DEC, Subspace.zero(n), np.eye(n), _DEC.zero(n))


def copy(n: int) -> ExtendedGaussianMap:
    return ExtendedGaussianMap._from_normal(
        _DEC, Subspace.zero(2 * n), np.vstack([np.eye(n), np.eye(n)]), _DEC.zero(2 * n)
    )


def delete(n: int) -> ExtendedGaussianMap:
    return ExtendedGaussianMap._from_normal(_DEC, Subspace.zero(0), np.zeros((0, n)), _DEC.zero(0))


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
    """Image distribution under a matrix: :func:`compose` with the
    noiseless map ``a``, so the nondeterminism maps along and an overflow
    raises :class:`NonFiniteInput` there."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != psi.dim:
        raise ValueError(f"matrix of shape {a.shape} applied to R^{psi.dim}")
    m = a.shape[0]
    return compose(ExtendedGaussianMap._from_normal(_DEC, Subspace.zero(m), a, _DEC.zero(m)), psi, tol)


def translate(psi: ExtendedGaussian, v, tol: Tolerance = DEFAULT_TOL) -> ExtendedGaussian:
    """Shift by a constant vector; shifts inside ``nondet`` are absorbed.
    An overflow raises :class:`NonFiniteInput`, without a numpy warning."""
    if np.shape(v) != (psi.dim,):
        raise ValueError(f"shift of shape {np.shape(v)}, expected ({psi.dim},)")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = psi.mean + psi.nondet.complement_projector() @ np.asarray(v, dtype=float)
    _check_finite(mean=mean)
    return ExtendedGaussian._from_normal(_DEC, psi.nondet, psi.lin, (mean, psi.cov))


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
    joint when composed with the X-marginal.  The posterior mean is affine
    in the value, so :func:`_conditional_rows` conditions the factor of
    ``phi`` on ``[0 | lin | mean]`` at the columns ``[I | 0 | 0]``, giving
    ``[gain | lin_Y - gain lin_X | mean_Y - gain mean_X]``.  X-variances
    below ``eps * dim * max|cov|`` count as zero; off the support of X it
    is extended by zero.  Nothing is subtracted or checked."""
    m = phi.cod_dim
    if not 0 <= nx <= m:
        raise ValueError(f"split {nx} out of range for R^{m}")
    mean, f, g, mag = _factor(phi, np.eye(m), tol)
    data = np.hstack([np.zeros((m, nx)), phi.lin, mean[:, None]])
    anchor = math.sqrt(np.finfo(float).eps * m * np.abs(phi.cov).max(initial=0.0) / tol.rank_rel_tol)
    eta, mean, _, cov, _ = _conditional_rows(data, f, g, nx, np.eye(nx, data.shape[1]), mag, tol, anchor)
    return ExtendedGaussianMap._from_normal(_DEC, eta, mean[:, :-1], (mean[:, -1], cov))


def observe(psi: ExtendedGaussian, obs, value, tol: Tolerance = DEFAULT_TOL) -> ExtendedGaussian:
    """Condition on the exact linear event ``obs @ x = value``.

    :func:`_condition_rows` conditions the joint of :func:`_factor` along
    ``[obs; I]`` on its first k rows, the residual ``obs @ x``, at the
    value.  Raises :class:`InfeasibleObservation` when the value lies
    outside the support of ``obs @ x``, :class:`NonFiniteInput` on NaN or Inf."""
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    value = np.asarray(value, dtype=float).reshape(-1)
    k, n = obs.shape
    if n != psi.dim:
        raise ValueError(f"observation matrix of shape {obs.shape} on R^{psi.dim}")
    if value.shape != (k,):
        raise ValueError(f"observed value of shape {value.shape}, expected ({k},)")
    _check_finite(obs=obs, value=value, mean=psi.mean, cov=psi.cov)
    mean, f, g, mag = _factor(psi, np.vstack([obs, np.eye(n)]), tol)
    return _condition_rows(mean, f, g, k, value, mag, tol, 0.0)[0]


def _factor(phi: ExtendedGaussianMap, a, tol: Tolerance):
    """``a`` times the mean, a factor of the covariance (one ``eigh``) and
    the basis ``B`` of the nondeterminism of ``phi``, unchecked, and the
    rows' magnitudes: ``|a|`` summed over the coordinates ``B`` spans.
    Eigenvalues up to ``eps * n * lambda_max`` are rounding, not variance."""
    w, vec = np.linalg.eigh(0.25 * phi.cov)  # exact; an eigenvalue past 1e308 stays finite
    w[w <= np.finfo(float).eps * len(w) * w.max(initial=0.0)] = 0.0
    b = phi.nondet.basis
    with np.errstate(over="ignore", invalid="ignore"):  # checked in _condition_rows
        mag = np.abs(a) @ (np.linalg.norm(b, axis=1) > tol.rank_rel_tol)
        return a @ phi.mean, a @ (vec * (2.0 * np.sqrt(w))), a @ b, mag


def _condition_rows(mean, f, g, k: int, value, mag, tol: Tolerance, scale: float):
    """:func:`_conditional_rows` at ``value``, anchored at the root of the
    largest row variance or ``scale``: the posterior and its factor, after
    checks of the joint's diagonal (``cov``), the support and the posterior."""
    with np.errstate(over="ignore", invalid="ignore"):  # cov: the covariance's diagonal
        var = np.square(f).sum(axis=1)
    _check_finite(mean=mean, cov=var, nondet=g, scale=scale)
    anchor = math.sqrt(max(float(var.max(initial=0.0)), scale))
    eta, mean, fac, cov, dist = _conditional_rows(mean, f, g, k, value, mag, tol, anchor)
    if dist > tol.eq_abs_tol * (1.0 + float(np.linalg.norm(value))):
        raise InfeasibleObservation("observed value lies outside the support of the observed quantity")
    _check_finite(mean=mean, cov=cov)
    return ExtendedGaussian._from_normal(_DEC, eta, np.zeros((len(mean), 0)), (mean, cov)), fac


def _conditional_rows(mean, f, g, k: int, value, mag, tol: Tolerance, anchor: float):
    """Condition the first k coordinates of ``mean + f z + span(g)``, ``z``
    standard normal, at ``value`` (``mean`` and ``value`` may carry columns
    alike): the other r's nondeterminism ``eta``, mean, factor ``K V_perp``
    and covariance, unchecked, and the distance of ``value`` to the support.
    Each row of ``g`` is scaled by ``D^-1``, the power of two that brings its
    magnitude before cancellation ``mag`` into [0.5, 1).  One SVD of the
    observed rows, cut at ``rank_rel_tol``, gives ``h = D_r g_r V_q S_q^-1
    U_q^T D_o^-1`` and ``perp = col(D_o^-1 U_perp)``; one thin SVD of
    ``g_r V_perp``, cut by the same rule, gives ``eta = col(D_r U_t)``.  One
    SVD of ``A = perp^T f_o``, dominant column first, gives the rest: rank s
    counts ``sigma_i > sqrt(rank_rel_tol) * max(sigma_1, anchor)`` and, with
    ``b = perp^T (value - mean_o)`` and ``K = f_r - h f_o``, the mean is
    ``mean_r + h (value - mean_o) + K V_s S_s^-1 U_s^T b`` off ``eta``,
    extended by 0 off U_s."""
    e = np.frexp(mag)[1]  # 0 for a row that reads no nondeterminism
    g = np.ldexp(g, -e[:, None])
    g_o, g_r, e_o, e_r = g[:k], g[k:], e[:k], e[k:]
    u, s, vt = _svd(g_o)
    q = np.count_nonzero(s > tol.rank_rel_tol)
    ue, se, _ = _svd(g_r @ vt[q:].T, full_matrices=False)
    eta = _fix_signs(ue[:, :np.count_nonzero(se > tol.rank_rel_tol)])
    eta, perp = _scaled_basis(eta, e_r), _scaled_basis(u[:, q:], -e_o)
    f_o, f_r, resid = f[:k], f[k:], value - mean[:k]
    a, b = perp.T @ f_o, perp.T @ resid
    with np.errstate(over="ignore"):  # dominant column first, or the SVD cancels in V_perp
        order = np.argsort(-np.linalg.norm(a, axis=0), kind="stable")
    a, f_o, f_r = a[:, order], f_o[:, order], f_r[:, order]
    ua, sa, vta = _svd(a)
    rank = np.count_nonzero(sa > math.sqrt(tol.rank_rel_tol) * max(float(sa.max(initial=0.0)), anchor))
    us, coef = ua[:, :rank], ua[:, :rank].T @ b
    eta = Subspace._of(len(e_r), eta)
    p = eta.complement_projector()
    with np.errstate(over="ignore", invalid="ignore"):  # checked in _condition_rows
        h = np.ldexp((g_r @ vt[:q].T / s[:q]) @ u[:, :q].T, e_r[:, None] - e_o)
        k_f = f_r - h @ f_o
        mean = p @ (mean[k:] + h @ resid + k_f @ (vta[:rank].T @ (coef.T / sa[:rank]).T))
        fac = p @ (k_f @ vta[rank:].T)
        cov = fac @ fac.T
    return eta, mean, fac, cov, float(np.linalg.norm(b - us @ coef))


def _scaled_basis(basis, e):
    """A sign-canonical orthonormal basis of ``col(2^e basis)`` for an orthonormal
    ``basis``, by one thin SVD of ``2^(e - max e) basis`` (it cannot overflow)."""
    if basis.shape[1] < basis.shape[0] and e.max() != e.min():
        basis = _svd(np.ldexp(basis, (e - e.max())[:, None]), full_matrices=False)[0]
    return _fix_signs(basis)


def condition_equal(psi: ExtendedGaussian, tol: Tolerance = DEFAULT_TOL) -> ExtendedGaussian:
    """Condition a distribution on R^k x R^k on both halves being equal."""
    if psi.dim % 2 != 0:
        raise ValueError("condition_equal needs an even-dimensional joint")
    k = psi.dim // 2
    diff = np.hstack([np.eye(k), -np.eye(k)])
    return observe(psi, diff, np.zeros(k), tol)


def _form_on(space: Subspace, form, tol: Tolerance, ambient: str) -> np.ndarray:
    """A PSD form supported on ``space``, checked, projected onto it and symmetrized."""
    form = np.asarray(form, dtype=float)
    _check_finite(form=form)
    form = psd_normalize(form, tol)
    if form.shape != (space.ambient_dim, space.ambient_dim):
        raise ValueError(f"form shape does not match {ambient}")
    projected = CovDec().push(space.projector(), form)
    if form.size and float(np.max(np.abs(form - projected))) > tol.eq_abs_tol:
        raise ValueError("form is not supported on the given subspace")
    return projected


class PrecisionRep(_Immutable):
    """Density-side description: a support subspace and a form on it.

    The form's kernel inside the support is exactly the nondeterminism of
    the corresponding distribution; zero precision is allowed.
    """

    __slots__ = ("support", "form")

    def __init__(self, support: Subspace, form, tol: Tolerance = DEFAULT_TOL):
        form = _form_on(support, form, tol, "the support's ambient space")
        self._set(support=support, form=form)

    def __repr__(self):
        return f"PrecisionRep(ambient {self.support.ambient_dim}, support dim {self.support.dim})"


class CovarianceRep(_Immutable):
    """Pushforward-side description: a covariance form on the subspace of
    directions that carry information (the complement of nondeterminism)."""

    __slots__ = ("dual_support", "form")

    def __init__(self, dual_support: Subspace, form, tol: Tolerance = DEFAULT_TOL):
        form = _form_on(dual_support, form, tol, "the ambient space")
        self._set(dual_support=dual_support, form=form)

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
    """The centered extended Gaussian of ``rep``, whose form was checked where
    it entered: one SVD gives the nondeterminism, the annihilator."""
    n = rep.dual_support.ambient_dim
    return ExtendedGaussian._from_normal(_DEC, rep.dual_support.annihilator(), np.zeros((n, 0)),
                                         (np.zeros(n), rep.form))
