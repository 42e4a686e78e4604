"""Gaussian maps: linear maps with additive Gaussian noise.

A Gaussian map R^n -> R^m is ``x -> A x + N(mean, cov)``.  Distributions
are the n = 0 case.  Maps compose sequentially and in parallel, carry
copy/discard structure, and admit conditionals computed with the
Moore-Penrose pseudoinverse so that rank-deficient covariances work.

Values are immutable; all operations are pure functions.
"""

from __future__ import annotations

import numpy as np

from .subspace import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _check_finite,
    column_space,
    image,
    minkowski_sum,
)


class NotPSD(ValueError):
    """A matrix required to be positive semidefinite is not."""


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def psd_normalize(cov, tol: Tolerance = DEFAULT_TOL, scale: float = 0.0) -> np.ndarray:
    """Symmetrize ``cov`` and clamp tiny negative eigenvalues to zero.

    Raises :class:`NotPSD` if the symmetry defect or the most negative
    eigenvalue exceeds ``tol.eq_abs_tol``, measured relative to the
    magnitude of the matrix for data away from unit scale.  ``scale``
    lets callers whose matrix is a small difference of large quantities
    widen the bound to the magnitude of those inputs.  One ``eigh``
    both decides and clamps.  The library runs it where a covariance
    enters or is made by subtraction (the Schur complement): pushed,
    projected and summed PSD forms stay PSD.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"covariance must be square, got shape {cov.shape}")
    if cov.size == 0:
        return cov
    bound = tol.eq_abs_tol * max(1.0, scale, float(np.max(np.abs(cov))))
    half = 0.5 * cov  # halving first cannot overflow
    if float(np.max(np.abs(half - half.T))) > 0.5 * bound:
        raise NotPSD("covariance is not symmetric within tolerance")
    cov = half + half.T
    vals, vecs = np.linalg.eigh(cov)
    smallest = float(vals[0])
    if smallest < -bound:
        raise NotPSD(f"covariance has eigenvalue {smallest:.3e}")
    if smallest < 0.0:
        cov = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        cov = 0.5 * cov + 0.5 * cov.T
    return cov


def _ro(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


class GaussianMap:
    """``x -> lin @ x + N(mean, cov)`` from R^n to R^m.

    Shapes are inferred from ``lin`` (m-by-n).  The covariance is
    symmetrized and clamped to positive semidefinite on construction; a
    NaN or infinite entry raises :class:`~extgauss.subspace.NonFiniteInput`.
    """

    __slots__ = ("dom_dim", "cod_dim", "lin", "mean", "cov")

    def __init__(self, lin, mean, cov, tol: Tolerance = DEFAULT_TOL):
        lin = np.asarray(lin, dtype=float)
        if lin.ndim != 2:
            raise ValueError("linear part must be a matrix")
        mean = np.asarray(mean, dtype=float).reshape(-1)
        m, n = lin.shape
        if mean.shape != (m,):
            raise ValueError(f"mean of shape {mean.shape}, expected ({m},)")
        cov = np.asarray(cov, dtype=float)
        _check_finite(lin=lin, mean=mean, cov=cov)
        cov = psd_normalize(cov, tol)
        if cov.shape != (m, m):
            raise ValueError(f"cov of shape {cov.shape}, expected ({m}, {m})")
        for name, value in (
            ("dom_dim", n),
            ("cod_dim", m),
            ("lin", _ro(lin)),
            ("mean", _ro(mean)),
            ("cov", _ro(cov)),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianMap is immutable")

    def equals(self, other: "GaussianMap", tol: Tolerance = DEFAULT_TOL) -> bool:
        if (self.dom_dim, self.cod_dim) != (other.dom_dim, other.cod_dim):
            return False
        return (
            np.allclose(self.lin, other.lin, atol=tol.eq_abs_tol)
            and np.allclose(self.mean, other.mean, atol=tol.eq_abs_tol)
            and np.allclose(self.cov, other.cov, atol=tol.eq_abs_tol)
        )

    def __repr__(self):
        return f"GaussianMap({self.dom_dim} -> {self.cod_dim})"

    def to_dict(self) -> dict:
        return {
            "dom": self.dom_dim,
            "cod": self.cod_dim,
            "A": self.lin.tolist(),
            "mean": self.mean.tolist(),
            "cov": self.cov.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GaussianMap":
        lin = np.asarray(data["A"], dtype=float).reshape(data["cod"], data["dom"])
        return cls(lin, data["mean"], data["cov"])



def distribution(mean, cov, tol: Tolerance = DEFAULT_TOL) -> GaussianMap:
    """The Gaussian distribution N(mean, cov) as a map out of R^0."""
    mean = np.asarray(mean, dtype=float).reshape(-1)
    return GaussianMap(np.zeros((mean.shape[0], 0)), mean, cov, tol)


def identity(n: int) -> GaussianMap:
    return GaussianMap(np.eye(n), np.zeros(n), np.zeros((n, n)))


def copy(n: int) -> GaussianMap:
    """The duplication map x -> (x, x) with no noise."""
    return GaussianMap(
        np.vstack([np.eye(n), np.eye(n)]), np.zeros(2 * n), np.zeros((2 * n, 2 * n))
    )


def delete(n: int) -> GaussianMap:
    """The discard map R^n -> R^0."""
    return GaussianMap(np.zeros((0, n)), np.zeros(0), np.zeros((0, 0)))


def compose(f2: GaussianMap, f1: GaussianMap, tol: Tolerance = DEFAULT_TOL) -> GaussianMap:
    """Sequential composition: apply ``f1`` first, then ``f2``.

    The linear parts multiply and the noise of ``f1`` is pushed forward
    through the linear part of ``f2`` and added to the noise of ``f2``.
    """
    if f1.cod_dim != f2.dom_dim:
        raise ValueError(
            f"cannot compose {f2.dom_dim}->{f2.cod_dim} after {f1.dom_dim}->{f1.cod_dim}"
        )
    return GaussianMap(
        f2.lin @ f1.lin,
        f2.lin @ f1.mean + f2.mean,
        f2.lin @ f1.cov @ f2.lin.T + f2.cov,
        tol,
    )


def tensor(f: GaussianMap, g: GaussianMap, tol: Tolerance = DEFAULT_TOL) -> GaussianMap:
    """Parallel composition on R^{n1+n2} -> R^{m1+m2}."""
    return GaussianMap(
        _block_diag(f.lin, g.lin),
        np.concatenate([f.mean, g.mean]),
        _block_diag(f.cov, g.cov),
        tol,
    )


def pushforward(a, psi: GaussianMap, tol: Tolerance = DEFAULT_TOL) -> GaussianMap:
    """Image distribution of ``psi`` under the matrix ``a``."""
    if psi.dom_dim != 0:
        raise ValueError("pushforward expects a distribution (dom_dim 0)")
    a = np.asarray(a, dtype=float)
    return GaussianMap(
        np.zeros((a.shape[0], 0)), a @ psi.mean, a @ psi.cov @ a.T, tol
    )


def conditional(f: GaussianMap, nx: int, tol: Tolerance = DEFAULT_TOL) -> GaussianMap:
    """Conditional of a map into a product R^{nx} x R^{ny}.

    For ``f : A -> X x Y`` returns ``g : X x A -> Y`` such that sampling
    the X-marginal of ``f`` and then ``g`` reproduces the joint.  Singular
    X-covariances are handled with the pseudoinverse; among the almost
    surely equal conditionals this picks one canonical representative.
    """
    if not 0 <= nx <= f.cod_dim:
        raise ValueError(f"split {nx} out of range for codomain {f.cod_dim}")
    return GaussianMap(*_conditional(f.lin, f.mean, f.cov, nx, tol), tol)


def _conditional(lin, mean, cov, nx: int, tol: Tolerance):
    """``(lin, mean, schur)`` of :func:`conditional` on the arrays of a map
    with PSD ``cov``; only the Schur complement is checked for PSD."""
    a_x, a_y = lin[:nx], lin[nx:]
    mu_x, mu_y = mean[:nx], mean[nx:]
    s_xx = cov[:nx, :nx]
    s_yx = cov[nx:, :nx]
    s_xy = cov[:nx, nx:]
    s_yy = cov[nx:, nx:]
    # the Schur complement is a difference of input-scale quantities, so
    # its rounding defects are judged at the input's magnitude; so are the
    # X-variances, whose inverse would turn rounding residue into gain
    scale = float(np.max(np.abs(cov))) if cov.size else 0.0
    w, v = np.linalg.eigh(s_xx)
    keep = w > max(tol.rank_rel_tol * w.max(initial=0.0), np.finfo(float).eps * len(cov) * scale)
    gain = (s_yx @ v[:, keep] / w[keep]) @ v[:, keep].T
    schur = psd_normalize(s_yy - gain @ s_xy, tol, scale=scale)
    return np.hstack([gain, a_y - gain @ a_x]), mu_y - gain @ mu_x, schur


class AffineSupportMap:
    """``x -> lin @ x + offset + noise_space``: a map into affine subsets.

    This is what remains of a Gaussian map when the noise is collapsed to
    the subspace it is supported on.  Two support maps are compared as
    relations, i.e. modulo the noise space.
    """

    __slots__ = ("dom_dim", "cod_dim", "lin", "offset", "noise_space")

    def __init__(self, lin, offset, noise_space: Subspace):
        lin = np.asarray(lin, dtype=float)
        offset = np.asarray(offset, dtype=float).reshape(-1)
        m, n = lin.shape
        if offset.shape != (m,):
            raise ValueError(f"offset of shape {offset.shape}, expected ({m},)")
        if noise_space.ambient_dim != m:
            raise ValueError("noise_space ambient does not match codomain")
        object.__setattr__(self, "dom_dim", n)
        object.__setattr__(self, "cod_dim", m)
        object.__setattr__(self, "lin", _ro(lin))
        object.__setattr__(self, "offset", _ro(offset))
        object.__setattr__(self, "noise_space", noise_space)

    def __setattr__(self, name, value):
        raise AttributeError("AffineSupportMap is immutable")

    def equals(self, other: "AffineSupportMap", tol: Tolerance = DEFAULT_TOL) -> bool:
        if (self.dom_dim, self.cod_dim) != (other.dom_dim, other.cod_dim):
            return False
        if not self.noise_space.equals(other.noise_space, tol):
            return False
        p = self.noise_space.complement_projector()
        return np.allclose(
            p @ self.lin, p @ other.lin, atol=tol.eq_abs_tol
        ) and np.allclose(p @ self.offset, p @ other.offset, atol=tol.eq_abs_tol)

    def __repr__(self):
        return (
            f"AffineSupportMap({self.dom_dim} -> {self.cod_dim}, "
            f"noise dim {self.noise_space.dim})"
        )


def support(f: GaussianMap, tol: Tolerance = DEFAULT_TOL) -> AffineSupportMap:
    """Collapse the Gaussian noise of ``f`` to the subspace carrying it."""
    return AffineSupportMap(f.lin, f.mean, column_space(f.cov, tol))


def compose_support(
    s2: AffineSupportMap, s1: AffineSupportMap, tol: Tolerance = DEFAULT_TOL
) -> AffineSupportMap:
    """Sequential composition of support maps; noise spaces accumulate."""
    if s1.cod_dim != s2.dom_dim:
        raise ValueError("shape mismatch in support composition")
    return AffineSupportMap(
        s2.lin @ s1.lin,
        s2.lin @ s1.offset + s2.offset,
        minkowski_sum(image(s2.lin, s1.noise_space, tol), s2.noise_space, tol),
    )
