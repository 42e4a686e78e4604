"""Exact posteriors in plain numpy, independent of ``extgauss``.

:func:`posterior` writes every program variable as an affine function
``a + M z`` of primitive variables ``z = (e, u)``: one standard normal
``e_k`` per sampled normal with nonzero variance and one flat ``u_k`` per
``uniform()``.  Observations are linear constraints ``A z = b``; on the
solution set ``z0 + K t`` the density in ``t`` is ``exp(-|e(t)|^2 / 2)``,
a Gaussian whose precision may be singular.  Its flat directions are the
nondeterminism.  This is a different algorithm from the package's
(no complements, projectors or decorated relations), and
:func:`self_check` ties it to the documented demo outputs and to the
closed forms of the three workload families.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

from workloads import Model, Stmt, chain, flatreg, mix

RANK_RTOL = 1e-9
# A posterior entry is accepted when it is within MATCH_RTOL * (1 + scale)
# of the oracle, scale being the largest oracle entry in magnitude.
MATCH_RTOL = 1e-6


class Mismatch(ValueError):
    """Program output that is malformed or disagrees with the oracle."""


def _rank(s: np.ndarray) -> int:
    return int(np.sum(s > RANK_RTOL * s[0])) if s.size else 0


def _orth(m: np.ndarray) -> np.ndarray:
    if m.size == 0:
        return np.zeros((m.shape[0], 0))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :_rank(s)]


def posterior(model: Model):
    """(mean, cov, nondet basis as columns) over the returned variables,
    with mean and cov orthogonal to the nondeterminism."""
    n_e = sum(s.kind == "normal" and s.value > 0 for s in model.stmts)
    n_z = n_e + sum(s.kind == "uniform" for s in model.stmts)
    offset, rows = {}, {}
    cons_rows, cons_rhs = [], []
    e_next, u_next = 0, n_e

    def affine(terms):
        a, row = 0.0, np.zeros(n_z)
        for coeff, var in terms:
            if var is None:
                a += coeff
            else:
                a += coeff * offset[var]
                row += coeff * rows[var]
        return a, row

    for s in model.stmts:
        if s.kind == "uniform":
            offset[s.name], rows[s.name] = 0.0, np.zeros(n_z)
            rows[s.name][u_next] = 1.0
            u_next += 1
        elif s.kind == "observe":
            a, row = affine(s.terms)
            cons_rows.append(row)
            cons_rhs.append(s.value - a)
        else:
            offset[s.name], rows[s.name] = affine(s.terms)
            if s.kind == "normal" and s.value > 0:
                rows[s.name][e_next] = math.sqrt(s.value)
                e_next += 1

    if cons_rows:
        a_mat, b = np.array(cons_rows), np.array(cons_rhs)
        u, s, vt = np.linalg.svd(a_mat, full_matrices=True)
        r = _rank(s)
        z0 = vt[:r].T @ ((u[:, :r].T @ b) / s[:r])
        if np.linalg.norm(a_mat @ z0 - b) > 1e-8 * (1 + np.linalg.norm(b)):
            raise ValueError("observations are infeasible")
        k = vt[r:].T
    else:
        z0, k = np.zeros(n_z), np.eye(n_z)

    k_e = k[:n_e]
    _, s, vt = np.linalg.svd(k_e, full_matrices=True)
    r = _rank(s)
    prec_pinv = vt[:r].T @ np.diag(1.0 / s[:r] ** 2) @ vt[:r]
    flat = vt[r:].T
    t_hat = -prec_pinv @ k_e.T @ z0[:n_e]

    m_r = np.array([rows[v] for v in model.returns])
    a_r = np.array([offset[v] for v in model.returns])
    f = m_r @ k
    nondet = _orth(f @ flat)
    proj = np.eye(len(model.returns)) - nondet @ nondet.T
    mean = proj @ (a_r + m_r @ z0 + f @ t_hat)
    cov = proj @ f @ prec_pinv @ f.T @ proj
    return mean, (cov + cov.T) / 2, nondet


def _reject_constant(token: str):
    raise Mismatch(f"non-finite number {token} in output")


def compare(model: Model, output: str) -> float:
    """Scaled error of a ``gx run --json`` output against the oracle.

    Raises :class:`Mismatch` on invalid JSON (NaN and Infinity included),
    wrong variables, a different nondeterminism dimension, or an error
    above ``MATCH_RTOL``.
    """
    try:
        data = json.loads(output, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"invalid JSON: {exc}") from None
    if data.get("variables") != list(model.returns):
        raise Mismatch(f"variables {data.get('variables')} != {list(model.returns)}")
    mean, cov, nondet = posterior(model)
    k = len(model.returns)
    got_basis = np.array(data["nondet_basis"], dtype=float).reshape(-1, k).T
    if got_basis.shape[1] != nondet.shape[1]:
        raise Mismatch(f"nondeterminism dim {got_basis.shape[1]} != {nondet.shape[1]}")
    scale = 1.0 + max(np.max(np.abs(mean), initial=0.0), np.max(np.abs(cov), initial=0.0))
    err = max(
        np.max(np.abs(np.array(data["mean"], dtype=float) - mean), initial=0.0),
        np.max(np.abs(np.array(data["cov"], dtype=float).reshape(k, k) - cov), initial=0.0),
        np.max(np.abs(got_basis @ got_basis.T - nondet @ nondet.T), initial=0.0),
    ) / scale
    if not err <= MATCH_RTOL:
        raise Mismatch(f"scaled error {err:.3e} above {MATCH_RTOL:g}")
    return float(err)


# ---------------------------------------------------------------------------
# Self-check

# the three documented outputs of `gx demo NAME --json`
DEMOS = {
    "example-2-1": (
        Model((
            Stmt("normal", "x1", (), 1.0),
            Stmt("normal", "x2", (), 1.0),
            Stmt("uniform", "y"),
            Stmt("assign", "z1", ((1.0, "x1"), (1.0, "y"))),
            Stmt("assign", "z2", ((1.0, "x2"), (1.0, "y"))),
        ), ("z1", "z2"), 0),
        '{"variables": ["z1", "z2"], "mean": [0.0, 0.0], "cov": [[0.5, -0.5], '
        '[-0.5, 0.5]], "nondet_basis": [[0.7071067811865476, 0.7071067811865476]], '
        '"tolerance": 1e-08}',
    ),
    "exact-equality": (
        Model((
            Stmt("normal", "x", (), 1.0),
            Stmt("normal", "y", (), 1.0),
            Stmt("observe", "", ((1.0, "x"), (-1.0, "y")), 0.0),
        ), ("x",), 0),
        '{"variables": ["x"], "mean": [0.0], "cov": [[0.5]], "nondet_basis": [], '
        '"tolerance": 1e-08}',
    ),
    "uninformative": (
        Model((
            Stmt("uniform", "y"),
            Stmt("normal", "x", (), 1.0),
            Stmt("observe", "", ((1.0, "x"), (-1.0, "y")), 0.0),
        ), ("x",), 0),
        '{"variables": ["x"], "mean": [0.0], "cov": [[1.0]], "nondet_basis": [], '
        '"tolerance": 1e-08}',
    ),
}


def _chain_closed_form(model: Model):
    """Information-form smoothing of the tridiagonal chain x0..xn."""
    steps = model.size
    q = [s.value for s in model.stmts if s.kind == "normal" and s.name.startswith("x")]
    r = [s.value for s in model.stmts if s.kind == "normal" and s.name.startswith("y")]
    c = [s.value for s in model.stmts if s.kind == "observe"]
    prec, info = np.zeros((steps + 1, steps + 1)), np.zeros(steps + 1)
    for i in range(1, steps + 1):
        w = 1.0 / q[i - 1]
        prec[i - 1:i + 1, i - 1:i + 1] += w * np.array([[1.0, -1.0], [-1.0, 1.0]])
        prec[i, i] += 1.0 / r[i - 1]
        info[i] += c[i - 1] / r[i - 1]
    cov = np.linalg.inv(prec)
    return (cov @ info)[-1:], cov[-1:, -1:], np.zeros((1, 0))


def _mix_closed_form(model: Model):
    """Plain Gaussian conditioning of v = (I - B)^-1 (b + noise)."""
    names = [s.name for s in model.stmts if s.kind != "observe"]
    index = {v: i for i, v in enumerate(names)}
    n = len(names)
    lower, const, var = np.eye(n), np.zeros(n), np.zeros(n)
    obs_rows, obs_vals = [], []
    for s in model.stmts:
        row = np.zeros(n)
        for coeff, v in s.terms:
            if v is None:
                const[index[s.name]] += coeff
            else:
                row[index[v]] += coeff
        if s.kind == "observe":
            obs_rows.append(row)
            obs_vals.append(s.value)
        else:
            lower[index[s.name]] -= row
            var[index[s.name]] = s.value if s.kind == "normal" else 0.0
    inv = np.linalg.inv(lower)
    mu, sigma = inv @ const, inv @ np.diag(var) @ inv.T
    a = np.array(obs_rows)
    gain = sigma @ a.T @ np.linalg.pinv(a @ sigma @ a.T)
    mu = mu + gain @ (np.array(obs_vals) - a @ mu)
    sigma = sigma - gain @ a @ sigma
    sel = [index[v] for v in model.returns]
    return mu[sel], sigma[np.ix_(sel, sel)], np.zeros((len(sel), 0))


def _flatreg_closed_form(model: Model):
    """mean = X^+ c, cov = (X^T X)^+, nondet = ker X."""
    x = np.array([[c for c, _ in s.terms] for s in model.stmts if s.kind == "normal"])
    c = np.array([s.value for s in model.stmts if s.kind == "observe"])
    _, s, vt = np.linalg.svd(x, full_matrices=True)
    return np.linalg.pinv(x) @ c, np.linalg.pinv(x.T @ x), vt[_rank(s):].T


def self_check() -> list:
    """Problems found with the oracle itself; empty when it is sound."""
    problems = []
    for name, (model, documented) in DEMOS.items():
        try:
            compare(model, documented)
        except Mismatch as exc:
            problems.append(f"demo {name}: {exc}")
    rng = random.Random("oracle-self-check")
    for gen, size, closed in ((chain, 6, _chain_closed_form), (mix, 12, _mix_closed_form),
                              (flatreg, (6, 3), _flatreg_closed_form),
                              (flatreg, (4, 8), _flatreg_closed_form)):
        model = gen(rng, size)
        mean, cov, nondet = posterior(model)
        ref_mean, ref_cov, ref_nondet = closed(model)
        gap = max(np.max(np.abs(mean - ref_mean)), np.max(np.abs(cov - ref_cov)),
                  np.max(np.abs(nondet @ nondet.T - ref_nondet @ ref_nondet.T), initial=0.0))
        if not gap <= 1e-9 * (1.0 + np.max(np.abs(ref_cov))):
            problems.append(f"{gen.__name__} {size}: oracle differs from closed form by {gap:.3e}")
    return problems
