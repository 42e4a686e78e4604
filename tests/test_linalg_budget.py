"""Guard on the number of LAPACK factorizations a program or an observation costs.

The count for a fixed program is deterministic, so it is pinned: a change
that brings back per-call factorizations (for example an SVD on every
``Subspace.annihilator`` call) fails here before any timing would show it.
"""

import numpy as np

from extgauss.dsl import interpret, parse
from extgauss.extended import ExtendedGaussian, observe
from extgauss.subspace import Subspace

STEPS = 12

# Measured for this program when the interpreter began to lower the
# program into arrays, with no PSD check for a definition that reads only
# point masses (34 before; 104 before it carried the nondeterminism as a
# generator matrix and orthonormalized it once per program; 121 before
# psd_normalize began to decide and clamp with one eigh and observe
# stopped making a rank cut on the image of its injective [obs; I]; 146
# before the interpreter built each fresh coordinate without the checking
# constructor; 148 before it deferred every observation to one stacked
# observe at the end; 181 before the graph decomposition of a conditional
# came from one SVD and observe stopped building its joint through the
# public constructor; 312 before covariances were checked for PSD only
# where they enter and in the Schur complement of a conditional, 376
# before conditionals removed the nondeterminism with the projector from
# the graph decomposition, 535 before extended Gaussian maps became
# decorated relations, and 1,080 before the complement of a subspace
# became a write-once cache).  Lower it when a change saves more.
MAX_FACTORIZATIONS = 33

# Measured for the regression program below with the same change (18
# before, 28 before the generator matrix, 33 before the one-eigh
# psd_normalize, 43 before the fresh coordinates, 73 before the stacked
# observe, 121 before the one-SVD graph decomposition, 179 before the PSD
# change, 239 before the graph-decomposition conditional).
MAX_FLATREG_FACTORIZATIONS = 14

# Measured for one rank-1 observe at n = 30 with 5 nondeterministic
# directions with the same change (10 before, when the graph decomposition
# came from one SVD; 22 before that, 32 before the PSD change).
MAX_OBSERVE_FACTORIZATIONS = 8

# Every numpy.linalg factorization, so that moving work from one onto
# another cannot fake a drop.
FACTORIZATIONS = (
    "svd", "eigh", "eigvalsh", "pinv", "solve",
    "qr", "cholesky", "lstsq", "inv", "det", "slogdet", "eig",
)


def _chain_program(steps: int) -> str:
    """Local-level model with a diffuse start, observed at every step."""
    lines = ["x0 ~ uniform()"]
    for i in range(1, steps + 1):
        q, r = 0.3 + 0.1 * (i % 5), 0.5 + 0.05 * i
        lines += [
            f"x{i} ~ normal(x{i - 1}, {q:.3f})",
            f"y{i} ~ normal(x{i}, {r:.3f})",
            f"observe y{i} == {1.0 + 0.5 * np.sin(i):.3f}",
        ]
    lines.append(f"return x{steps}")
    return "\n".join(lines) + "\n"


def _flatreg_program(p: int = 6, rows: int = 4) -> str:
    """Regression with flat priors on p coefficients and fewer observed rows
    than coefficients, so p - rows directions stay nondeterministic."""
    lines = [f"b{j} ~ uniform()" for j in range(1, p + 1)]
    for i in range(1, rows + 1):
        terms = " + ".join(
            f"{0.1 * ((i * j) % 7) + 0.2 * j / p:.3f}*b{j}" for j in range(1, p + 1)
        )
        lines += [f"y{i} ~ normal({terms}, 1)", f"observe y{i} == {0.5 * i + 0.25:.3f}"]
    lines.append("return " + ", ".join(f"b{j}" for j in range(1, p + 1)))
    return "\n".join(lines) + "\n"


def _count_factorizations(monkeypatch) -> dict:
    counts = {}

    def counted(name, fn, when=lambda *a, **k: True):
        def wrapper(*args, **kwargs):
            if when(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)

    for name in FACTORIZATIONS:
        counted(name, getattr(np.linalg, name))

    def spectral(x, ord=None, *args, **kwargs):
        return ord == 2 and np.ndim(x) == 2

    counted("norm", np.linalg.norm, spectral)
    return counts


def test_chain_program_factorization_budget(monkeypatch):
    program = parse(_chain_program(STEPS))
    counts = _count_factorizations(monkeypatch)
    report = interpret(program)
    assert report.posterior.nondet.dim == 0
    total = sum(counts.values())
    assert total <= MAX_FACTORIZATIONS, counts


def test_chain_program_rank_decisions_do_not_grow_with_length(monkeypatch):
    # the nondeterminism is orthonormalized once per program, not re-decided
    # after every statement: SVDs and spectral norms do not grow with the
    # chain (52 + 25 at 12 steps when each shear ran image and annihilator)
    decisions = []
    for steps in (6, 24):
        program = parse(_chain_program(steps))
        with monkeypatch.context() as m:
            counts = _count_factorizations(m)
            interpret(program)
        decisions.append((counts.get("svd", 0), counts.get("norm", 0)))
    assert decisions[0] == decisions[1], decisions


def test_rank1_observe_factorization_budget(monkeypatch):
    rng = np.random.default_rng(30)
    n, k = 30, 5
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    psi = ExtendedGaussian(
        Subspace.span(rng.standard_normal((k, n)), ambient_dim=n),
        rng.standard_normal(n),
        (q * rng.uniform(0.3, 2.5, n)) @ q.T,
    )
    obs = rng.standard_normal((1, n))
    counts = _count_factorizations(monkeypatch)
    post = observe(psi, obs, obs @ psi.mean)
    assert post.nondet.dim == k - 1
    total = sum(counts.values())
    assert total <= MAX_OBSERVE_FACTORIZATIONS, counts


def test_flatreg_program_factorization_budget(monkeypatch):
    program = parse(_flatreg_program())
    counts = _count_factorizations(monkeypatch)
    report = interpret(program)
    assert report.posterior.nondet.dim == 2
    total = sum(counts.values())
    assert total <= MAX_FLATREG_FACTORIZATIONS, counts
