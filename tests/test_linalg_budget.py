"""Guard on the number of LAPACK factorizations one program costs.

The count for a fixed program is deterministic, so it is pinned: a change
that brings back per-call factorizations (for example an SVD on every
``Subspace.annihilator`` call) fails here before any timing would show it.
"""

import numpy as np

from extgauss.dsl import interpret, parse

STEPS = 12

# Measured for this program when conditionals began to remove the
# nondeterminism with the projector from the graph decomposition and
# observe began to evaluate the conditional at the observed value (the
# count before was 376; 535 before extended Gaussian maps became decorated
# relations, and 1,080 before the complement of a subspace became a
# write-once cache).  Lower it when a change saves more.
MAX_FACTORIZATIONS = 312

# Measured for the regression program below with the same change (239
# before).
MAX_FLATREG_FACTORIZATIONS = 179


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

    for name in ("svd", "eigh", "eigvalsh", "pinv", "solve"):
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


def test_flatreg_program_factorization_budget(monkeypatch):
    program = parse(_flatreg_program())
    counts = _count_factorizations(monkeypatch)
    report = interpret(program)
    assert report.posterior.nondet.dim == 2
    total = sum(counts.values())
    assert total <= MAX_FLATREG_FACTORIZATIONS, counts
