"""Guard on the number of LAPACK factorizations one program costs.

The count for a fixed program is deterministic, so it is pinned: a change
that brings back per-call factorizations (for example an SVD on every
``Subspace.annihilator`` call) fails here before any timing would show it.
"""

import numpy as np

from extgauss.dsl import interpret, parse

STEPS = 12

# Measured for this program when the complement of a subspace became a
# write-once cache with closed forms for the zero and full subspaces (the
# count before that change was 1,080).  Lower it when a change saves more.
MAX_FACTORIZATIONS = 535


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
