"""Seeded program families for the benchmark.

Each generator returns a :class:`Model`: the statements of one program in
a small affine form that both the ``.gx`` renderer and the oracle read.
``extgauss`` only ever sees the rendered text.

Sizes are not drawn independently: every round of a workload runs one
program of each size in the workload's fixed list, in a seeded order, and
only the coefficients and data vary with the seed.  Every run therefore
measures the same size distribution, which keeps latency percentiles
comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# An affine expression is a tuple of (coefficient, variable) terms; a
# variable of None marks the constant term.
Terms = tuple


@dataclass(frozen=True)
class Stmt:
    kind: str            # "normal", "uniform", "assign" or "observe"
    name: str = ""       # defined variable; empty for "observe"
    terms: Terms = ()    # mean, assigned value, or observed left-hand side
    value: float = 0.0   # variance for "normal", right-hand side for "observe"


@dataclass(frozen=True)
class Model:
    stmts: tuple
    returns: tuple
    size: int


def _num(x: float) -> str:
    return repr(float(x))


def _expr(terms: Terms) -> str:
    """Render an affine expression; the grammar has no unary minus."""
    out = ""
    for i, (coeff, var) in enumerate(terms):
        body = _num(abs(coeff)) if var is None else f"{_num(abs(coeff))}*{var}"
        if i == 0:
            out = body if coeff >= 0 else f"0 - {body}"
        else:
            out += (" + " if coeff >= 0 else " - ") + body
    return out or "0"


def render(model: Model) -> str:
    lines = []
    for s in model.stmts:
        if s.kind == "normal":
            lines.append(f"{s.name} ~ normal({_expr(s.terms)}, {_num(s.value)})")
        elif s.kind == "uniform":
            lines.append(f"{s.name} ~ uniform()")
        elif s.kind == "assign":
            lines.append(f"{s.name} = {_expr(s.terms)}")
        else:
            lines.append(f"observe {_expr(s.terms)} == {_expr(((s.value, None),))}")
    lines.append("return " + ", ".join(model.returns))
    return "\n".join(lines) + "\n"


def _r3(x: float) -> float:
    """Data are written with three decimals, so the text holds them exactly."""
    return round(x, 3)


def chain(rng: random.Random, steps: int) -> Model:
    """Local-level model with a diffuse start, observed at every step."""
    stmts = [Stmt("uniform", "x0")]
    level = rng.gauss(0.0, 3.0)
    for i in range(1, steps + 1):
        q, r = _r3(rng.uniform(0.2, 2.0)), _r3(rng.uniform(0.2, 2.0))
        level += rng.gauss(0.0, q ** 0.5)
        obs = _r3(level + rng.gauss(0.0, r ** 0.5))
        stmts += [
            Stmt("normal", f"x{i}", ((1.0, f"x{i - 1}"),), q),
            Stmt("normal", f"y{i}", ((1.0, f"x{i}"),), r),
            Stmt("observe", "", ((1.0, f"y{i}"),), obs),
        ]
    return Model(tuple(stmts), (f"x{steps}",), steps)


def _contraction(rng: random.Random, parents: list) -> Terms:
    """Random coefficients whose absolute sum is below one, so that values
    stay near unit scale however deep the dependency chain is."""
    raw = [rng.uniform(-1.0, 1.0) for _ in parents]
    total = sum(abs(c) for c in raw) or 1.0
    scale = rng.uniform(0.3, 0.9) / total
    return tuple((_r3(c * scale), p) for c, p in zip(raw, parents) if _r3(c * scale) != 0.0)


def mix(rng: random.Random, n: int) -> Model:
    """Dense affine mixing with some deterministic variables and two dense
    observations at the end."""
    stmts, values = [], {}
    for i in range(1, n + 1):
        name = f"v{i}"
        parents = rng.sample(sorted(values), min(i - 1, rng.randint(1, 8))) if i > 1 else []
        terms = _contraction(rng, parents) + ((_r3(rng.uniform(-1.0, 1.0)), None),)
        mean = sum(c * (1.0 if v is None else values[v]) for c, v in terms)
        if terms[:-1] and rng.random() < 0.15:
            stmts.append(Stmt("assign", name, terms))
            values[name] = mean
        else:
            var = _r3(rng.uniform(0.1, 2.0))
            stmts.append(Stmt("normal", name, terms, var))
            values[name] = mean + rng.gauss(0.0, var ** 0.5)
    for _ in range(2):
        row = tuple((_r3(rng.uniform(-1.0, 1.0)), f"v{i}") for i in range(1, n + 1))
        obs = _r3(sum(c * values[v] for c, v in row))
        stmts.append(Stmt("observe", "", row, obs))
    returns = tuple(f"v{i}" for i in sorted(rng.sample(range(1, n + 1), 5)))
    return Model(tuple(stmts), returns, n)


def flatreg(rng: random.Random, size: tuple) -> Model:
    """Linear regression with a flat prior on the coefficients."""
    p, m = size
    coef = [f"b{j}" for j in range(1, p + 1)]
    truth = [rng.gauss(0.0, 1.0) for _ in coef]
    stmts = [Stmt("uniform", b) for b in coef]
    for i in range(1, m + 1):
        row = tuple((_r3(rng.uniform(-1.0, 1.0)), b) for b in coef)
        obs = _r3(sum(c * t for (c, _), t in zip(row, truth)) + rng.gauss(0.0, 1.0))
        stmts += [
            Stmt("normal", f"y{i}", row, 1.0),
            Stmt("observe", "", ((1.0, f"y{i}"),), obs),
        ]
    return Model(tuple(stmts), tuple(coef), p * m)


# name -> (generator, sizes of one round, why)
WORKLOADS = {
    "chain": (
        chain,
        [8, 12, 16, 20, 24],
        "diffuse-start local-level chain, 8-24 steps: observe-bound, state "
        "grows by two per step; where direct conditioning and liveness act",
    ),
    "mix": (
        mix,
        [30, 40, 50, 60, 70, 80, 90],
        "dense affine mixing of 30-90 variables and two dense observes: "
        "construction and pushforward bound; bypasses observe optimisations",
    ),
    "flatreg": (
        flatreg,
        [(p, max(1, round(p * r))) for p in (4, 8, 12, 16, 20) for r in (0.5, 1.25, 2.0)],
        "flat-prior regression, p=4-20 coefficients, m=p/2-2p rows: small "
        "matrices, Python-bound, observations that hit the nondeterminism",
    ),
}


def rounds(workload: str, seed: int):
    """Endless rounds of programs; each round covers the size list once."""
    gen, sizes, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        order = list(sizes)
        rng.shuffle(order)
        yield [gen(rng, size) for size in order]


def warmup(workload: str) -> Model:
    """The untimed warm-up program: the smallest size, from a fixed seed."""
    gen, sizes, _ = WORKLOADS[workload]
    return gen(random.Random(f"{workload}:warmup"), min(sizes))
