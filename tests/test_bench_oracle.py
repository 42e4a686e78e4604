"""``gx run --json`` on benchmark programs agrees with the benchmark's oracle.

``perfbench/oracle.py`` computes exact posteriors in plain numpy, by a
different algorithm from the package's, and the benchmark refuses a run
whose outputs it does not accept.  Running the same check here, on a fixed
set of programs, makes an inaccurate change fail the tests first.  The
benchmark files are loaded by path and only read.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

from extgauss.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_bench():
    """``workloads`` and ``oracle``; the oracle imports ``workloads`` by name,
    so it is registered under that name while the oracle loads."""
    loaded, saved = {}, sys.modules.get("workloads")
    try:
        for name in ("workloads", "oracle"):
            spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
            loaded[name] = importlib.util.module_from_spec(spec)
            sys.modules[name] = loaded[name]  # its dataclasses look their module up
            spec.loader.exec_module(loaded[name])
    finally:
        sys.modules.pop("oracle", None)
        if saved is None:
            sys.modules.pop("workloads", None)
        else:
            sys.modules["workloads"] = saved
    return loaded["workloads"], loaded["oracle"]


workloads, oracle = _load_bench()


def _run(path, model, capsys) -> float:
    """Scaled oracle error of ``gx run --json`` on ``model``."""
    path.write_text(workloads.render(model))
    assert main(["run", str(path), "--json"]) == 0
    return oracle.compare(model, capsys.readouterr().out)


def test_oracle_is_sound():
    assert oracle.self_check() == []


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["chain", "mix", "flatreg"])
def test_first_two_rounds_match_the_oracle(workload, seed, tmp_path, capsys):
    failures = []
    for r, models in enumerate(itertools.islice(workloads.rounds(workload, seed), 2)):
        for i, model in enumerate(models):
            try:
                _run(tmp_path / "program.gx", model, capsys)
            except oracle.Mismatch as exc:
                failures.append(f"round {r}, program {i}: {exc}")
    assert not failures


def test_flatreg_seed81_program223_is_accurate(tmp_path, capsys):
    # p = 20 coefficients, m = 40 observations: conditioning one observation
    # at a time lets a covariance eigenvalue reach 1.69e10 and then cancel,
    # which misses the oracle by 1.23e-6
    models = itertools.chain.from_iterable(workloads.rounds("flatreg", 81))
    model = next(itertools.islice(models, 223, None))
    kinds = [s.kind for s in model.stmts]
    assert (kinds.count("uniform"), kinds.count("observe")) == (20, 40)
    assert _run(tmp_path / "program.gx", model, capsys) <= 1e-9


def test_flatreg_seed508_program468_runs(tmp_path, capsys):
    # p = 20, m = 40: LAPACK's gesdd fails to converge on the 40 x 40
    # covariance of the observations here (eigenvalues in [7.9e-4, 1], half
    # of them 1); orthonormal_columns retries on the reversed rows
    models = itertools.chain.from_iterable(workloads.rounds("flatreg", 508))
    model = next(itertools.islice(models, 468, None))
    kinds = [s.kind for s in model.stmts]
    assert (kinds.count("uniform"), kinds.count("observe")) == (20, 40)
    _run(tmp_path / "program.gx", model, capsys)
