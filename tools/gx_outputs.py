"""Dump what ``gx run --json`` prints for a fixed set of programs.

Usage, from the repository root::

    python tools/gx_outputs.py SRC OUT

``SRC`` is the ``src`` directory of the checkout to run and ``OUT`` the file
to write.  The programs are the first two rounds of seeds 1-3 of every
benchmark workload (162 programs), generated by ``perfbench/workloads.py``
of this checkout, so dumps of two checkouts compare with ``cmp``.  For each
program ``OUT`` holds its name, exit code, standard output and standard
error.  Each program runs in this process, under fresh warning filters, so a
numpy warning prints as it would in a fresh ``gx`` process; one BLAS thread
keeps every factorization reproducible.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import itertools
import os
import sys
import tempfile
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOADS = ("chain", "mix", "flatreg")
SEEDS = (1, 2, 3)
ROUNDS = 2


def _workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/gx_outputs.py SRC OUT", file=sys.stderr)
        return 2
    src, out_path = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    workloads = _workloads()
    sys.path.insert(0, str(src))
    from extgauss.cli import main as gx

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # error messages name the file as given: a relative name
        for workload, seed in itertools.product(WORKLOADS, SEEDS):
            for r, models in enumerate(itertools.islice(workloads.rounds(workload, seed), ROUNDS)):
                for i, model in enumerate(models):
                    name = f"{workload}-{seed}-{r}-{i}.gx"
                    Path(name).write_text(workloads.render(model))
                    out, err = io.StringIO(), io.StringIO()
                    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        warnings.simplefilter("default")
                        code = gx(["run", name, "--json"])
                    records.append(f"== {name} exit {code}\n-- stdout\n{out.getvalue()}"
                                   f"-- stderr\n{err.getvalue()}")
    out_path.write_text("".join(records))
    print(f"{len(records)} programs -> {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
