"""Benchmark of ``gx run`` on generated program families.

Usage, from the repository root::

    python3 perfbench/run.py --workload chain --seed 1 --seconds 15 --trace 0

One process runs a closed loop with one client: each program goes through
the in-process ``gx run FILE --json`` path (``extgauss.cli.main``) as soon
as the previous one returns.  Programs are generated from ``--seed`` and
every output is checked against a numpy oracle.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs every program untraced and traced,
in alternating order, and prints per-layer metrics from the traced runs.
The last line of standard output is the result as one JSON object.  Spans
and a full record go to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
# the matrices are small; one BLAS thread keeps timings and the results
# of every factorization reproducible
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["chain", "mix", "flatreg"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
        "seed": seed,
    }


def run_one(cli, path: str):
    """One closed-loop request: (seconds, exit code or exception, stdout).

    ``cli.main`` is looked up on every call, so an installed tracer sees it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        try:
            code = cli.main(["run", path, "--json"])
        except Exception as exc:  # a crash is a failed program, not a failed benchmark
            code = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
    return t1 - t0, code, out.getvalue()


def judge(oracle, model, code, output):
    """(scaled error, None) for a correct output, else (None, reason)."""
    if code != 0:
        return None, f"exit {code}"
    try:
        return oracle.compare(model, output), None
    except oracle.Mismatch as exc:
        return None, str(exc)


def setup_time(speed, workdir: Path, path: str):
    """Median over fresh processes, scaled and raw, in seconds."""
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        before = speed.calibrate()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), path],
            cwd=workdir, capture_output=True, text=True, timeout=60, check=True,
        )
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if probe["rc"] != 0:
            raise RuntimeError(f"warm-up program exited {probe['rc']}: {done.stderr}")
        raw.append(probe["setup_s"])
        times.append(probe["setup_s"] * speed.factor(before, speed.calibrate()))
    return statistics.median(times), statistics.median(raw)


class Programs:
    """Generated programs written to ``workdir``, one round at a time."""

    def __init__(self, workloads, workload: str, seed: int, workdir: Path):
        self.render = workloads.render
        self.rounds = workloads.rounds(workload, seed)
        self.round_len = len(workloads.WORKLOADS[workload][1])
        self.workdir = workdir
        self.models, self.paths = [], []

    def get(self, i: int):
        while i >= len(self.models):
            for model in next(self.rounds):
                path = self.workdir / f"p{len(self.models)}.gx"
                path.write_text(self.render(model))
                self.models.append(model)
                self.paths.append(str(path))
        return self.models[i], self.paths[i]


def closed_loop(programs: Programs, seconds: float, step, speed):
    """Call ``step(i)`` for programs 0, 1, ... in whole rounds until
    ``seconds`` have passed.  Whole rounds give every run the same size
    distribution, so percentiles do not shift with the last partial round.
    Returns each program's speed factor (see :func:`speed.factors`)."""
    deadline = perf_counter() + seconds
    cal = [speed.calibrate()]
    i = 0
    while i == 0 or perf_counter() < deadline:
        for _ in range(programs.round_len):
            programs.get(i)
            gc.collect()
            step(i)
            cal.append(speed.calibrate())
            i += 1
    return speed.factors(cal)


def end_to_end(args, cli, oracle, layers, speed, programs, warm_path, problems):
    latencies, codes, outputs = [], [], []

    def step(i):
        t, code, out = run_one(cli, programs.get(i)[1])
        latencies.append(t)
        codes.append(code)
        outputs.append(out)

    factors = closed_loop(programs, args.seconds, step, speed)
    n = len(factors)
    scaled = [t * f for t, f in zip(latencies, factors)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = 0
    for i in range(n):
        reason = judge(oracle, programs.get(i)[0], codes[i], outputs[i])[1]
        if reason:
            failed += 1
            problems.append(f"program {i}: {reason}")

    # factorization counts come from an untimed traced pass over the first
    # round, whose outputs must match the untraced ones bit for bit
    tracer, counts = layers.Tracer(), []
    for i in list(range(programs.round_len)) + [0]:
        tracer.begin()
        tracer.install()
        try:
            _, _, out = run_one(cli, programs.get(i)[1])
        finally:
            tracer.uninstall()
        if out != outputs[i]:
            problems.append(f"program {i}: traced output differs from untraced")
        counts.append(sum(name.startswith("linalg.") for name, *_ in tracer.spans))
    if counts[-1] != counts[0]:
        problems.append(f"linalg count of program 0 changed: {counts[0]} then {counts[-1]}")
    counts.pop()

    setup_s, setup_raw_s = setup_time(speed, programs.workdir, warm_path)
    metrics = {
        "latency_ms.p50": (statistics.median(scaled) * 1e3, "ms"),
        "latency_ms.p90": (p90(scaled) * 1e3, "ms"),
        "programs_per_s": ((n - failed) / sum(scaled), "1/s"),
        "linalg_calls_per_program": (sum(counts) / len(counts), "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    raw = {"latency_ms.p50": statistics.median(latencies) * 1e3,
           "latency_ms.p90": p90(latencies) * 1e3,
           "programs_per_s": (n - failed) / sum(latencies),
           "setup_s": setup_raw_s,
           "speed_factor.median": statistics.median(factors),
           "programs": [[programs.get(i)[0].size, latencies[i], factors[i]] for i in range(n)]}
    return n, failed, metrics, raw


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def per_layer(args, cli, oracle, layers, speed, programs, problems, out_dir: Path):
    tracer = layers.Tracer()
    plain_s = traced_s = 0.0
    errors, kept, summaries = [], [], []
    failed = 0

    def step(i):
        nonlocal plain_s, traced_s, failed
        model, path = programs.get(i)
        runs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.begin()
                tracer.install()
            try:
                runs[traced] = run_one(cli, path)
            finally:
                if traced:
                    tracer.uninstall()
        plain_s += runs[False][0]
        traced_s += runs[True][0]
        if runs[True][2] != runs[False][2]:
            problems.append(f"program {i}: traced output differs from untraced")
        err, reason = judge(oracle, model, runs[False][1], runs[False][2])
        if reason:
            failed += 1
            problems.append(f"program {i}: {reason}")
        else:
            errors.append(err)
        summary = layers.summarize(tracer.spans)
        root_ms = summary["cli.main"][1]
        self_sum = sum(row[2] for name, row in summary.items())
        if abs(self_sum - root_ms) > 1e-6 * root_ms:
            problems.append(f"program {i}: self times sum to {self_sum} ms, root {root_ms} ms")
        summaries.append(summary)
        kept.append(tracer.spans)

    factors = closed_loop(programs, args.seconds, step, speed)
    n = len(factors)
    totals: dict = {}
    for summary, f in zip(summaries, factors):
        for name, (calls, ms, self_ms, extra) in summary.items():
            acc = totals.setdefault(name, [0, 0.0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += ms * f
            acc[2] += self_ms * f
            acc[3] += extra

    def total(name, k):
        return totals.get(name, [0, 0.0, 0.0, 0.0])[k]

    metrics = {}
    for name in layers.FUNCTIONS:
        metrics[f"{name}.calls"] = (total(name, 0) / n, "count")
        metrics[f"{name}.ms"] = (total(name, 1) / n, "ms")
        metrics[f"{name}.self_ms"] = (total(name, 2) / n, "ms")
    for kind in layers.LINALG:
        metrics[f"linalg.{kind}.calls"] = (total(f"linalg.{kind}", 0) / n, "count")
        metrics[f"linalg.{kind}.ms"] = (total(f"linalg.{kind}", 1) / n, "ms")
    metrics["linalg.flops_est"] = (
        sum(total(f"linalg.{kind}", 3) for kind in layers.LINALG) / n, "flop-computed")
    metrics["gauss.psd_normalize.clamp_frac"] = (
        total("gauss.psd_normalize.clamps", 0) / max(1, total("gauss.psd_normalize", 0)), "ratio")
    metrics["subspace.Subspace.annihilator.repeat_frac"] = (
        total("subspace.Subspace.annihilator", 3)
        / max(1, total("subspace.Subspace.annihilator", 0)), "ratio")
    metrics["dsl.oracle_max_err"] = (max(errors, default=0.0), "rel")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    metrics["bench.failed_frac"] = (failed / n, "ratio")

    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    with gzip.open(spans_path, "wt") as fh:
        for prog, spans in enumerate(kept):
            for idx, (name, parent, start, end, extra) in enumerate(spans):
                fh.write(json.dumps([prog, idx, parent, name, start, end, extra]) + "\n")
    return n, failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "extgauss" / "__init__.py").is_file():
        print(f"error: no extgauss sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import layers
    import oracle
    import speed
    import workloads
    from extgauss import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported extgauss from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    problems = [f"oracle: {p}" for p in oracle.self_check()]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        warm_path = workdir / "warmup.gx"
        warm_path.write_text(workloads.render(workloads.warmup(args.workload)))
        code = run_one(cli, str(warm_path))[1]
        if code != 0:
            print(f"error: warm-up program failed: {code}", file=sys.stderr)
            return 1
        programs = Programs(workloads, args.workload, args.seed, workdir)
        if args.trace:
            n, failed, metrics = per_layer(args, cli, oracle, layers, speed, programs,
                                           problems, ROOT / ".bench_out")
            raw = {}
        else:
            n, failed, metrics, raw = end_to_end(args, cli, oracle, layers, speed, programs,
                                                 str(warm_path), problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not problems,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "machine": machine(args.seed), "problems": problems, "result": result,
              "unscaled": raw}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"machine": record["machine"], "workload": args.workload,
                      "samples": n}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
