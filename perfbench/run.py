"""Benchmark of the uttertune desk pipeline: train, eval and distance.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

Each run is one process that runs one workload (see workloads.py):

1. set-up: ``setup_s`` is the median of five imports of the program, each
   in a fresh interpreter, plus the median of five preparations of the
   workload's inputs, each after a full garbage collection;
2. an untimed warm-up, so lazy set-up inside numpy and the program is done;
3. operations one after another until ``--seconds`` have passed (at least
   one); ``items_per_s`` is the median over operations of items / busy
   seconds, and every operation's outputs are checked.

With ``--trace 1`` the same passes run untraced, then once more with spans
around each layer; the run then prints the per-layer metrics of the traced
pass and the tracing overhead (traced minus untraced end-to-end numbers),
and writes every span with its self time to
``.perfbench_work/results/<workload>-seed<n>-trace1.spans.tsv``.

The metric names and units come from ``BENCHMARK.json``. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Without the program's source
under ``src/`` the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
# Run as ``python -c IMPORT_PROBE <src dir> <perfbench dir>``: prints the
# seconds that importing the program (through workloads.py) takes, numpy
# already loaded.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import numpy\n"
    "started = time.perf_counter()\n"
    "import workloads\n"
    "print(time.perf_counter() - started)\n"
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "eval", "distance"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    """What the numbers depend on besides the code."""
    import numpy as np
    import uttertune.kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "UTTERTUNE_THREADS", "UTTERTUNE_BACKEND")},
        "kernels_backend": uttertune.kernels.active_backend(),
        "numba_imports": numba_imports,
    }


def import_seconds() -> float:
    """Median time to import the program, each time in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(probe.stdout))
    return statistics.median(samples)


def run_pass(workload, tracer, seconds: float, setup_repeats: int,
             warm_up: bool) -> dict:
    """Set-up, warm-up, then operations until ``seconds`` have passed."""
    setup = []
    for _ in range(setup_repeats):
        gc.collect()
        started = time.perf_counter()
        workload.prepare(tracer)
        setup.append(time.perf_counter() - started)
    if warm_up:
        workload.warm_up()
    rates = []
    ops = 0
    started = time.perf_counter()
    while ops == 0 or time.perf_counter() - started < seconds:
        try:
            items, busy = workload.operate(ops, tracer)
            rates.append(items / busy)
        except Exception as exc:  # an operation that raises has failed
            workload.tally.record([f"operation {ops}: "
                                   f"{type(exc).__name__}: {exc}"])
        ops += 1
    return {
        "setup_s": setup,
        "rates": rates,
        "ops": ops,
        "items_per_s": statistics.median(rates) if rates else 0.0,
    }


def _metrics(declared: list, values: dict) -> dict:
    """Every declared metric, in order; 0 for a layer this run never used."""
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                        "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "uttertune" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    sys.path.insert(0, str(ROOT / "src"))

    import_s = import_seconds()
    import workloads
    from tracing import NullTracer, Tracer

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    results = WORK_ROOT / "results"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    recorded = json.loads(
        (workloads.FIXTURE_DIR / "recorded.json").read_text("utf-8"))
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, workdir, recorded)
        plain = run_pass(workload, NullTracer(), args.seconds,
                         SETUP_REPEATS, warm_up=True)
        end_to_end = {
            "setup_s": import_s + statistics.median(plain["setup_s"]),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "items_per_s": plain["items_per_s"],
        }
        record = {"untraced": plain}
        if args.trace:
            tracer = Tracer(stem)
            not_traced = workload.patch(tracer)
            try:
                traced = run_pass(workload, tracer, args.seconds, 1,
                                  warm_up=False)
            finally:
                tracer.restore()
            layers = workload.layer_metrics(tracer, traced["ops"])
            layers["trace.delta.items_per_s"] = (
                traced["items_per_s"] - plain["items_per_s"])
            layers["trace.delta.setup_s"] = (
                traced["setup_s"][0] - statistics.median(plain["setup_s"]))
            tracer.write_spans(results / f"{stem}.spans.tsv")
            record["traced"] = traced
            for name in not_traced:
                workload.tally.record([f"cannot trace {name}: not found"])
            metrics = _metrics(spec["per_layer"], layers)
        else:
            metrics = _metrics(spec["end_to_end"], end_to_end)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = workload.tally
    env = environment()
    record.update(env=env, end_to_end=end_to_end, metrics=metrics,
                  info=tally.info, failures=tally.failures)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1),
                                          "utf-8")
    print("env " + json.dumps(env))
    for line in tally.info:
        print("info " + line)
    for line in tally.failures:
        print("FAIL " + line)
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
