#!/usr/bin/env python3
"""Benchmark of the a2glos command line, run in-process through a2glos.cli.main.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. One pass runs every command of the workload once. A run:

1. sets up three times: a fresh import of the package, the scenario table,
   and one untimed warm-up pass (``setup_s`` is the median). After each
   set-up it runs timed passes until a third more of ``--seconds`` has been
   timed, at least one (``wall_s`` and ``cpu_s`` are the wall and CPU time
   of all timed passes over their number, ``peak_rss_mb`` the process peak
   after them). Slices of ``hostspeed``'s reference loop follow every
   set-up and every timed pass, and the three times are scaled by them to
   the reference host speed;
2. with ``--trace 1``, runs one more pass with every layer boundary wrapped,
   reports the per-layer metrics instead and writes the spans to
   ``perfbench/out/trace-<workload>.json``;
3. checks the outputs: the first pass against the benchmark's own results,
   every other pass byte for byte against the first.

The program runs on one thread: one worker (``A2G_LOS_THREADS=1``) and one
BLAS thread. On a host with few cores, a pass that spreads over every core
is timed as much by what else runs there as by itself.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUPS = 3
# Set before numpy is first imported, which reads the BLAS variables once.
THREAD_ENV = {"A2G_LOS_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _fresh_package():
    """Import a2glos anew, so that nothing a previous set-up filled is kept."""
    for name in [m for m in sys.modules if m == "a2glos" or m.startswith("a2glos.")]:
        del sys.modules[name]
    importlib.import_module("a2glos.cli")
    package = sys.modules["a2glos"]
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"a2glos was imported from {package.__file__}, not {SRC}")
    package.environment.load_scenarios()
    return package


def _run_pass(main, commands, files):
    """Run every command once; return (outputs, failed, error messages)."""
    outputs, failed, errors = [], 0, []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code != 0:
            failed += 1
            errors.append(f"exit {code}: a2glos {' '.join(argv)}: {err.getvalue().strip()}")
        outputs.append(out.getvalue())
    return outputs, failed, errors


def _read(files):
    return [path.read_text() if path.exists() else "" for path in files]


def _digest(outputs):
    h = hashlib.sha256()
    for text in outputs:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def machine() -> dict:
    """CPUs, versions and the thread settings the run had."""
    import ctypes
    import platform

    import numpy

    processor = platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        processor = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                          if line.startswith("model name")), processor)
    blas_threads = None
    maps = Path("/proc/self/maps")
    libs = {line.split()[-1] for line in maps.read_text().splitlines()
            if "openblas" in line} if maps.exists() else set()
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(ctypes.CDLL(lib), symbol, None)
            if getter is not None:
                blas_threads = getter()
                break
    return {
        "cpus": os.cpu_count(),
        "processor": processor,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "A2G_LOS_THREADS": os.environ.get("A2G_LOS_THREADS", "unset"),
        "blas_threads": blas_threads,
    }


def measure(workload, seconds: float, trace: bool) -> dict:
    commands, files = workload.commands(), workload.files()
    attempted = failed = 0
    errors: list[str] = []
    digests: list[str] = []
    first = None

    def tally(outputs, n_failed, messages):
        nonlocal attempted, failed, first
        attempted += len(commands)
        failed += n_failed
        errors.extend(messages)
        outputs = outputs + _read(files)
        digests.append(_digest(outputs))
        if first is None:
            first = outputs

    # Set-ups and timed passes alternate, so that the timed passes are
    # spread over the whole run, and slices of the reference loop follow
    # each of them; see hostspeed.
    setups, walls, cpus, slices = [], [], [], []
    for round_ in range(1, SETUPS + 1):
        t0 = time.perf_counter()
        package = _fresh_package()
        result = _run_pass(package.cli.main, commands, files)
        setups.append(time.perf_counter() - t0)
        tally(*result)
        slices += hostspeed.time_slices(setups[-1])
        timed_until = seconds * round_ / SETUPS
        while True:
            c0, t0 = time.process_time(), time.perf_counter()
            result = _run_pass(package.cli.main, commands, files)
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            tally(*result)
            slices += hostspeed.time_slices(walls[-1])
            if sum(walls) >= timed_until:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Means, not medians: they take in every timed second of the run, as
    # the mean slice does.
    scale = hostspeed.REFERENCE_SLICE_S / statistics.fmean(slices)
    metrics = {
        "wall_s": (statistics.fmean(walls) * scale, "s"),
        "cpu_s": (statistics.fmean(cpus) * scale, "s"),
        "setup_s": (statistics.median(setups) * scale, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if trace:
        from tracing import Tracer

        tracer = Tracer(package)
        tracer.install()
        try:
            main = tracer.wrap("cli.main", package.cli.main)
            t0 = time.perf_counter()
            result = _run_pass(main, commands, files)
            traced = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        tally(*result)
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (traced - statistics.fmean(walls), "s")
        tracer.write(OUT / f"trace-{workload.name}.json", {
            "workload": workload.name, "seed": workload.seed, "machine": machine(),
            "commands": commands, "setup_s": setups, "untraced_pass_s": walls,
            "untraced_pass_cpu_s": cpus, "traced_pass_s": traced,
            "reference_slice_s": slices, "scale": scale,
            "metrics": {k: v for k, (v, _) in metrics.items()},
        })

    try:
        problems = workload.check(first, package)
    except Exception as exc:  # malformed output: report it, do not crash
        problems = [f"output check raised {exc!r}"]
    problems += [f"pass {i} output differs from the first pass"
                 for i, d in enumerate(digests) if d != digests[0]]
    for line in (errors + problems)[:20]:
        print(line, file=sys.stderr)
    print("setups_s " + " ".join(f"{t:.3f}" for t in setups), file=sys.stderr)
    print("passes_wall_s " + " ".join(f"{t:.3f}" for t in walls), file=sys.stderr)
    print("passes_cpu_s " + " ".join(f"{t:.3f}" for t in cpus), file=sys.stderr)
    print("slices_s " + " ".join(f"{t:.3f}" for t in slices), file=sys.stderr)
    print(f"scale {scale:.4f}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "a2glos" / "cli.py").is_file():
        print(f"error: no a2glos sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    work = OUT / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(WORKLOADS[args.workload](args.seed % 2**32, work),
                         args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
