"""fracfield benchmark: CLI workloads, end-to-end and per-layer metrics.

Run one workload, or every workload of BENCHMARK.json in turn (from the
repository root):

    python3 bench/run.py --workload sim_wave --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

Compare two sets of run records (see bench/README.md):

    python3 bench/run.py --compare PARENT_DIR CHANGE_DIR

A run repeats the workload's set of CLI invocations in fresh worker
processes, one at a time (a closed loop with a single client), until
``--seconds`` is spent, and reports medians over the repetitions.  With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates traced and untraced repetitions and prints
the per-layer metrics, including the tracing overhead.  The last line of
standard output is one JSON object; the run record, with the machine,
every repetition and every check, goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import checks
import compare
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

# Fewest repetitions per run, whatever --seconds says: medians need three
# untraced ones; a traced run needs one traced and one untraced.
MIN_REPS = {False: 3, True: 2}
WORKER_TIMEOUT_S = 150.0


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it is one."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
            "cpu_model": cpu}


def run_worker(calls: list, traced: bool, rep_dir: Path):
    """Run one repetition in a fresh process; None when the process failed."""
    rep_dir.mkdir(parents=True)
    job = {"calls": [list(c.argv) + ["--out", str(rep_dir / c.out)]
                     for c in calls],
           "trace": traced, "result": str(rep_dir / "result.json"),
           "spans": str(rep_dir / "spans.json")}
    job_path = rep_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(ROOT), str(job_path)],
        cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        return None
    res = json.loads((rep_dir / "result.json").read_text())
    res["setup_s"] = res.pop("ready") - started
    res["wall_s"] = sum(res["walls"])
    res["traced"] = traced
    return res


def run(workload: str, seed: int, seconds: float, trace: bool,
        results: Path) -> int:
    if not (ROOT / "src" / "fracfield" / "__init__.py").is_file():
        print(f"bench: no fracfield package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(workload, seed, seconds, trace, results, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, results, spec, work) -> int:
    calls = workloads.write_set(workload, seed, work / "config")
    # The warm-up fills the bytecode and file caches, which users do not
    # pay on every invocation, and fails fast if the package is broken.
    if run_worker([], False, work / "warmup") is None:
        print("bench: the worker could not import fracfield.cli",
              file=sys.stderr)
        return 2
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_dir = results / workload
    record_dir.mkdir(parents=True, exist_ok=True)
    reps = []
    outcome = []  # (name, ok, detail) per invocation and per check
    outputs = [[] for _ in calls]
    started = time.monotonic()
    longest = 0.0
    while (len(reps) < MIN_REPS[trace]
           or time.monotonic() - started + longest <= seconds):
        index = len(reps)
        traced = trace and index % 2 == 0
        rep_dir = work / f"rep{index}"
        t0 = time.monotonic()
        res = run_worker(calls, traced, rep_dir)
        longest = max(longest, time.monotonic() - t0)
        reps.append(res)
        codes = res["codes"] if res else [None] * len(calls)
        for k, (call, code) in enumerate(zip(calls, codes)):
            outcome.append((f"rep{index}:{call.out}:exit", code == 0,
                            f"exit code {code}"))
            if code != 0:
                continue
            ok, digests, bad = checks.manifest_outputs(rep_dir / call.out)
            outcome.append((f"rep{index}:{call.out}:digests", ok,
                            f"mismatch {bad}"))
            outputs[k].append(digests)
        if traced and res:
            shutil.copy(rep_dir / "spans.json",
                        record_dir / f"{stamp}-seed{seed}-rep{index}"
                                     f".spans.json")
        if index > 0:
            shutil.rmtree(rep_dir)

    for call, seen in zip(calls, outputs):
        if len(seen) > 1:
            same = all(d == seen[0] for d in seen)
            outcome.append((f"{call.out}:repeatable", same,
                            "" if same else "output digests differ "
                                            "between repetitions"))
    ungated = []
    first = work / "rep0"
    if reps[0] and all(code == 0 for code in reps[0]["codes"]):
        try:
            if workload in workloads.SIMULATIONS:
                outcome += checks.simulation_checks(
                    workload, first / calls[0].out, seed)
            elif workload == "regularity":
                gated, ungated = checks.regularity_checks(calls, first)
                outcome += gated
        except Exception as exc:  # a malformed output fails its checks
            outcome.append(("property_checks", False, repr(exc)))
    else:
        outcome.append(("property_checks", False,
                        "first repetition failed, outputs not checked"))

    done = [r for r in reps if r]
    if not done:
        print("bench: every repetition failed", file=sys.stderr)
        return 1
    if trace:
        traced = [r for r in done if r["traced"]]
        plain = [r for r in done if not r["traced"]]
        if not traced or not plain:
            print("bench: no traced or no untraced repetition completed",
                  file=sys.stderr)
            return 1
        values = {name: median([r["layers"][name] for r in traced])
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = (median([r["wall_s"] for r in traced])
                                      - median([r["wall_s"] for r in plain]))
        declared = spec["per_layer"]
    else:
        values = {name: median([r[name] for r in done])
                  for name in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")}
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    failed = sum(1 for _, ok, _ in outcome if not ok)
    attempted = len(outcome)
    host = machine()
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "seconds": seconds, "machine": host,
              "invocations": [list(c.argv) for c in calls],
              "reps": [{k: v for k, v in r.items() if k != "walls"}
                       if r else None for r in reps],
              # Per-repetition exit and digest checks only when they fail.
              "checks": [c for c in outcome
                         if not c[1] or not c[0].startswith("rep")],
              "ungated": ungated,
              "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "metrics": metrics}
    path = record_dir / f"{stamp}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload}  seed {seed}  repetitions {len(reps)} "
          f"({sum(1 for r in done if r['traced'])} traced)")
    print("machine " + "  ".join(f"{k} {v}" for k, v in host.items()))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':34s} {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    for name, ok, detail in outcome:
        if not ok:
            print(f"  FAILED {name}: {detail}")
    if ungated:
        dev, where = max(ungated)
        print(f"  ungated Hölder slopes: largest deviation {dev:.3g} "
              f"at {where}")
    print(f"record {path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",),
                        help="'all' runs every workload of BENCHMARK.json "
                             "in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=RESULTS,
                        help="directory for run records "
                             "(default: .bench_results)")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("PARENT", "CHANGE"),
                        help="compare two directories of run records")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare, SPEC, BENCH / "predictions.json")
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    names = [args.workload]
    if args.workload == "all":
        names = [w["name"] for w in
                 json.loads(SPEC.read_text(encoding="utf-8"))["workloads"]]
    return max(run(name, args.seed, args.seconds, bool(args.trace),
                   args.results.resolve()) for name in names)


if __name__ == "__main__":
    sys.exit(main())
