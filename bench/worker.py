"""One benchmark repetition in a fresh process.

Usage: python3 bench/worker.py ROOT JOB.json

Imports ``fracfield.cli`` from ROOT/src first and records the moment it
is ready, then calls ``fracfield.cli.main`` in-process for each
invocation of the job, one at a time.  Writes a JSON result to the
path the job names: the ready time, wall time of each call from
``main`` entry to return (the manifest is the last file ``main``
writes), CPU time of the process over the calls (every thread, BLAS
included), its peak resident memory and the exit codes.  A traced job
also installs the span recorder and adds its layer metrics and spans.
"""

import json
import os
import resource
import sys
import time
import traceback

import spans


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """High-water resident memory of this process, in MiB.

    Read from /proc, not ``ru_maxrss``: Linux carries the parent's peak
    at fork time across exec into ``ru_maxrss``.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(root: str, job_path: str) -> int:
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import fracfield.cli
    ready = time.monotonic()
    if not os.path.realpath(fracfield.cli.__file__).startswith(src + os.sep):
        print(f"bench worker: fracfield was imported from "
              f"{fracfield.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    recorder = None
    if job["trace"]:
        recorder = spans.Recorder()
        missing = recorder.install()
        if missing:
            print("bench worker: not traced, binding absent: "
                  + ", ".join(missing), file=sys.stderr)
    walls = []
    codes = []
    cpu0 = _cpu()
    for argv in job["calls"]:
        span = recorder.open(spans.ROOT_SPAN) if recorder else None
        t0 = time.perf_counter()
        try:
            code = fracfield.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        walls.append(time.perf_counter() - t0)
        if span is not None:
            recorder.close(span)
        codes.append(code)
    cpu = _cpu() - cpu0
    result = {"ready": ready, "walls": walls, "codes": codes, "cpu_s": cpu,
              "peak_rss_mb": _peak_rss_mb()}
    if recorder is not None:
        result["layers"] = spans.layer_metrics(recorder.spans)
        with open(job["spans"], "w", encoding="utf-8") as fh:
            json.dump(recorder.dump(), fh)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
