"""One workload process: set-up, the closed loop, output checks and, when
traced, a second pass over the same requests with every layer wrapped.

Started by run.py; prints one JSON object on stdout.  One client sends
each request to `cispectra.cli.main(argv)` in this process and waits for it
to return before sending the next.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import cispectra  # noqa: E402
from cispectra import cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# Per-request wall-clock cap.  The slowest request of any workload takes
# about 3 s on the program this benchmark was written against.
REQUEST_CAP_S = 20.0
# No new request starts after this long in one loop, so a run ends well
# inside its 180 s limit even on a much slower program.
LOOP_LIMIT_S = 100.0

# The host's speed drifts by a fifth or more over seconds (other tenants),
# so untraced runs time a fixed kernel between requests and scale every
# latency to a machine on which that kernel takes REFERENCE_KERNEL_S,
# about its median on the 2-vCPU machine the benchmark was tuned on.
REFERENCE_KERNEL_S = 0.007
CALIBRATE_EVERY_S = 0.25
CALIBRATE_WINDOW_S = 0.5


class RequestTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the CLI's handlers let it pass."""


def _alarm(signum, frame):
    raise RequestTimeout


@dataclass
class Record:
    req: workloads.Request
    rc: object
    stdout: str
    start: float
    seconds: float
    outcome: str | None = None
    info: dict | None = None
    ref_seconds: float | None = None


def execute(req: workloads.Request, paths: dict, cap: float = REQUEST_CAP_S) -> Record:
    """Run one request with stdout captured and a wall-clock cap."""
    argv = [paths[a[1:]] if a.startswith("@") else a for a in req.argv]
    out, err = io.StringIO(), io.StringIO()
    rc, outcome = None, None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except RequestTimeout:
        outcome = "timeout"
    except SystemExit as e:
        rc = e.code
    except Exception as e:  # a crash is a failed request, not the end of the run
        outcome = f"raised {type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    if outcome is None and rc not in (0, 4):
        outcome = f"exit {rc}: {err.getvalue().strip()[:200]}"
    return Record(req, rc, out.getvalue(), t0, seconds, outcome)


def calibrate() -> float:
    """Wall time of a fixed kernel in the style of the program's inner loops
    (byte-row counting, tuple building, a small FFT)."""
    t0 = time.perf_counter()
    row = bytes(range(16)) * 256
    for _ in range(8):
        cm = [0] * 256
        for w, v in zip(row, row[::-1]):
            cm[w * 16 + v] += 1
        tuple(int(v) for v in row)
    np.fft.fft(np.arange(4096) % 7)
    return time.perf_counter() - t0


def closed_loop(wl: workloads.Workload, paths: dict, seconds: float, max_rounds: int | None = None,
                calibration: list | None = None):
    """Run whole rounds; start another only if it should end within
    `seconds`, judged by the length of the last one.  With `calibration`
    given, time the calibration kernel before a request whenever
    CALIBRATE_EVERY_S has passed, appending (perf_counter at start,
    duration) pairs.
    Returns (records, loop wall time, rounds)."""
    records: list[Record] = []
    t0 = time.monotonic()
    done = 0
    last_cal = -math.inf
    while True:
        r0 = time.monotonic()
        for req in wl.rounds[done % len(wl.rounds)]:
            if time.monotonic() - t0 > LOOP_LIMIT_S:
                break
            if calibration is not None and time.perf_counter() - last_cal > CALIBRATE_EVERY_S:
                last_cal = time.perf_counter()
                calibration.append((last_cal, calibrate()))
            records.append(execute(req, paths))
        done += 1
        now = time.monotonic()
        if (max_rounds is not None and done >= max_rounds) or (now - t0) + (now - r0) > seconds \
                or now - t0 > LOOP_LIMIT_S:
            return records, now - t0, done


def scale_to_reference(records: list[Record], calibration: list[tuple[float, float]]):
    """Set each record's ref_seconds: its wall time times REFERENCE_KERNEL_S
    over the median kernel time measured within CALIBRATE_WINDOW_S of the
    request (the nearest sample when none falls inside)."""
    for rec in records:
        lo, hi = rec.start - CALIBRATE_WINDOW_S, rec.start + rec.seconds + CALIBRATE_WINDOW_S
        near = [d for t, d in calibration if lo <= t <= hi]
        if not near:
            near = [min(calibration, key=lambda c: abs(c[0] - rec.start))[1]]
        rec.ref_seconds = rec.seconds * REFERENCE_KERNEL_S / statistics.median(near)


def check_records(records: list[Record], tables: dict):
    for rec in records:
        if rec.outcome is not None:
            continue
        try:
            rec.info = workloads.check(rec.req, rec.rc, rec.stdout, tables)
            rec.outcome = "ok"
        except workloads.CheckFailed as e:
            rec.outcome = f"wrong: {e}"


def describe(rec: Record) -> dict:
    row = {"class": rec.req.cls, "subcommand": rec.req.subcommand, "p": rec.req.p, "n": rec.req.n,
           "start": rec.start, "seconds": rec.seconds, "ref_seconds": rec.ref_seconds, "outcome": rec.outcome}
    if rec.info:
        row.update(rec.info)
    return row


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cispectra": cispectra.__version__,
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def traced_pass(paths: dict, untraced: list[Record], spans_path: str):
    """Replay the untraced requests with every layer wrapped.  Returns the
    traced records, the pass's wall time and the per-layer metrics."""
    tracer = tracing.Tracer().install()
    records = []
    t0 = time.monotonic()
    try:
        for i, rec in enumerate(untraced):
            tracer.request = i
            records.append(execute(rec.req, paths))
    finally:
        wall = time.monotonic() - t0
        tracer.uninstall()
    tracer.save(spans_path)
    return records, wall, tracing.layer_metrics(tracer, len(records))


def cli_metrics(untraced: list[Record], untraced_wall: float, traced_wall: float) -> dict:
    n = len(untraced)
    search = [r for r in untraced if r.info]  # only search checks return facts
    evals = sum(r.info["evaluations"] for r in search)
    return {
        "cli.requests": n,
        "cli.output_bytes": sum(len(r.stdout.encode()) for r in untraced) / n,
        "cli.search_evals": evals / n,
        "cli.search_s_per_eval": sum(r.seconds for r in search) / evals if evals else 0.0,
        "cli.found_frac": sum(r.info["found"] for r in search) / len(search) if search else 0.0,
        "trace.untraced_requests_per_s": n / untraced_wall,
        "trace.traced_requests_per_s": n / traced_wall,
        "trace.overhead": traced_wall / untraced_wall,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    wl = workloads.generate(args.workload, args.seed)
    table_dir = tempfile.mkdtemp(prefix="tables-", dir=args.out_dir)
    try:
        ctx = workloads.setup(wl, table_dir)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        t0 = time.monotonic()
        workloads.bookkeeping(wl, ctx)
        bookkeeping_s = time.monotonic() - t0
        signal.signal(signal.SIGALRM, _alarm)

        result = {"setup_s": setup_s, "bookkeeping_s": bookkeeping_s, "env": environment(),
                  "tail_percentile": wl.tail_percentile}
        if not args.trace:
            calibration = []
            records, wall, rounds = closed_loop(wl, ctx["paths"], args.seconds, calibration=calibration)
            scale_to_reference(records, calibration)
            result["calibration"] = calibration
            check_records(records, ctx["expect"])
            result.update(loop_s=wall, rounds=rounds, attempted=len(records),
                          failed=sum(r.outcome != "ok" for r in records))
        else:
            records, wall, rounds = closed_loop(wl, ctx["paths"], args.seconds, max_rounds=1)
            spans = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.npz")
            traced, traced_wall, per_layer = traced_pass(ctx["paths"], records, spans)
            check_records(records, ctx["expect"])
            check_records(traced, ctx["expect"])
            for a, b in zip(records, traced):
                if b.outcome == "ok" and a.stdout != b.stdout:
                    b.outcome = "wrong: traced stdout differs from untraced"
            per_layer.update(cli_metrics(records, wall, traced_wall))
            result.update(loop_s=wall, rounds=rounds, attempted=len(records) + len(traced),
                          failed=sum(r.outcome != "ok" for r in records + traced),
                          traced_loop_s=traced_wall, per_layer=per_layer, spans_file=spans,
                          traced_requests=[describe(r) for r in traced])
        result["requests"] = [describe(r) for r in records]
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(table_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
