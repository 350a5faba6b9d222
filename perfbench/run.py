"""Benchmark of the cispectra command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or `all` of them in turn) in fresh single-threaded
Python processes and prints, as the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics.  Untraced runs report
the end-to-end metrics; traced runs the per-layer metrics.  The full record
of each run, with every request, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("analyze-immune", "large-table", "crosscheck", "search")
# Every process of one run must end within this many seconds.
RUN_LIMIT_S = 170.0


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) distribution over
    their ranks.  Request costs form steps, one per request class, and a
    single order statistic jumps across a step when noise reorders two
    neighbours; the weighted mean moves smoothly."""
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    t = np.linspace(0.0, 1.0, 20001)[1:-1]
    logpdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(logpdf - logpdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(t))])
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ xs)


def _spawn(args, env, deadline, setup_only: bool) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", OUT_DIR]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(started)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("CI_SPECTRA_MAX_N", None)
    deadline = time.monotonic() + RUN_LIMIT_S
    load_start = os.getloadavg()
    # setup_s is the median of three set-ups: the measured process's own and
    # set-up-only processes just before and after it.  The host's speed
    # drifts over seconds, so spreading them in time decorrelates them.
    setups = [] if args.trace else [_spawn(args, env, deadline, True)["setup_s"]]
    res = _spawn(args, env, deadline, False)
    setups.append(res["setup_s"])
    if not args.trace:
        setups.append(_spawn(args, env, deadline, True)["setup_s"])
    res["env"].update(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
                      loadavg_start=load_start, loadavg_end=os.getloadavg())
    res["setup_samples"] = setups
    requests = res["requests"]
    wall = [r["seconds"] for r in requests]
    # Traced runs report no end-to-end metrics; their summary shows wall times.
    ref = wall if args.trace else [r["ref_seconds"] for r in requests]
    search = [r for r in requests if r["subcommand"] == "search" and "found" in r]
    res["summary"] = {
        "setup_s": statistics.median(setups),
        "requests_per_s": len(ref) / sum(ref),
        "latency_p50_s": quantile(ref, 0.5),
        "latency_tail_s": quantile(ref, res["tail_percentile"] / 100),
        "peak_rss_mib": res["peak_rss_mib"],
        "failed_frac": res["failed"] / res["attempted"],
        "found_frac": sum(r["found"] for r in search) / len(search) if search else None,
        "wall_requests_per_s": len(wall) / res["loop_s"],
        "wall_latency_p50_s": quantile(wall, 0.5),
        "wall_latency_tail_s": quantile(wall, res["tail_percentile"] / 100),
    }
    return res


# ref_s: seconds scaled to the reference machine speed (see worker.py).
END_TO_END = {"setup_s": "s", "requests_per_s": "1/ref_s", "latency_p50_s": "ref_s",
              "latency_tail_s": "ref_s", "peak_rss_mib": "MiB"}


def per_layer_units(name: str) -> str:
    if name == "cli.requests":
        return "count"
    if name.startswith("trace."):
        return "ratio" if name == "trace.overhead" else "1/s"
    if name == "cli.search_s_per_eval":
        return "s/eval"
    if name == "cli.found_frac":
        return "fraction"
    if name == "cli.output_bytes":
        return "bytes/req"
    return "s/req" if name.endswith("_s") else "1/req"


def report(args, res: dict) -> dict:
    s = res["summary"]
    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_units(k)} for k, v in res["per_layer"].items()}
    else:
        metrics = {k: {"value": s[k], "unit": u} for k, u in END_TO_END.items()}
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(res, fh, indent=1)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {res['rounds']} round(s), "
          f"{len(res['requests'])} requests in {res['loop_s']:.2f} s, failed {res['failed']} of "
          f"{res['attempted']} (failed_frac {s['failed_frac']:.3f})"
          + (f", found_frac {s['found_frac']:.3f}" if s["found_frac"] is not None else ""))
    unit = "s" if args.trace else "ref_s"
    print(f"  setup_s {s['setup_s']:.4f} s (median of {len(res['setup_samples'])}), "
          f"requests_per_s {s['requests_per_s']:.3f} 1/{unit}, "
          f"latency_p50_s {s['latency_p50_s']:.4f} {unit}, "
          f"latency_tail_s {s['latency_tail_s']:.4f} {unit} (p{res['tail_percentile']} of "
          f"{len(res['requests'])}), peak_rss_mib {s['peak_rss_mib']:.1f} MiB")
    print(f"  wall clock: requests_per_s {s['wall_requests_per_s']:.3f} 1/s, latency_p50_s "
          f"{s['wall_latency_p50_s']:.4f} s, latency_tail_s {s['wall_latency_tail_s']:.4f} s")
    for r in res["requests"] + res.get("traced_requests", []):
        if r["outcome"] != "ok":
            print(f"  FAILED {r['class']}: {r['outcome']}")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cispectra CLI benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cispectra", "cli.py")):
        print(f"error: no cispectra sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            res = run_workload(one)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        lines.append(report(one, res))
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
