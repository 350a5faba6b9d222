"""Tests of the benchmark itself: generators, closed-form orders, checkers,
the per-request cap and the tracer.

    python3 -m pytest perfbench/tests
"""

import itertools
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import cispectra  # noqa: E402
from cispectra import (  # noqa: E402
    VariableTuple,
    parse_polynomial,
    random_function,
    reference,
    spectral,
    write_table,
)

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _plain(wl):
    return [[(r.cls, r.argv, r.expect) for r in rnd] for rnd in wl.rounds], wl.tables


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_repeats_per_seed(name):
    assert _plain(workloads.generate(name, 7)) == _plain(workloads.generate(name, 7))
    assert _plain(workloads.generate(name, 7)) != _plain(workloads.generate(name, 8))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_round_has_the_same_classes(name):
    wl = workloads.generate(name, 3)
    classes = [sorted(r.cls for r in rnd) for rnd in wl.rounds]
    assert all(c == classes[0] for c in classes)
    assert len(classes[0]) * (100 - wl.tail_percentile) / 100 >= 10


def _symmetric(f):
    arr = np.asarray(f.table).reshape((f.p,) * f.n)
    return all(np.array_equal(arr, arr.swapaxes(i, i + 1)) for i in range(f.n - 1))


SMALL = ((2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 5), (5, 3), (7, 2))


@pytest.mark.parametrize("p,n", SMALL)
def test_immune_orders_hold_against_consensus(p, n):
    rng = random.Random(f"{p}-{n}")
    for fam in workloads.immune_families(p, n):
        for _ in range(2):
            text, expect, _ = workloads.immune_function(rng, p, n, fam)
            f = parse_polynomial(text, p, n)
            counts = np.bincount(np.asarray(f.table), minlength=p)
            assert (counts == counts[0]).all() == expect["balanced"]
            assert _symmetric(f) == expect["symmetric"], text
            for m in range(1, n + 1):
                rep = reference.consensus(f, m)
                assert rep.consensus, (text, m)
                assert set(rep.verdicts.values()) == {m <= expect["ci_order"]}, (text, m)
            # balanced and m-CI is m-resilient, so the orders coincide
            assert expect["resiliency_order"] == expect["ci_order"]


def test_exact_expectation_matches_library():
    for p, n, m in ((2, 5, 2), (3, 4, 1), (3, 4, 2), (5, 3, 2)):
        for seed in range(4):
            f = random_function(p, n, seed)
            vals = np.asarray(f.table, dtype=np.int64)
            for tup in itertools.islice(itertools.permutations(range(1, n + 1), m), 5):
                orbit = spectral.exact_spectrum_conjugates(f, m, tup)
                want = workloads.exact_expectation(vals, p, n, m, tup)
                assert want["zero"] == orbit[0].is_zero()
                assert want["orbit_zero"] == all(v.is_zero() for v in orbit)
                assert abs(want["value"] - orbit[0].to_complex()) < 1e-6 * p**n


def test_witness_ranks_count_the_scan():
    for n, m in ((4, 2), (5, 3), (4, 4)):
        f = SimpleNamespace(n=n)
        for i, t in enumerate(itertools.permutations(range(1, n + 1), m)):
            assert tracing._tuples_scanned((f, m), VariableTuple(t)) == i + 1
        assert tracing._tuples_scanned((f, m), None) == math.perm(n, m)
        for i, s in enumerate(itertools.combinations(range(1, n + 1), m)):
            assert tracing._subsets_scanned((f, m), (s, (), ())) == i + 1
        assert tracing._subsets_scanned((f, m), None) == math.comb(n, m)


def _small_requests(tmp_path):
    """A cheap mix of every subcommand, on a table file under tmp_path."""
    table = tmp_path / "t.txt"
    table.write_text(write_table(random_function(3, 4, 5)))
    spec = workloads.TableSpec("t", 3, 4, False, 5)
    wl = workloads.Workload([[]], [spec])
    ctx = {"paths": {"t": str(table)}, "tables": {"t": workloads.build_table(spec)}}
    workloads.bookkeeping(wl, ctx)
    rng = random.Random(1)
    text, expect, _ = workloads.immune_function(rng, 3, 4, "quad1")
    reqs = [
        workloads.Request("a", workloads._poly_argv(["analyze", "--json"], text, 3, 4), 3, 4, expect),
        workloads.Request("r", workloads._poly_argv(["analyze", "--json", "--reports"], text, 3, 4), 3, 4,
                          expect),
        workloads.Request("t", ["analyze", "--json", "@t"], 3, 4, {"table": "t"}),
        workloads.Request("f", ["spectrum", "--full", "@t"], 3, 4, {"table": "t"}),
        workloads.Request("e", ["spectrum", "--json", "--exact-at", "2", "--tuple", "2,1", "@t"], 3, 4,
                          {"table": "t", "m": 2, "tuples": [(2, 1)]}),
        workloads.Request("c", ["crosscheck", "--json", "--random", "20", "--seed", "3", "--p", "2",
                                "--n", "4", "--m", "1"], 2, 4, {"checked": 20, "seed": 3}),
        workloads.Request("s", ["search", "--json", "--seed", "2", "--budget", "200", "--p", "2", "--n",
                                "4", "--target-ci", "1", "--resilient"], 2, 4,
                          {"seed": 2, "target": 1, "resilient": True, "budget": 200}),
    ]
    return reqs, ctx


def test_traced_stdout_is_identical_and_layers_are_reported(tmp_path):
    reqs, ctx = _small_requests(tmp_path)
    plain = [worker.execute(r, ctx["paths"]) for r in reqs]
    original_main, original_init = cispectra.cli.main, cispectra.PFunction.__init__
    tracer = tracing.Tracer().install()
    try:
        assert cispectra.cli.main is not original_main
        assert cispectra.spectral.is_symmetric is cispectra.ptable.is_symmetric
        traced = []
        for i, r in enumerate(reqs):
            tracer.request = i
            traced.append(worker.execute(r, ctx["paths"]))
    finally:
        tracer.uninstall()
    assert cispectra.cli.main is original_main
    assert cispectra.PFunction.__init__ is original_init
    for a, b in zip(plain, traced):
        assert a.stdout == b.stdout and a.rc == b.rc
    worker.check_records(plain, ctx["expect"])
    assert [r.outcome for r in plain] == ["ok"] * len(reqs)

    metrics = tracing.layer_metrics(tracer, len(reqs))
    for name in ("ptable.parse_s", "ptable.build_s", "spectral.tuple_scan_s", "spectral.dft_s",
                 "spectral.exact_conjugates_s", "reference.consensus_s", "reference.definition_s",
                 "reference.spectral_method_s", "cyclotomic.reduce_s", "cli.self_s"):
        assert metrics[name] > 0, name
    assert metrics["reference.consensus_calls"] == (4 + 20) / len(reqs)  # 4 reports, 20 crosschecked
    assert metrics["spectral.transform_entries"] == 2 * 81 / len(reqs)
    roots = np.array(tracer.parent) < 0
    assert roots.sum() == len(reqs)
    assert set(np.array(tracer.req)) == set(range(len(reqs)))


def test_checker_rejects_wrong_output(tmp_path):
    reqs, ctx = _small_requests(tmp_path)
    rec = worker.execute(reqs[0], ctx["paths"])
    assert workloads.check(rec.req, rec.rc, rec.stdout, ctx["expect"]) == {}
    wrong = rec.stdout.replace('"ci_order": 1', '"ci_order": 2')
    assert wrong != rec.stdout
    with pytest.raises(workloads.CheckFailed):
        workloads.check(rec.req, rec.rc, wrong, ctx["expect"])
    with pytest.raises(workloads.CheckFailed):
        workloads.check(rec.req, rec.rc, rec.stdout[:-5], ctx["expect"])


def test_request_over_the_cap_is_a_timeout():
    rng = random.Random(0)
    text, expect, _ = workloads.immune_function(rng, 2, 8, "quad1")
    req = workloads.Request("slow", workloads._poly_argv(["analyze", "--json"], text, 2, 8), 2, 8, expect)
    previous = signal.signal(signal.SIGALRM, worker._alarm)
    try:
        rec = worker.execute(req, {}, cap=0.05)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert rec.outcome == "timeout"
    assert 0.05 <= rec.seconds < 1.0


def test_run_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(os.path.join(BENCH, "run.py"), tmp_path / "perfbench" / "run.py")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_what_run_reports(tmp_path):
    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    reqs, ctx = _small_requests(tmp_path)
    tracer = tracing.Tracer().install()
    try:
        recs = [worker.execute(r, ctx["paths"]) for r in reqs]
    finally:
        tracer.uninstall()
    worker.check_records(recs, ctx["expect"])
    names = {**tracing.layer_metrics(tracer, len(recs)), **worker.cli_metrics(recs, 1.0, 2.0)}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: run.per_layer_units(k) for k in names}


def test_scale_to_reference_uses_nearby_kernel_times():
    req = workloads.Request("x", ["analyze"], 2, 3)
    recs = [worker.Record(req, 0, "", start=10.0, seconds=0.2),
            worker.Record(req, 0, "", start=50.0, seconds=0.1)]
    calibration = [(9.8, 0.014), (10.1, 0.010), (10.3, 0.014), (12.0, 0.001), (40.0, 0.0035)]
    worker.scale_to_reference(recs, calibration)
    assert recs[0].ref_seconds == pytest.approx(0.2 * worker.REFERENCE_KERNEL_S / 0.014)
    assert recs[1].ref_seconds == pytest.approx(0.1 * worker.REFERENCE_KERNEL_S / 0.0035)


def test_quantile_is_harrell_davis():
    import run

    assert run.quantile([3.0], 0.9) == pytest.approx(3.0)
    xs = [float(v) for v in range(1, 12)]
    assert run.quantile(xs, 0.5) == pytest.approx(6.0, abs=1e-6)  # symmetric weights
    rng = random.Random(4)
    big = [rng.random() for _ in range(2001)]
    assert run.quantile(big, 0.5) == pytest.approx(sorted(big)[1000], abs=0.01)
    assert run.quantile(big, 0.9) == pytest.approx(sorted(big)[1800], abs=0.01)
    assert run.quantile(xs, 0.9) < run.quantile(xs, 0.95) < max(xs)
