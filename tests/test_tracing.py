"""The benchmark's tracer against the current package.

perfbench/tracing.py reads cispectra's public names and the methods it wraps
by string; renaming or deleting one of them crashes every traced benchmark
run.  These tests run the tracer over a request with consensus reports,
over one on a symmetric table and over a crosscheck family.
"""

import importlib.util
from pathlib import Path

from cispectra import cli

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(capsys, argv):
    """Run argv untraced, then traced; return the traced run's metrics after
    checking that both printed the same."""
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    tracing = _load_tracing()
    tracer = tracing.Tracer().install()
    try:
        tracer.request = 0
        assert cli.main(argv) == 0
        metrics = tracing.layer_metrics(tracer, 1)
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == plain
    return tracing, metrics


def test_tracer_reads_every_layer_name(capsys):
    argv = ["analyze", "--json", "--reports", "--poly", "x1*x2 + x3", "--p", "3", "--n", "3"]
    tracing, metrics = _traced(capsys, argv)
    assert metrics["reference.consensus_calls"] == 3
    # consensus looks each oracle up when it runs, so every method's span is seen
    for name in tracing.METHOD_ENTRIES.values():
        assert metrics[name] > 0, name
    assert metrics["reference.spectral_method_s"] > 0


def test_tracer_sees_the_symmetric_verdict(capsys):
    # analyze answers a symmetric table through the public ci_order_symmetric
    argv = ["analyze", "--json", "--poly", "x1 + x2 + x3 + x4", "--p", "2", "--n", "4"]
    _, metrics = _traced(capsys, argv)
    assert metrics["spectral.ci_order_s"] > 0


def test_tracer_sees_the_crosscheck_batch(capsys):
    # the family's verdicts come from the public batch entry, which has its
    # own span, so no consensus runs when the methods agree
    argv = ["crosscheck", "--json", "--random", "40", "--seed", "3", "--p", "3", "--n", "3", "--m", "1"]
    _, metrics = _traced(capsys, argv)
    assert metrics["reference.consensus_calls"] == 0
