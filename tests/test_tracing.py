"""The benchmark's tracer against the current package.

perfbench/tracing.py reads cispectra's public names and the methods it wraps
by string; renaming or deleting one of them crashes every traced benchmark
run.  This test runs the tracer over one request with consensus reports.
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


def test_tracer_reads_every_layer_name(capsys):
    argv = ["analyze", "--json", "--reports", "--poly", "x1*x2 + x3", "--p", "3", "--n", "3"]
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
    assert metrics["reference.consensus_calls"] == 3
    # consensus looks each oracle up when it runs, so every method's span is seen
    for name in tracing.METHOD_ENTRIES.values():
        assert metrics[name] > 0, name
    assert metrics["reference.spectral_method_s"] > 0
