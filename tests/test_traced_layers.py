"""Every layer the benchmark's traced gate expects is still called.

`perfbench/run.py --trace 1` fails a workload whose traced pass sees no call
to a layer in `run.PREDICTED`.  This test runs one traced pass of the
in-process op over a small corpus of each in-process workload, with the
benchmark's own tracer, corpus and pipeline, so a change that skips a layer
fails here too.  It reads the benchmark's modules and changes nothing there.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SEED = 301
CORPORA = {
    "batch-small": lambda: corpus.batch_small(SEED, count=100),
    "wide-sums": lambda: corpus.wide_sums(SEED),
    "big-components": lambda: corpus.big_components(SEED),
}


@pytest.mark.parametrize("workload", sorted(CORPORA))
def test_every_predicted_layer_sees_a_call(workload):
    cases = CORPORA[workload]()
    orbits, roots = workload != "wide-sums", workload == "big-components"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = [pipeline.batch_op(case, orbits, roots) for case in cases]
    finally:
        tracer.uninstall()
    calls = {name: count for name, (count, _) in tracer.summary().items()}
    assert sorted(name for name in run.PREDICTED[workload] if calls[name] == 0) == []
    for case, result in zip(cases, results):
        assert pipeline.check_batch(case, result) is None, case.text
