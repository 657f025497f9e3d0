"""The package API the benchmark under perfbench/ binds to.

Each workload is built at input seed 0 and its first round runs once under
the layer tracer.  Every output must pass the workload's correctness gate,
and every per-layer metric BENCHMARK.json declares must resolve to an
entry point that still exists (a renamed or deleted function reads None).
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
WORKLOAD_NAMES = ("cover_u4_grassmann", "quotient_mix", "checks_u3")
# computed by run.py from the call times, not by the tracer
RUN_PY_METRICS = ("metrics.qdist.", "trace.overhead_s")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_round_passes_gates_and_resolves_metrics(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from run import make_workload
    from spans import Tracer

    workload = make_workload(name, 0, str(tmp_path))
    tracer = Tracer()
    with tracer.installed():
        calls = workload.run_round(0)
    assert calls
    errors = [workload.gate(out) for _, _, out in calls]
    assert [e for e in errors if e is not None] == []

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared
               if not m["name"].startswith(RUN_PY_METRICS)
               and tracer.value(m["name"], 1) is None]
    assert missing == []
