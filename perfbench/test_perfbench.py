"""The benchmark's own checks: span self time and the output check.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py

The output-check test runs the ``iid-default`` figure once (about half
a minute) and shows that a digest differing from the committed
reference fails exactly that operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def test_self_time_excludes_child_spans():
    recorder = layers.SpanRecorder()
    recorder.spans = [
        ["figure", 0.0, 10.0, -1],
        ["campaign", 1.0, 9.0, 0],
        ["kernels.execute", 2.0, 7.0, 1],
        ["pta.estimate", 9.0, 9.5, 0],
    ]
    total, own = recorder.durations(subtree_of="figure")
    assert total["campaign"] == 8.0
    assert own["campaign"] == 3.0
    assert own["figure"] == 1.5
    assert own["kernels.execute"] == 5.0


def test_output_check_rejects_a_digest_that_differs(tmp_path, monkeypatch):
    workload = wl.WORKLOADS["iid-default"]
    rep = run.Rep(wl, workload, wl.CAMPAIGN_SEED, None, oracle=True)
    reference = json.loads(run.REFERENCE.read_text())

    notes = []
    attempted, failed, counters_ok = run.check_reps(
        wl, workload, wl.CAMPAIGN_SEED, [rep], notes
    )
    assert (attempted, failed, counters_ok) == (10, set(), True), notes

    tampered_key = sorted(reference[workload.name]["ops"])[0]
    reference[workload.name]["ops"][tampered_key] = "0" * 16
    tampered = tmp_path / "reference.json"
    tampered.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", tampered)
    notes = []
    attempted, failed, counters_ok = run.check_reps(
        wl, workload, wl.CAMPAIGN_SEED, [rep], notes
    )
    assert attempted == 10
    assert failed == {tampered_key}
    assert f"{tampered_key}: digest differs from the reference" in notes
