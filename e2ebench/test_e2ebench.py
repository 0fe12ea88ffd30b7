"""Tests of the benchmark itself: miniature workloads, the output gate,
and the traced run's accounting identity.

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import csv
import os
import shutil
import subprocess
import sys
from collections import defaultdict

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_program()

import repro.core.pipeline as pipeline  # noqa: E402
import workloads  # noqa: E402
from repro.farm.service import RenderFarm  # noqa: E402
from spans import LAYERS  # noqa: E402

MINI = {
    "frame": {"grid": 16, "cores": 8, "image": 32, "inputs": 2},
    "exchange": {"grid": 16, "cores": 64, "image": 32, "inputs": 2},
    "farm": {"browse": 12, "steps": 4, "flash": 6, "orbit": 4, "campaign": 3,
             "interactive": 3, "inputs": 2},
}


@pytest.mark.parametrize("name", sorted(MINI))
def test_miniature_passes_gate(name):
    result = run.measure(name, seed=3, seconds=0, scale=MINI[name])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + run.MIN_OPS  # warm-up + timed
    metrics = result["metrics"]
    assert set(metrics) == {"frame_s", "requests_per_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics.values())


def test_gate_rejects_perturbed_image(monkeypatch):
    original = pipeline.render_block

    def noisy(*args, **kwargs):
        partial = original(*args, **kwargs)
        if partial is not None:
            partial.rgba += 0.05
        return partial

    monkeypatch.setattr(pipeline, "render_block", noisy)
    result = run.measure("frame", seed=3, seconds=0, scale=MINI["frame"])
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["frame_s"]["value"] is None  # timings dropped


def test_gate_rejects_wrong_farm_counts(monkeypatch):
    wl = workloads.make("farm", 3, MINI["farm"])
    scenario = wl.setup()
    total = wl.prepare(scenario)
    out = wl.arm(scenario)()
    good = wl.checked(out)
    assert wl.check(out, total, good) == []
    wrong = dict(good, rendered=good["rendered"] + 1)
    assert any("farm counts" in f for f in wl.check(out, total, wrong))

    original = RenderFarm.run

    def lossy(self):
        result = original(self)
        result.records.pop()
        return result

    monkeypatch.setattr(RenderFarm, "run", lossy)
    result = run.measure("farm", seed=3, seconds=0, scale=MINI["farm"])
    assert result["failed"] == result["attempted"]


def test_default_seed_matches_recorded_outputs():
    expected = workloads.load_expected()
    assert expected["seed"] == workloads.DEFAULT_SEED
    for name in ("frame", "exchange", "farm"):
        wl = workloads.make(name, workloads.DEFAULT_SEED)
        assert len(expected[name]) == wl.inputs
        for i, reference in enumerate(expected[name]):
            state = wl.setup(i)
            out = wl.arm(state)()
            assert wl.check(out, wl.prepare(state), reference) == []


@pytest.mark.parametrize("name", ["exchange", "farm"])
def test_traced_self_times_add_up(name, tmp_path):
    path = str(tmp_path / "spans.csv")
    result = run.measure_traced(name, seed=3, seconds=0, spans_path=path,
                                scale=MINI[name])
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    layered = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert layered + m["unattributed_s"] == pytest.approx(m["traced_wall_s"], rel=1e-9)
    assert m["unattributed_s"] >= 0

    # Recompute self time from the written spans: duration minus the
    # durations of direct children, summed per layer.
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    duration = {r["id"]: float(r["end"]) - float(r["start"]) for r in rows}
    children = defaultdict(float)
    for r in rows:
        if r["parent"]:
            children[r["parent"]] += duration[r["id"]]
    ops = {r["op"] for r in rows}
    self_by_layer = defaultdict(float)
    for r in rows:
        self_by_layer[r["layer"]] += duration[r["id"]] - children[r["id"]]
    for layer in LAYERS:
        assert self_by_layer[layer] / len(ops) == pytest.approx(m[f"{layer}.self_s"], abs=1e-9)
    assert self_by_layer[""] / len(ops) == pytest.approx(m["unattributed_s"], abs=1e-9)
    assert m["render.calls"] > 0 and m["vmpi.messages"] > 0


def test_tracer_uninstalls():
    original = pipeline.render_block
    run.measure_traced("frame", seed=3, seconds=0, scale=MINI["frame"])
    assert pipeline.render_block is original


def test_exits_nonzero_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "frame", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
