#!/usr/bin/env python3
"""End-to-end host-time benchmark of the repro volume renderer.

    python3 e2ebench/run.py --workload frame --seed 1530 --seconds 35 --trace 0
    python3 e2ebench/run.py --workload all --seed 1530 --seconds 35 --trace 0
    python3 e2ebench/run.py --record      # re-record expected.json

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
splits the host time across layers in a separate traced run.  Every
operation passes the output gate or counts as failed, and its timing
is dropped.  The last line of standard output is one JSON object; the
lines before it print every metric by name, unit and clock.  The exit
status is non-zero when any operation failed the gate.

See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

# The program is single-threaded; keep numpy's BLAS so too, so that the
# process's CPU time is its running time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".e2ebench")

#: Set-ups per run: at least SETUP_REPS (and one per input) and until
#: SETUP_SECONDS have passed (at most SETUP_CAP); ``setup_s`` is their
#: median.  Cheap set-ups repeat many times, so their median is steady.
SETUP_REPS = 5
SETUP_SECONDS = 1.0
SETUP_CAP = 2000
#: Timed operations per run even when they overrun ``--seconds``.
MIN_OPS = 3
#: Gate failures printed per run (all are counted).
MAX_MESSAGES = 5


def import_program() -> None:
    """Put this checkout's ``src`` first on the path; exit 1 if absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"e2ebench: no program source at {SRC}")
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)


class Gate:
    """Counts operations and their output-gate failures, per input."""

    def __init__(self, workload, oracles: list, references: list):
        self.workload = workload
        self.oracles = oracles
        self.references = references
        self.attempted = 0
        self.failed = 0

    def run(self, op, i: int = 0):
        """Run one operation on input ``i``.

        Returns (output, CPU seconds, wall seconds, passed).  The first
        passing output of an input with no recorded reference becomes
        its reference, so every later operation must agree with it.
        """
        self.attempted += 1
        gc.collect()
        try:
            t0 = time.perf_counter()
            c0 = time.process_time()
            out = op()
            cpu = time.process_time() - c0
            wall = time.perf_counter() - t0
        except Exception:  # a crashing operation is a failed one
            self._fail(traceback.format_exc())
            return None, 0.0, 0.0, False
        fails = self.workload.check(out, self.oracles[i], self.references[i])
        if fails:
            self._fail("; ".join(fails))
        elif self.references[i] is None:
            self.references[i] = self.workload.checked(out)
        return out, cpu, wall, not fails

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= MAX_MESSAGES:
            print(f"GATE FAILED: {message}", file=sys.stderr)


def _start(name: str, seed: int, scale: dict | None):
    """Workload, one set-up state per input, a gate and the warm-up output.

    Set-ups rotate through the inputs.  The untimed warm-up operation
    (on input 0) absorbs import and first-touch cost and is gated like
    every other one.  At the default seed the gate pins the recorded
    simulated outputs of every input; otherwise (and for miniatures)
    each input's first passing operation pins them.
    """
    import workloads

    wl = workloads.make(name, seed, scale)
    states = [None] * wl.inputs
    setup_s = []
    gc.collect()
    while len(setup_s) < SETUP_CAP and (
        len(setup_s) < max(SETUP_REPS, wl.inputs) or sum(setup_s) < SETUP_SECONDS
    ):
        i = len(setup_s) % wl.inputs
        c0 = time.process_time()
        states[i] = wl.setup(i)
        setup_s.append(time.process_time() - c0)
    references = [None] * wl.inputs
    if seed == workloads.DEFAULT_SEED and not scale:
        references = list(workloads.load_expected()[name])
    gate = Gate(wl, [wl.prepare(state) for state in states], references)
    out, _cpu, _wall, _ok = gate.run(wl.arm(states[0]))
    return wl, states, gate, setup_s, out


def _window(seconds: float, gate: Gate, inputs: int):
    """Yield input indices in rotation until ``seconds`` pass.

    At least MIN_OPS operations run, and at least one per input.
    """
    deadline = time.perf_counter() + seconds
    n = 0
    while n < max(MIN_OPS, inputs) or time.perf_counter() < deadline:
        yield n % inputs
        n += 1


def _input_mean(samples: list[list[float]]) -> float | None:
    """Mean over inputs of each input's median; None if one has none."""
    if not all(samples):
        return None
    return statistics.fmean(statistics.median(s) for s in samples)


def measure(name: str, seed: int, seconds: float, scale: dict | None = None) -> dict:
    """The untraced run: end-to-end metrics (host CPU clock)."""
    wl, states, gate, setup_s, last = _start(name, seed, scale)
    per_frame = [[] for _ in states]
    throughput = [[] for _ in states]
    walls = [[] for _ in states]
    for i in _window(seconds, gate, wl.inputs):
        out, cpu, wall, ok = gate.run(wl.arm(states[i]), i)
        if ok:
            per_frame[i].append(wl.per_frame(out, cpu))
            throughput[i].append(wl.requests(out) / cpu)
            walls[i].append(wl.per_frame(out, wall))
            last = out
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "frame_s": (_input_mean(per_frame), "s"),
        "requests_per_s": (_input_mean(throughput), "1/s"),
        "setup_s": (_median(setup_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    counts = "/".join(str(len(s)) for s in per_frame)
    flat = [t for s in per_frame for t in s]
    over = f"mean over {wl.inputs} inputs of each input's median" if wl.inputs > 1 else "median"
    notes = {
        "frame_s": f"CPU; {over} ({wl.unit}), n={counts}; {_tail(flat)}; "
                   f"wall-clock equivalent {_fmt(_input_mean(walls))} s",
        "requests_per_s": f"CPU; {over} ({wl.unit}), n={counts}",
        "setup_s": f"CPU; median of {len(setup_s)} set-ups",
        "peak_rss_mb": "peak resident memory of this process",
    }
    return _report(name, seed, wl, gate, metrics, notes, last)


def measure_traced(
    name: str,
    seed: int,
    seconds: float,
    spans_path: str | None = None,
    scale: dict | None = None,
) -> dict:
    """The traced run: per-layer host split of set-up plus one operation.

    Half the time runs untraced set-up+operation cycles, half runs the
    same cycles under the span tracer; ``trace_overhead`` is the ratio
    of their medians.  Cycles rotate through the inputs.  Every
    per-layer value is per traced cycle, in wall seconds.
    """
    from spans import SpanTracer, install_layers

    wl, _states, gate, _setup_s, last = _start(name, seed, scale)

    def cycle(i):
        return lambda: wl.arm(wl.setup(i))()

    untraced = []
    for i in _window(seconds / 2, gate, wl.inputs):
        _out, _cpu, wall, ok = gate.run(cycle(i), i)
        if ok:
            untraced.append(wall)

    tracer = SpanTracer()

    def spanned_cycle(i):
        def run_cycle():
            tracer.begin(None)
            try:
                return cycle(i)()
            finally:
                tracer.end()
        return run_cycle

    install_layers(tracer)
    traced = []
    try:
        for n, i in enumerate(_window(seconds / 2, gate, wl.inputs)):
            tracer.op = n
            out, _cpu, wall, ok = gate.run(spanned_cycle(i), i)
            if ok:
                traced.append(wall)
                last = out
    finally:
        tracer.uninstall()

    cycles = [end - start for _id, parent, _l, start, end, _op in tracer.spans
              if parent is None]
    n = len(cycles)
    metrics = layer_metrics(tracer, n, sum(cycles))
    overhead = None
    if traced and untraced:
        overhead = _median(traced) / _median(untraced)
    metrics["trace_overhead"] = (overhead, "ratio")
    if spans_path is not None:
        os.makedirs(os.path.dirname(spans_path) or ".", exist_ok=True)
        tracer.write(spans_path)
    notes = {
        "traced_wall_s": f"per cycle (set-up + one {wl.unit}), {n} traced cycles",
        "trace_overhead": f"median traced / untraced cycle, n={len(traced)}/{len(untraced)}",
    }
    return _report(name, seed, wl, gate, metrics, notes, last)


def layer_metrics(tracer, n: int, wall: float) -> dict:
    """Per-cycle self seconds and counts, plus the derived ratios."""
    from spans import LAYERS

    per = _ratio(1.0, n)
    c = tracer.counts
    m: dict[str, tuple] = {"traced_wall_s": (wall * per, "s")}
    attributed = 0.0
    for layer in LAYERS:
        self_s = tracer.self_s.get(layer, 0.0)
        attributed += self_s
        m[f"{layer}.self_s"] = (self_s * per, "s")
    m["unattributed_s"] = ((wall - attributed) * per, "s")
    m["render.calls"] = (c["render.calls"] * per, "count")
    m["render.samples"] = (c["render.samples"] * per, "count")
    m["render.samples_per_s"] = (
        _ratio(c["render.samples"], tracer.self_s.get("render", 0.0)), "1/s"
    )
    m["pio.physical_bytes"] = (c["pio.physical_bytes"] * per, "B")
    m["pio.accesses"] = (c["pio.accesses"] * per, "count")
    m["pio.density"] = (_ratio(c["pio.requested_bytes"], c["pio.physical_bytes"]), "ratio")
    lookups = c["plan.hits"] + c["plan.misses"]
    m["plan.hits"] = (c["plan.hits"] * per, "count")
    m["plan.misses"] = (c["plan.misses"] * per, "count")
    m["plan.hit_ratio"] = (_ratio(c["plan.hits"], lookups), "ratio")
    m["vmpi.messages"] = (c["vmpi.messages"] * per, "count")
    m["vmpi.bytes"] = (c["vmpi.bytes"] * per, "B")
    m["network.transfers"] = (c["network.transfers"] * per, "count")
    m["data.bytes"] = (c["data.bytes"] * per, "B")
    m["farm.rendered"] = (c["farm.rendered"] * per, "count")
    m["farm.cache_hits"] = (c["farm.cache_hits"] * per, "count")
    m["farm.coalesced"] = (c["farm.coalesced"] * per, "count")
    m["farm.reuse_ratio"] = (
        _ratio(c["farm.cache_hits"] + c["farm.coalesced"], c["farm.requests"]), "ratio"
    )
    return m


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    pct = next((p for p in (99, 95, 90, 75) if n * (100 - p) >= 1000), None)
    if pct is None:
        return "too few samples for a tail percentile (needs n >= 40 for p75)"
    value = statistics.quantiles(samples, n=100)[pct - 1]
    return f"p{pct} = {value:.4f} s"


def _report(name, seed, wl, gate, metrics, notes, last) -> dict:
    clock = {"s": "host clock", "1/s": "host clock", "MB": "host memory"}
    print(f"e2ebench {name} seed={seed}")
    for key, (value, unit) in metrics.items():
        shown = _fmt(value)
        label = f"[{clock[unit]}] " if unit in clock else ""
        note = notes.get(key, "")
        print(f"  {key:<22} {shown:>14} {unit:<6} {label}{note}".rstrip())
    ratio = gate.failed / gate.attempted if gate.attempted else 0.0
    print(f"  {'fail_ratio':<22} {ratio:>14.6g} ratio  "
          f"[{gate.failed} of {gate.attempted} operations failed the output gate]")
    if last is not None:
        print(f"  checked: {wl.describe(last)}")
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def record() -> dict:
    """Re-record the default seed's simulated outputs into expected.json."""
    import workloads

    expected = {"seed": workloads.DEFAULT_SEED}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, workloads.DEFAULT_SEED)
        expected[name] = []
        for i in range(wl.inputs):
            state = wl.setup(i)
            gate = Gate(wl, [wl.prepare(state)], [None])
            out, _cpu, _wall, ok = gate.run(wl.arm(state))
            if not ok:
                raise SystemExit(f"e2ebench: {name} input {i} fails its gate; nothing recorded")
            expected[name].append(wl.checked(out))
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=2)
        fh.write("\n")
    return expected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("frame", "exchange", "farm", "all"))
    parser.add_argument("--seed", type=int, default=1530)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record expected.json at the default seed")
    args = parser.parse_args(argv)
    import_program()
    if args.record:
        print(json.dumps(record(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        # One fresh process per workload, so set-up and peak memory are
        # each workload's own.
        status = 0
        for name in ("frame", "exchange", "farm"):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            status |= subprocess.run(cmd).returncode
        return 1 if status else 0
    if args.trace:
        spans = os.path.join(SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
        result = measure_traced(args.workload, args.seed, args.seconds, spans)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
