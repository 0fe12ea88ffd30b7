"""The benchmark's workloads: inputs from a seed, one timed operation, a gate.

Each workload is driven through the public API as a user would drive
it.  A workload object offers:

* ``inputs`` — how many inputs the seed draws; a run rotates through
  them, so one unusually cheap or dear input moves a run's figures
  by only its share;
* ``setup(i)`` — the timed set-up of input ``i`` (input generation,
  file write, world/renderer construction); returns the state the run
  uses;
* ``prepare(state)`` — untimed, once per input: what the gate
  compares against (the serial oracle image, the request count);
* ``arm(state)`` — untimed, before every operation: returns the
  zero-argument callable that is timed;
* ``check(out, oracle, reference)`` — the output gate, a list of
  failures;
* ``checked(out)`` — the simulated outputs and counts the gate pins
  (never metrics);
* ``per_frame(out, wall)`` / ``requests(out)`` — what a timed
  operation contributes to ``frame_s`` and ``requests_per_s``.

Simulated seconds (what the paper measured on BG/P) appear only among
the checked outputs; every metric is host time or host memory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

import repro.data
from repro.compositing.schedule import clear_schedule_cache
from repro.core import ParallelVolumeRenderer
from repro.farm.scenario import FarmScenario
from repro.pio import NetCDFHandle, RawHandle
from repro.render import Camera, TransferFunction
from repro.render.raycast import render_volume_serial
from repro.vmpi import MPIWorld

#: Max |parallel - serial| per pixel channel; the test suite's tolerance.
IMAGE_TOLERANCE = 5e-3
#: The seed whose simulated outputs are recorded in ``expected.json``.
DEFAULT_SEED = 1530
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


# -- functional frames ------------------------------------------------------


@dataclass(frozen=True)
class FrameConfig:
    grid: int  # cubic grid edge, voxels
    cores: int  # simulated ranks
    image: int  # square image edge, pixels
    step: float  # ray-march step, voxels
    netcdf: bool  # 5-variable netCDF record file, else an extracted raw file
    inputs: int = 8  # (supernova seed, camera azimuth) pairs drawn per seed


#: Kernel-bound: few ranks, a large image, the netCDF record layout.
FRAME = FrameConfig(grid=64, cores=64, image=256, step=0.7, netcdf=True)
#: Message-bound: many ranks on a small volume, so the direct-send
#: exchange (about 15K messages) and the DES dominate the host time.
EXCHANGE = FrameConfig(grid=32, cores=512, image=128, step=0.7, netcdf=False)


@dataclass
class FrameState:
    model: object
    handle: object
    camera: Camera
    transfer: TransferFunction
    renderer: ParallelVolumeRenderer


class FrameWorkload:
    """One cold functional frame per operation: read, render, composite.

    Before each operation the renderer's ``FramePlanCache`` and the
    schedule cache are cleared, so every frame is as cold as a fresh
    renderer's: every ``repro render`` pays the cold plan.  The seed
    draws ``config.inputs`` pairs of a supernova seed and a camera
    azimuth (20-70 degrees into one of the four side quadrants).  The
    turbulence a supernova seed draws sets where rays terminate early,
    so one input's frame costs up to a quarter more or less than
    another's; a run rotates through all of its inputs.
    """

    unit = "cold frame"

    def __init__(self, config: FrameConfig, seed: int):
        self.config = config
        rng = np.random.default_rng(seed)
        self.views = [
            (int(rng.integers(1, 2**31 - 1)), float(90 * rng.integers(4) + rng.uniform(20.0, 70.0)))
            for _ in range(config.inputs)
        ]

    @property
    def inputs(self) -> int:
        return len(self.views)

    def setup(self, i: int = 0) -> FrameState:
        c = self.config
        grid = (c.grid,) * 3
        model_seed, azimuth = self.views[i]
        model = repro.data.SupernovaModel(grid, seed=model_seed, time=0.8)
        if c.netcdf:
            handle = NetCDFHandle(repro.data.write_vh1_netcdf(model), "vx")
        else:
            handle = RawHandle(repro.data.extract_variable_raw(model, "vx"))
        camera = Camera.looking_at_volume(
            grid, width=c.image, height=c.image,
            azimuth_deg=azimuth, elevation_deg=20.0,
        )
        transfer = TransferFunction.supernova(*model.value_range("vx"))
        renderer = ParallelVolumeRenderer(
            MPIWorld.for_cores(c.cores), camera, transfer, step=c.step
        )
        return FrameState(model, handle, camera, transfer, renderer)

    def prepare(self, state: FrameState) -> np.ndarray:
        return render_volume_serial(
            state.camera, state.model.field("vx"), state.transfer, step=self.config.step
        )

    def arm(self, state: FrameState):
        state.renderer.plan_cache.clear()
        clear_schedule_cache()
        return lambda: state.renderer.render_frame(state.handle)

    def checked(self, result) -> dict:
        t = result.timing
        return {
            "io_s": t.io_s,
            "render_s": t.render_s,
            "composite_s": t.composite_s,
            "messages": result.messages,
            "bytes": result.bytes_sent,
        }

    def check(self, result, oracle: np.ndarray, reference: dict | None) -> list[str]:
        fails = []
        if result.image.shape != oracle.shape:
            return [f"image shape {result.image.shape} != {oracle.shape}"]
        err = float(np.abs(result.image - oracle).max())
        if not err <= IMAGE_TOLERANCE:
            fails.append(f"image differs from render_volume_serial by {err:.3g} > {IMAGE_TOLERANCE}")
        if reference is not None and self.checked(result) != reference:
            fails.append(f"simulated outputs {self.checked(result)} != {reference}")
        return fails

    def per_frame(self, result, wall: float) -> float:
        return wall

    def requests(self, result) -> int:
        return 1

    def describe(self, result) -> str:
        t = result.timing
        return (
            f"frame {t.total_s:.6g} s = io {t.io_s:.6g} + render {t.render_s:.6g} "
            f"+ composite {t.composite_s:.6g} [simulated]; {result.messages} messages, "
            f"{result.bytes_sent} bytes; I/O density {result.io_report.density:.3f}"
        )


# -- the rendering farm -------------------------------------------------------


@dataclass(frozen=True)
class FarmConfig:
    grid: int
    world_cores: int
    image: int
    browse: int  # open browse requests over ``steps`` time steps
    steps: int
    flash: int  # flash-crowd requests for one frame
    orbit: int  # closed orbit requests
    campaign: int  # frames in the one pipelined campaign job
    interactive: int  # progressive-ladder requests
    inputs: int = 4  # scenario seeds drawn per seed


#: Many tiny frames: per-frame fixed cost dominates, the plan cache is
#: warm, and the result cache and coalescing absorb most requests.
FARM = FarmConfig(
    grid=16, world_cores=8, image=32,
    browse=200, steps=40, flash=120, orbit=60, campaign=24, interactive=40,
)


def farm_spec(seed: int, c: FarmConfig) -> dict:
    """The scenario JSON a user would hand ``repro farm``."""
    return {
        "seed": seed,
        "mode": "execute",
        "total_nodes": 64,
        "slo_s": 60.0,
        "alloc_overhead_s": 0.1,
        "result_cache_entries": 64,
        "size_policy": {"min_nodes": 16, "max_nodes": 16},
        "backend_options": {
            "grid": c.grid, "world_cores": c.world_cores, "image": c.image, "seed": seed,
        },
        "sessions": [
            {"name": "browse0", "kind": "browse", "arrival": "open",
             "requests": c.browse, "rate_hz": 2.0, "cores": 64,
             "steps": c.steps, "dataset": "mini"},
            {"name": "flash0", "kind": "browse", "arrival": "flash",
             "requests": c.flash, "burst_s": 1.0, "start_s": 20.0, "steps": 1,
             "azimuth_deg": 45.0, "cores": 64, "dataset": "mini"},
            {"name": "orbit0", "kind": "orbit", "arrival": "closed",
             "requests": c.orbit, "think_s": 0.5, "orbit_deg": 15.0,
             "cores": 64, "dataset": "mini"},
            {"name": "campaign0", "kind": "orbit", "arrival": "closed",
             "requests": c.campaign, "orbit_deg": 15.0, "azimuth_deg": 10.0,
             "campaign": True, "cores": 64, "dataset": "mini"},
            {"name": "inter0", "kind": "interactive", "arrival": "closed",
             "requests": c.interactive, "think_s": 0.3, "orbit_deg": 45.0,
             "azimuth_deg": 20.0, "levels": 3, "dwell_s": 0.5,
             "cores": 64, "dataset": "mini"},
        ],
    }


class FarmWorkload:
    """One execute-mode farm run per operation (``scenario.build().run()``).

    The seed draws ``config.inputs`` scenario seeds, each the arrival
    streams' and dwell draws' seed and the execute backend's data seed.
    One scenario's run costs up to 8% more or less than another's, so a
    run rotates through all of its scenarios.
    """

    unit = "farm run"

    def __init__(self, config: FarmConfig, seed: int):
        rng = np.random.default_rng(seed)
        self.scenarios = [
            json.dumps(farm_spec(int(rng.integers(1, 2**31 - 1)), config))
            for _ in range(config.inputs)
        ]

    @property
    def inputs(self) -> int:
        return len(self.scenarios)

    def setup(self, i: int = 0) -> FarmScenario:
        # Load the scenario file's text and build the farm, as
        # ``FarmScenario.run`` would before serving.
        scenario = FarmScenario.from_dict(json.loads(self.scenarios[i]))
        scenario.build()
        return scenario

    def prepare(self, scenario: FarmScenario) -> int:
        return scenario.workload().total_requests

    def arm(self, scenario: FarmScenario):
        return scenario.build().run

    def checked(self, result) -> dict:
        return {
            "rendered": result.rendered,
            "cache_hits": result.cache_hits,
            "coalesced": result.coalesced,
        }

    def check(self, result, total: int, reference: dict | None) -> list[str]:
        fails = list(result.accounting_failures())
        if result.arrivals != total or len(result.records) != total:
            fails.append(
                f"{len(result.records)} of {total} requests completed "
                f"({result.arrivals} arrivals)"
            )
        if any(r.t_done < r.t_arrive for r in result.records):
            fails.append("a request completed before it arrived")
        if reference is not None and self.checked(result) != reference:
            fails.append(f"farm counts {self.checked(result)} != {reference}")
        return fails

    def per_frame(self, result, wall: float) -> float:
        return wall / result.rendered

    def requests(self, result) -> int:
        return len(result.records)

    def describe(self, result) -> str:
        return (
            f"{len(result.records)} requests: {result.rendered} rendered, "
            f"{result.cache_hits} cache hits, {result.coalesced} coalesced; "
            f"makespan {result.makespan_s:.6g} s [simulated]"
        )


WORKLOADS = {
    "frame": (FrameWorkload, FRAME),
    "exchange": (FrameWorkload, EXCHANGE),
    "farm": (FarmWorkload, FARM),
}


def make(name: str, seed: int, scale: dict | None = None):
    """Build a workload; ``scale`` overrides config fields (miniatures)."""
    cls, config = WORKLOADS[name]
    if scale:
        config = replace(config, **scale)
    return cls(config, seed)
