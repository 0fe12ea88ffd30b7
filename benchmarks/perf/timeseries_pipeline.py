"""Pipelined time-series campaign: wall-clock guard + overlap study.

Two entries in ``BENCH_timeseries.json``:

* ``timeseries_pipeline`` — wall clock of the functional miniature
  campaign (4 netCDF time steps through the double-buffered driver,
  8 simulated cores).  This is the end-to-end cost of the prefetch
  machinery itself — plan/issue/wait split, campaign DES, span
  bookkeeping — so it must not drift up as the subsystem grows.

* ``timeseries_overlap`` — the *simulated-makespan* study at paper
  scale: 8 frames of the 1120^3 dataset on 1024 cores reading raw
  (io 9.4 s, render+composite 6.3 s per frame — I/O-bound but with
  compute worth hiding).  The entry records the sequential campaign
  time and the double-buffered makespan; the headline
  ``simulated_speedup`` (double-buffered vs sequential) is asserted
  >= 1.3x — the acceptance bar for this subsystem.
"""

from __future__ import annotations

OVERLAP_FRAMES = 8
OVERLAP_DATASET = "1120"
OVERLAP_CORES = 1024


def bench_timeseries_pipeline(repeats: int = 3) -> dict:
    from benchmarks.perf.suite import _timeit_stats
    from repro.core import ParallelVolumeRenderer, PipelinedTimeSeriesRenderer
    from repro.data import SupernovaModel, write_vh1_netcdf
    from repro.pio import IOHints, NetCDFHandle
    from repro.render import Camera, TransferFunction
    from repro.vmpi import MPIWorld

    grid = (12, 12, 12)
    handles = [
        NetCDFHandle(write_vh1_netcdf(SupernovaModel(grid, seed=5, time=0.3 + 0.2 * t)), "vx")
        for t in range(4)
    ]
    camera = Camera.looking_at_volume(grid, width=32, height=32)
    renderer = ParallelVolumeRenderer(
        MPIWorld.for_cores(8), camera, TransferFunction.supernova(), step=0.9,
        hints=IOHints(cb_buffer_size=4096, cb_nodes=2),
    )
    pipelined = PipelinedTimeSeriesRenderer(renderer)

    seconds, best, result = _timeit_stats(
        lambda: pipelined.render(handles, orbit_degrees_per_frame=20.0), repeats
    )
    assert result.accounting_failures() == []
    return {
        "name": "timeseries_pipeline",
        "guard": True,
        "config": {
            "frames": len(handles),
            "grid": grid[0],
            "cores": 8,
            "image": 32,
        },
        "seconds": seconds,
        "best_seconds": best,
        "frames_per_second": len(handles) / seconds,
        "simulated_makespan_s": result.makespan_s,
        "simulated_sequential_s": result.sequential_s,
    }


def bench_timeseries_overlap(repeats: int = 5) -> dict:
    from benchmarks.perf.suite import _timeit_stats
    from repro.core.timeseries import simulate_pipeline
    from repro.model.pipeline import DATASETS, FrameModel

    est = FrameModel(DATASETS[OVERLAP_DATASET]).estimate(OVERLAP_CORES, io_mode="raw")
    io = [est.io.seconds] * OVERLAP_FRAMES
    rc = [est.render.seconds + est.composite.seconds] * OVERLAP_FRAMES

    seconds, best, timeline = _timeit_stats(lambda: simulate_pipeline(io, rc), repeats)
    sequential = sum(io) + sum(rc)
    speedup = sequential / timeline.makespan_s
    # The acceptance bar: the I/O-bound animation must show >= 1.3x with
    # double buffering.  A violation means the schedule (not this host) broke.
    assert speedup >= 1.3, f"double-buffered simulated speedup {speedup:.3f} < 1.3"
    return {
        "name": "timeseries_overlap",
        "guard": True,
        "config": {
            "dataset": OVERLAP_DATASET,
            "cores": OVERLAP_CORES,
            "io_mode": "raw",
            "frames": OVERLAP_FRAMES,
            "io_s_per_frame": io[0],
            "compute_s_per_frame": rc[0],
        },
        "seconds": seconds,
        "best_seconds": best,
        "sequential_s": sequential,
        "makespan_s": timeline.makespan_s,
        "simulated_speedup": speedup,
    }


TIMESERIES_BENCHMARKS = {
    "timeseries_pipeline": (bench_timeseries_pipeline, "BENCH_timeseries.json"),
    "timeseries_overlap": (bench_timeseries_overlap, "BENCH_timeseries.json"),
}
