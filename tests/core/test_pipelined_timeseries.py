"""The pipelined campaign driver vs the sequential oracle.

The tentpole invariant: for every format, camera path, compositing
backend, and fault plan, the double-buffered renderer produces frames
*bitwise identical* to ``render_time_series`` — images, per-frame
timings, message counts.  Pipelining only changes the campaign clock,
and the campaign clock itself must reconcile:
``overlap_saved_s == sequential_s - makespan_s``, spans in a lane never
overlap, and the sequential oracle's makespan is its stage sum.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ParallelVolumeRenderer, PipelinedTimeSeriesRenderer, render_time_series
from repro.core.timeseries import campaign_trace, simulate_pipeline
from repro.data import SupernovaModel, extract_variable_raw, write_vh1_netcdf
from repro.fault import FaultPlan, IOStraggler, NodeCrash
from repro.pio import IOHints, NetCDFHandle, RawHandle
from repro.render import Camera, TransferFunction
from repro.utils.errors import ConfigError
from repro.vmpi import MPIWorld

GRID = (12, 12, 12)
STEPS = 3


def _handles(fmt: str):
    out = []
    for t in range(STEPS):
        model = SupernovaModel(GRID, seed=5, time=0.3 + 0.2 * t)
        if fmt == "netcdf":
            out.append(NetCDFHandle(write_vh1_netcdf(model), "vx"))
        else:
            out.append(RawHandle(extract_variable_raw(model, "vx")))
    return out


@pytest.fixture(scope="module")
def netcdf_handles():
    return _handles("netcdf")


@pytest.fixture(scope="module")
def raw_handles():
    return _handles("raw")


def _renderer(**kwargs):
    cam = Camera.looking_at_volume(GRID, width=24, height=24)
    tf = TransferFunction.supernova()
    defaults = dict(step=0.9, hints=IOHints(cb_buffer_size=4096, cb_nodes=2))
    defaults.update(kwargs)
    return ParallelVolumeRenderer(MPIWorld.for_cores(8), cam, tf, **defaults)


def assert_frames_identical(pipelined, oracle):
    assert len(pipelined.frames) == len(oracle.frames)
    for i, (p, s) in enumerate(zip(pipelined.frames, oracle.frames)):
        assert np.array_equal(p.image, s.image), f"frame {i} image differs"
        assert p.timing == s.timing, f"frame {i} timing differs"
        assert p.messages == s.messages
        assert p.bytes_sent == s.bytes_sent


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("compositor", ["directsend", "dfb"])
    @pytest.mark.parametrize("fmt", ["netcdf", "raw"])
    def test_orbit_campaign_matches_oracle(self, compositor, fmt, netcdf_handles, raw_handles):
        handles = netcdf_handles if fmt == "netcdf" else raw_handles
        renderer = _renderer(compositor=compositor)
        oracle = render_time_series(renderer, handles, orbit_degrees_per_frame=25.0)
        res = PipelinedTimeSeriesRenderer(renderer).render(
            handles, orbit_degrees_per_frame=25.0
        )
        assert_frames_identical(res, oracle)
        assert res.accounting_failures() == []

    def test_fixed_camera_matches_oracle(self, netcdf_handles):
        renderer = _renderer()
        oracle = render_time_series(renderer, netcdf_handles)
        res = PipelinedTimeSeriesRenderer(renderer).render(netcdf_handles)
        assert_frames_identical(res, oracle)

    def test_camera_factory_matches_oracle(self, netcdf_handles):
        cams = [
            Camera.looking_at_volume(GRID, width=24, height=24, azimuth_deg=a)
            for a in (0.0, 120.0, 240.0)
        ]
        renderer = _renderer()
        oracle = render_time_series(renderer, netcdf_handles, camera_factory=lambda i: cams[i])
        res = PipelinedTimeSeriesRenderer(renderer).render(
            netcdf_handles, camera_factory=lambda i: cams[i]
        )
        assert_frames_identical(res, oracle)

    def test_under_fault_plan(self, netcdf_handles):
        """Prefetch must not perturb fault behavior: the frame program is
        byte-for-byte the same, so stragglers and crashes land identically."""
        fault = FaultPlan(
            seed=7,
            node_crashes=(NodeCrash(1.0, 1),),
            io_stragglers=(IOStraggler(0, 0.5),),
        )
        renderer = _renderer(fault=fault)
        oracle = render_time_series(renderer, netcdf_handles, orbit_degrees_per_frame=15.0)
        res = PipelinedTimeSeriesRenderer(renderer).render(
            netcdf_handles, orbit_degrees_per_frame=15.0
        )
        assert_frames_identical(res, oracle)
        assert res.accounting_failures() == []

    def test_camera_restored_after_campaign(self, netcdf_handles):
        renderer = _renderer()
        before = renderer.camera
        PipelinedTimeSeriesRenderer(renderer).render(
            netcdf_handles, orbit_degrees_per_frame=30.0
        )
        assert renderer.camera is before

    def test_plan_cache_hits_on_every_frame(self, netcdf_handles):
        """The prefetch warms the plan cache; the render is a guaranteed hit."""
        renderer = _renderer()
        PipelinedTimeSeriesRenderer(renderer).render(
            netcdf_handles, orbit_degrees_per_frame=25.0
        )
        assert renderer.plan_cache.hits >= STEPS


class TestCampaignClock:
    def test_sequential_oracle_makespan_is_stage_sum(self, netcdf_handles):
        renderer = _renderer()
        res = render_time_series(renderer, netcdf_handles)
        assert res.timeline is None
        assert res.makespan_s == res.sequential_s
        assert res.sequential_s == pytest.approx(sum(f.timing.total_s for f in res.frames))
        assert res.overlap_saved_s == 0.0

    def test_overlap_reconciles(self, netcdf_handles):
        renderer = _renderer()
        res = PipelinedTimeSeriesRenderer(renderer).render(netcdf_handles)
        assert res.overlap_saved_s == pytest.approx(res.sequential_s - res.makespan_s)
        assert 0.0 <= res.overlap_saved_s <= res.sequential_s
        assert res.speedup >= 1.0
        assert res.accounting_failures() == []

    def test_makespan_is_wall_clock_not_stage_sum(self, netcdf_handles):
        """An I/O-heavy campaign's makespan beats the per-stage sums."""
        renderer = _renderer()
        res = PipelinedTimeSeriesRenderer(renderer).render(
            netcdf_handles, orbit_degrees_per_frame=20.0
        )
        # Still bounded below by the serialized I/O plus the last compute.
        io = sum(s.io_demand_s for s in res.timeline.slots)
        assert res.makespan_s >= io
        assert res.makespan_s <= res.sequential_s + 1e-9

    def test_rejects_empty_campaign(self):
        renderer = _renderer()
        with pytest.raises(ConfigError):
            PipelinedTimeSeriesRenderer(renderer).render([])

    def test_rejects_bad_discipline(self):
        renderer = _renderer()
        with pytest.raises(ConfigError):
            PipelinedTimeSeriesRenderer(renderer, discipline="psychic")
        with pytest.raises(ConfigError):
            simulate_pipeline([1.0], [1.0], "psychic")


class TestSimulatedPipeline:
    def _random_demands(self, seed, n=6):
        rng = np.random.default_rng(seed)
        return list(rng.uniform(0.1, 2.0, n)), list(rng.uniform(0.1, 2.0, n))

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("discipline", ["fifo", "fair"])
    def test_schedule_invariants_hold(self, seed, discipline):
        io, rc = self._random_demands(seed)
        tl = simulate_pipeline(io, rc, discipline)
        assert tl.failures() == []
        # Work conservation: one storage server, one compute lane.
        assert tl.makespan_s >= sum(io) - 1e-9
        assert tl.makespan_s >= sum(rc) - 1e-9
        assert tl.makespan_s <= sum(io) + sum(rc) + 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_depth_monotonicity_fifo(self, seed):
        """Two buffers never lose to one: the double-buffered makespan is
        at most the sequential stage sum, and each read of frame j >= 2
        waits for frame j-2 to release its buffer."""
        io, rc = self._random_demands(seed)
        tl = simulate_pipeline(io, rc)
        assert tl.makespan_s <= sum(io) + sum(rc) + 1e-9
        for s in tl.slots[2:]:
            prior = tl.slots[s.index - 2]
            assert s.read_issue_s >= prior.compute_done_s - 1e-9

    def test_depth_one_overlaps_io_bound(self):
        # Equal frames, io = 2 * compute: fifo pins makespan at N*io + rc,
        # against 15.0 s for the sequential sum.
        tl = simulate_pipeline([2.0] * 5, [1.0] * 5)
        assert tl.makespan_s == pytest.approx(11.0)

    def test_fair_sharing_is_pessimistic(self):
        """Equal-share contention can only slow the blocking read down."""
        io, rc = [1.0] * 4, [1.0] * 4
        fifo = simulate_pipeline(io, rc, "fifo").makespan_s
        fair = simulate_pipeline(io, rc, "fair").makespan_s
        assert fair >= fifo - 1e-9

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            simulate_pipeline([1.0, 2.0], [1.0])


class TestCampaignTraceSpans:
    def test_lanes_never_overlap_within_a_stage(self, netcdf_handles):
        """Per-lane spans are disjoint: reads serialize on the storage
        station, computes serialize on the frame loop."""
        renderer = _renderer()
        res = PipelinedTimeSeriesRenderer(renderer).render(
            netcdf_handles, orbit_degrees_per_frame=25.0
        )
        lanes: dict[int, list] = {}
        for span in res.campaign_trace.spans:
            lanes.setdefault(span.rank, []).append(span)
        assert len(lanes) == 2  # io lane + compute lane
        for spans in lanes.values():
            spans.sort(key=lambda s: s.t0)
            for a, b in zip(spans, spans[1:]):
                assert b.t0 >= a.t1 - 1e-9, f"{a.name} overlaps {b.name}"

    def test_synthetic_trace_matches_timeline(self):
        tl = simulate_pipeline([1.0, 2.0, 1.5], [0.5, 0.7, 0.6])
        tr = campaign_trace(tl)
        assert len(tr.spans) == 2 * len(tl.slots)
        assert max(s.t1 for s in tr.spans) == pytest.approx(tl.makespan_s)
