"""The pipelined campaign driver vs the sequential oracle.

The tentpole invariant: at every prefetch depth, for every format,
camera path, engine backend, and fault plan, the pipelined renderer
produces frames *bitwise identical* to ``render_time_series`` — images,
per-frame timings, message counts.  Pipelining only changes the
campaign clock, and the campaign clock itself must reconcile:
``overlap_saved_s == sequential_s - makespan_s``, spans in a lane never
overlap, depth 0 reproduces the sequential makespan exactly.
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
    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("fmt", ["netcdf", "raw"])
    def test_orbit_campaign_matches_oracle(self, depth, fmt, netcdf_handles, raw_handles):
        handles = netcdf_handles if fmt == "netcdf" else raw_handles
        renderer = _renderer()
        oracle = render_time_series(renderer, handles, orbit_degrees_per_frame=25.0)
        res = PipelinedTimeSeriesRenderer(renderer, prefetch_depth=depth).render(
            handles, orbit_degrees_per_frame=25.0
        )
        assert_frames_identical(res, oracle)
        assert res.accounting_failures() == []

    def test_fixed_camera_matches_oracle(self, netcdf_handles):
        renderer = _renderer()
        oracle = render_time_series(renderer, netcdf_handles)
        res = PipelinedTimeSeriesRenderer(renderer, prefetch_depth=2).render(netcdf_handles)
        assert_frames_identical(res, oracle)

    def test_camera_factory_matches_oracle(self, netcdf_handles):
        cams = [
            Camera.looking_at_volume(GRID, width=24, height=24, azimuth_deg=a)
            for a in (0.0, 120.0, 240.0)
        ]
        renderer = _renderer()
        oracle = render_time_series(renderer, netcdf_handles, camera_factory=lambda i: cams[i])
        res = PipelinedTimeSeriesRenderer(renderer, prefetch_depth=1).render(
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
        for depth in (0, 1, 2):
            res = PipelinedTimeSeriesRenderer(renderer, prefetch_depth=depth).render(
                netcdf_handles, orbit_degrees_per_frame=15.0
            )
            assert_frames_identical(res, oracle)
            assert res.accounting_failures() == []

    def test_camera_restored_after_campaign(self, netcdf_handles):
        renderer = _renderer()
        before = renderer.camera
        PipelinedTimeSeriesRenderer(renderer, prefetch_depth=1).render(
            netcdf_handles, orbit_degrees_per_frame=30.0
        )
        assert renderer.camera is before

    def test_plan_cache_hits_on_every_frame(self, netcdf_handles):
        """The prefetch warms the plan cache; the render is a guaranteed hit."""
        renderer = _renderer()
        PipelinedTimeSeriesRenderer(renderer, prefetch_depth=2).render(
            netcdf_handles, orbit_degrees_per_frame=25.0
        )
        assert renderer.plan_cache.hits >= STEPS


class TestCampaignClock:
    def test_depth_zero_reproduces_sequential_makespan(self, netcdf_handles):
        renderer = _renderer()
        res = PipelinedTimeSeriesRenderer(renderer, prefetch_depth=0).render(netcdf_handles)
        assert res.makespan_s == pytest.approx(res.sequential_s)
        assert res.overlap_saved_s == pytest.approx(0.0)

    def test_overlap_reconciles(self, netcdf_handles):
        renderer = _renderer()
        res = PipelinedTimeSeriesRenderer(renderer, prefetch_depth=1).render(netcdf_handles)
        assert res.overlap_saved_s == pytest.approx(res.sequential_s - res.makespan_s)
        assert 0.0 <= res.overlap_saved_s <= res.sequential_s
        assert res.speedup >= 1.0
        assert res.accounting_failures() == []

    def test_makespan_is_wall_clock_not_stage_sum(self, netcdf_handles):
        """An I/O-heavy campaign's makespan beats the per-stage sums."""
        renderer = _renderer()
        res = PipelinedTimeSeriesRenderer(renderer, prefetch_depth=1).render(
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

    def test_rejects_bad_depth_and_discipline(self):
        renderer = _renderer()
        with pytest.raises(ConfigError):
            PipelinedTimeSeriesRenderer(renderer, prefetch_depth=-1)
        with pytest.raises(ConfigError):
            PipelinedTimeSeriesRenderer(renderer, discipline="psychic")


class TestSimulatedPipeline:
    def _random_demands(self, seed, n=6):
        rng = np.random.default_rng(seed)
        return list(rng.uniform(0.1, 2.0, n)), list(rng.uniform(0.1, 2.0, n))

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("discipline", ["fifo", "fair"])
    def test_schedule_invariants_hold(self, seed, discipline):
        io, rc = self._random_demands(seed)
        for depth in (0, 1, 2, 3):
            tl = simulate_pipeline(io, rc, depth, discipline)
            assert tl.failures() == [], f"depth {depth}: {tl.failures()}"
            # Work conservation: one storage server, one compute lane.
            assert tl.makespan_s >= sum(io) - 1e-9
            assert tl.makespan_s >= sum(rc) - 1e-9
            assert tl.makespan_s <= sum(io) + sum(rc) + 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_depth_monotonicity_fifo(self, seed):
        io, rc = self._random_demands(seed)
        spans = [simulate_pipeline(io, rc, d).makespan_s for d in (0, 1, 2, 3)]
        for a, b in zip(spans, spans[1:]):
            assert b <= a + 1e-9
        assert spans[0] == pytest.approx(sum(io) + sum(rc))

    def test_depth_one_overlaps_io_bound(self):
        # Equal frames, io = 2 * compute: fifo pins makespan at N*io + rc.
        tl = simulate_pipeline([2.0] * 5, [1.0] * 5, 1)
        assert tl.makespan_s == pytest.approx(11.0)
        tl0 = simulate_pipeline([2.0] * 5, [1.0] * 5, 0)
        assert tl0.makespan_s == pytest.approx(15.0)

    def test_depth_beyond_two_buys_nothing_fifo(self):
        io, rc = [2.0, 1.5, 2.5, 1.0], [1.0, 1.2, 0.8, 1.1]
        assert simulate_pipeline(io, rc, 2).makespan_s == pytest.approx(
            simulate_pipeline(io, rc, 8).makespan_s
        )

    def test_fair_sharing_is_pessimistic(self):
        """Equal-share contention can only slow the blocking read down."""
        io, rc = [1.0] * 4, [1.0] * 4
        fifo = simulate_pipeline(io, rc, 2, "fifo").makespan_s
        fair = simulate_pipeline(io, rc, 2, "fair").makespan_s
        assert fair >= fifo - 1e-9

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            simulate_pipeline([1.0, 2.0], [1.0], 1)


class TestCampaignTraceSpans:
    def test_lanes_never_overlap_within_a_stage(self, netcdf_handles):
        """Per-lane spans are disjoint: reads serialize on the storage
        station, computes serialize on the frame loop."""
        renderer = _renderer()
        res = PipelinedTimeSeriesRenderer(renderer, prefetch_depth=2).render(
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
        tl = simulate_pipeline([1.0, 2.0, 1.5], [0.5, 0.7, 0.6], 1)
        tr = campaign_trace(tl)
        assert len(tr.spans) == 2 * len(tl.slots)
        assert max(s.t1 for s in tr.spans) == pytest.approx(tl.makespan_s)
