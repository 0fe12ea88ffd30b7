"""Approximate puzzlepiece: the error bound holds, the savings are real.

The contract under test: for any ``error_budget`` the frame differs
from exact direct-send by at most ``budget`` per pixel per channel (up
to float association noise), strictly fewer messages travel when the
budget is positive, and ``budget = 0`` is bitwise direct-send.  Plus
the drain protocol's :func:`gi_barrier` — the BG/P global-interrupt
line — which must cost zero torus messages.
"""

import numpy as np
import pytest

from repro.compositing.backends import ComposeRequest, get_backend
from repro.compositing.puzzlepiece import piece_max_alpha, puzzle_thresholds
from repro.compositing.schedule import schedule_from_geometry
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.render.image import PartialImage
from repro.render.raycast import render_block
from repro.render.transfer import TransferFunction
from repro.render.volume import VolumeBlock
from repro.vmpi import MPIWorld
from repro.vmpi.collectives import GI_LATENCY_S

GRID = (16, 16, 16)
W, H = 48, 40
STEP = 0.7
#: Depth-tie association noise: dropping messages perturbs arrival
#: order among equal-depth pieces, shifting sums by an ulp or two.
TIE_EPS = 1e-6


@pytest.fixture(scope="module")
def scene():
    rng = np.random.default_rng(42)
    data = rng.random(GRID).astype(np.float32)
    cam = Camera.looking_at_volume(GRID, width=W, height=H, azimuth_deg=25, elevation_deg=30)
    return data, cam, TransferFunction.grayscale_ramp()


def make_partial(rank, dec, scene):
    data, cam, tf = scene
    b = dec.block(rank)
    rs, rc, gl = b.ghost_read(GRID, ghost=1)
    sub = data[rs[0]: rs[0] + rc[0], rs[1]: rs[1] + rc[1], rs[2]: rs[2] + rc[2]]
    return render_block(cam, VolumeBlock(sub, GRID, b.start, b.count, gl), tf, step=STEP)


def run(name, nprocs, m, scene, error_budget=0.0):
    _data, cam, _tf = scene
    dec = BlockDecomposition(GRID, nprocs)
    sched = schedule_from_geometry(dec, cam, m)
    backend = get_backend(name)

    def program(ctx):
        partial = make_partial(ctx.rank, dec, scene)
        req = ComposeRequest(
            partial=partial, schedule=sched, decomposition=dec, camera=cam,
            render_seconds=1e-4, error_budget=error_budget,
        )
        return (yield from backend.compose(ctx, req))

    res = MPIWorld.for_cores(nprocs).run(program)
    image, stats = backend.finalize(res.values, cam)
    return image, stats, res


class TestThresholds:
    def test_budget_split_over_scheduled_pieces(self, scene):
        _data, cam, _tf = scene
        sched = schedule_from_geometry(BlockDecomposition(GRID, 8), cam, 4)
        th = puzzle_thresholds(sched, 0.08)
        for t in range(sched.num_compositors):
            e_t = max(1, len(sched.incoming(t)))
            assert th[t] == pytest.approx(0.08 / (2 * e_t))

    def test_zero_budget_zero_thresholds(self, scene):
        _data, cam, _tf = scene
        sched = schedule_from_geometry(BlockDecomposition(GRID, 8), cam, 4)
        assert all(v == 0.0 for v in puzzle_thresholds(sched, 0.0).values())

    def test_piece_max_alpha(self):
        rgba = np.zeros((2, 3, 4), np.float32)
        rgba[1, 2, 3] = 0.25
        assert piece_max_alpha(PartialImage((0, 0, 3, 2), rgba, 1.0)) == 0.25
        empty = PartialImage((0, 0, 0, 0), np.zeros((0, 0, 4), np.float32), 1.0)
        assert piece_max_alpha(empty) == 0.0


class TestErrorBudget:
    @pytest.mark.parametrize("nprocs,m", [(8, 8), (16, 8)])
    @pytest.mark.parametrize("budget", (0.01, 0.05, 0.2))
    def test_error_never_exceeds_budget(self, nprocs, m, budget, scene):
        exact, _s, _r = run("directsend", nprocs, m, scene)
        approx, stats, _r = run("puzzlepiece", nprocs, m, scene, error_budget=budget)
        maxdiff = float(np.abs(exact - approx).max())
        assert maxdiff <= budget + TIE_EPS
        # The reported bound is itself within budget, and honest.
        assert stats["error_bound"] <= budget
        assert maxdiff <= stats["error_bound"] + TIE_EPS

    def test_positive_budget_saves_messages_and_bytes(self, scene):
        _e, _s, ds = run("directsend", 16, 8, scene)
        _a, stats, pp = run("puzzlepiece", 16, 8, scene, error_budget=0.05)
        assert pp.messages < ds.messages
        assert pp.bytes_sent < ds.bytes_sent
        assert stats["pieces_dropped"] > 0
        assert stats["bytes_saved"] >= ds.bytes_sent - pp.bytes_sent

    def test_larger_budget_drops_at_least_as_much(self, scene):
        _a, small, _r = run("puzzlepiece", 16, 8, scene, error_budget=0.01)
        _b, large, _r = run("puzzlepiece", 16, 8, scene, error_budget=0.2)
        assert large["pieces_dropped"] >= small["pieces_dropped"]

    @pytest.mark.parametrize("nprocs,m", [(8, 8), (8, 3), (16, 8)])
    def test_zero_budget_is_bitwise_directsend(self, nprocs, m, scene):
        exact, _s, ds = run("directsend", nprocs, m, scene)
        approx, stats, pp = run("puzzlepiece", nprocs, m, scene, error_budget=0.0)
        assert np.array_equal(exact, approx)
        assert pp.messages == ds.messages  # zero budget drops nothing
        assert stats["pieces_dropped"] == 0 and stats["error_bound"] == 0.0


class TestGIBarrier:
    def test_zero_torus_messages_fixed_latency(self):
        def program(ctx):
            yield from ctx.gi_barrier()
            return ctx.now

        res = MPIWorld.for_cores(8).run(program)
        assert res.messages == 0
        assert res.bytes_sent == 0
        # Everyone leaves together, one interrupt latency after arrival.
        assert all(v == pytest.approx(GI_LATENCY_S) for v in res.values)

    def test_waits_for_the_last_arrival(self):
        def program(ctx):
            yield from ctx.compute(ctx.rank * 1e-3)
            yield from ctx.gi_barrier()
            return ctx.now

        res = MPIWorld.for_cores(4).run(program)
        expected = 3e-3 + GI_LATENCY_S
        assert all(v == pytest.approx(expected) for v in res.values)

    def test_reusable_across_phases(self):
        def program(ctx):
            yield from ctx.gi_barrier()
            yield from ctx.gi_barrier()
            return ctx.now

        res = MPIWorld.for_cores(4).run(program)
        assert all(v == pytest.approx(2 * GI_LATENCY_S) for v in res.values)
