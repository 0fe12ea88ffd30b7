"""MPIWorld mechanics."""

import pytest

from repro.compositing.schedule import schedule_from_geometry
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.utils.errors import ConfigError
from repro.vmpi import MPIWorld, VirtualPayload


class TestWorld:
    def test_for_cores_shapes_partition(self):
        w = MPIWorld.for_cores(64)
        assert w.nprocs == 64
        assert w.partition.shape == (2, 2, 4)

    def test_run_returns_per_rank_values(self):
        def program(ctx):
            yield from ctx.barrier()
            return ctx.rank * 3

        res = MPIWorld.for_cores(8).run(program)
        assert res.values == [r * 3 for r in range(8)]
        assert len(res) == 8
        assert list(res) == res.values
        assert res[2] == 6

    def test_world_reusable_across_runs(self):
        w = MPIWorld.for_cores(4)

        def program(ctx):
            yield from ctx.barrier()
            return ctx.now

        r1 = w.run(program)
        r2 = w.run(program)
        assert r1.elapsed_s == r2.elapsed_s  # deterministic, fresh engine each run

    def test_args_passed_to_program(self):
        def program(ctx, a, b=0):
            yield from ctx.barrier()
            return a + b + ctx.rank

        res = MPIWorld.for_cores(4).run(program, 10, b=5)
        assert res.values == [15, 16, 17, 18]

    def test_virtual_payload_moves_no_data(self):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(VirtualPayload(1 << 30), dest=1)
                return None
            if ctx.rank == 1:
                v = yield from ctx.recv(source=0)
                return v.nbytes
            return None

        res = MPIWorld.for_cores(4).run(program)
        assert res[1] == 1 << 30
        assert res.bytes_sent == 1 << 30

    def test_elapsed_scales_with_virtual_size(self):
        def program(ctx, nbytes):
            if ctx.rank == 0:
                yield from ctx.send(VirtualPayload(nbytes), dest=1)
            elif ctx.rank == 1:
                yield from ctx.recv(source=0)
            return None

        # SMP mode (1 rank/node) so the message actually crosses the wire.
        w = MPIWorld.for_cores(4, processes_per_node=1)
        small = w.run(program, 1 << 10).elapsed_s
        big = w.run(program, 1 << 26).elapsed_s
        assert big > 10 * small

    def test_invalid_core_count(self):
        with pytest.raises(ConfigError):
            MPIWorld.for_cores(0)


class TestSimulatedClockPin:
    """An absolute simulated clock for a message-bound run.

    A 512-rank, m = n direct-send exchange with virtual payloads (64^3
    grid, 256^2 image).  The clock is compared exactly: any change to
    engine ordering, endpoint serialization, or hop pricing moves it.
    """

    def test_directsend_512_exchange_is_frozen(self):
        grid = (64, 64, 64)
        sched = schedule_from_geometry(
            BlockDecomposition(grid, 512),
            Camera.looking_at_volume(grid, width=256, height=256),
            512,
        )

        def program(ctx):
            reqs = []
            for msg in sched.outgoing(ctx.rank):
                dest = sched.compositor_rank(msg.tile)
                if dest != ctx.rank:
                    reqs.append(ctx.isend(VirtualPayload(msg.nbytes), dest, 42))
            incoming = [m for m in sched.incoming(ctx.rank) if m.src != ctx.rank]
            for _ in incoming:
                yield from ctx.recv(tag=42)
            yield from ctx.waitall(reqs)

        res = MPIWorld.for_cores(512).run(program)
        assert float.hex(res.elapsed_s) == "0x1.fa73cc7defed4p-10"
        assert res.messages == 9910
        assert res.bytes_sent == 13312272
