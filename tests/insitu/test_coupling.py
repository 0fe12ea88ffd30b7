"""In-situ coupling: frames match post-hoc rendering, no I/O in loop."""

import hashlib

import numpy as np
import pytest

from repro.data.synthetic import supernova_field
from repro.insitu import AdvectionDiffusionSim, InSituPipeline
from repro.obs import Tracer
from repro.render import Camera, TransferFunction, render_volume_serial
from repro.utils.errors import ConfigError
from repro.vmpi import MPIWorld

GRID = (12, 12, 12)
STEP = 0.8

#: (cores, grid edge, image edge, steps, render_every) -> sha256 of the
#: concatenated float32 frames, sha256 of the final field, the simulated
#: (sim, exchange, vis) seconds as ``float.hex``, and the run's message
#: and byte totals.  Captured before in-situ frames were routed through
#: the shared frame tail; any change to the in-situ event sequence or
#: pixels shows here.
PINNED = {
    (8, 12, 28, 3, 1): (
        "4c09973f5181393a4020f53b8735c4734a2d509d3ccfa3868dd705189fd4f955",
        "9f7ef1d7e6f9e308daf4d50ce0f101e310dfb9d6506d88ce90a794979866e90c",
        ("0x1.7fb46db2e36d0p-16", "0x1.8eaf94e7bd4ccp-12", "0x1.4015a8edd99bcp-7"),
        285, 181632,
    ),
    (64, 16, 32, 4, 2): (
        "56fd2ce5a638fcc707727e263b9e519d21707dd15c1bbc2c237da910fbae7802",
        "57b64eb0464462c98ebab363d603145b1b5e5b379a80ecc7aa37531c089627e3",
        ("0x1.2f2c95e2ad710p-17", "0x1.47fc8ed236398p-10", "0x1.f6c509a5b6fa7p-9"),
        3296, 538816,
    ),
    (27, 15, 30, 3, 3): (
        "98de576d8f56c708272ac93bbac0fb0c2b3f466aa25c872deb0fc01f94fe7c9c",
        "e1380a742b562071a87b4185cf29890c9dbc1dc012191c5d6433dc8db1c8cbe4",
        ("0x1.bc1a4f8f0bf98p-17", "0x1.56c5f8b678e70p-12", "0x1.060dbb2e99cb7p-9"),
        696, 163680,
    ),
}


@pytest.fixture
def setup():
    sim = AdvectionDiffusionSim(GRID, omega=0.1, kappa=0.04)
    cam = Camera.looking_at_volume(GRID, width=28, height=28)
    tf = TransferFunction.grayscale_ramp(0, 1.6)
    field = supernova_field(GRID, "density", seed=6)
    world = MPIWorld.for_cores(8)
    return sim, cam, tf, field, world


class TestBitwisePins:
    @pytest.mark.parametrize("config", sorted(PINNED))
    def test_insitu_run_is_frozen(self, config):
        cores, n, image, steps, every = config
        frames_sha, field_sha, seconds, messages, nbytes = PINNED[config]
        grid = (n,) * 3
        sim = AdvectionDiffusionSim(grid, omega=0.1, kappa=0.04)
        cam = Camera.looking_at_volume(grid, width=image, height=image)
        tf = TransferFunction.grayscale_ramp(0, 1.6)
        field = supernova_field(grid, "density", seed=6)
        world = MPIWorld.for_cores(cores)
        result = InSituPipeline(world, sim, cam, tf, step=STEP).run(
            field, steps=steps, render_every=every
        )
        assert len(result.frames) == steps // every
        h = hashlib.sha256()
        for frame in result.frames:
            h.update(frame.tobytes())
        assert h.hexdigest() == frames_sha
        assert hashlib.sha256(result.final_field.tobytes()).hexdigest() == field_sha
        got = (result.sim_seconds, result.exchange_seconds, result.vis_seconds)
        assert tuple(float.hex(s) for s in got) == seconds
        assert world.last_network.messages_sent == messages
        assert world.last_network.bytes_sent == nbytes


class TestInSitu:
    def test_frames_match_posthoc_render(self, setup):
        """The in-situ image of step k equals rendering the serial
        solver's step-k state after the fact."""
        sim, cam, tf, field, world = setup
        pipe = InSituPipeline(world, sim, cam, tf, step=STEP)
        result = pipe.run(field, steps=3, render_every=1)
        assert len(result.frames) == 3
        u = field
        for k, frame in enumerate(result.frames, start=1):
            u = sim.step_serial(u)
            ref = render_volume_serial(cam, u, tf, step=STEP)
            assert np.abs(frame - ref).max() < 5e-3, f"frame {k}"
        assert np.array_equal(result.final_field, u)

    def test_render_every_skips_frames(self, setup):
        sim, cam, tf, field, world = setup
        pipe = InSituPipeline(world, sim, cam, tf, step=STEP)
        result = pipe.run(field, steps=4, render_every=2)
        assert len(result.frames) == 2

    def test_no_io_stage(self, setup):
        """In-situ frames run the shared frame tail, so a traced run
        records its render and composite stages — and no I/O stage."""
        sim, cam, tf, field, world = setup
        world.tracer = Tracer(enabled=False)
        pipe = InSituPipeline(world, sim, cam, tf, step=STEP)
        result = pipe.run(field, steps=2, render_every=2)
        stages = world.tracer.stage_maxima()
        assert set(stages) == {"render", "composite"}
        assert 0 < stages["render"] <= result.vis_seconds
        assert 0 < stages["composite"] <= result.vis_seconds
        assert result.sim_seconds > 0
        assert result.exchange_seconds > 0

    def test_invalid_args(self, setup):
        sim, cam, tf, field, world = setup
        pipe = InSituPipeline(world, sim, cam, tf, step=STEP)
        with pytest.raises(ConfigError):
            pipe.run(field, steps=0)
        with pytest.raises(ConfigError):
            pipe.run(np.zeros((4, 4, 4), np.float32), steps=1)
