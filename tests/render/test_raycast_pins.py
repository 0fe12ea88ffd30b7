"""Bitwise pins of the production kernel, :func:`render_block`.

The compacted kernel is free to change *how* it marches — which points
it evaluates, how it gathers — but not *what* it computes: every case
below pins the sha256 of the float32 RGBA partial image and the exact
applied-sample count.  The simulated render time is ``samples / rate``,
so a changed count would move every simulated frame timing too.

The cases cover the kernel's distinct regimes:

* a ghosted interior 16^3 sub-block at 256^2, marched in one window;
* a whole 48^3 volume at 512^2 (~250K rays), where the batch target
  clamps the window to ``_MIN_CHUNK`` and rays march many windows;
* early termination 0.95, which stops rays part-way through a window;
* a block with a size-1 data axis, which takes the clamped
  :meth:`VolumeBlock.sample_world` fallback.
"""

import hashlib

import numpy as np
import pytest

from repro.render.camera import Camera
from repro.render.raycast import build_ray_plan, render_block
from repro.render.transfer import TransferFunction
from repro.render.volume import VolumeBlock


def _ghosted_subblock():
    rng = np.random.default_rng(14)
    grid = (32, 32, 32)
    data = rng.random(grid).astype(np.float32) * 2 - 1
    block = VolumeBlock(
        data[7:25, 7:25, 7:25], grid, (8, 8, 8), (16, 16, 16), ghost_lo=(1, 1, 1)
    )
    cam = Camera.looking_at_volume(
        grid, width=256, height=256, azimuth_deg=30, elevation_deg=20
    )
    return block, cam


def _whole_volume():
    rng = np.random.default_rng(48)
    data = rng.random((48, 48, 48)).astype(np.float32) * 2 - 1
    cam = Camera.looking_at_volume(
        data.shape, width=512, height=512, azimuth_deg=-35, elevation_deg=25
    )
    return VolumeBlock.whole(data), cam


def _size_one_axis():
    rng = np.random.default_rng(1)
    grid = (12, 10, 14)
    data = rng.random(grid).astype(np.float32) * 2 - 1
    block = VolumeBlock(data[:, 4:5, :], grid, (0, 4, 0), (12, 1, 14))
    cam = Camera.looking_at_volume(
        grid, width=64, height=64, azimuth_deg=20, elevation_deg=35
    )
    return block, cam


#: name -> (scene, step, early_termination, rect, samples, sha256 of rgba)
PINNED = {
    "ghosted_16_one_window": (
        _ghosted_subblock, 1.0, 0.999, (47, 42, 158, 158), 125196,
        "c7c66adfb7540ad6496c5c4f130a945a36c484774393bc79813d447a3d747304",
    ),
    "whole_48_many_windows": (
        _whole_volume, 0.8, 0.999, (0, 0, 512, 512), 2566017,
        "c8d72ff618b2b2ed48251132344e87b75240bcd02293a180e9e6dd92a3ac0901",
    ),
    "early_termination_mid_window": (
        _ghosted_subblock, 0.5, 0.95, (47, 42, 158, 158), 134597,
        "1c129379a486d92a8892ac6feca3d552a6ec51f01739659ea2ff220c59173f48",
    ),
    "size_one_axis_fallback": (
        _size_one_axis, 0.5, 0.999, (0, 9, 62, 39), 4443,
        "311695ec7fbeb956eae22863006bd59a0f850e13311cac6ebfa5bf82415d5f0c",
    ),
}


class TestKernelPins:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_render_block_is_frozen(self, name):
        scene, step, et, rect, samples, sha = PINNED[name]
        block, cam = scene()
        tf = TransferFunction.supernova(-1.0, 1.0)
        p = render_block(cam, block, tf, step=step, early_termination=et)
        assert p.rect == rect
        assert p.samples == samples
        assert hashlib.sha256(p.rgba.tobytes()).hexdigest() == sha


class _CountingBlock(VolumeBlock):
    """Counts every point the kernel hands to the float32 sampler."""

    points = 0

    def sample_world_f32(self, points):
        self.points += int(np.prod(np.shape(points)[:-1]))
        return super().sample_world_f32(points)


class TestPrefixOnlySampling:
    @pytest.mark.parametrize("scene,step", [
        (_ghosted_subblock, 1.0),
        (_ghosted_subblock, 0.5),
        (_whole_volume, 0.8),
    ])
    def test_samples_only_inside_each_segment(self, scene, step):
        # Without early termination every ray marches its whole
        # [k_lo, k_hi) segment; the kernel must evaluate exactly those
        # points — none of the padding that squares off a window.
        block, cam = scene()
        counting = _CountingBlock(
            block.data, block.grid_shape, block.start, block.count, block.ghost_lo
        )
        plan = build_ray_plan(cam, block.world_lo, block.world_hi, step)
        tf = TransferFunction.supernova(-1.0, 1.0)
        p = render_block(cam, counting, tf, step=step, early_termination=1.0, plan=plan)
        in_segment = int((plan.k_hi - plan.k_lo).sum())
        assert counting.points == in_segment
        assert p.samples == in_segment
