"""Volume blocks and trilinear sampling."""

import numpy as np
import pytest

from repro.render.volume import VolumeBlock
from repro.utils.errors import ConfigError


class TestGeometry:
    def test_whole_volume_bounds(self):
        vb = VolumeBlock.whole(np.zeros((4, 6, 8), np.float32))
        assert np.array_equal(vb.world_lo, [0, 0, 0])
        assert np.array_equal(vb.world_hi, [7, 5, 3])  # (x, y, z)

    def test_interior_block_extends_to_neighbour(self):
        data = np.zeros((4, 8, 8), np.float32)
        vb = VolumeBlock(data[:, :, :4], (4, 8, 8), (0, 0, 0), (4, 8, 4))
        # Interior x face ends at the neighbour's first voxel (x=4).
        assert vb.world_hi[0] == 4

    def test_boundary_block_clipped(self):
        data = np.zeros((4, 8, 8), np.float32)
        vb = VolumeBlock(data[:, :, 4:], (4, 8, 8), (0, 0, 4), (4, 8, 4))
        assert vb.world_hi[0] == 7  # volume edge, not 8

    def test_center(self):
        vb = VolumeBlock.whole(np.zeros((5, 5, 5), np.float32))
        assert np.allclose(vb.world_center, [2, 2, 2])

    def test_invalid_construction(self):
        with pytest.raises(ConfigError):
            VolumeBlock(np.zeros((2, 2), np.float32), (2, 2, 2), (0, 0, 0), (2, 2, 2))
        with pytest.raises(ConfigError):
            VolumeBlock(np.zeros((2, 2, 2), np.float32), (2, 2, 2), (1, 1, 1), (2, 2, 2))


class TestSampling:
    def test_exact_at_grid_points(self, rng):
        data = rng.random((5, 5, 5)).astype(np.float32)
        vb = VolumeBlock.whole(data)
        pts = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [4.0, 4.0, 4.0]])
        vals = vb.sample_world(pts)
        assert vals[0] == pytest.approx(data[3, 2, 1], rel=1e-6)
        assert vals[1] == pytest.approx(data[0, 0, 0], rel=1e-6)
        assert vals[2] == pytest.approx(data[4, 4, 4], rel=1e-6)

    def test_linear_along_axis(self):
        data = np.zeros((2, 2, 2), np.float32)
        data[:, :, 1] = 1.0
        vb = VolumeBlock.whole(data)
        xs = np.linspace(0, 1, 11)
        pts = np.stack([xs, np.zeros(11), np.zeros(11)], axis=-1)
        assert np.allclose(vb.sample_world(pts), xs, atol=1e-6)

    def test_clamping_outside(self):
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        vb = VolumeBlock.whole(data)
        assert vb.sample_world(np.array([[-1.0, 0, 0]])) == pytest.approx(data[0, 0, 0])
        assert vb.sample_world(np.array([[5.0, 5.0, 5.0]])) == pytest.approx(data[1, 1, 1])

    def test_ghost_makes_blocks_agree_at_shared_face(self, rng):
        """Samples on the face between blocks must match exactly."""
        grid = (8, 8, 8)
        data = rng.random(grid).astype(np.float32)
        left = VolumeBlock(data[:, :, :5], grid, (0, 0, 0), (8, 8, 4))  # +1 ghost x
        right = VolumeBlock(data[:, :, 3:], grid, (0, 0, 4), (8, 8, 4), ghost_lo=(0, 0, 1))
        face_pts = np.stack(
            [np.full(20, 4.0), rng.uniform(0, 7, 20), rng.uniform(0, 7, 20)], axis=-1
        )
        assert np.allclose(left.sample_world(face_pts), right.sample_world(face_pts), atol=1e-6)

    def test_interior_sample_near_face_uses_ghost(self, rng):
        grid = (4, 4, 8)
        data = rng.random(grid).astype(np.float32)
        whole = VolumeBlock.whole(data)
        left = VolumeBlock(data[:, :, :5], grid, (0, 0, 0), (4, 4, 4))
        pts = np.array([[3.7, 1.2, 2.1], [3.99, 3.0, 1.0]])
        assert np.allclose(left.sample_world(pts), whole.sample_world(pts), atol=1e-6)


# Trilinear interpolation is seven lerps in three levels.  In float32
# each lerp ``a * (1 - f) + b * f`` rounds ``1 - f``, both products and
# the sum: at most 2 eps of the data's magnitude per level, 6 eps over
# three levels.  The float64 sampler's own error is negligible beside
# that; the bound below doubles it for margin.  Points are float32 so
# both samplers see the same coordinates.
_F32_SAMPLE_TOL = 12 * float(np.finfo(np.float32).eps)


class TestFloat32Sampler:
    @staticmethod
    def _points(rng, block, m=4000, pad=2.5):
        """Random float32 points over the block's data extent plus
        ``pad`` voxels on every side (clamped region), with a share
        snapped to the voxel lattice (corner and face cases)."""
        nz, ny, nx = block.data.shape
        lo = np.array(
            [block.start[2] - block.ghost_lo[2], block.start[1] - block.ghost_lo[1],
             block.start[0] - block.ghost_lo[0]], np.float64,
        )
        hi = lo + np.array([nx - 1, ny - 1, nz - 1])
        pts = rng.uniform(lo - pad, hi + pad, size=(m, 3))
        pts[: m // 8] = np.round(pts[: m // 8])
        return pts.astype(np.float32)

    @staticmethod
    def _assert_close(block, pts):
        got = block.sample_world_f32(pts)
        want = block.sample_world(pts)
        assert got.dtype == np.float32
        assert got.shape == want.shape
        scale = max(float(np.abs(block.data).max()), 1.0)
        assert np.abs(got - want).max() <= _F32_SAMPLE_TOL * scale

    def test_whole_volume_random_and_clamped_points(self, rng):
        data = (rng.random((9, 12, 7)) * 2 - 1).astype(np.float32)
        block = VolumeBlock.whole(data)
        self._assert_close(block, self._points(rng, block))

    def test_ghosted_interior_block(self, rng):
        grid = (20, 18, 22)
        data = (rng.random(grid) * 2 - 1).astype(np.float32)
        block = VolumeBlock(
            data[4:13, 5:12, 6:17], grid, (5, 6, 7), (7, 5, 9), ghost_lo=(1, 1, 1)
        )
        self._assert_close(block, self._points(rng, block))

    def test_batched_point_shapes(self, rng):
        data = (rng.random((6, 6, 6)) * 2 - 1).astype(np.float32)
        block = VolumeBlock.whole(data)
        pts = self._points(rng, block, m=600).reshape(20, 30, 3)
        self._assert_close(block, pts)
        # The kernel passes the transpose of a (3, m) array.
        self._assert_close(block, np.ascontiguousarray(pts.reshape(-1, 3).T).T)
        self._assert_close(block, pts[0, 0])  # one point, shape (3,)

    @pytest.mark.parametrize("shape", [(1, 6, 7), (5, 1, 7), (5, 6, 1), (1, 1, 4)])
    def test_degenerate_axis_falls_back(self, rng, shape):
        data = (rng.random(shape) * 2 - 1).astype(np.float32)
        block = VolumeBlock.whole(data)
        self._assert_close(block, self._points(rng, block, m=500))
