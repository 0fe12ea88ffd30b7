"""The backend registry: lookup, validation, and the exactness matrix.

Every registered backend composites the same rendered partials through
:meth:`CompositingBackend.compose` and must reproduce the local serial
oracle — including odd image sizes, m < n compositor limiting, and
scanline-strip tile decompositions where the backend uses tiles at all.
"""

import numpy as np
import pytest

from repro.compositing.backends import (
    ComposeRequest,
    CompositingBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.compositing.schedule import schedule_from_geometry
from repro.compositing.serial import compose_locally
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.render.raycast import render_block
from repro.render.transfer import TransferFunction
from repro.render.volume import VolumeBlock
from repro.utils.errors import ConfigError
from repro.vmpi import MPIWorld

GRID = (16, 16, 16)
STEP = 0.7
ALL_BACKENDS = ("directsend", "dfb", "puzzlepiece", "binaryswap", "radixk", "serial")
#: Backends that composite through the tile schedule (binary swap and
#: radix-k split image rows by rank instead, so strips mean nothing).
SCHEDULED = ("directsend", "dfb", "puzzlepiece", "serial")


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(42).random(GRID).astype(np.float32)


def make_scene(width, height):
    cam = Camera.looking_at_volume(
        GRID, width=width, height=height, azimuth_deg=25, elevation_deg=30
    )
    return cam, TransferFunction.grayscale_ramp()


def make_partial(rank, dec, data, cam, tf):
    b = dec.block(rank)
    rs, rc, gl = b.ghost_read(GRID, ghost=1)
    sub = data[rs[0]: rs[0] + rc[0], rs[1]: rs[1] + rc[1], rs[2]: rs[2] + rc[2]]
    return render_block(cam, VolumeBlock(sub, GRID, b.start, b.count, gl), tf, step=STEP)


def run_backend(name, nprocs, m, data, cam, tf, strips=False, error_budget=0.0):
    dec = BlockDecomposition(GRID, nprocs)
    sched = schedule_from_geometry(dec, cam, m, strips=strips)
    backend = get_backend(name)
    backend.validate(nprocs, decomposition=dec, error_budget=error_budget)

    def program(ctx):
        partial = make_partial(ctx.rank, dec, data, cam, tf)
        req = ComposeRequest(
            partial=partial, schedule=sched, decomposition=dec, camera=cam,
            render_seconds=1e-4, error_budget=error_budget,
        )
        return (yield from backend.compose(ctx, req))

    res = MPIWorld.for_cores(nprocs).run(program)
    image, stats = backend.finalize(res.values, cam)
    return image, stats, res


class TestRegistry:
    def test_all_six_registered(self):
        assert set(ALL_BACKENDS) <= set(backend_names())

    def test_get_backend_returns_named_instance(self):
        for name in ALL_BACKENDS:
            assert get_backend(name).name == name

    def test_unknown_name_lists_what_exists(self):
        with pytest.raises(ConfigError, match="binaryswap.*directsend"):
            get_backend("splatting")

    def test_register_backend_last_wins(self):
        class Custom(CompositingBackend):
            name = "directsend"

        original = get_backend("directsend")
        try:
            custom = register_backend(Custom())
            assert get_backend("directsend") is custom
        finally:
            register_backend(original)
        assert get_backend("directsend") is original


class TestValidation:
    def test_binaryswap_rejects_non_pow2_grid(self):
        dec = BlockDecomposition(GRID, 12)  # 3 on one axis
        with pytest.raises(ConfigError, match="power-of-two"):
            get_backend("binaryswap").validate(12, decomposition=dec)

    def test_radixk_rejects_unfactorable_extent(self):
        dec = BlockDecomposition(GRID, 7)  # prime > k on one axis
        with pytest.raises(ConfigError, match="factor"):
            get_backend("radixk").validate(7, decomposition=dec)

    def test_exact_backends_reject_error_budget(self):
        dec = BlockDecomposition(GRID, 8)
        for name in ("directsend", "dfb", "binaryswap", "radixk", "serial"):
            with pytest.raises(ConfigError, match="error"):
                get_backend(name).validate(8, decomposition=dec, error_budget=0.1)

    def test_non_failover_backends_reject_crash_plans(self):
        dec = BlockDecomposition(GRID, 8)
        for name in ("puzzlepiece", "binaryswap", "radixk", "serial"):
            with pytest.raises(ConfigError, match="failover"):
                get_backend(name).validate(8, decomposition=dec, failover=True)

    def test_failover_backends_accept_crash_plans(self):
        dec = BlockDecomposition(GRID, 8)
        get_backend("directsend").validate(8, decomposition=dec, failover=True)
        get_backend("dfb").validate(8, decomposition=dec, failover=True)

    def test_one_block_per_rank_enforced(self):
        dec = BlockDecomposition(GRID, 8)
        with pytest.raises(ConfigError, match="one block per rank"):
            get_backend("binaryswap").validate(16, decomposition=dec)


class TestExactnessMatrix:
    """Every backend vs the local oracle, across awkward geometries."""

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    @pytest.mark.parametrize("nprocs,width,height", [(8, 48, 40), (8, 47, 33), (16, 45, 40)])
    def test_matches_oracle(self, name, nprocs, width, height, data):
        cam, tf = make_scene(width, height)
        dec = BlockDecomposition(GRID, nprocs)
        ref = compose_locally(
            [make_partial(r, dec, data, cam, tf) for r in range(nprocs)],
            cam.width, cam.height,
        )
        image, _stats, _res = run_backend(name, nprocs, nprocs, data, cam, tf)
        assert np.allclose(image, ref, atol=1e-5)

    @pytest.mark.parametrize("name", SCHEDULED)
    @pytest.mark.parametrize("m", (1, 3, 8))
    def test_compositor_limiting(self, name, m, data):
        cam, tf = make_scene(48, 40)
        dec = BlockDecomposition(GRID, 8)
        ref = compose_locally(
            [make_partial(r, dec, data, cam, tf) for r in range(8)],
            cam.width, cam.height,
        )
        image, _stats, _res = run_backend(name, 8, m, data, cam, tf)
        assert np.allclose(image, ref, atol=1e-5)

    @pytest.mark.parametrize("name", SCHEDULED)
    def test_strip_tiles(self, name, data):
        cam, tf = make_scene(47, 40)
        dec = BlockDecomposition(GRID, 8)
        ref = compose_locally(
            [make_partial(r, dec, data, cam, tf) for r in range(8)],
            cam.width, cam.height,
        )
        image, _stats, _res = run_backend(name, 8, 4, data, cam, tf, strips=True)
        assert np.allclose(image, ref, atol=1e-5)

    def test_dfb_bitwise_matches_directsend(self, data):
        cam, tf = make_scene(48, 40)
        ds, _s, _r = run_backend("directsend", 8, 8, data, cam, tf)
        dfb, _s, _r = run_backend("dfb", 8, 8, data, cam, tf)
        assert np.array_equal(ds, dfb)
