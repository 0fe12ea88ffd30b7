"""Coupling the solver to the renderer: in-situ frames.

One SPMD program owns both codes.  Each iteration: halo exchange, one
solver step (priced at the node's flop rate), and — every
``render_every`` steps — a rendered frame straight from the resident
blocks: a fresh halo exchange, then the same frame tail post-hoc
frames run (:func:`repro.core.pipeline.frame_tail`: ray cast through
the cached frame plan, direct-send through the backend registry).  No
bytes touch storage.  ``repro insitu`` and the future-work bench price
what the paper's store-then-read workflow would have paid instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compositing.policy import PAPER_POLICY, CompositorPolicy
from repro.core.pipeline import frame_tail
from repro.core.plan import FramePlanCache
from repro.insitu.simulation import AdvectionDiffusionSim
from repro.machine.specs import NodeSpec
from repro.model.constants import DEFAULT_CONSTANTS, ModelConstants
from repro.render.camera import Camera
from repro.render.ghost import ghost_exchange
from repro.render.transfer import TransferFunction
from repro.utils.errors import ConfigError
from repro.vmpi.runner import MPIWorld


@dataclass
class InSituResult:
    """Frames and accounting from one coupled run."""

    frames: list[np.ndarray]
    final_field: np.ndarray
    sim_seconds: float  # simulated time in solver compute
    exchange_seconds: float  # simulated time in halo exchanges
    vis_seconds: float  # simulated time rendering + compositing
    steps: int

    @property
    def total_seconds(self) -> float:
        return self.sim_seconds + self.exchange_seconds + self.vis_seconds


class InSituPipeline:
    """Simulation and visualization sharing the machine (Sec. VI)."""

    def __init__(
        self,
        world: MPIWorld,
        sim: AdvectionDiffusionSim,
        camera: Camera,
        transfer: TransferFunction,
        step: float = 1.0,
        policy: CompositorPolicy = PAPER_POLICY,
        constants: ModelConstants = DEFAULT_CONSTANTS,
        node: NodeSpec | None = None,
    ):
        self.world = world
        self.sim = sim
        self.camera = camera
        self.transfer = transfer
        self.step = step
        self.policy = policy
        self.constants = constants
        self.node = node or NodeSpec()
        self.plan_cache = FramePlanCache()

    def run(self, initial: np.ndarray, steps: int, render_every: int = 1) -> InSituResult:
        """Advance ``steps``; render every ``render_every``-th state."""
        if steps < 1 or render_every < 1:
            raise ConfigError("steps and render_every must be >= 1")
        if tuple(initial.shape) != tuple(self.sim.grid_shape):
            raise ConfigError(
                f"initial field {initial.shape} != grid {self.sim.grid_shape}"
            )
        nprocs = self.world.nprocs
        # Exact blocks plus a one-cell halo exchanged in the program:
        # the frame plan of a post-hoc frame in 'exchange' ghost mode.
        plan = self.plan_cache.plan_for(
            self.camera, self.sim.grid_shape, nprocs, self.step, 1, "exchange",
            self.policy.compositors_for(nprocs),
        )
        dec = plan.decomposition
        locals_ = []
        for b in dec.blocks():
            sl = tuple(slice(s, s + c) for s, c in zip(b.start, b.count))
            locals_.append(np.ascontiguousarray(initial[sl], dtype=np.float32))

        flop_rate = self.node.clock_hz  # ~1 flop/cycle/core, honest for PPC450
        sample_rate = (
            self.constants.render.samples_per_second_per_core
            / self.constants.render.load_imbalance
        )

        result = self.world.run(
            _insitu_program,
            locals_,
            plan,
            self.sim,
            self.camera,
            self.transfer,
            self.step,
            steps,
            render_every,
            flop_rate,
            sample_rate,
        )
        frames = [f for f in result[0][0] if f is not None]
        final = np.empty(self.sim.grid_shape, dtype=np.float32)
        for b, (_frames, block_state, _times) in zip(dec.blocks(), result.values):
            sl = tuple(slice(s, s + c) for s, c in zip(b.start, b.count))
            final[sl] = block_state
        times = np.array([r[2] for r in result.values])
        return InSituResult(
            frames=frames,
            final_field=final,
            sim_seconds=float(times[:, 0].max()),
            exchange_seconds=float(times[:, 1].max()),
            vis_seconds=float(times[:, 2].max()),
            steps=steps,
        )


def _insitu_program(
    ctx,
    locals_,
    plan,
    sim,
    camera,
    transfer,
    step,
    steps,
    render_every,
    flop_rate,
    sample_rate,
):
    u = locals_[ctx.rank]
    dec = plan.decomposition
    block = dec.block(ctx.rank)
    frames = []
    t_sim = t_xch = t_vis = 0.0
    for it in range(steps):
        t0 = ctx.now
        padded, ghost_lo = yield from ghost_exchange(ctx, u, dec, ghost=1)
        t1 = ctx.now
        u = sim.step_padded(padded, ghost_lo, block.start, block.count)
        yield from ctx.compute(u.size * sim.flops_per_voxel() / flop_rate)
        t2 = ctx.now
        t_xch += t1 - t0
        t_sim += t2 - t1
        if (it + 1) % render_every == 0:
            padded2, gl2 = yield from ghost_exchange(ctx, u, dec, ghost=1)
            frame = yield from frame_tail(
                ctx, plan, padded2, gl2, camera, transfer, step, sample_rate,
                compositor="directsend",
            )
            frames.append(frame)
            t_vis += ctx.now - t2
    return frames, u, (t_sim, t_xch, t_vis)
