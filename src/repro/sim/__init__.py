"""Discrete-event simulation (DES) kernel.

The kernel drives *coroutine processes*: plain Python generators that
``yield`` simulation primitives —

* a ``float`` / :class:`Delay` — suspend for simulated time,
* a :class:`Future` — suspend until the future resolves; the ``yield``
  expression evaluates to the future's value,
* an :class:`AllOf` — suspend until several futures resolve.

Everything higher in the stack (the simulated MPI, the storage model,
the rendering pipeline) is built from these three primitives.
"""

from repro.sim.events import Event, Future, Delay, AllOf
from repro.sim.engine import Engine, Process

__all__ = ["Event", "Future", "Delay", "AllOf", "Engine", "Process"]
