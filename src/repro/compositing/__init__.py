"""Sort-last image compositing (Sec. III-B3 of the paper).

The backend registry (:func:`get_backend`) is the package's one
compositing entry point: every frame — post-hoc, time-series, farm,
progressive, and in-situ — composites through
:meth:`CompositingBackend.compose`.  The algorithm modules below hold
the per-scheme communication patterns the backends drive; their free
functions are not re-exported here.

* :mod:`repro.compositing.tiles` — the final image divided into tiles,
  one per compositor.
* :mod:`repro.compositing.schedule` — the static message schedule:
  which renderer sends which footprint piece to which compositor.
  "The number of compositors is known at initialization time, and the
  schedule of messages is built around this number from the beginning."
* :mod:`repro.compositing.policy` — how m is chosen from n, including
  the paper's empirical schedule (1K compositors for 1K-4K renderers,
  2K beyond).
* :mod:`repro.compositing.backends` — the backend registry.
* :mod:`repro.compositing.directsend` — direct-send compositing with
  the paper's key generalization: n renderers, m <= n compositors.
* :mod:`repro.compositing.dfb` — Distributed FrameBuffer: streamed
  tile routing that overlaps compositing with the ray-march.
* :mod:`repro.compositing.puzzlepiece` — approximate compositing with
  a per-pixel ``error_budget``; drops low-contribution pieces.
* :mod:`repro.compositing.binaryswap` — the binary-swap baseline
  (Ma et al.), for the ablation benches.
* :mod:`repro.compositing.radixk` — radix-k rounds (the SC'09
  follow-on), interpolating binary swap and direct-send.
* :mod:`repro.compositing.serial` — gather-to-root baseline and the
  correctness oracle.
"""

from repro.compositing.tiles import TileDecomposition
from repro.compositing.schedule import (
    CompositeMessage,
    CompositeSchedule,
    build_schedule,
    clear_schedule_cache,
    schedule_cache_info,
    schedule_from_geometry,
)
from repro.compositing.policy import CompositorPolicy, PAPER_POLICY, IDENTITY_POLICY
from repro.compositing.radixk import default_radices
from repro.compositing.puzzlepiece import puzzle_thresholds
from repro.compositing.backends import (
    ComposeRequest,
    CompositingBackend,
    backend_names,
    get_backend,
    register_backend,
)

__all__ = [
    "ComposeRequest",
    "CompositingBackend",
    "backend_names",
    "get_backend",
    "register_backend",
    "puzzle_thresholds",
    "TileDecomposition",
    "CompositeMessage",
    "CompositeSchedule",
    "build_schedule",
    "clear_schedule_cache",
    "schedule_cache_info",
    "schedule_from_geometry",
    "CompositorPolicy",
    "PAPER_POLICY",
    "IDENTITY_POLICY",
    "default_radices",
]
