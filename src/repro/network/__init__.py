"""Blue Gene/P interconnect models.

Two cooperating views of the same network:

* :mod:`repro.network.topology` — the 3D torus (and sub-midplane mesh)
  with dimension-ordered routing, including a fully vectorized per-link
  load accumulator used by the analytic performance model, and the
  collective tree network.
* :mod:`repro.network.costs` — message cost laws: latency/bandwidth,
  small-message efficiency falloff (Kumar & Heidelberger), and the
  contention law that reproduces the direct-send collapse at scale
  (Davis et al. hot spots; Hoisie et al. contention).
* :mod:`repro.network.desnet` — event-driven transport used by the
  simulated MPI: per-node injection/ejection serialization plus the
  cost laws, delivering real payloads between ranks.
"""

from repro.network.topology import TorusTopology, TreeNetwork
from repro.network.costs import LinkCostModel, ContentionLaw, NetworkCostModel
from repro.network.desnet import DESNetwork

__all__ = [
    "TorusTopology",
    "TreeNetwork",
    "LinkCostModel",
    "ContentionLaw",
    "NetworkCostModel",
    "DESNetwork",
]
