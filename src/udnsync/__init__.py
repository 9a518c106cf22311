"""Monte-Carlo simulator of distributed time synchronization in an
ultra-dense small-cell network.

Two coupled phases are modeled:

* a consensus clock-alignment loop driven by an interference-weighted
  digraph over the small base stations (SBSs), and
* a NOMA-assisted information-exchange schedule (stable marriage,
  Pareto swap matching, power-split grid search) whose message-transfer
  delay is added to the algorithmic time to obtain the total network
  synchronization time.
"""

from udnsync.config import SimConfig, dbm_to_watts
from udnsync.topology import Topology, place_nodes
from udnsync.consensus import ClockState, SyncTrace, init_clocks, run_sync
from udnsync.scheduler import ScheduleOutcome, schedule_exchange

__all__ = [
    "SimConfig",
    "dbm_to_watts",
    "Topology",
    "place_nodes",
    "init_clocks",
    "ClockState",
    "SyncTrace",
    "run_sync",
    "ScheduleOutcome",
    "schedule_exchange",
]
