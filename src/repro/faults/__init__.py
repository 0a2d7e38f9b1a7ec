"""repro.faults — seeded nemesis fault injection for the chain.

Composes the :class:`~repro.sim.network.SimNetwork` fault surface
(lossy/duplicating/reordering/corrupting links, partitions, slow
nodes) with the recovery verbs (quick reboot, fail-stop, node
replacement) into declarative, exactly-replayable fault scenarios, and
judges each run with convergence oracles.  See ``docs/FAULTS.md``.
"""

from ..replication.chain import RetryPolicy
from ..sim.network import LinkFaultPolicy, NetStats
from .nemesis import FaultAction, Nemesis, NemesisScenario
from .runner import (
    NemesisResult,
    client_streams,
    demonstrate_unprotected,
    minimize,
    repro_snippet,
    run_corpus,
    run_scenario,
)
from .scenarios import CLUSTER_CORPUS, CORPUS, MEDIA_CORPUS, scenario_by_name

__all__ = [
    "CLUSTER_CORPUS",
    "CORPUS",
    "FaultAction",
    "LinkFaultPolicy",
    "MEDIA_CORPUS",
    "Nemesis",
    "NemesisResult",
    "NemesisScenario",
    "NetStats",
    "RetryPolicy",
    "client_streams",
    "demonstrate_unprotected",
    "minimize",
    "repro_snippet",
    "run_corpus",
    "run_scenario",
    "scenario_by_name",
]
