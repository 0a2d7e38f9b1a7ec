"""The serving layer: asyncio front door over the simulated cluster.

``repro serve`` boots :class:`ReproServer` — a real TCP server speaking
a RESP-like protocol (:mod:`repro.serve.protocol`) — in front of a
:class:`~repro.cluster.ShardedCluster` running in virtual time.  The
pieces:

* :class:`ClusterGateway` — bridges real-time requests into the
  event simulator with ChainClient-style internal retries;
* :class:`AdmissionController` — converts cluster degradation and
  pipeline overload into typed ``RETRY-AFTER`` rejections or bounded
  queue-and-readmit;
* :class:`ProcedureEngine` / :class:`ProcedureStore` — durable
  server-side procedures whose frame stacks persist per step in an NVM
  ring, so a crash resumes the continuation exactly-once;
* :class:`ServeCrashExplorer` — sweeps every frame-persist crash
  point (including nested crashes during recovery) against
  exactly-once oracles;
* :class:`ServeClient` — the asyncio client used by tests, the smoke
  gate and the served-throughput benchmark.

See docs/SERVING.md for the protocol grammar, admission states and the
durable-procedure lifecycle.
"""

from .admission import AdmissionConfig, AdmissionController
from .client import ServeClient
from .explorer import (
    ServeCrashExplorer,
    ServeReport,
    ServeScenario,
)
from .gateway import ClusterGateway
from .procedures import (
    PROCEDURES,
    DurableProcedure,
    ProcedureContext,
    ProcedureEngine,
    ProcedureStore,
    register_procedure,
)
from .protocol import (
    ProtocolReader,
    ReplyReader,
    encode_command,
    encode_error,
    encode_simple,
    error_reply,
    raise_for_reply,
)
from .server import ReproServer

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "ClusterGateway",
    "DurableProcedure",
    "PROCEDURES",
    "ProcedureContext",
    "ProcedureEngine",
    "ProcedureStore",
    "ProtocolReader",
    "ReplyReader",
    "ReproServer",
    "ServeClient",
    "ServeCrashExplorer",
    "ServeReport",
    "ServeScenario",
    "encode_command",
    "encode_error",
    "encode_simple",
    "error_reply",
    "raise_for_reply",
    "register_procedure",
]
