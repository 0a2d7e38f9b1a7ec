"""The production front door: an asyncio server over the simulated cluster.

``repro serve`` boots this server on a real TCP socket.  Connections
speak the RESP-like grammar (:mod:`repro.serve.protocol`); each batch
of pipelined commands is admitted (:mod:`repro.serve.admission`),
executed against the :class:`~repro.cluster.ShardedCluster` through the
virtual-time gateway (:mod:`repro.serve.gateway`), and answered in
order.  ``PROC`` commands run :class:`DurableProcedure` programs whose
frame stacks persist in the NVM procedure log — a crash mid-procedure
(simulated by power-failing the log's device) is recovered *inside the
request*: the server replays the log, resumes the continuation, and
still answers the command exactly-once.

Command table (full grammar in docs/SERVING.md):

    PING                        +PONG
    PUT <key> <value>           +OK
    DEL <key>                   +OK
    RMW <key> <value>           +OK     (read-modify-write builtin)
    GET <key>                   $<value> | $-1
    PROC <name> <pid> <args..>  $<json result> | +RESUMED <json>
    PROCRESULT <pid>            $<json> | $-1
    CRASH                       +RECOVERED <n resumed>   (test hook)
    METRICS                     $<json>  (device/net/admission/procedure)
    INFO                        $<json>  (topology + address)
    QUIT                        +BYE, then close
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import asdict
from typing import Any, List, Optional, Tuple

from ..errors import (
    DeviceCrashedError,
    ProcedureError,
    ProcedureResumed,
    ProtocolError,
    ReproError,
)
from ..cluster import ShardedCluster
from .admission import AdmissionConfig, AdmissionController
from .gateway import ClusterGateway
from .procedures import ProcedureEngine, ProcedureStore
from .protocol import (
    ProtocolReader,
    encode_bulk,
    encode_error,
    encode_simple,
    error_reply,
)

#: mutating verbs pass through admission control; reads and
#: introspection do not (sheddable work is what holds NVM bandwidth)
_MUTATING = frozenset({b"PUT", b"DEL", b"RMW", b"PROC"})


class ReproServer:
    """Asyncio front end over a ``ShardedCluster`` of the given topology."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 *, groups: int = 2, shards_per_group: int = 2, f: int = 1,
                 seed: int = 0, admission: Optional[AdmissionConfig] = None):
        cluster = ShardedCluster(
            groups=groups, shards_per_group=shards_per_group, f=f,
            heap_mb=2, value_size=64, seed=seed,
        )
        self.cluster = cluster
        self.host = host
        self.port = port
        self.gateway = ClusterGateway(cluster)
        self.admission = AdmissionController(cluster, admission)
        self.store = ProcedureStore()
        self.procedures = ProcedureEngine(self.gateway, self.store)
        self.connections_opened = 0
        self.connections_closed = 0
        self.requests = 0
        self.protocol_errors = 0
        self.crashes_recovered = 0
        self._session_seq = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # drain live connection handlers: on 3.10/3.11 wait_closed()
        # does not wait for them, and letting asyncio.run cancel them
        # mid-teardown leaks "exception never retrieved" noise
        if self._conn_tasks:
            await asyncio.gather(*tuple(self._conn_tasks),
                                 return_exceptions=True)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- connection lifecycle --------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.connections_opened += 1
        self._session_seq += 1
        session = f"conn{self._session_seq}"
        parser = ProtocolReader()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                try:
                    parser.feed(data)
                    batch = parser.pop_all()
                except ProtocolError as exc:
                    self.protocol_errors += 1
                    writer.write(encode_error("ERR", str(exc)))
                    await writer.drain()
                    break
                if not batch:
                    continue
                replies, close = self.handle_batch(batch, session=session)
                writer.write(b"".join(replies))
                await writer.drain()
                if close:
                    break
        finally:
            self.connections_closed += 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- request execution (synchronous core; tests drive this directly) -------

    def handle_batch(self, batch: List[List[bytes]],
                     session: str = "conn0") -> Tuple[List[bytes], bool]:
        """Process one pipelined batch in order; replies match command
        order one-to-one.  Returns ``(replies, close_connection)``."""
        replies: List[bytes] = []
        inflight = 0
        for cmd in batch:
            reply, close = self.handle_command(cmd, session=session,
                                               batch_index=inflight)
            if cmd and cmd[0].upper() in _MUTATING:
                inflight += 1
            replies.append(reply)
            if close:
                return replies, True
        return replies, False

    def handle_command(self, argv: List[bytes], session: str = "conn0",
                       batch_index: int = 0) -> Tuple[bytes, bool]:
        self.requests += 1
        try:
            return self._dispatch(argv, session, batch_index)
        except ProtocolError as exc:
            self.protocol_errors += 1
            return error_reply(exc), False
        except ProcedureResumed as exc:
            # the exactly-once replay path: a retried pid gets its
            # original result, marked so the client can tell
            return encode_simple(
                "RESUMED " + json.dumps(exc.result, sort_keys=True)
            ), False
        except ReproError as exc:
            return error_reply(exc), False

    def _dispatch(self, argv: List[bytes], session: str,
                  batch_index: int) -> Tuple[bytes, bool]:
        if not argv:
            raise ProtocolError("empty command")
        verb = argv[0].upper()
        if verb in _MUTATING:
            self.admission.admit(batch_index)
        if verb == b"PING":
            return encode_simple("PONG"), False
        if verb == b"QUIT":
            return encode_simple("BYE"), True
        if verb in (b"PUT", b"RMW"):
            key, value = self._key(argv, 3), bytes(argv[2])
            proc = "put" if verb == b"PUT" else "rmw_const"
            self.gateway.call_write(proc, (key, value), (key,),
                                    client_id=session,
                                    request_id=self.requests)
            return encode_simple("OK"), False
        if verb == b"DEL":
            key = self._key(argv, 2)
            self.gateway.call_write("delete", (key,), (key,),
                                    client_id=session,
                                    request_id=self.requests)
            return encode_simple("OK"), False
        if verb == b"GET":
            key = self._key(argv, 2)
            value = self.gateway.call_read("get", (key,))
            return encode_bulk(None if value is None else bytes(value)), False
        if verb == b"PROC":
            if len(argv) < 3:
                raise ProtocolError("PROC needs <name> <pid> [args...]")
            name = argv[1].decode("utf-8")
            pid = argv[2].decode("utf-8")
            args = [a.decode("utf-8") for a in argv[3:]]
            result = self._run_procedure(name, args, pid)
            return encode_bulk(
                json.dumps(result, sort_keys=True).encode("utf-8")
            ), False
        if verb == b"PROCRESULT":
            if len(argv) != 2:
                raise ProtocolError("PROCRESULT needs <pid>")
            pid = argv[1].decode("utf-8")
            result = self.procedures.result(pid)
            if result is None and pid not in self.store.done:
                return encode_bulk(None), False
            return encode_bulk(
                json.dumps(result, sort_keys=True).encode("utf-8")
            ), False
        if verb == b"CRASH":
            resumed = self.crash_and_resume()
            return encode_simple(f"RECOVERED {len(resumed)}"), False
        if verb == b"METRICS":
            return encode_bulk(
                json.dumps(self.metrics(), sort_keys=True).encode("utf-8")
            ), False
        if verb == b"INFO":
            return encode_bulk(
                json.dumps(self.info(), sort_keys=True).encode("utf-8")
            ), False
        raise ProtocolError(f"unknown command {verb.decode('utf-8', 'replace')}")

    @staticmethod
    def _key(argv: List[bytes], arity: int) -> int:
        if len(argv) != arity:
            raise ProtocolError(
                f"{argv[0].decode('utf-8', 'replace')} needs {arity - 1} "
                f"argument(s)"
            )
        try:
            return int(argv[1])
        except ValueError:
            raise ProtocolError(f"key {argv[1]!r} is not an integer") from None

    # -- durable procedures ----------------------------------------------------

    def _run_procedure(self, name: str, args: List[str], pid: str) -> Any:
        """Run a procedure; a crash of the procedure log mid-run is
        recovered in place and the command still answers exactly-once."""
        try:
            return self.procedures.run(name, args, pid=pid)
        except DeviceCrashedError:
            self.crash_and_resume()
            stored = self.procedures.result(pid)
            if stored is not None or pid in self.store.done:
                raise ProcedureResumed(
                    f"procedure {pid} completed across a crash",
                    pid=pid, result=stored,
                ) from None
            # the begin record itself was torn away: run it afresh
            return self.procedures.run(name, args, pid=pid)

    def crash_and_resume(self) -> List[Tuple[str, Any]]:
        """Power-fail the procedure log, replay it, resume continuations."""
        self.store.crash_and_recover()
        resumed = self.procedures.resume_all()
        self.crashes_recovered += 1
        return resumed

    # -- introspection ---------------------------------------------------------

    def metrics(self) -> dict:
        cluster = self.cluster
        return {
            "server": {
                "connections_opened": self.connections_opened,
                "connections_closed": self.connections_closed,
                "requests": self.requests,
                "protocol_errors": self.protocol_errors,
                "crashes_recovered": self.crashes_recovered,
            },
            "admission": self.admission.stats(),
            "gateway": self.gateway.stats(),
            "procedures": self.procedures.stats(),
            "cluster": {
                "sim_now_ns": cluster.sim.now,
                "degraded": cluster.degraded,
                "committed": cluster.committed,
                "aborted": cluster.aborted,
                "retransmissions": cluster.retransmissions,
                "timed_out": cluster.timed_out,
                "degraded_rejections": cluster.degraded_rejections,
                "breaker_transitions": cluster.breaker_transitions,
                "backpressure_stalls": cluster.backpressure_stalls,
                "duplicate_requests": cluster.duplicate_requests,
            },
            "procedure_log_device": asdict(self.store.device.stats),
            "net": asdict(cluster.net.stats),
        }

    def info(self) -> dict:
        cluster = self.cluster
        return {
            "address": list(self.address) if self.address else None,
            "groups": len(cluster.groups),
            "map_version": cluster.map_version,
            "procedures": sorted(self.procedures.registry),
            "durable": self.procedures.durable,
        }
