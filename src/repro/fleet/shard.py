"""Shard servers: one :class:`PlanService` per slice of the fingerprint space.

A shard is the unit of horizontal scale: it owns a contiguous set of ring
positions (see :mod:`repro.fleet.ring`), runs a full single-process plan
service (cache tiers, single-flight, worker pool, deadline fallback), and
speaks wire protocol v2 over TCP.  Shards never talk to each other — the
frontend routes, replicates and aggregates — which keeps every shard
failure mode local.

Two run modes, same server class:

* **thread** — the shard lives in the calling process behind a
  ``ThreadingTCPServer``; used by tests and by small single-machine fleets
  where process isolation is not worth the memory duplication;
* **process** — :func:`run_shard` is spawned as a separate OS process (the
  production topology from the ISSUE): its cache, worker pool, metrics and
  tracer are fully isolated, and the actual bound port travels back over a
  pipe so ephemeral ports work.

The supervisor starts N shards with per-shard disk-cache directories
(``<cache_dir>/shard-<name>``) and stops them by protocol (a ``shutdown``
frame drains the shard's in-flight jobs before the ack), falling back to
termination only when a process stops responding.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..core.serialize import plan_from_dict, plan_to_dict
from ..obs import telemetry as telemetry_store
from ..obs.logging import get_logger, set_log_context
from ..obs.tracing import tracer
from ..service.cache import PlanCache
from ..service.server import (
    MAX_REQUEST_BYTES,
    answer_doc,
    drain_ack,
    is_shutdown_ack,
    plan_response,
    refusal,
    response_to_doc,
    run_sync,
    too_large,
)
from ..service.service import PlanService
from .chaos import ChaosController, ChaosSpec
from .retry import RetryPolicy
from .ring import HashRing
from .wire import FrameError, FrameTooLarge, negotiate, recv_frame, send_frame

log = get_logger("repro.fleet.shard")


class _ShardRequestHandler(socketserver.BaseRequestHandler):
    """One connection: a loop of v2 frames until EOF or shutdown."""

    def setup(self) -> None:  # pragma: no cover - exercised via sockets
        self.server.shard._track(self.request)  # type: ignore[attr-defined]

    def finish(self) -> None:  # pragma: no cover - exercised via sockets
        self.server.shard._untrack(self.request)  # type: ignore[attr-defined]

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        shard: "ShardServer" = self.server.shard  # type: ignore[attr-defined]
        sock = self.request
        while True:
            if shard.killed:  # a dead shard accepts nothing, answers less
                return
            try:
                doc = recv_frame(sock, max_bytes=MAX_REQUEST_BYTES)
            except FrameTooLarge as exc:
                try:
                    send_frame(sock, too_large(exc.declared),
                               chaos=shard.chaos)
                except OSError:
                    pass
                return  # stream is desynchronized past a refused frame
            except (FrameError, OSError):
                return
            # re-check after the blocking read: killed is set before any
            # connection is severed, so a request that arrives once the
            # kill is observable must be dropped, not served — without
            # this a not-yet-severed link can answer one last request
            if doc is None or shard.killed:
                return
            reply, stop = shard.handle_doc(doc)
            if reply is None:  # a chaos crash answers with silence
                return
            try:
                send_frame(sock, reply, chaos=shard.chaos,
                           telemetry=shard.service.telemetry)
            except OSError:
                return
            if stop:
                shard.request_stop()
                return


class _ShardTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    block_on_close = False


class ShardServer:
    """A plan service behind a threaded TCP server speaking wire v2."""

    def __init__(
        self,
        name: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir=None,
        capacity: int = 128,
        workers: Optional[int] = None,
        fallback_backend: str = "greedy",
        trace: bool = False,
        chaos=None,
        hard_exit: bool = False,
        telemetry_dir=None,
        slo=None,
        profile_path=None,
    ):
        self.name = str(name)
        # in thread mode several shards share one process, so each shard
        # gets its own writer (per-shard directory) instead of the
        # process-wide install; in process mode run_shard installs the
        # writer process-wide before building the server
        telemetry = None
        if telemetry_dir is not None:
            telemetry = telemetry_store.TelemetryWriter(telemetry_dir)
        # profile travels as a *path* (a primitive: pickles through spawn,
        # same pattern as the chaos/slo spec strings); every shard loads
        # the same calibrated rates and prices its plans with them
        default_profile = None
        if profile_path:
            from ..hardware.profile import load_profile

            default_profile = load_profile(profile_path)
        self.service = PlanService(
            cache=PlanCache(capacity=capacity, disk_dir=cache_dir),
            workers=workers,
            fallback_backend=fallback_backend,
            slo=slo,
            telemetry=telemetry,
            telemetry_labels={"shard": str(name)},
            default_profile=default_profile,
        )
        if trace:
            tracer.enable()
        if isinstance(chaos, str):
            chaos = ChaosSpec.parse(chaos)
        if isinstance(chaos, ChaosSpec):
            chaos = ChaosController(chaos)
        #: this shard's fault injector (None = healthy); scoped to the
        #: server so one chaotic shard never perturbs its peers
        self.chaos: Optional[ChaosController] = chaos
        #: under ``hard_exit`` a ``chaos_kill`` is a real crash
        #: (``os._exit``): no drain, no reply, no atexit — process mode
        self._hard_exit = hard_exit
        self._frozen_until = 0.0
        #: set by a thread-mode chaos kill: the listening socket may take
        #: a poll interval to close, so connections that sneak in are
        #: dropped on sight instead of served by the "dead" shard
        self.killed = False
        #: live client sockets; a thread-mode chaos kill severs them all,
        #: because a crashed process drops its connections too
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        self._server = _ShardTCPServer((host, port), _ShardRequestHandler)
        self._server.shard = self  # type: ignore[attr-defined]
        self.host, self.port = self._server.server_address[:2]
        self._serve_thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def handle_doc(self, doc: Dict) -> Tuple[Optional[Dict], bool]:
        """Answer one frame; returns ``(reply, stop_serving)``.

        A ``None`` reply means "answer with silence and drop the
        connection" — only the chaos kill path produces it, because a
        crashing shard does not say goodbye.
        """
        frozen_for = self._frozen_until - time.monotonic()
        if frozen_for > 0:  # chaos freeze: the shard stops answering
            time.sleep(frozen_for)
        reply = run_sync(answer_doc(self, doc, SHARD_OPS, shard=self.name))
        return reply, reply is None or is_shutdown_ack(reply)

    def _handle_plan(self, doc: Dict) -> Dict:
        response = plan_response(self.service, doc,
                                 trace_id=doc.get("trace_id"))
        reply = response_to_doc(response)
        reply["shard"] = self.name
        if doc.get("include_plan"):
            reply["plan"] = plan_to_dict(response.planned)
        return reply

    def _handle_cache_put(self, doc: Dict) -> Dict:
        """Warm-replication receiver: install a peer-planned cache entry."""
        fingerprint = doc.get("fingerprint")
        plan_doc = doc.get("plan")
        if not fingerprint or not isinstance(plan_doc, dict):
            raise ValueError("cache_put needs 'fingerprint' and 'plan'")
        planned = plan_from_dict(plan_doc)
        self.service.cache.put(fingerprint, planned)
        return {"ok": True, "shard": self.name, "stored": True,
                "fingerprint": fingerprint}

    def _handle_stats(self, doc: Dict) -> Dict:
        stats = self.service.snapshot()
        if self.chaos is not None:
            stats["chaos"] = self.chaos.snapshot()
        return {"ok": True, "shard": self.name, "stats": stats}

    def _handle_trace(self, doc: Dict) -> Dict:
        spans = [dict(span.as_dict(), process=f"shard-{self.name}")
                 for span in tracer.drain()]
        return {"ok": True, "shard": self.name, "spans": spans}


    def _handle_chaos_op(self, doc: Dict) -> Optional[Dict]:
        """Scripted shard faults; refused without a chaos controller, so a
        production shard cannot be killed or frozen over the wire."""
        if self.chaos is None:
            return refusal("chaos not enabled on this shard",
                           shard=self.name)
        if doc["op"] == "chaos_kill":
            log.warning("chaos kill", extra={
                "event": "chaos_kill", "shard": self.name,
                "hard_exit": self._hard_exit})
            if self._hard_exit:  # a real crash: no drain, no goodbye
                os._exit(17)
            # thread mode: stop accepting, sever every live connection
            # (a dead process drops them all), and answer with silence
            self.killed = True
            self.request_stop()
            self._sever_connections()
            return None
        seconds = float(doc.get("seconds", 1.0))
        self._frozen_until = time.monotonic() + seconds
        log.warning("chaos freeze", extra={
            "event": "chaos_freeze", "shard": self.name,
            "seconds": seconds})
        return {"ok": True, "shard": self.name, "frozen_s": seconds}

    # ------------------------------------------------------------------
    # connection tracking (for the thread-mode chaos kill)
    # ------------------------------------------------------------------
    def _track(self, sock: socket.socket) -> None:
        with self._connections_lock:
            self._connections.add(sock)

    def _untrack(self, sock: socket.socket) -> None:
        with self._connections_lock:
            self._connections.discard(sock)

    def _sever_connections(self) -> None:
        with self._connections_lock:
            victims = list(self._connections)
        for sock in victims:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Block serving connections until :meth:`stop` (or a shutdown op)."""
        try:
            self._server.serve_forever(poll_interval=0.05)
        finally:
            self._server.server_close()
            self.service.close()

    def start_background(self) -> None:
        """Serve from a daemon thread (the supervisor's thread mode)."""
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name=f"shard-{self.name}", daemon=True)
        self._serve_thread.start()

    def request_stop(self) -> None:
        """Stop serving soon; safe to call from a handler thread."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        threading.Thread(target=self._server.shutdown, daemon=True).start()

    def stop(self, timeout: float = 10.0) -> None:
        self.request_stop()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout)


#: the ops a shard answers, and who answers each; the chaos ops are
#: refused unless the shard runs with a chaos controller
SHARD_OPS = {
    "hello": lambda shard, doc: negotiate(doc, role="shard",
                                          server=shard.name),
    "ping": lambda shard, doc: {"ok": True, "shard": shard.name},
    "plan": ShardServer._handle_plan,
    "cache_put": ShardServer._handle_cache_put,
    "stats": ShardServer._handle_stats,
    "trace": ShardServer._handle_trace,
    "shutdown": lambda shard, doc: dict(drain_ack(shard.service),
                                        shard=shard.name),
    "chaos_kill": ShardServer._handle_chaos_op,
    "chaos_freeze": ShardServer._handle_chaos_op,
}


def run_shard(config: Dict, port_conn) -> None:
    """Process entrypoint: build a shard, report its port, serve forever.

    ``config`` is a plain dict of primitives so the function works under
    every multiprocessing start method (spawn pickles it).
    """
    # every JSON log line this process emits carries its shard name, so
    # logs join the {shard="n"} metric series without per-call-site extras
    set_log_context(shard=str(config["name"]))
    if config.get("telemetry_dir"):
        # process-wide: the service, planner and sim producers in this
        # process all share one writer appending to the shard's directory
        telemetry_store.install(config["telemetry_dir"])
    server = ShardServer(
        config["name"],
        host=config.get("host", "127.0.0.1"),
        port=config.get("port", 0),
        cache_dir=config.get("cache_dir"),
        capacity=config.get("capacity", 128),
        workers=config.get("workers"),
        fallback_backend=config.get("fallback_backend", "greedy"),
        trace=config.get("trace", False),
        chaos=config.get("chaos"),  # a spec string: pickles under spawn
        hard_exit=True,  # chaos_kill in a real process is a real crash
        slo=config.get("slo"),  # a spec string: pickles under spawn
        profile_path=config.get("profile_path"),
    )
    port_conn.send(server.port)
    port_conn.close()
    server.serve_forever()


@dataclass
class ShardHandle:
    """Where a running shard listens, plus how to stop it."""

    name: str
    host: str
    port: int
    mode: str  # "thread" | "process"
    server: Optional[ShardServer] = field(default=None, repr=False)
    process: Optional[multiprocessing.process.BaseProcess] = field(
        default=None, repr=False)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the shard, escalating: shutdown frame → terminate → kill.

        Each step gets a bounded wait before the next, harsher one, so a
        wedged process can delay teardown by at most ``2 * timeout`` but
        never hang it.  Escalations are logged: a fleet that needed
        SIGKILL to die was hiding a bug.
        """
        if self.mode == "thread" and self.server is not None:
            self.server.stop(timeout)
            return
        if self.process is None:
            return
        try:
            self._send_shutdown(timeout)
        except (OSError, FrameError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():
            log.warning("shard ignored shutdown; terminating", extra={
                "event": "shard_terminate", "shard": self.name,
                "pid": self.process.pid, "timeout_s": timeout})
            self.process.terminate()
            self.process.join(timeout)
        if self.process.is_alive():
            log.error("shard ignored SIGTERM; killing", extra={
                "event": "shard_kill", "shard": self.name,
                "pid": self.process.pid, "timeout_s": timeout})
            self.process.kill()
            self.process.join(timeout)

    def _send_shutdown(self, timeout: float) -> None:
        with socket.create_connection((self.host, self.port),
                                      timeout=timeout) as sock:
            sock.settimeout(timeout)
            send_frame(sock, {"op": "shutdown"})
            recv_frame(sock)


class ShardSupervisor:
    """Start, name and stop a fleet's shard set.

    Shard names are ``"0" .. "N-1"`` — the same names every ring built via
    :meth:`ring` uses, so any process that knows the shard count routes
    identically.  Each shard gets its own disk-cache directory under
    ``cache_dir`` (``shard-0/``, ``shard-1/``, ...): the content-addressed
    cache is *sharded*, not shared, which is what makes cache capacity
    scale with the fleet.

    With ``restart=True`` (process mode only) a monitor thread watches for
    crashed shard processes and respawns each on its **original port** —
    the frontend's pools reconnect to the same address and the health
    monitor re-adds the shard to the ring once heartbeats succeed again.
    Restarts back off exponentially per shard (``restart_backoff``) and
    give up after ``max_restarts`` consecutive crashes, so a shard that
    dies on boot cannot hot-loop the machine; a shard that stays up
    long enough to be useful (:data:`RESTART_RESET_S`) earns its
    crash-counter back.
    """

    #: a shard alive this long since its last (re)start is considered
    #: stable: its consecutive-crash counter resets
    RESTART_RESET_S = 30.0

    def __init__(
        self,
        count: int,
        *,
        cache_dir=None,
        mode: str = "thread",
        host: str = "127.0.0.1",
        capacity: int = 128,
        workers: Optional[int] = None,
        fallback_backend: str = "greedy",
        trace: bool = False,
        chaos: Optional[str] = None,
        telemetry_dir=None,
        slo: Optional[str] = None,
        profile_path=None,
        restart: bool = False,
        max_restarts: int = 5,
        restart_backoff: Optional[RetryPolicy] = None,
        monitor_interval_s: float = 0.2,
        on_restart: Optional[Callable[[str, int], None]] = None,
    ):
        if count <= 0:
            raise ValueError("a fleet needs at least one shard")
        if mode not in ("thread", "process"):
            raise ValueError(f"unknown shard mode {mode!r}")
        if restart and mode != "process":
            raise ValueError("restart supervision needs process-mode shards")
        self.count = count
        self.mode = mode
        self.host = host
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.capacity = capacity
        self.workers = workers
        self.fallback_backend = fallback_backend
        self.trace = trace
        #: chaos spec *string* (not a controller): it must pickle through
        #: spawn; each shard process builds its own seeded controller
        self.chaos = chaos
        #: telemetry root: each shard writes to <telemetry_dir>/shard-<n>
        #: (its own segment sequence — crash damage stays per shard)
        self.telemetry_dir = Path(telemetry_dir) if telemetry_dir else None
        #: SLO spec *string*, same pickling rationale as ``chaos``
        self.slo = slo
        #: calibrated-profile JSON *path*, same pickling rationale; every
        #: shard loads it as its service's default profile
        self.profile_path = str(profile_path) if profile_path else None
        self.restart = restart
        self.max_restarts = max_restarts
        self.restart_backoff = restart_backoff or RetryPolicy(
            max_attempts=max(max_restarts, 1), base_delay_s=0.1,
            max_delay_s=5.0, seed=0)
        self.monitor_interval_s = monitor_interval_s
        self.on_restart = on_restart
        self.handles: List[ShardHandle] = []
        self.restarts: Dict[str, int] = {}
        self._consecutive: Dict[str, int] = {}
        self._started_at: Dict[str, float] = {}
        self._monitor_thread: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        self._handles_lock = threading.Lock()

    def _shard_cache_dir(self, name: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return str(self.cache_dir / f"shard-{name}")

    def _shard_telemetry_dir(self, name: str) -> Optional[str]:
        if self.telemetry_dir is None:
            return None
        return str(self.telemetry_dir / f"shard-{name}")

    def start(self) -> List[ShardHandle]:
        if self.handles:
            raise RuntimeError("supervisor already started")
        try:
            for index in range(self.count):
                name = str(index)
                self.handles.append(self._start_one(name))
                self._started_at[name] = time.monotonic()
        except BaseException:
            self.stop()
            raise
        if self.restart:
            self._monitor_stop.clear()
            self._monitor_thread = threading.Thread(
                target=self._monitor, name="shard-supervisor", daemon=True)
            self._monitor_thread.start()
        return self.handles

    def _start_one(self, name: str, port: int = 0) -> ShardHandle:
        if self.mode == "thread":
            server = ShardServer(
                name, host=self.host, cache_dir=self._shard_cache_dir(name),
                capacity=self.capacity, workers=self.workers,
                fallback_backend=self.fallback_backend, trace=self.trace,
                chaos=self.chaos,
                telemetry_dir=self._shard_telemetry_dir(name),
                slo=self.slo,
                profile_path=self.profile_path)
            server.start_background()
            return ShardHandle(name, server.host, server.port, "thread",
                               server=server)
        # process mode: spawn avoids inheriting this process's thread/lock
        # state (fork while worker pools run is a deadlock lottery)
        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        config = {
            "name": name,
            "host": self.host,
            "port": port,
            "cache_dir": self._shard_cache_dir(name),
            "capacity": self.capacity,
            "workers": self.workers,
            "fallback_backend": self.fallback_backend,
            "trace": self.trace,
            "chaos": self.chaos,
            "telemetry_dir": self._shard_telemetry_dir(name),
            "slo": self.slo,
            "profile_path": self.profile_path,
        }
        process = ctx.Process(target=run_shard, args=(config, child_conn),
                              name=f"repro-shard-{name}", daemon=True)
        process.start()
        child_conn.close()
        if not parent_conn.poll(60.0):
            process.terminate()
            raise RuntimeError(f"shard {name} never reported its port")
        port = parent_conn.recv()
        parent_conn.close()
        return ShardHandle(name, self.host, port, "process", process=process)

    # ------------------------------------------------------------------
    # crash supervision (process mode)
    # ------------------------------------------------------------------
    def _monitor(self) -> None:
        """Watch for dead shard processes; restart each with backoff."""
        while not self._monitor_stop.wait(self.monitor_interval_s):
            with self._handles_lock:
                handles = list(self.handles)
            for index, handle in enumerate(handles):
                if handle.process is None or handle.process.is_alive():
                    continue
                self._restart_one(index, handle)

    def _restart_one(self, index: int, handle: ShardHandle) -> None:
        name = handle.name
        uptime = time.monotonic() - self._started_at.get(name, 0.0)
        if uptime >= self.RESTART_RESET_S:
            self._consecutive[name] = 0
        # stamp the crash observation so a failed restart attempt on the
        # next pass cannot re-read the old uptime and re-reset the counter
        self._started_at[name] = time.monotonic()
        crashes = self._consecutive.get(name, 0) + 1
        self._consecutive[name] = crashes
        exitcode = handle.process.exitcode
        if crashes > self.max_restarts:
            log.error("shard crash-looping; giving up", extra={
                "event": "shard_restart_abandoned", "shard": name,
                "exitcode": exitcode, "consecutive_crashes": crashes - 1})
            handle.process.join(0)
            with self._handles_lock:
                if index < len(self.handles) and \
                        self.handles[index] is handle:
                    self.handles[index] = ShardHandle(
                        name, handle.host, handle.port, "process")
            return
        delay = self.restart_backoff.delay(crashes)
        log.warning("shard died; restarting", extra={
            "event": "shard_restart", "shard": name, "exitcode": exitcode,
            "consecutive_crashes": crashes, "backoff_s": round(delay, 3)})
        if self._monitor_stop.wait(delay):
            return  # supervisor shutting down mid-backoff
        handle.process.join(0)  # reap before respawning on the same port
        try:
            replacement = self._start_one(name, port=handle.port)
        except (RuntimeError, OSError) as exc:
            log.error("shard restart failed", extra={
                "event": "shard_restart_failed", "shard": name,
                "error": str(exc)})
            return  # next monitor pass retries with a higher backoff
        self._started_at[name] = time.monotonic()
        self.restarts[name] = self.restarts.get(name, 0) + 1
        with self._handles_lock:
            if index < len(self.handles) and self.handles[index] is handle:
                self.handles[index] = replacement
            else:  # stop() raced us: kill the shard we just spawned
                replacement.stop(timeout=2.0)
                return
        if self.on_restart is not None:
            self.on_restart(name, self.restarts[name])

    def stop(self, timeout: float = 10.0) -> None:
        # the monitor must die first or it would resurrect every shard
        # this loop stops
        self._monitor_stop.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout)
            self._monitor_thread = None
        with self._handles_lock:
            handles, self.handles = self.handles, []
        for handle in handles:
            handle.stop(timeout)

    def ring(self, vnodes: Optional[int] = None) -> HashRing:
        """The routing ring over this supervisor's shard names."""
        names = [handle.name for handle in self.handles] or [
            str(index) for index in range(self.count)]
        return HashRing(names, **({"vnodes": vnodes} if vnodes else {}))

    def __enter__(self) -> "ShardSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
