"""The fleet frontend: one asyncio process that routes for all shards.

Request path for one batch item::

    parse ─▶ quick shed? ─▶ fingerprint ─▶ admission ─▶ EDF queue ─▶
        dispatcher ─▶ owning shard (consistent hash) ─▶ response

* **Batched plan API** — ``{"op": "plan_batch", "items": [...]}`` fans the
  items out concurrently; each item is routed, queued and answered
  independently, and the batch response carries per-item status in order.
* **Deadline-aware queueing** — admitted items wait in an
  earliest-deadline-first priority queue drained by a fixed set of
  dispatcher tasks (one per shard link, so the queue only holds what the
  shards cannot absorb).  Items are checked against their deadline twice:
  at admission (:mod:`repro.fleet.admission` — the fast shed) and again at
  dequeue (late shed), so a queue stampede cannot make the fleet burn
  planner time on requests that already expired.
* **Degradation under pressure** — past the admission controller's
  degrade threshold an item is forwarded with a zero deadline: the owning
  shard answers from cache if it can, otherwise with its fallback backend
  (``degraded=True``), and the exact plan still lands in the shard's cache
  in the background.
* **Warm replication** — ``{"op": "warm", ...}`` plans each item on its
  owning shard *with the serialized plan in the response*, then pushes
  ``cache_put`` frames to every peer shard, so one ``repro warm --port``
  run leaves the whole fleet hot (a shard join re-routes ~1/N of the
  keyspace; replicated entries mean those keys stay warm).
* **Cross-shard observability** — the frontend stamps every item with a
  trace id that the owning shard adopts (``PlanService.plan(...,
  trace_id=...)``), aggregates per-shard stats under shard-labelled
  Prometheus series, and merges shard span dumps with its own into one
  Chrome trace (``{"op": "trace"}``).
* **Fault tolerance** — a heartbeat loop pings every shard on a dedicated
  connection and feeds :class:`~repro.fleet.health.HealthMonitor`: after
  K consecutive failures a shard leaves the consistent-hash ring (its
  keys reroute to survivors) and rejoins on the first success.  Shard
  links retry transient transport errors with the shared
  :class:`~repro.fleet.retry.RetryPolicy` (exponential backoff + jitter,
  never past the item's deadline), and the dispatcher fails an item over
  along the ring's successor order when its owner stays unreachable —
  plans are deterministic, so a failover replan is bit-identical to the
  owner's answer.  See docs/serving.md ("Fault tolerance").

The frontend runs its event loop in a dedicated thread so the blocking
CLI (and tests) can drive it; v1 JSON-lines clients are supported both on
stdin (:meth:`FleetFrontend.serve_stdin`) and over TCP (first-byte sniff,
see :mod:`repro.fleet.wire`).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from ..obs.logging import get_logger
from ..obs import telemetry as telemetry_store
from ..obs.registry import MetricsRegistry
from ..obs.slo import SLOTracker
from ..obs.tracing import new_trace_id, tracer
from ..service.server import (
    MAX_REQUEST_BYTES,
    answer_doc,
    answer_line,
    deadline_from_doc,
    is_shutdown_ack,
    refusal,
    request_from_doc,
    serve_lines,
    too_large,
)
from .admission import ADMIT, DEGRADE, AdmissionController, Decision
from .health import HealthMonitor
from .retry import (
    DEFAULT_RETRY,
    NO_RETRY,
    TRANSIENT_EXCEPTIONS,
    RetryPolicy,
    classify,
)
from .ring import HashRing
from .wire import (
    FrameError,
    FrameTooLarge,
    MAX_RESPONSE_FRAME_BYTES,
    looks_like_v1,
    negotiate,
    read_frame,
    write_frame,
)

log = get_logger("repro.fleet.frontend")

#: extra headroom past an item's deadline before a dispatched request is
#: abandoned: the owning shard enforces the deadline itself (fallback
#: plans), so the frontend only cuts genuinely wedged shards loose
DISPATCH_GRACE_S = 0.25

#: one batch may carry at most this many specs
MAX_BATCH_ITEMS = 1024


def _close_writer(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
    except RuntimeError:  # loop already closing
        pass


class ShardUnavailable(RuntimeError):
    """The owning shard could not be reached (even after a reconnect)."""


class _ShardLink:
    """One persistent v2 connection to a shard."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    async def request(self, doc: Dict) -> Dict:
        await write_frame(self.writer, doc)
        reply = await read_frame(self.reader, MAX_RESPONSE_FRAME_BYTES)
        if reply is None:
            raise FrameError("shard closed the connection")
        return reply

    def close(self) -> None:
        _close_writer(self.writer)


class _ShardPool:
    """A small checkout pool of links to one shard, retrying per policy.

    Transport failures (reset, refused dial, frame desync, stalled read)
    tear the link down and retry on a *fresh* connection with the shared
    backoff policy — never past the caller's ``deadline_abs``.  Anything
    still failing after the policy's budget surfaces as
    :class:`ShardUnavailable`, which is the dispatcher's cue to fail the
    item over to the next shard on the ring.
    """

    def __init__(self, name: str, host: str, port: int, size: int = 2,
                 retry: RetryPolicy = DEFAULT_RETRY,
                 metrics: Optional[MetricsRegistry] = None):
        self.name = name
        self.host = host
        self.port = port
        self.size = size
        self.retry = retry
        self.metrics = metrics
        self._slots: "asyncio.Queue[Optional[_ShardLink]]" = asyncio.Queue()
        for _ in range(size):
            self._slots.put_nowait(None)  # links are dialed lazily

    async def _connect(self) -> _ShardLink:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        link = _ShardLink(reader, writer)
        hello = await link.request(
            {"op": "hello", "proto": 2, "role": "frontend"})
        if not hello.get("ok"):
            link.close()
            raise ShardUnavailable(
                f"shard {self.name}: handshake refused: {hello.get('error')}")
        return link

    def _count_retry(self, exc: Optional[BaseException]) -> None:
        if self.metrics is None:
            return
        self.metrics.counter("retries_total").inc()
        if exc is not None:
            self.metrics.counter(f"retries_{classify(exc)}").inc()

    async def request(self, doc: Dict, *,
                      deadline_abs: Optional[float] = None,
                      retry: bool = True) -> Dict:
        policy = self.retry if retry else NO_RETRY
        loop = asyncio.get_running_loop()
        slot = await self._slots.get()
        link: Optional[_ShardLink] = slot
        last_exc: Optional[BaseException] = None
        try:
            for attempt in range(policy.max_attempts):
                if attempt:
                    delay = policy.delay(attempt)
                    if deadline_abs is not None and \
                            loop.time() + delay > deadline_abs:
                        break  # a retry would overrun the deadline
                    self._count_retry(last_exc)
                    await asyncio.sleep(delay)
                try:
                    if link is None:
                        link = await self._connect()
                    return await link.request(doc)
                except TRANSIENT_EXCEPTIONS as exc:
                    if link is not None:
                        link.close()
                        link = None
                    last_exc = exc
            raise ShardUnavailable(
                f"shard {self.name}: {last_exc}") from last_exc
        except asyncio.CancelledError:
            # cancelled mid-conversation: the link may be desynchronized,
            # so never return it to the pool
            if link is not None:
                link.close()
                link = None
            raise
        finally:
            self._slots.put_nowait(link)

    async def close(self) -> None:
        for _ in range(self.size):
            try:
                link = self._slots.get_nowait()
            except asyncio.QueueEmpty:
                break
            if link is not None:
                link.close()


class _WorkItem:
    """One admitted plan item waiting for a dispatcher."""

    __slots__ = ("doc", "shard", "deadline_abs", "future", "fingerprint")

    def __init__(self, doc: Dict, shard: str, deadline_abs: Optional[float],
                 future: "asyncio.Future[Dict]", fingerprint: str):
        self.doc = doc
        self.shard = shard
        self.deadline_abs = deadline_abs
        self.future = future
        self.fingerprint = fingerprint


class FleetFrontend:
    """Asyncio fan-out frontend over a set of running shards."""

    def __init__(
        self,
        shards: Sequence,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        admission: Optional[AdmissionController] = None,
        links_per_shard: int = 2,
        network_builder=None,
        ring: Optional[HashRing] = None,
        name: str = "frontend",
        retry: Optional[RetryPolicy] = None,
        heartbeat_interval_s: float = 1.0,
        heartbeat_timeout_s: float = 1.0,
        failure_threshold: int = 3,
        slo=None,
        telemetry=None,
    ):
        if not shards:
            raise ValueError("a fleet needs at least one shard")
        self.name = name
        self._shard_addrs = [(str(s.name), s.host, s.port) for s in shards]
        self.ring = ring or HashRing([addr[0] for addr in self._shard_addrs])
        self.metrics = metrics or MetricsRegistry()
        self.admission = admission or AdmissionController()
        #: frontend-level SLO accounting (spec string, config, tracker, None)
        self.slo = slo if isinstance(slo, SLOTracker) else SLOTracker(slo)
        #: durable telemetry: explicit writer or the process-wide install
        self.telemetry = telemetry if telemetry is not None \
            else telemetry_store.active()
        self.links_per_shard = links_per_shard
        self.retry = retry or DEFAULT_RETRY
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.health = HealthMonitor(
            [addr[0] for addr in self._shard_addrs],
            ring=self.ring,
            metrics=self.metrics,
            failure_threshold=failure_threshold,
            on_down=lambda shard, reason: log.warning(
                "shard marked down", extra={
                    "event": "shard_down", "shard": shard, "reason": reason}),
            on_up=lambda shard: log.info(
                "shard recovered, rejoined the ring",
                extra={"event": "shard_up", "shard": shard}),
        )
        self._network_builder = network_builder
        self._host = host
        self._requested_port = port
        self.host: Optional[str] = None
        self.port: Optional[int] = None

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._stopping = False
        self._seq = itertools.count()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FleetFrontend":
        if self._thread is not None:
            raise RuntimeError("frontend already started")
        self._thread = threading.Thread(
            target=self._thread_main, name="fleet-frontend", daemon=True)
        self._thread.start()
        self._started.wait(60.0)
        if self._startup_error is not None:
            raise RuntimeError("frontend failed to start") \
                from self._startup_error
        if self.port is None:
            raise RuntimeError("frontend did not come up within 60 s")
        return self

    def stop(self, timeout: float = 10.0) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "FleetFrontend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by start()
            self._startup_error = exc
        finally:
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._queue: "asyncio.PriorityQueue[Tuple[float, int, _WorkItem]]" = (
            asyncio.PriorityQueue())
        self._pools = {
            name: _ShardPool(name, host, port, self.links_per_shard,
                             retry=self.retry, metrics=self.metrics)
            for name, host, port in self._shard_addrs
        }
        server = await asyncio.start_server(
            self._handle_connection, self._host, self._requested_port,
            limit=MAX_REQUEST_BYTES + 1024)
        self.host, self.port = server.sockets[0].getsockname()[:2]
        dispatchers = [
            asyncio.ensure_future(self._dispatcher())
            for _ in range(max(2, self.links_per_shard * len(self._pools)))
        ]
        if self.heartbeat_interval_s > 0:
            dispatchers.append(asyncio.ensure_future(self._heartbeat_loop()))
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in dispatchers:
                task.cancel()
            await asyncio.gather(*dispatchers, return_exceptions=True)
            for pool in self._pools.values():
                await pool.close()

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            first = await reader.read(1)
            if not first:
                return
            if looks_like_v1(first):
                await self._serve_v1_connection(first, reader, writer)
            else:
                await self._serve_v2_connection(first, reader, writer)
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            return  # loop teardown cancels idle connection handlers
        finally:
            _close_writer(writer)

    async def _serve_v2_connection(self, prefix: bytes,
                                   reader: asyncio.StreamReader,
                                   writer: asyncio.StreamWriter) -> None:
        while True:
            try:
                doc = await read_frame(reader, MAX_REQUEST_BYTES,
                                       prefix=prefix)
            except FrameTooLarge as exc:
                await write_frame(writer, too_large(exc.declared))
                return  # stream desynchronized past a refused frame
            except FrameError:
                return
            prefix = b""
            if doc is None:
                return
            reply = await answer_doc(self, doc, FRONTEND_OPS)
            await write_frame(writer, reply)
            if is_shutdown_ack(reply):
                self._stop_event.set()
                return

    async def _serve_v1_connection(self, first: bytes,
                                   reader: asyncio.StreamReader,
                                   writer: asyncio.StreamWriter) -> None:
        """The v1 JSON-lines compat shim, over TCP."""
        pending = first
        while True:
            try:
                rest = await reader.readline()
            except ValueError:  # line beyond the stream limit
                writer.write((json.dumps(too_large()) + "\n").encode())
                await writer.drain()
                return
            line = (pending + rest).decode("utf-8", errors="replace")
            pending = b""
            if not line.strip():  # blank lines are skipped on TCP
                if not rest:
                    return  # EOF
                continue
            result = await self._handle_v1_line(line)
            writer.write((json.dumps(result) + "\n").encode())
            await writer.drain()
            if is_shutdown_ack(result):
                self._stop_event.set()
                return
            if not rest:
                return  # EOF after an unterminated final line

    async def _handle_v1_line(self, line: str) -> Dict:
        """One v1 JSON-lines request routed through the fleet."""
        self.metrics.counter("v1_lines").inc()
        return await answer_line(self, line, FRONTEND_OPS)

    def serve_stdin(self, lines: Iterable[str], out: TextIO) -> int:
        """Drive the fleet from the v1 stdin/stdout loop (CLI compat).

        Runs on the caller's thread; each line is handed to the event loop
        and answered by the same loop as the single-process ``repro serve``.
        """
        if self._loop is None:
            raise RuntimeError("frontend not started")
        return serve_lines(lines, out, lambda line: (
            asyncio.run_coroutine_threadsafe(
                self._handle_v1_line(line), self._loop).result()))

    # ------------------------------------------------------------------
    # operations (dispatched by FRONTEND_OPS, at the end of this module)
    # ------------------------------------------------------------------
    # -- plan items ----------------------------------------------------
    def _parse_item(self, doc: Dict) -> str:
        """Validate a plan document and return its fingerprint (blocking)."""
        request = request_from_doc(doc)
        return request.fingerprint(self._network_builder)

    def _shed_doc(self, decision: Decision, start_ns: int,
                  fingerprint: Optional[str] = None) -> Dict:
        latency_ms = (time.perf_counter_ns() - start_ns) / 1e6
        doc = refusal("shed", reason=decision.reason,
                      est_cost_ms=round(decision.est_cost_s * 1e3, 3),
                      latency_ms=round(latency_ms, 3))
        if fingerprint:
            doc["fingerprint"] = fingerprint
        return doc

    def _account_item(
        self,
        doc: Dict,
        reply: Dict,
        start_ns: int,
        deadline_s: Optional[float],
        *,
        fingerprint: Optional[str] = None,
        trace_id: Optional[str] = None,
        action: Optional[str] = None,
    ) -> Dict:
        """SLO + durable-telemetry accounting for one served item.

        Every ``_serve_item`` exit (shed, error, dispatched) funnels
        through here so the request record and the SLO classification
        agree about what happened.
        """
        latency_s = (time.perf_counter_ns() - start_ns) / 1e9
        ok = bool(reply.get("ok"))
        deadline_met = (ok and latency_s <= deadline_s) \
            if deadline_s is not None else None
        self.slo.observe(latency_s, ok=ok, deadline_met=deadline_met)
        t = self.telemetry
        if t is not None and t.enabled:
            if not ok:
                outcome = "shed" if reply.get("error") == "shed" else "error"
            elif reply.get("degraded"):
                outcome = "degraded"
            else:
                outcome = "ok"
            event = {
                "type": "request",
                "component": "frontend",
                "fingerprint": fingerprint or reply.get("fingerprint"),
                "model": doc.get("model"),
                "scheme": doc.get("scheme"),
                "backend": doc.get("backend"),
                "shard": reply.get("shard"),
                "source": reply.get("source"),
                "outcome": outcome,
                "latency_ms": round(latency_s * 1e3, 3),
                "trace_id": trace_id or reply.get("trace_id"),
                "action": action,
            }
            if deadline_s is not None:
                event["deadline_ms"] = round(deadline_s * 1e3, 3)
                event["deadline_met"] = deadline_met
            if not ok:
                event["reason"] = reply.get("reason") or reply.get("error")
            if reply.get("failover_from"):
                event["failover_from"] = reply["failover_from"]
            t.record(event)
        return reply

    async def _serve_item(self, doc: Dict) -> Dict:
        """One plan item: admission → routing → dispatch → response."""
        start_ns = time.perf_counter_ns()
        self.metrics.counter("items").inc()
        try:
            deadline_s = deadline_from_doc(doc)
        except ValueError as exc:
            return self._account_item(doc, refusal(str(exc)), start_ns, None,
                                      action="invalid")

        # fast path: a deadline below any possible service time is shed
        # before the frontend spends a single model build on it
        quick = self.admission.quick_shed(deadline_s)
        if quick is not None:
            self.metrics.counter("shed_deadline").inc()
            return self._account_item(
                doc, self._shed_doc(quick, start_ns), start_ns, deadline_s,
                action="quick_shed")

        loop = asyncio.get_running_loop()
        try:
            fingerprint = await loop.run_in_executor(
                None, self._parse_item, doc)
        except Exception as exc:
            return self._account_item(
                doc, refusal(str(exc)), start_ns, deadline_s,
                action="invalid")

        decision = self.admission.decide(
            fingerprint, deadline_s, self._queue.qsize())
        if not decision.admitted:
            self.metrics.counter(
                "shed_queue_full" if "queue" in decision.reason
                else "shed_deadline").inc()
            return self._account_item(
                doc, self._shed_doc(decision, start_ns, fingerprint),
                start_ns, deadline_s, fingerprint=fingerprint,
                action=decision.action)
        self.metrics.counter("admitted").inc()

        trace_id = doc.get("trace_id") or new_trace_id()
        forwarded = {k: v for k, v in doc.items() if k not in ("op", "id")}
        forwarded["op"] = "plan"
        forwarded["trace_id"] = trace_id
        if decision.action == DEGRADE:
            self.metrics.counter("degraded_pressure").inc()
            forwarded["deadline_ms"] = 0  # cache-now-or-fallback on the shard

        owner = self.ring.owner(fingerprint)
        deadline_abs = (loop.time() + deadline_s
                        if deadline_s is not None else None)
        future: "asyncio.Future[Dict]" = loop.create_future()
        item = _WorkItem(forwarded, owner, deadline_abs, future, fingerprint)
        priority = deadline_abs if deadline_abs is not None else float("inf")
        self._queue.put_nowait((priority, next(self._seq), item))

        reply = await future
        reply.setdefault("shard", owner)
        latency_s = (time.perf_counter_ns() - start_ns) / 1e9
        self.metrics.histogram("item_latency_s").observe(latency_s)
        tracer.record(
            "fleet.item", "fleet",
            start_ns=start_ns, end_ns=time.perf_counter_ns(),
            trace_id=trace_id, shard=owner,
            model=doc.get("model"), action=decision.action,
        )
        return self._account_item(
            doc, reply, start_ns, deadline_s, fingerprint=fingerprint,
            trace_id=trace_id, action=decision.action)

    async def _dispatcher(self) -> None:
        """Drain the EDF queue into the owning shards (with failover)."""
        loop = asyncio.get_running_loop()
        while True:
            _, _, item = await self._queue.get()
            if item.future.cancelled():
                continue
            if (item.deadline_abs is not None
                    and loop.time() > item.deadline_abs):
                self.metrics.counter("shed_late").inc()
                item.future.set_result(refusal(
                    "shed", reason="deadline expired while queued",
                    fingerprint=item.fingerprint))
                continue
            reply = await self._dispatch_with_failover(item, loop)
            if not item.future.cancelled():
                item.future.set_result(reply)

    def _failover_order(self, item: _WorkItem) -> List[str]:
        """Shards to try for one item: ring order, healthy ones first.

        The routed owner leads; the ring's clockwise successors follow, so
        failover lands on the shard that *would* own the fingerprint if
        the owner left — the same shard a post-failure ring would route
        to, which keeps failover traffic cache-friendly.  Known-down
        shards sink to the back rather than vanish: when every shard is
        down the item still gets one loud attempt instead of a silent
        drop.
        """
        order = [item.shard] + [s for s in self.ring.successors(
            item.fingerprint) if s != item.shard]
        for name in self._pools:
            if name not in order:  # off-ring (marked down) shards, last
                order.append(name)
        healthy = [s for s in order if self.health.is_up(s)]
        down = [s for s in order if s not in healthy]
        return (healthy + down) if healthy else order

    async def _dispatch_with_failover(self, item: _WorkItem, loop) -> Dict:
        """Try the owner, then fail over along the ring until the deadline."""
        order = self._failover_order(item)
        if order and order[0] != item.shard:
            # the routed owner is known-down: reroute before dialing it
            self.metrics.counter("failover_total").inc()
            self.metrics.counter("failover_shard_down").inc()
        last_error: object = "no shards configured"
        for hop, shard in enumerate(order):
            timeout = None
            if item.deadline_abs is not None:
                remaining = item.deadline_abs - loop.time()
                if hop and remaining <= 0:
                    break  # no budget left for another hop
                timeout = max(remaining, 0.0) + DISPATCH_GRACE_S
            if hop:
                self.metrics.counter("failover_total").inc()
                self.metrics.counter("failover_transport").inc()
            t0 = time.perf_counter()
            try:
                request = self._pools[shard].request(
                    item.doc, deadline_abs=item.deadline_abs)
                reply = await (asyncio.wait_for(request, timeout)
                               if timeout is not None else request)
            except asyncio.TimeoutError:
                # the shard accepted the request but never answered within
                # the deadline (frozen/stalled): the deadline is spent, so
                # shed rather than burn another shard on an expired item
                self.metrics.counter("dispatch_timeouts").inc()
                self.health.record_failure(shard, "timeout")
                return refusal(
                    "shed", reason=f"deadline expired during dispatch "
                                   f"(shard {shard} unresponsive)",
                    shard=shard, fingerprint=item.fingerprint)
            except Exception as exc:
                self.metrics.counter("route_errors").inc()
                self.health.record_failure(shard, "request")
                last_error = exc
                continue
            self.metrics.counter("routed").inc()
            self.health.record_success(shard)
            if reply.get("ok"):
                self.admission.observe(
                    item.fingerprint, time.perf_counter() - t0,
                    cache_hit=bool(reply.get("cache_hit")))
            reply.setdefault("shard", shard)
            if hop:
                reply.setdefault("failover_from", item.shard)
            return reply
        return refusal(f"no healthy shard available: {last_error}",
                       tried=order, fingerprint=item.fingerprint)

    # -- heartbeats ----------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        """Ping every shard each interval; feed the health monitor."""
        while True:
            await asyncio.sleep(self.heartbeat_interval_s)
            await asyncio.gather(
                *[self._heartbeat_one(name, host, port)
                  for name, host, port in self._shard_addrs],
                return_exceptions=True)

    async def _heartbeat_one(self, name: str, host: str, port: int) -> None:
        """One ping on a dedicated connection (never a pooled link, so a
        pool saturated with long cold plans cannot fake a dead shard)."""
        self.metrics.counter("heartbeats").inc()

        async def ping() -> bool:
            reader, writer = await asyncio.open_connection(host, port)
            try:
                await write_frame(writer, {"op": "ping"})
                reply = await read_frame(reader, MAX_RESPONSE_FRAME_BYTES)
                return bool(reply and reply.get("ok"))
            finally:
                _close_writer(writer)

        try:
            ok = await asyncio.wait_for(ping(), self.heartbeat_timeout_s)
        except Exception:
            ok = False
        if ok:
            self.health.record_success(name)
        else:
            self.metrics.counter("heartbeat_failures").inc()
            self.health.record_failure(name, "heartbeat")

    async def _serve_batch(self, doc: Dict) -> Dict:
        start_ns = time.perf_counter_ns()
        self.metrics.counter("batches").inc()
        items = doc.get("items")
        if not isinstance(items, list) or not items:
            return refusal("plan_batch needs a non-empty 'items' list")
        if len(items) > MAX_BATCH_ITEMS:
            return refusal("batch too large", limit_items=MAX_BATCH_ITEMS,
                           got_items=len(items))
        deadline_from_doc(doc)  # refuse a bad batch deadline before fan-out
        inherited = {} if doc.get("deadline_ms") is None \
            else {"deadline_ms": doc["deadline_ms"]}

        async def serve(item) -> Dict:
            if not isinstance(item, dict):
                return refusal("batch items must be JSON objects")
            return await self._serve_item({**inherited, **item})

        results = await asyncio.gather(*[serve(item) for item in items])
        latency_s = (time.perf_counter_ns() - start_ns) / 1e9
        self.metrics.histogram("batch_latency_s").observe(latency_s)
        succeeded = sum(1 for r in results if r.get("ok"))
        return {
            "ok": True,
            "items": list(results),
            "count": len(results),
            "succeeded": succeeded,
            "latency_ms": round(latency_s * 1e3, 3),
        }

    # -- warm replication ----------------------------------------------
    async def _serve_warm(self, doc: Dict) -> Dict:
        items = doc.get("items")
        if not isinstance(items, list) or not items:
            return refusal("warm needs a non-empty 'items' list")
        results = await asyncio.gather(
            *[self._warm_item(item) for item in items])
        return {"ok": all(r.get("ok") for r in results),
                "items": list(results), "count": len(results)}

    async def _warm_item(self, doc: Dict) -> Dict:
        """Plan on the owner, then replicate the entry to every peer."""
        if not isinstance(doc, dict):
            return refusal("warm items must be JSON objects")
        self.metrics.counter("warm_items").inc()
        loop = asyncio.get_running_loop()
        try:
            fingerprint = await loop.run_in_executor(
                None, self._parse_item, doc)
        except Exception as exc:
            return refusal(str(exc))
        owner = self.ring.owner(fingerprint)
        forwarded = {k: v for k, v in doc.items() if k not in ("op", "id")}
        forwarded.update(op="plan", include_plan=True,
                         trace_id=new_trace_id())
        try:
            reply = await self._pools[owner].request(forwarded)
        except Exception as exc:
            return refusal(str(exc), shard=owner, fingerprint=fingerprint)
        if not reply.get("ok"):
            reply.setdefault("shard", owner)
            return reply
        self.admission.note_warm(fingerprint)
        # peers store the plan under the key the owner computed, which is
        # not always the routing key: a shard substitutes its default
        # profile before it fingerprints (``serve --profile``)
        stored_key = reply["fingerprint"]
        plan_doc = reply.get("plan")
        replicated = 0
        if plan_doc is not None:
            peers = [name for name in self._pools if name != owner]
            acks = await asyncio.gather(*[
                self._pools[peer].request({
                    "op": "cache_put", "fingerprint": stored_key,
                    "plan": plan_doc})
                for peer in peers
            ], return_exceptions=True)
            replicated = sum(1 for ack in acks
                             if isinstance(ack, dict) and ack.get("ok"))
            self.metrics.counter("replicated_puts").inc(replicated)
        return {"ok": True, "fingerprint": stored_key, "shard": owner,
                "source": reply.get("source"),
                "cache_hit": reply.get("cache_hit"),
                "replicated": replicated}

    # -- aggregation ---------------------------------------------------
    async def _shard_stats(self) -> Dict[str, Optional[Dict]]:
        async def one(name: str):
            try:
                reply = await self._pools[name].request({"op": "stats"})
                return name, reply.get("stats")
            except Exception:
                return name, None

        pairs = await asyncio.gather(*[one(name) for name in self._pools])
        return dict(pairs)

    def snapshot(self) -> Dict:
        """The frontend's own stats (metrics, admission, queue, ring, health)."""
        snap = {
            "metrics": self.metrics.snapshot(),
            "admission": self.admission.snapshot(),
            "queue_depth": self._queue.qsize() if self._loop else 0,
            "ring": self.ring.describe(),
            "health": self.health.snapshot(),
            "slo": self.slo.snapshot(),
            "tracer": tracer.health(),
        }
        if self.telemetry is not None:
            snap["telemetry"] = self.telemetry.snapshot()
        return snap

    async def _fleet_stats(self) -> Dict:
        return {
            "ok": True,
            "frontend": self.snapshot(),
            "shards": await self._shard_stats(),
        }

    async def _fleet_trace(self) -> Dict:
        """Merge frontend spans with every shard's into one span-dict list."""
        local = [dict(span.as_dict(), process="frontend")
                 for span in tracer.drain()]

        async def one(name: str) -> List[Dict]:
            try:
                reply = await self._pools[name].request({"op": "trace"})
                return list(reply.get("spans") or [])
            except Exception:
                return []

        remote = await asyncio.gather(*[one(name) for name in self._pools])
        spans = local + [span for chunk in remote for span in chunk]
        return {"ok": True, "spans": spans, "count": len(spans)}

    async def _shutdown_shards(self) -> Dict:
        """Drain-and-stop every shard by protocol, then ack."""
        drained: Dict[str, object] = {}
        for name in self._pools:
            try:
                ack = await self._pools[name].request({"op": "shutdown"})
                drained[name] = ack.get("drained_jobs")
            except Exception as exc:
                drained[name] = f"error: {exc}"
        return {"ok": True, "op": "shutdown", "shards": drained}

    # ------------------------------------------------------------------
    # convenience for the CLI
    # ------------------------------------------------------------------
    def wait(self) -> None:
        """Block until the frontend stops (shutdown op or :meth:`stop`)."""
        if self._thread is not None:
            self._thread.join()


#: the ops the frontend answers, on v2 frames and v1 lines alike, and who
#: answers each
FRONTEND_OPS = {
    "hello": lambda fe, doc: negotiate(doc, role="frontend", server=fe.name),
    "ping": lambda fe, doc: {"ok": True, "server": fe.name,
                             "shards": [n for n, _, _ in fe._shard_addrs]},
    "plan": FleetFrontend._serve_item,
    "plan_batch": FleetFrontend._serve_batch,
    "warm": FleetFrontend._serve_warm,
    "stats": lambda fe, doc: fe._fleet_stats(),
    "fleet_stats": lambda fe, doc: fe._fleet_stats(),
    "trace": lambda fe, doc: fe._fleet_trace(),
    "shutdown": lambda fe, doc: fe._shutdown_shards(),
}
