"""JSON-lines front-end for the plan service (``python -m repro serve``),
and the request layer every server in this repo shares.

One request per line on stdin, one JSON response per line on stdout — the
simplest protocol that scripts, ``xargs`` and load generators can all drive.
A request looks like::

    {"model": "alexnet", "array": "hetero", "batch": 512, "deadline_ms": 50}

Optional fields: ``scheme`` (default ``accpar``), ``levels``, ``dtype_bytes``,
``space`` (partition-type values, e.g. ``["I", "II"]``), ``ratio_mode``,
``backend`` (search backend name, e.g. ``"greedy"``), ``id`` (echoed back),
``trace_id`` (adopted as the request's trace id).  ``deadline_ms`` must be
a finite number >= 0 and ``trace_id`` a non-empty string.  Control
operations use ``op``::

    {"op": "stats"}        -> metrics + cache counters
    {"op": "shutdown"}     -> drain and exit the loop

Malformed input produces an ``{"ok": false, "error": ...}`` line and the
loop keeps serving — a bad client must not take the service down.

The fleet frontend and the shards answer through the same pieces: one
line decoder (:func:`answer_line`), one op envelope (:func:`answer_doc`),
one deadline rule (:func:`deadline_from_doc`), one trace-id rule
(:func:`trace_id_from_doc`) and one request cap (:data:`MAX_REQUEST_BYTES`).
Each server brings its own op table.
"""

from __future__ import annotations

import inspect
import json
import math
from pathlib import Path
from typing import (Any, Awaitable, Callable, Dict, Iterable, List, Mapping,
                    Optional, TextIO)

from ..hardware.presets import parse_array
from ..hardware.profile import profile_from_doc
from ..ioutil import atomic_write_text
from .fingerprint import PlanRequest
from .service import PlanResponse, PlanService

#: requests larger than this many UTF-8 bytes — a v1 line or a v2 frame —
#: are answered with :func:`too_large` before JSON parsing: a misbehaving
#: client cannot make a server buffer or parse unbounded input
MAX_REQUEST_BYTES = 1 << 20

#: name of the stats snapshot dropped next to the disk cache tier; carries a
#: leading underscore and a .txt suffix so the ``*.json`` entry glob skips it
STATS_SNAPSHOT_NAME = "_last_session_stats.txt"

#: machine-readable twin of the text snapshot (leading underscore keeps it
#: out of the ``*.json`` plan-entry glob); ``repro service-stats --format
#: json/prometheus`` renders from this file offline
STATS_SNAPSHOT_JSON_NAME = "_last_session_stats.meta"

def refusal(error: str, **fields) -> Dict:
    """A structured ``{"ok": false, "error": ...}`` reply."""
    return {"ok": False, "error": error, **fields}


def too_large(got_bytes: Optional[int] = None) -> Dict:
    """The reply to a request line or frame over :data:`MAX_REQUEST_BYTES`."""
    got = {} if got_bytes is None else {"got_bytes": got_bytes}
    return refusal("request too large", limit_bytes=MAX_REQUEST_BYTES, **got)


def deadline_from_doc(doc: Dict) -> Optional[float]:
    """``doc["deadline_ms"]`` in seconds; None when the field is absent.

    Anything but a finite number >= 0 is refused with a ``ValueError``
    naming the field, before it can reach a timer or a priority queue.
    0 is legal: "whatever is cached right now, else the fallback".
    """
    value = doc.get("deadline_ms")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value) or value < 0:
        raise ValueError(
            f"'deadline_ms' must be a finite number >= 0, got {value!r}")
    return value / 1e3


def trace_id_from_doc(doc: Dict) -> Optional[str]:
    """``doc["trace_id"]``; None when the field is absent.

    Anything but a non-empty string is refused with a ``ValueError``
    naming the field: a trace id is a log, telemetry and join key, so a
    list or an object must never become one.
    """
    value = doc.get("trace_id")
    if value is None:
        return None
    if not isinstance(value, str) or not value:
        raise ValueError(
            f"'trace_id' must be a non-empty string, got {value!r}")
    return value


async def answer_doc(owner: Any, doc: Dict, ops: Mapping[str, Callable],
                     **error_fields) -> Optional[Dict]:
    """The op envelope every server shares.

    ``ops`` maps an op to ``handler(owner, doc)``, which returns the reply
    or, on the asyncio frontend, an awaitable of it.  An unknown op gets
    the table's op names, a handler exception becomes an error reply with
    ``error_fields``, ``id`` is echoed, and a None reply (the shard's chaos
    kill: silence) stays None.
    """
    op = doc.get("op", "plan")
    handler = ops.get(op) if isinstance(op, str) else None
    try:
        if handler is None:
            reply = refusal(f"unknown op {op!r}", known_ops=sorted(ops),
                            **error_fields)
        else:
            reply = handler(owner, doc)
            if inspect.isawaitable(reply):
                reply = await reply
    except Exception as exc:  # a bad request must not take a server down
        reply = refusal(str(exc), **error_fields)
    if reply is not None and doc.get("id") is not None:
        reply["id"] = doc["id"]
    return reply


async def answer_line(owner: Any, line: str,
                      ops: Mapping[str, Callable]) -> Dict:
    """The v1 line decoder: a line over the byte cap, a blank line, bad
    JSON or a non-object is refused; a request goes to :func:`answer_doc`."""
    size = len(line.encode("utf-8", "surrogatepass"))
    if size > MAX_REQUEST_BYTES:
        return too_large(size)
    text = line.strip()
    if not text:
        return refusal("empty request line")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return refusal(f"bad JSON: {exc}")
    if not isinstance(doc, dict):
        return refusal("request must be a JSON object")
    return await answer_doc(owner, doc, ops)


def run_sync(coro: Awaitable):
    """Run :func:`answer_doc` over a synchronous op table: with no
    awaitable handler it finishes on its first step, no event loop needed."""
    try:
        coro.send(None)
    except StopIteration as done:
        return done.value
    coro.close()
    raise RuntimeError("a synchronous op handler tried to suspend")


def is_shutdown_ack(result: Dict) -> bool:
    """True for the response document that ends a serving loop."""
    return bool(result.get("ok")) and result.get("op") == "shutdown"


def serve_lines(lines: Iterable[str], out: TextIO,
                answer: Callable[[str], Dict]) -> int:
    """The v1 JSON-lines loop of ``repro serve`` and the fleet's stdin mode:
    one reply line per line, until a shutdown ack or EOF; returns the count."""
    served = 0
    for line in lines:
        result = answer(line)
        out.write(json.dumps(result) + "\n")
        out.flush()
        served += 1
        if is_shutdown_ack(result):
            break
    return served


def request_from_doc(doc: Dict) -> PlanRequest:
    """Build a canonical :class:`PlanRequest` from a JSON request document.

    Only ``op == "plan"`` documents (the default) describe a plan request;
    any other ``op`` is rejected here so a control operation (or a typo'd
    one) can never be silently misread as a planning job by callers that
    skip :func:`handle_line` — the fleet frontend routes documents through
    this function directly.
    """
    op = doc.get("op", "plan")
    if op != "plan":
        raise ValueError(
            f"unknown op {op!r} for a plan request; known ops: "
            + ", ".join(KNOWN_OPS)
        )
    if "model" not in doc:
        raise ValueError("request needs a 'model' field")
    array = doc.get("array", "hetero")
    if isinstance(array, str):
        array = parse_array(array)
    space = doc.get("space")
    # an inline profile rides along as its v1 JSON document ("analytic" /
    # null keep the peak-rate default); resolved here so a malformed one is
    # rejected at the protocol boundary, not inside a worker thread
    profile = doc.get("profile")
    if profile is not None and profile != "analytic":
        if not isinstance(profile, dict):
            raise ValueError(
                "'profile' must be a repro.hardware.profile/v1 object, "
                "\"analytic\" or null"
            )
        profile = profile_from_doc(profile)
    else:
        profile = None
    return PlanRequest(
        model=doc["model"],
        array=array,
        batch=int(doc.get("batch", 512)),
        scheme=doc.get("scheme", "accpar"),
        dtype_bytes=int(doc.get("dtype_bytes", 2)),
        levels=doc.get("levels"),
        space=tuple(space) if space is not None else None,
        ratio_mode=doc.get("ratio_mode"),
        backend=doc.get("backend"),
        profile=profile,
    )


def response_to_doc(response: PlanResponse) -> Dict:
    planned = response.planned
    root_cost = (
        planned.root_level_plan.cost if planned.hierarchy_levels() > 0 else None
    )
    return {
        "ok": True,
        "fingerprint": response.fingerprint,
        "trace_id": response.trace_id,
        "source": response.source,
        "cache_hit": response.cache_hit,
        "degraded": response.degraded,
        "coalesced": response.coalesced,
        "latency_ms": round(response.latency_s * 1e3, 3),
        "model": planned.network_name,
        "scheme": planned.scheme,
        "batch": planned.batch,
        "levels": planned.hierarchy_levels(),
        "root_cost": root_cost,
    }


def plan_response(service: PlanService, doc: Dict) -> PlanResponse:
    """Serve one ``plan`` document: its deadline, trace id, request, plan."""
    deadline_s = deadline_from_doc(doc)
    trace_id = trace_id_from_doc(doc)
    return service.plan(request_from_doc(doc), deadline_s=deadline_s,
                        trace_id=trace_id)


def drain_ack(service: PlanService) -> Dict:
    """Finish every in-flight job, then acknowledge a ``shutdown``."""
    pending = service.pending_jobs()
    service.drain()
    return {"ok": True, "op": "shutdown", "drained_jobs": pending}


def _shutdown(service: PlanService, doc: Dict) -> Dict:
    ack = drain_ack(service)
    write_stats_snapshot(service)
    return ack


#: the ops ``repro serve`` answers, and who answers each
SERVE_OPS = {
    "plan": lambda service, doc: response_to_doc(plan_response(service, doc)),
    "stats": lambda service, doc: {"ok": True, "stats": service.snapshot()},
    "shutdown": _shutdown,
}

#: the op names of :data:`SERVE_OPS`, quoted by :func:`request_from_doc`
KNOWN_OPS = tuple(SERVE_OPS)


def handle_line(service: PlanService, line: str) -> Dict:
    """Process one request line into one response document.

    A ``shutdown`` op **drains first, then acknowledges**: every in-flight
    planning job (including background exact refinement behind a degraded
    response) finishes and reaches the disk cache before the
    ``{"ok": true, "op": "shutdown"}`` ack is produced — a client that
    reads the ack knows its plans are durable.  The serving loop stops
    after writing that ack.
    """
    return run_sync(answer_line(service, line, SERVE_OPS))


def serve_loop(service: PlanService, lines: Iterable[str], out: TextIO) -> int:
    """Serve requests until EOF or a shutdown op; returns served-line count.

    Shutdown ordering matters: :func:`handle_line` drains in-flight jobs
    *before* producing the shutdown ack, so by the time the client reads
    the ack every plan — including background refinements racing the
    shutdown — has been written to the disk cache.
    """
    served = serve_lines(lines, out, lambda line: handle_line(service, line))
    service.drain()
    write_stats_snapshot(service)
    return served


def warm_cache(
    service: PlanService, requests: Iterable[PlanRequest]
) -> List[PlanResponse]:
    """Pre-populate the cache and persist a stats snapshot alongside it."""
    responses = service.warm(requests)
    service.drain()
    write_stats_snapshot(service)
    return responses


def write_stats_snapshot(service: PlanService) -> None:
    """Drop stats files next to the disk cache tier (if any).

    Two artifacts, written atomically: the human-readable text snapshot
    (``service-stats``'s default view) and its JSON twin, which the
    ``--format json`` / ``--format prometheus`` renderers consume without
    holding the service process open.
    """
    disk_dir = service.cache.disk_dir
    if disk_dir is None:
        return
    atomic_write_text(disk_dir / STATS_SNAPSHOT_NAME,
                      service.render_stats() + "\n")
    atomic_write_text(disk_dir / STATS_SNAPSHOT_JSON_NAME,
                      json.dumps(service.snapshot(), indent=2) + "\n")


def load_stats_snapshot(disk_dir) -> Optional[Dict]:
    """The last session's JSON stats snapshot, or None when absent/corrupt."""
    path = Path(disk_dir) / STATS_SNAPSHOT_JSON_NAME
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def describe_cache_dir(disk_dir) -> str:
    """Offline summary of a disk cache tier, for ``service-stats``."""
    disk_dir = Path(disk_dir)
    if not disk_dir.is_dir():
        return f"{disk_dir}: no cache directory"
    entries = sorted(disk_dir.glob("*.json"))
    lines = [f"disk cache {disk_dir}: {len(entries)} plan(s), "
             f"{sum(p.stat().st_size for p in entries)} bytes"]
    by_model: Dict[str, int] = {}
    for path in entries:
        try:
            doc = json.loads(path.read_text())
            label = f"{doc.get('network', '?')} / {doc.get('scheme', '?')} " \
                    f"/ batch {doc.get('batch', '?')}"
        except (json.JSONDecodeError, OSError):
            label = "(unreadable)"
        by_model[label] = by_model.get(label, 0) + 1
    for label in sorted(by_model):
        lines.append(f"  {by_model[label]}x {label}")
    snapshot = disk_dir / STATS_SNAPSHOT_NAME
    if snapshot.exists():
        lines += ["", "last session:", snapshot.read_text().rstrip()]
    return "\n".join(lines)
