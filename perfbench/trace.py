"""Span tracing from outside the program, for the benchmark's traced runs.

:func:`install` replaces public functions and methods of the program with
timing wrappers, each patched where its caller looks the name up (the
``build_model`` that ``repro.service.fingerprint`` imported, the
``shard_stages`` that ``repro.core.hierarchy`` imported, and so on).
:func:`remove` puts every original object back.  The program itself is not
edited: untraced runs execute exactly the shipped code.

A span records its name, start and end (``perf_counter_ns``), its parent
span on the same thread, and a request id: the parent's, else the
program's own trace id for the thread (``repro.obs.tracing.tracer``), else
one the wrapper derives from its arguments.  Spans stay in memory until
:meth:`Recorder.dump` writes them out.  Hot helpers called thousands of
times per plan (``stable_digest``, the tie-break helpers, the wire codec)
are counted instead of spanned.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    """One timed call."""

    id: int
    parent: Optional[int]      # span id of the enclosing call, same thread
    name: str
    start_ns: int
    end_ns: int
    request_id: Optional[str]
    thread: int
    attrs: Optional[dict]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: List[Dict[str, int]] = []
        self._counters_lock = threading.Lock()

    # -- counters: one dict per thread, summed on read ---------------------
    def _thread_counters(self) -> Dict[str, int]:
        counters = getattr(self._local, "counters", None)
        if counters is None:
            counters = self._local.counters = {}
            with self._counters_lock:
                self._counters.append(counters)
        return counters

    def add(self, name: str, amount: int = 1) -> None:
        counters = self._thread_counters()
        counters[name] = counters.get(name, 0) + amount

    def counts(self) -> Dict[str, int]:
        total: Dict[str, int] = {}
        with self._counters_lock:
            for counters in self._counters:
                for name, value in list(counters.items()):
                    total[name] = total.get(name, 0) + value
        return total

    # -- spans ---------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start_ns: int, end_ns: int,
               request_id: Optional[str] = None, **attrs) -> None:
        """Record a span the caller timed itself (the benchmark's own loop)."""
        self.spans.append(Span(next(self._ids), None, name, start_ns, end_ns,
                               request_id, threading.get_ident(),
                               attrs or None))

    def dump(self, path: str) -> None:
        """Write the spans as Chrome trace events (open in Perfetto)."""
        self_ns = _self_ns(self.spans)
        events = [{"name": span.name, "ph": "X", "pid": 1,
                   "tid": span.thread, "ts": span.start_ns / 1e3,
                   "dur": span.duration_ns / 1e3,
                   "args": dict(span.attrs or {}, span_id=span.id,
                                parent=span.parent,
                                request_id=span.request_id,
                                self_us=self_ns[span.id] / 1e3)}
                  for span in self.spans]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "counters": self.counts()},
                      handle, separators=(",", ":"))


def covered_ns(intervals, start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _self_ns(spans: List[Span]) -> Dict[int, int]:
    """Per span id, its duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start_ns, span.end_ns))
    return {span.id: span.duration_ns - covered_ns(
        children.get(span.id, ()), span.start_ns, span.end_ns)
        for span in spans}


def self_times_ns(spans: List[Span]) -> Dict[str, int]:
    """Per span name, the summed self time."""
    totals: Dict[str, int] = {}
    own = _self_ns(spans)
    for span in spans:
        totals[span.name] = totals.get(span.name, 0) + own[span.id]
    return totals


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------

def _current_trace_id() -> Optional[str]:
    from repro.obs.tracing import tracer

    return tracer.current_trace_id()


def span_wrapper(recorder: Recorder, fn: Callable, name: str,
                 request_of: Optional[Callable] = None,
                 attrs_of: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` so each call records one span named ``name``.

    ``request_of(args, kwargs, result)`` may name the request id when the
    call has no parent span and the program has no trace id set yet;
    ``attrs_of(args, kwargs, result)`` adds attributes to the span.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = recorder._stack()
        parent_id, parent_rid = stack[-1] if stack else (None, None)
        sid = next(recorder._ids)
        rid = parent_rid or _current_trace_id()
        stack.append((sid, rid))
        result = None
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter_ns()
            stack.pop()
            if rid is None and request_of is not None:
                rid = request_of(args, kwargs, result)
            attrs = attrs_of(args, kwargs, result) if attrs_of else None
            recorder.spans.append(Span(sid, parent_id, name, start, end, rid,
                                       threading.get_ident(), attrs))

    return wrapper


def count_wrapper(recorder: Recorder, fn: Callable, name: str) -> Callable:
    """Wrap ``fn`` so each call bumps counter ``name`` (no span)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.add(name)
        return fn(*args, **kwargs)

    return wrapper


def timed_count_wrapper(recorder: Recorder, fn: Callable, name: str,
                        size_of: Callable[[Any, Any], int]) -> Callable:
    """Count calls, nanoseconds and bytes (``size_of(args, result)``)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter_ns()
        result = fn(*args, **kwargs)
        elapsed = perf_counter_ns() - start
        recorder.add(name)
        recorder.add(name + ".ns", elapsed)
        recorder.add(name + ".bytes", size_of(args, result))
        return result

    return wrapper


# -- attribute and request-id extractors ------------------------------------

def _response_trace_id(args, kwargs, result):
    return getattr(result, "trace_id", None)


def _doc_trace_id(args, kwargs, result):
    return args[1].get("trace_id") if isinstance(args[1], dict) else None


def _doc_op(args, kwargs, result):
    return {"op": args[1].get("op", "plan")} if isinstance(args[1], dict) \
        else None


def _lookup_outcome(args, kwargs, result):
    return {"hit": result is not None and result[0] is not None}


def _planner_profile(args, kwargs, result):
    return {"profiled": getattr(args[0].scheme, "profile", None) is not None}


def _put_entry_bytes(args, kwargs, result):
    cache, key = args[0], args[1]
    if cache.disk_dir is None:
        return None
    try:
        return {"bytes": os.path.getsize(cache.disk_dir / f"{key}.json")}
    except OSError:
        return None


# ----------------------------------------------------------------------
# the patch table
# ----------------------------------------------------------------------

#: (module, attribute path, span name, request_of, attrs_of); each entry is
#: the name as its caller looks it up
SPAN_TARGETS = (
    ("repro.service.service", "PlanService.plan", "service.request",
     _response_trace_id, None),
    ("repro.service.fingerprint", "PlanRequest.fingerprint",
     "service.fingerprint", None, None),
    ("repro.service.fingerprint", "build_model", "models.build_model",
     None, None),
    ("repro.graph.network", "Network.fingerprint",
     "graph.network_fingerprint", None, None),
    ("repro.hardware.accelerator", "AcceleratorGroup.fingerprint",
     "hardware.group_fingerprint", None, None),
    ("repro.service.cache", "PlanCache.get_with_tier",
     "service.cache.lookup", None, _lookup_outcome),
    ("repro.service.cache", "PlanCache.put", "service.cache.put",
     None, _put_entry_bytes),
    ("repro.service.cache", "plan_to_dict", "core.serialize.encode",
     None, None),
    ("repro.core.planner", "Planner.plan", "core.planner.plan",
     None, _planner_profile),
    ("repro.core.planner", "bisection_tree", "hardware.bisection_tree",
     None, None),
    ("repro.core.hierarchy", "shard_stages", "core.hierarchy.glue",
     None, None),
    ("repro.core.hierarchy", "stages_key", "core.hierarchy.glue",
     None, None),
    ("repro.fleet.shard", "ShardServer.handle_doc", "fleet.shard.handle",
     _doc_trace_id, _doc_op),
)

#: (module, attribute, counter name): hot helpers, counted only
COUNT_TARGETS = (
    # stable_digest: imported by name in these modules; Network.fingerprint
    # imports it at call time, i.e. reads the repro.digest attribute
    ("repro.digest", "stable_digest", "digest.stable_digest"),
    ("repro.service.fingerprint", "stable_digest", "digest.stable_digest"),
    ("repro.hardware.accelerator", "stable_digest", "digest.stable_digest"),
    ("repro.hardware.profile", "stable_digest", "digest.stable_digest"),
    # tie-break helpers; multipath imports improves from dp_search at call
    # time, so the dp_search patch covers it
    ("repro.core.dp_search", "improves", "core.tiebreak"),
    ("repro.core.greedy", "improves", "core.tiebreak"),
    ("repro.core.dp_vectorized", "improves", "core.tiebreak"),
    ("repro.core.dp_vectorized", "masked_first_within_slack",
     "core.tiebreak"),
)

#: (module, attribute, counter name, size_of): the wire v2 codec, which
#: every frame of the blocking and the asyncio paths goes through
CODEC_TARGETS = (
    ("repro.fleet.wire", "encode_frame", "fleet.wire.encode",
     lambda args, result: len(result)),
    ("repro.fleet.wire", "decode_body", "fleet.wire.decode",
     lambda args, result: len(args[0])),
)


@dataclass
class Patch:
    """One replaced attribute and how to put it back."""

    owner: Any
    attr: str
    original: Any
    owned: bool  # the attribute lived in owner's own __dict__


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _search_targets() -> List[Tuple[Any, str]]:
    """Every registered search backend's ``search``, by backend class."""
    from repro.plan import available_backends, get_backend

    classes = []
    for name in available_backends():
        cls = type(get_backend(name))
        if cls not in classes:
            classes.append(cls)
    return [(cls, "search") for cls in classes]


def _patch(patches: List[Patch], owner: Any, attr: str,
           make: Callable[[Callable], Callable]) -> None:
    owned = attr in vars(owner)
    original = vars(owner)[attr] if owned else getattr(owner, attr)
    patches.append(Patch(owner, attr, original, owned))
    setattr(owner, attr, make(getattr(owner, attr)))


def install(recorder: Recorder) -> List[Patch]:
    """Wrap every target; returns the patches :func:`remove` undoes."""
    patches: List[Patch] = []
    try:
        for module, path, name, request_of, attrs_of in SPAN_TARGETS:
            owner, attr = _resolve(module, path)
            _patch(patches, owner, attr,
                   lambda fn, n=name, r=request_of, a=attrs_of:
                   span_wrapper(recorder, fn, n, r, a))
        for owner, attr in _search_targets():
            _patch(patches, owner, attr,
                   lambda fn: span_wrapper(recorder, fn, "core.search"))
        for module, path, name in COUNT_TARGETS:
            owner, attr = _resolve(module, path)
            _patch(patches, owner, attr,
                   lambda fn, n=name: count_wrapper(recorder, fn, n))
        for module, path, name, size_of in CODEC_TARGETS:
            owner, attr = _resolve(module, path)
            _patch(patches, owner, attr,
                   lambda fn, n=name, s=size_of:
                   timed_count_wrapper(recorder, fn, n, s))
    except BaseException:
        remove(patches)
        raise
    return patches


def remove(patches: List[Patch]) -> None:
    """Restore every patched attribute, newest first."""
    while patches:
        patch = patches.pop()
        if patch.owned:
            setattr(patch.owner, patch.attr, patch.original)
        else:
            delattr(patch.owner, patch.attr)
