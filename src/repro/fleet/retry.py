"""Deadline-aware retry policy: exponential backoff with deterministic jitter.

One policy object is shared by every fleet component that talks over the
wire — the frontend's shard connection pools, the dispatcher's failover
loop and the blocking :class:`~repro.fleet.client.FleetClient` — so "how
does the fleet retry" has exactly one answer:

* **bounded attempts** — ``max_attempts`` total tries (the first attempt
  plus ``max_attempts - 1`` retries);
* **exponential backoff with jitter** — retry ``i`` sleeps
  ``base_delay_s * multiplier**(i-1)`` capped at ``max_delay_s``, plus a
  jitter fraction that decorrelates competing retriers;
* **deterministic when seeded** — with ``seed`` set the jitter for retry
  ``i`` is a pure function of ``(seed, i)``, which is what lets the chaos
  harness (:mod:`repro.fleet.chaos`) replay a failure episode bit-for-bit;
* **never past the deadline** — :meth:`delays` stops yielding as soon as
  the next sleep would overrun the caller's remaining budget, so a retry
  can shorten a request's tail but never blow its deadline.

Only *transient transport* errors are retryable (:func:`is_transient`):
connection resets, refused dials, frame desynchronization, timeouts.  An
application-level error reply (``{"ok": false, ...}``) is a final answer
and is never retried here.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, TypeVar

from ..specstr import parse_spec
from .wire import FrameError

T = TypeVar("T")

#: exception types a retry may heal: the transport failed, not the request
TRANSIENT_EXCEPTIONS = (
    ConnectionError,
    TimeoutError,
    OSError,
    FrameError,
    asyncio.IncompleteReadError,
)

#: retry/failover reason tags, used as metric suffixes
#: (``retries_<reason>``); :func:`classify` maps an exception onto one
REASON_CONNECT = "connect"
REASON_TIMEOUT = "timeout"
REASON_TRANSPORT = "transport"


class RetryPolicyError(ValueError):
    """A retry policy spec string does not parse."""


def is_transient(exc: BaseException) -> bool:
    """True when a fresh connection might succeed where ``exc`` failed."""
    return isinstance(exc, TRANSIENT_EXCEPTIONS)


def classify(exc: BaseException) -> str:
    """A metric-suffix reason tag for a transient transport error."""
    if isinstance(exc, (TimeoutError, asyncio.TimeoutError)):
        return REASON_TIMEOUT
    if isinstance(exc, (ConnectionRefusedError, ConnectionAbortedError)):
        return REASON_CONNECT
    return REASON_TRANSPORT


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with a cap, deterministic jitter and a budget."""

    max_attempts: int = 4
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.1  # fraction of the delay added as jitter in [0, j)
    seed: Optional[int] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ValueError("need 0 <= base_delay_s <= max_delay_s")
        if self.multiplier < 1:
            raise ValueError("multiplier must be >= 1")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")

    #: spec-string key -> field name (short operator-facing aliases)
    _SPEC_KEYS = {
        "attempts": "max_attempts",
        "base": "base_delay_s",
        "max": "max_delay_s",
        "multiplier": "multiplier",
        "jitter": "jitter",
        "seed": "seed",
    }

    @classmethod
    def parse(cls, text: str) -> "RetryPolicy":
        """Parse ``"attempts=3,base=0.02,max=0.1,seed=0"`` (same spec
        shape as :meth:`ChaosSpec.parse <repro.fleet.chaos.ChaosSpec.parse>`;
        omitted keys keep the dataclass defaults)."""
        values = parse_spec(text, "retry", cls._SPEC_KEYS, RetryPolicyError,
                            types={"max_attempts": int, "seed": int})
        try:
            return cls(**values)
        except ValueError as exc:
            raise RetryPolicyError(str(exc)) from exc

    # ------------------------------------------------------------------
    def _jitter_fraction(self, retry_index: int) -> float:
        if self.seed is None:
            return random.random()
        # a pure function of (seed, retry_index): replayable episodes
        # (str seeds hash via sha512 — stable across processes and runs)
        return random.Random(f"{self.seed}:{retry_index}").random()

    def delay(self, retry_index: int) -> float:
        """The backoff before retry ``retry_index`` (1-based)."""
        if retry_index < 1:
            raise ValueError("retry_index is 1-based")
        raw = min(self.base_delay_s * self.multiplier ** (retry_index - 1),
                  self.max_delay_s)
        return raw * (1.0 + self.jitter * self._jitter_fraction(retry_index))

    def delays(self, budget_s: Optional[float] = None) -> Iterator[float]:
        """Backoff sleeps for retries 1..max_attempts-1, deadline-bounded.

        ``budget_s`` is the remaining time the caller may spend; the
        iterator stops early once the accumulated sleep would exceed it
        (the attempt itself still costs time on top — callers with hard
        deadlines should also bound each attempt).
        """
        spent = 0.0
        for retry_index in range(1, self.max_attempts):
            d = self.delay(retry_index)
            if budget_s is not None and spent + d > budget_s:
                return
            spent += d
            yield d


#: a single-attempt policy: the "retry" knob in its off position
NO_RETRY = RetryPolicy(max_attempts=1)

#: the fleet-wide default; seeded so two frontends with the same config
#: behave identically (the chaos harness depends on this)
DEFAULT_RETRY = RetryPolicy(max_attempts=4, base_delay_s=0.05,
                            max_delay_s=2.0, seed=0)


def run_with_retries(
    policy: RetryPolicy,
    attempt: Callable[[int], T],
    *,
    deadline_s: Optional[float] = None,
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Blocking retry driver: call ``attempt(i)`` until it returns.

    Retries only :func:`transient <is_transient>` errors, sleeping the
    policy's backoff between attempts and never past ``deadline_s``
    (seconds from now).  ``on_retry(retry_index, exc)`` fires before each
    backoff sleep — the client uses it to bump its retry counters.
    """
    deadline_abs = (time.monotonic() + deadline_s
                    if deadline_s is not None else None)
    last_exc: Optional[BaseException] = None
    for index in range(policy.max_attempts):
        if index:
            d = policy.delay(index)
            if deadline_abs is not None and \
                    time.monotonic() + d > deadline_abs:
                break
            if on_retry is not None:
                on_retry(index, last_exc)  # type: ignore[arg-type]
            sleep(d)
        try:
            return attempt(index)
        except TRANSIENT_EXCEPTIONS as exc:
            last_exc = exc
    assert last_exc is not None
    raise last_exc
