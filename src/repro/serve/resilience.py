"""Resilience primitives: retry backoff, circuit breakers, load shedding.

The serving stack's failure policy is built from three small, unit-
testable pieces (every one takes an injectable clock, so tests drive
state machines without sleeping):

- :class:`RetryPolicy` — capped exponential backoff with jitter, made
  **deadline-aware**: a retry is only scheduled while the batch's
  earliest request deadline still has budget, and the sleep never eats
  more than half of what remains.  Retrying a batch elsewhere is *safe*
  in this stack because execution is pure and every request carries its
  own seed — re-execution is bit-identical, so retries preserve the
  batched == solo invariant.
- :class:`CircuitBreaker` — the classic closed → open → half-open
  machine, one per worker host.  Consecutive transport failures open
  the breaker; routing then skips the host *before* paying a timeout.
  After ``reset_after_s`` one probe (the executor's heartbeat) is let
  through; success closes the breaker, failure re-opens it.
- :class:`LoadShedder` — submit-time overload protection.  It tracks an
  EWMA of observed per-request service time and the number of admitted,
  unresolved requests; when ``queue depth x service rate`` says a new
  request's deadline is infeasible, the request is shed immediately
  (``status == "shed"``) instead of queueing to certain expiry.

The typed error family at the top is the vocabulary the retry loop and
the server speak to each other: :class:`HostFailure` (one host died
mid-call — retryable), :class:`ExecutorUnavailable` (no routable host
at all — the server degrades to its local fallback), and
:class:`RetriesExhausted` (hosts exist but the batch kept failing —
futures resolve with ``status == "failed"`` carrying the error chain).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass


class ResilienceError(RuntimeError):
    """Base class for the serving stack's typed failure vocabulary."""


class HostFailure(ResilienceError):
    """One worker host failed a call at the transport level (died,
    timed out, or desynchronized its stream) — the batch is retryable
    on a survivor.  ``host_index`` names the failed host so the retry
    prefers a different one."""

    def __init__(self, message: str, host_index: int | None = None):
        super().__init__(message)
        self.host_index = host_index


class ExecutorUnavailable(ResilienceError):
    """No routable worker host right now: every host is dead or its
    breaker is open.  The server reacts by degrading to its embedded
    local fallback executor instead of failing the batch."""


class RetriesExhausted(ResilienceError):
    """The batch failed on every attempt the policy allowed.

    ``causes`` is the typed error chain, oldest first; the server
    resolves every future in the batch with ``status == "failed"``
    and this chain in ``RequestResult.stats["causes"]``.
    """

    def __init__(self, message: str, causes: list[BaseException] | None = None):
        super().__init__(message)
        self.causes: list[BaseException] = list(causes or [])


@dataclass(frozen=True)
class RetryPolicy:
    """Capped, deadline-aware exponential backoff with jitter.

    ``max_attempts`` counts total tries (the first dispatch included).
    ``backoff_s(failures, ...)`` returns how long to sleep before the
    next attempt, or ``None`` when the budget — attempts or deadline —
    is exhausted and the caller must stop retrying.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.02
    multiplier: float = 2.0
    max_delay_s: float = 0.5
    jitter: float = 0.5      # fraction of the delay added uniformly at random

    def backoff_s(self, failures: int, *, rng=None,
                  remaining_s: float | None = None) -> float | None:
        """Sleep before retry number ``failures`` (1-based), or ``None``.

        ``remaining_s`` is the batch's deadline budget: once it is
        spent there is no point re-executing (the server would expire
        the results anyway), and a scheduled sleep never consumes more
        than half of what remains, so the retry itself still fits.
        """
        if failures >= self.max_attempts:
            return None
        delay = min(self.base_delay_s * self.multiplier ** (failures - 1),
                    self.max_delay_s)
        if self.jitter:
            draw = rng.random() if rng is not None else random.random()
            delay *= 1.0 + self.jitter * draw
        if remaining_s is not None:
            if remaining_s <= 0:
                return None
            delay = min(delay, remaining_s / 2.0)
        return delay


class CircuitBreaker:
    """Per-host circuit breaker: closed → open → half-open → closed.

    ``failure_threshold`` consecutive failures open the breaker; while
    open, :meth:`allow` refuses traffic without touching the host.
    After ``reset_after_s`` the breaker turns half-open and lets exactly
    one probe through (the executor uses its heartbeat); the probe's
    outcome decides between closing and re-opening.  ``clock`` is
    injectable so unit tests step time explicitly.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, *, failure_threshold: int = 3,
                 reset_after_s: float = 1.0, clock=time.monotonic,
                 on_transition=None):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False

    def _set_state(self, state: str) -> None:
        old, self._state = self._state, state
        if old != state and self._on_transition is not None:
            self._on_transition(old, state)

    def _roll_locked(self) -> None:
        if (self._state == self.OPEN
                and self._clock() - self._opened_at >= self.reset_after_s):
            self._set_state(self.HALF_OPEN)
            self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            self._roll_locked()
            return self._state

    def allow(self) -> bool:
        """May traffic flow to this host now?  In half-open, exactly one
        caller gets ``True`` (the probe) until its outcome is recorded."""
        with self._lock:
            self._roll_locked()
            if self._state == self.CLOSED:
                return True
            if self._state == self.HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    def would_allow(self) -> bool:
        """Non-consuming peek: like :meth:`allow` but never claims the
        half-open probe slot (for routing-candidate filtering)."""
        with self._lock:
            self._roll_locked()
            return self._state != self.OPEN

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._probing = False
            self._set_state(self.CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            probing = self._probing
            self._probing = False
            if (self._state == self.HALF_OPEN and probing) \
                    or self._failures >= self.failure_threshold:
                self._opened_at = self._clock()
                self._set_state(self.OPEN)


class LoadShedder:
    """Submit-time deadline-feasibility estimator.

    Tracks the number of admitted-but-unresolved requests and an EWMA
    of per-request service time (each completed batch contributes
    ``service_s / batch_size``).  :meth:`should_shed` answers: given
    the current queue, can a request with this deadline plausibly be
    served in time?  Cold starts never shed (``min_samples`` batches of
    history are required), so the estimator cannot refuse traffic it
    has never measured.
    """

    #: EWMA weight: service time here; a bucket's batch time and its
    #: partner share (``serve.policy._Group``)
    ALPHA = 0.2

    def __init__(self, *, workers: int = 1, min_samples: int = 4,
                 margin: float = 1.0):
        self.workers = max(1, workers)
        self.min_samples = min_samples
        self.margin = margin
        self._lock = threading.Lock()
        self._service_s: float | None = None
        self._samples = 0
        self._queued = 0

    def admitted(self) -> None:
        with self._lock:
            self._queued += 1

    def resolved(self, n: int = 1) -> None:
        with self._lock:
            self._queued = max(0, self._queued - n)

    @property
    def queued(self) -> int:
        with self._lock:
            return self._queued

    @classmethod
    def smooth(cls, previous: float | None, sample: float) -> float:
        """One EWMA step (the first sample is taken as it is)."""
        return (sample if previous is None
                else (1 - cls.ALPHA) * previous + cls.ALPHA * sample)

    def observe_batch(self, service_s: float, batch_size: int) -> None:
        with self._lock:
            self._samples += 1
            self._service_s = self.smooth(self._service_s,
                                          service_s / max(1, batch_size))

    def estimated_wait_s(self) -> float:
        """Predicted queueing delay for a request admitted now."""
        with self._lock:
            if self._service_s is None:
                return 0.0
            return self._queued * self._service_s / self.workers

    def should_shed(self, deadline_budget_s: float) -> bool:
        """True when the queue ahead makes ``deadline_budget_s`` infeasible."""
        with self._lock:
            if self._samples < self.min_samples or self._service_s is None:
                return False
            wait = self._queued * self._service_s / self.workers
            return wait > deadline_budget_s * self.margin
