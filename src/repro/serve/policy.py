"""Batch forming: per-signature buckets and the policy that cuts them.

Requests are bucketed by ``Program.signature()`` (:class:`_Group`), and a
batch is formed only when a worker is free to run it
(:func:`pick_ready`).  A bucket is ready when it holds the batch capacity
(``max_batch`` clamped to the slot layout's), when its arrivals have
paused for half of its own smoothed batch time (the longest pause after
which a batch-mate still repays the wait; at once while fewer than half
of its arrivals come within that pause of the one before, since a
partner is then too unlikely to repay it), when its oldest request has
waited ``max_wait_ms`` (the ceiling), when a ``deadline_ms`` is about to
lapse, or when ``flush()`` / ``close()`` said so; an idle worker sleeps
until the earliest such instant, and busy workers cut nothing — the
buckets fill on their own.  Ready buckets are taken
earliest-deadline-first, and within a bucket the most urgent (earliest
deadline, then highest priority) requests claim the batch slots; a
request whose deadline has already passed rides along without a slot, so
the worker can expire it at once.

Everything here is pure in the ``now`` it is handed: no clock, no
thread, no telemetry.  The server calls it under its scheduler lock.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from concurrent.futures import Future
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.dsl.program import Program
from repro.serve.batcher import (
    BatchUnsupported,
    Request,
    SlotBatcher,
    level_alignment_plan,
)
from repro.serve.resilience import LoadShedder


@dataclass
class _Pending:
    request: Request
    future: Future
    enqueued: float
    priority: int = 0
    deadline: float = math.inf    # absolute perf_counter seconds
    #: ``enqueued + max_wait`` (brought forward to "now" by ``flush()`` /
    #: ``close()``): when an idle worker stops waiting for a fuller batch
    flush_by: float = math.inf
    #: EDF order: earliest effective deadline (the request's own, capped
    #: at ``flush_by`` so deadline-free requests age instead of
    #: starving), then highest priority, then FIFO
    urgency: tuple = field(init=False)

    def __post_init__(self):
        self.urgency = (min(self.deadline, self.flush_by), -self.priority,
                        self.enqueued)


#: why a bucket was ready when a worker took it (``_Group.ready_reason``)
READY_REASONS = ("full", "quiet", "max_wait", "deadline", "flush")

# C-speed key reads: every scan below runs under the workers' one lock.
_URGENCY, _FLUSH_BY, _DEADLINE = map(attrgetter,
                                     ("urgency", "flush_by", "deadline"))


class _Group:
    """All scheduling state for one program signature: batcher, bucket
    and the two smoothed inputs of the quiet rule."""

    def __init__(self, program: Program, signature: str, width: int,
                 max_batch: int | None, max_wait_s: float = 0.01):
        self.program = program
        self.signature = signature
        self.width = width
        try:
            self.batcher: SlotBatcher | None = SlotBatcher(
                program, width=width, max_batch=max_batch
            )
            self.capacity = self.batcher.capacity
        except BatchUnsupported:
            self.batcher = None
            self.capacity = 1
        self.max_wait_s = max_wait_s
        #: a deadline readies its bucket this long *before* it lapses, so
        #: the batch can still execute inside the budget.  A constant
        #: derived from ``max_wait``, not a knob, and all of it execution
        #: margin: a sleeping worker wakes at the instant itself.
        self.deadline_slack_s = 2 * min(max(max_wait_s / 4, 0.5e-3), 50e-3)
        self.pending: list[_Pending] = []
        #: the quiet rule's three inputs: the smoothed wall time of this
        #: bucket's own executed batches (``None`` until one has run), the
        #: instant of the latest submit into it, and the smoothed share of
        #: arrivals that came within the gap of the one before (1 until
        #: measured, so a new bucket waits the full gap)
        self.batch_s: float | None = None
        self.last_arrival = -math.inf
        self.partner_share = 1.0
        #: shared MUL_PLAIN operands of the *current* bucket; re-established
        #: whenever the bucket empties, so weights may change between
        #: batches but never diverge within one.
        self.shared_plains: dict[int, np.ndarray] | None = None
        #: cross-level admission envelope, computed once per group (the
        #: batcher already has one; unbatchable programs get their own)
        self.level_plan = (self.batcher.level_plan if self.batcher is not None
                          else level_alignment_plan(program))

    def share_plains(self, shared: dict[int, np.ndarray]) -> None:
        """Adopt ``shared`` as an empty bucket's MUL_PLAIN weights, or
        reject a request whose weights diverge from the forming batch's.
        The caller holds the scheduler lock."""
        if not self.pending:
            self.shared_plains = shared
            return
        for op_id, values in shared.items():
            want = self.shared_plains.get(op_id)
            if want is None or (values.shape == want.shape
                                and np.array_equal(values, want)):
                continue
            raise BatchUnsupported(
                f"plain input {op_id} feeds a BGV MUL_PLAIN and must match "
                f"the weights of the batch currently forming; resubmit "
                f"after the bucket flushes or align the weights"
            )

    def note_arrival(self, now: float) -> None:
        """Record a submit at ``now``: one EWMA step of
        ``partner_share`` (did it come within the quiet gap of the
        previous arrival?  While the bucket is cold the gap is
        ``max_wait``), then ``last_arrival``.  The caller holds the
        scheduler lock."""
        if self.last_arrival > -math.inf:
            gap = (self.max_wait_s if self.batch_s is None
                   else min(self.max_wait_s, self.batch_s / 2))
            self.partner_share = LoadShedder.smooth(
                self.partner_share, float(now - self.last_arrival <= gap))
        self.last_arrival = now

    def _instants(self) -> tuple[float, float, float]:
        """When the ``max_wait`` / ``deadline`` / ``quiet`` rules each
        ready the bucket (``inf``: never, e.g. all three when empty)."""
        quiet = math.inf
        if self.batch_s is not None and self.pending:
            quiet = self.last_arrival
            if self.partner_share >= 0.5:
                quiet += min(self.max_wait_s, self.batch_s / 2)
        return (
            min(map(_FLUSH_BY, self.pending), default=math.inf),
            min(map(_DEADLINE, self.pending), default=math.inf)
            - self.deadline_slack_s,
            quiet,
        )

    def due_time(self, now: float) -> float:
        """The instant from which a free worker may take this bucket
        (ready means ``<= now``): ``now`` once it is full, else the
        earliest of its most urgent request's ``flush_by`` bound,
        ``deadline_slack_s`` *before* its deadline, and the end of a
        quiet gap, ``last_arrival + batch_s / 2`` (``last_arrival``
        itself while ``partner_share < 1/2``).  A lapsed request
        therefore readies its bucket and expires at once.

        The gap is derived, not tuned.  A batch costs ``E`` at any width
        and runs alone; with a partner ``d`` behind, going now sums to
        ``E + (2E - d)`` of latency and waiting to ``2E + d``, so the
        wait pays iff ``d < E / 2``.  Each arrival restarts the gap (a
        burst is cut when it ends) and ``flush_by`` still caps it.
        Whether to wait at all is the same sum in expectation: with
        ``p`` the chance a partner comes within ``E / 2``, one saves
        ``E - 2d`` (``E / 2`` on average) and none costs the gap,
        ``E / 2``, so the wait pays iff ``p > 1/2``.
        """
        if len(self.pending) >= self.capacity:
            return now
        return min(self._instants())

    def ready_reason(self) -> str:
        """Why a ready bucket is: ``full``, else the rule that fell due
        first (``flush`` is a ``flush_by`` that was brought forward)."""
        if len(self.pending) >= self.capacity:
            return "full"
        instants = self._instants()
        rule = ("max_wait", "deadline", "quiet")[instants.index(min(instants))]
        if rule == "max_wait":
            oldest = min(self.pending, key=_FLUSH_BY)
            if oldest.flush_by < oldest.enqueued + self.max_wait_s:
                return "flush"
        return rule

    def urgency(self, now: float) -> tuple:
        """Rank among ready buckets: the most urgent *live* request's
        key.  Lapsed ride-alongs are excluded — a past deadline must not
        put a bucket with no urgent live work ahead of an urgent one."""
        live = [p for p in self.pending if p.deadline > now]
        return min(map(_URGENCY, live or self.pending))

    def take_batch(self, now: float) -> list[_Pending]:
        """Take up to ``capacity`` live requests, most urgent first.

        Requests whose deadline has already lapsed do *not* count against
        capacity — they ride along at the end of the returned list purely
        so the executing worker resolves them with the expired status and
        releases their admission slots; the batch's capacity slots all go
        to live requests.
        """
        live: list[_Pending] = []
        lapsed: list[_Pending] = []
        for p in self.pending:
            (lapsed if p.deadline <= now else live).append(p)
        live.sort(key=_URGENCY)
        batch, self.pending = live[: self.capacity], live[self.capacity:]
        return batch + lapsed


def pick_ready(groups: Iterable[_Group],
               now: float) -> tuple[_Group | None, float]:
    """The scheduling policy: the bucket a free worker takes at ``now``
    (the most urgent ready one, by the key that orders requests inside a
    bucket), or ``(None, instant)`` with the earliest instant one becomes
    ready (``inf``: all empty).  The caller holds the scheduler lock.
    """
    best, best_key, wake = None, None, math.inf
    for group in groups:
        due = group.due_time(now)     # inf for an empty bucket
        if due > now:
            wake = min(wake, due)
            continue
        key = group.urgency(now)
        if best is None or key < best_key:
            best, best_key = group, key
    return best, wake
