"""Dispatch policies: which case next, onto which worker.

Two halves, both deliberately simple and deterministic:

* **Case order** — ``fifo`` serves admission order; ``deadline`` is
  earliest-deadline-first (EDF), the classic real-time policy: among
  queued cases the one whose absolute deadline expires soonest runs
  next, cases without deadlines run last (admission order preserved
  within ties).

* **Worker choice** — preop-model **affinity first**: a worker that
  already holds the case's patient model (same
  :meth:`~repro.serving.CaseRequest.preop_key`) serves it without
  rebuilding the assembly/reduction/preconditioner state, which on a
  preop-heavy workload is worth far more than spreading load. Among
  workers without the model, the one with the fewest dispatched cases
  wins (least-loaded, ties by id). "Holds" is what the worker last
  reported resident — its cache evicts — never what it was once sent.
"""

from __future__ import annotations

from repro.serving.admission import QueuedCase
from repro.util import ValidationError

#: Recognized case-ordering policies.
POLICIES = ("fifo", "deadline")


class Scheduler:
    """Deterministic case-ordering + worker-selection policy."""

    def __init__(self, policy: str = "fifo"):
        if policy not in POLICIES:
            raise ValidationError(
                f"unknown scheduling policy {policy!r} (choose from {POLICIES})"
            )
        self.policy = policy

    # -- case ordering -------------------------------------------------------

    def next_index(self, queued: list[QueuedCase]) -> int:
        """Index (into admission order) of the case to dispatch next."""
        if not queued:
            raise ValidationError("no queued cases to schedule")
        if self.policy == "fifo":
            return 0
        # EDF: earliest absolute deadline first; deadline-less cases
        # sort after every deadlined one, keeping admission order.
        def key(pair):
            index, case = pair
            deadline = case.deadline_monotonic
            return (deadline is None, deadline if deadline is not None else index, index)

        return min(enumerate(queued), key=key)[0]

    # -- worker choice -------------------------------------------------------

    def pick_worker(self, idle_workers: list, preop_key: str) -> object:
        """Choose a worker handle for a case with the given preop key.

        ``idle_workers`` are handles exposing ``cached_keys`` (the preop
        keys the worker reported resident with its last result) and
        ``dispatched`` (case count). Affinity beats load: a model
        already resident skips the whole preoperative rebuild.
        """
        if not idle_workers:
            raise ValidationError("no idle workers to schedule onto")
        with_model = [w for w in idle_workers if preop_key in w.cached_keys]
        pool = with_model if with_model else idle_workers
        return min(pool, key=lambda w: (w.dispatched, w.worker_id))

    def should_hold(
        self, idle_workers: list, busy_workers: list, preop_key: str
    ) -> bool:
        """Single-flight preoperative builds: hold the case for its model.

        True when no idle worker holds the case's patient model but a
        *busy* worker does (it is building it right now — the key joins
        its ``cached_keys`` at dispatch — or reported it resident before
        this case and the build it has in hand will not evict it: the
        model a full cache drops for that build leaves ``cached_keys`` at
        dispatch too). Dispatching elsewhere would duplicate the
        preoperative build — meshing, assembly, boundary elimination,
        preconditioner factorization — which dominates per-case cost,
        so the case waits for the worker with (or acquiring) the model.
        Cases with unheld models dispatch around a held one, and a held
        case is freed the moment its worker goes idle or dies.
        """
        if any(preop_key in w.cached_keys for w in idle_workers):
            return False
        return any(preop_key in w.cached_keys for w in busy_workers)

