"""Sharding primitives: consistent-hash ring and shard handles.

A *shard* is one independent :class:`repro.serving.SessionWorkerPool` —
a group of worker processes standing in for a host. Cases are routed to
shards by **consistent hashing** of their
:meth:`~repro.serving.CaseRequest.preop_key`, which gives the two
properties the serving tier needs:

* **Affinity** — every case of a patient lands on the same shard, so
  that shard's checksum-keyed preoperative-model caches stay hot.
* **Minimal disruption** — when a shard dies, *only its keys* remap
  (spread across the survivors); every other patient keeps its shard
  and therefore its warm caches. A modulo assignment would reshuffle
  almost everything on any membership change.

Hashing uses BLAKE2b, never Python's builtin ``hash`` — the builtin is
salted per process, and the ring must route identically in every
process that computes it (gateway restarts, tests, replay tooling).
"""

from __future__ import annotations

import bisect
import hashlib

from repro.serving.pool import SessionWorkerPool
from repro.util import ValidationError

#: Shard lifecycle states.
SHARD_UP = "up"
SHARD_DEAD = "dead"


def _ring_point(label: str) -> int:
    """Deterministic 64-bit ring position of a label (process-stable)."""
    return int.from_bytes(
        hashlib.blake2b(label.encode(), digest_size=8).digest(), "big"
    )


class ConsistentHashRing:
    """Consistent-hash ring over shard ids with virtual nodes.

    Each shard owns ``replicas`` points on a 64-bit ring; a key routes
    to the shard owning the first point clockwise of the key's own
    position. More replicas smooth the load split at the cost of a
    larger table; 64 keeps the imbalance within a few percent for a
    handful of shards.
    """

    def __init__(self, shard_ids=(), replicas: int = 64):
        if replicas < 1:
            raise ValidationError(f"replicas must be >= 1, got {replicas}")
        self.replicas = int(replicas)
        self._points: list[int] = []
        self._owners: dict[int, int] = {}
        self._shards: set[int] = set()
        for shard_id in shard_ids:
            self.add(shard_id)

    @property
    def shards(self) -> list[int]:
        """Live shard ids, ascending."""
        return sorted(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: int) -> bool:
        return shard_id in self._shards

    def _vnode_points(self, shard_id: int) -> list[int]:
        return [
            _ring_point(f"shard-{shard_id}/vnode-{i}") for i in range(self.replicas)
        ]

    def add(self, shard_id: int) -> None:
        """Add a shard's virtual nodes to the ring."""
        if shard_id in self._shards:
            raise ValidationError(f"shard {shard_id} is already on the ring")
        self._shards.add(shard_id)
        for point in self._vnode_points(shard_id):
            # Point collisions across shards are possible in principle
            # (64-bit space); deterministic tie-break: lowest id owns it.
            owner = self._owners.get(point)
            if owner is None:
                bisect.insort(self._points, point)
                self._owners[point] = shard_id
            elif shard_id < owner:
                self._owners[point] = shard_id

    def remove(self, shard_id: int) -> None:
        """Drop a shard; only its keys remap (to the survivors)."""
        if shard_id not in self._shards:
            raise ValidationError(f"shard {shard_id} is not on the ring")
        self._shards.discard(shard_id)
        for point in self._vnode_points(shard_id):
            if self._owners.get(point) == shard_id:
                del self._owners[point]
                index = bisect.bisect_left(self._points, point)
                if index < len(self._points) and self._points[index] == point:
                    del self._points[index]

    def route(self, key: str) -> int:
        """The shard owning ``key`` (first vnode clockwise of its point)."""
        if not self._points:
            raise ValidationError("ring has no shards")
        point = _ring_point(key)
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[self._points[index]]

    def table(self, keys) -> dict[str, int]:
        """Routing of every key in ``keys`` (assignment snapshot)."""
        return {key: self.route(key) for key in keys}


class Shard:
    """One serving shard: a worker pool plus liveness state."""

    def __init__(self, shard_id: int, pool: SessionWorkerPool):
        self.shard_id = int(shard_id)
        self.pool = pool
        self.status = SHARD_UP

    @property
    def up(self) -> bool:
        return self.status == SHARD_UP and not self.pool.dead

    @property
    def label(self) -> str:
        return f"shard{self.shard_id}"

    def kill(self):
        """Kill the shard's pool abruptly; returns interrupted requests."""
        interrupted = self.pool.kill()
        self.status = SHARD_DEAD
        return interrupted
