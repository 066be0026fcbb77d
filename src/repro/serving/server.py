"""The session server: one worker pool behind the serving control loop.

:class:`SessionServer` multiplexes concurrent surgical cases over a
single :class:`repro.serving.SessionWorkerPool`. It has no loop of its
own: it is :class:`repro.serving.ShardGateway` — admission, dispatch,
collection, deadline eviction, re-admission after a worker death (a
durable case resumes from its journal; committed scans are *not*
recomputed), drain — configured with one shard and the single-host
policy below. Every method of the loop resolves to the gateway's.

What the configuration fixes, all as constructor data or class-level
labels (DESIGN.md "Serving" has the table and the reasons):

* **never sheds** — an all-infinite :class:`repro.serving.SheddingLadder`.
  Callers pre-queue whole bursts (``queue_capacity=len(requests)``) and
  compare the served fields bit-for-bit against a serial session; a
  ladder that reads queue fill as distress would degrade them.
* **re-admits at once** — ``retry_base_s=0``: there is no sibling shard
  to let recover, so backoff would only add latency.
* **no hang detection** — ``hang_timeout_s=inf``: a case's only bound is
  its own deadline, as before the gateway existed.
* its own names: ``server`` tracer / ``server.json`` flight dump,
  ``worker-N`` trace lanes, "Serving summary" with the short footer.
"""

from __future__ import annotations

import math

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serving.admission import SheddingLadder
from repro.serving.gateway import ShardGateway
from repro.serving.pool import SessionWorkerPool


class SessionServer(ShardGateway):
    """Concurrent multi-patient serving of surgical sessions on one pool.

    ``n_workers`` is the size of the worker process pool; every other
    parameter is :class:`repro.serving.ShardGateway`'s of the same name
    (defaults differ: a 16-case queue and 2 dispatch attempts).
    """

    label = "server"
    lane = "worker-{worker}"
    worker_desc = "worker {worker}"
    summary_title = "Serving summary"
    summary_footer = (
        "completed: {ok}/{n} | workers: {workers} | worker deaths: {deaths}"
    )

    def __init__(
        self,
        n_workers: int = 2,
        queue_capacity: int = 16,
        policy: str = "fifo",
        max_attempts: int = 2,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        telemetry: bool = True,
        flight_dir: str | None = None,
        drain_dir: str | None = None,
    ):
        super().__init__(
            n_shards=1,
            workers_per_shard=n_workers,
            queue_capacity=queue_capacity,
            policy=policy,
            max_attempts=max_attempts,
            shedding=SheddingLadder(math.inf, math.inf, math.inf, math.inf),
            retry_base_s=0.0,
            hang_timeout_s=math.inf,
            metrics=metrics,
            tracer=tracer,
            telemetry=telemetry,
            flight_dir=flight_dir,
            drain_dir=drain_dir,
        )

    @property
    def pool(self) -> SessionWorkerPool:
        """The single worker pool (shard 0's)."""
        return self.shards[0].pool
