"""Network chaos-soak benchmark: the sharded tier behind a real socket.

The PR 8 chaos soak, run end-to-end through the wire: a
:class:`repro.serving.transport.NetworkFrontEnd` on a loopback
listener, a retrying :class:`repro.serving.NetClient`, gateway faults
(a worker hang, a dropped result) *and* wire faults (a duplicate
delivery, a mid-frame reset, a truncated frame, a delayed ACK, a
partition-then-heal). The record lands in ``BENCH_netsoak.json``; the
acceptance criteria asserted here are the network tier's durability
contract:

* **zero lost durable cases** and **every admitted case reaches a
  terminal status as observed by the client** — a result produced but
  never delivered over the wire counts as lost;
* **exactly-once execution under duplicate delivery** — no idempotency
  key ever starts a second execution (``double_solved`` empty), with
  duplicates answered from the terminal cache or the persistence
  journal;
* **the wire chaos actually fired** — the fault log carries at least
  the partition and the mid-frame reset — and the client survived it:
  retries and reconnects are non-zero;
* **both ends of the wire are in one telemetry bundle** — server
  ``net.*`` byte/frame/duplicate counters and client
  ``net.client.*`` retry/breaker counters land in the same record.

``REPRO_BENCH_SMOKE=1`` shrinks the fleet and case count to a CI-sized
run over the same code path.

Runnable standalone: ``PYTHONPATH=src python benchmarks/test_netsoak.py``.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile

import pytest

from repro.serving.soak import run_net_soak

RESULT_PATH = pathlib.Path(__file__).with_name("BENCH_netsoak.json")

pytestmark = pytest.mark.bench

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Full sizing: two shards, three patients spreading preop keys over
#: the ring, every other case durable.
FULL = dict(
    n_cases=10,
    n_shards=2,
    workers_per_shard=1,
    scans_per_case=1,
    shape=(32, 32, 24),
    mesh_cell_mm=6.0,
    n_patients=3,
    queue_capacity=8,
    durable_every=2,
    seed=7,
)
#: Smoke sizing: same chaos schedule, minutes -> seconds.
SMOKE_PARAMS = dict(
    n_cases=6,
    n_shards=1,
    workers_per_shard=1,
    scans_per_case=1,
    shape=(24, 24, 16),
    mesh_cell_mm=8.0,
    n_patients=2,
    queue_capacity=6,
    durable_every=2,
    seed=7,
)


def run_benchmark() -> dict:
    """Run the configured (full or smoke) network soak; return the record."""
    params = SMOKE_PARAMS if SMOKE else FULL
    with tempfile.TemporaryDirectory(prefix="repro-netsoak-ckpt-") as root:
        report = run_net_soak(checkpoint_root=root, **params)
    record = report.as_dict()
    record["smoke"] = SMOKE
    return record


def check_acceptance(record: dict) -> None:
    """Assert the network durability contract on a benchmark record."""
    net = record["net"]
    assert record["lost_cases"] == [], (
        f"lost durable cases: {record['lost_cases']}"
    )
    assert record["unterminated_cases"] == [], (
        f"admitted cases without client-observed terminal status: "
        f"{record['unterminated_cases']}"
    )
    # Exactly-once execution under injected duplicate delivery.
    assert net["double_solved"] == [], (
        f"idempotency keys executed more than once: {net['double_solved']}"
    )
    assert int(net["dups_injected"]) >= 1, net
    assert int(net["duplicates"]) >= int(net["dups_injected"]), net
    # The wire chaos actually happened and the client rode it out.
    faults = record["faults_injected"]
    assert any("partition" in f for f in faults), faults
    assert any("reset-mid-frame" in f for f in faults), faults
    assert int(net["resets_injected"]) >= 1, net
    assert int(net["partitions"]) >= 1, net
    assert int(net["client_retries"]) >= 1, net
    assert int(net["client_reconnects"]) >= 1, net
    # Both ends of the wire in one bundle: bytes flowed and were counted.
    for counter in ("bytes_in", "bytes_out", "frames_in", "frames_out"):
        assert net[counter] > 0, (counter, net.get(counter))
    for counter in ("client_bytes_sent", "client_bytes_received"):
        assert net[counter] > 0, (counter, net.get(counter))
    assert "breaker_state" in net and "breaker_trips" in net, sorted(net)


def test_netsoak(capsys):
    from bench_io import update_bench_record

    record = run_benchmark()
    update_bench_record(RESULT_PATH, record)
    check_acceptance(record)
    net = record["net"]
    print(
        f"\nNetwork chaos soak ({'smoke' if SMOKE else 'full'}): "
        f"{record['n_cases']} cases through the wire, "
        f"{len(record['faults_injected'])} faults injected\n"
        f"  served {record['served']}/{int(record['counters']['serving.admitted'])}"
        f" | submits {int(net['submits'])}"
        f" | duplicates deduped {int(net['duplicates'])}"
        f" ({int(net.get('journal_dedup', 0))} via journal)"
        f" | double-solved {len(net['double_solved'])}\n"
        f"  client: {int(net['client_retries'])} retries"
        f" | {int(net['client_reconnects'])} reconnects"
        f" | {int(net['breaker_trips'])} breaker trips"
        f" | {int(net['client_bytes_sent'])} B up"
        f" / {int(net['client_bytes_received'])} B down\n"
        f"  {record['scans_total']} scans in {record['elapsed_seconds']:.1f} s"
        f" ({record['throughput_scans_per_s']:.3f} scans/s)"
    )


def main() -> None:
    from bench_io import update_bench_record

    record = run_benchmark()
    update_bench_record(RESULT_PATH, record)
    check_acceptance(record)
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
