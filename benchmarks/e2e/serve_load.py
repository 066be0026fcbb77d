"""Serving workloads over the real socket path.

``NetClient -> NetworkFrontEnd -> ShardGateway(1 shard x N workers) ->
worker``: one client connection and one load-generating thread per
operating room, one single-scan case outstanding per room. The stack is
torn down in ``finally`` blocks so a failed run leaves no worker behind.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro import IntraoperativePipeline, PipelineConfig
from repro.core.session import SurgicalSession
from repro.serving.gateway import ShardGateway
from repro.serving.netclient import NetClient
from repro.serving.protocol import STATUS_COMPLETED, CaseRequest
from repro.serving.transport import NetworkFrontEnd

from calibration import SpeedProbe, slowdown
from inputs import Inputs, Patient
from session_load import scan_row
from spans import SpanRecorder
from spec import SHIFTS_MM, Workload

#: Budget for one case's terminal result; a stuck stack fails the run
#: long before the supervisor's wall-clock timeout.
WAIT_TIMEOUT_S = 60.0


class ServeStack:
    """Gateway, front-end and one connected client per room."""

    def __init__(self, workload: Workload, scratch: Path):
        t0 = time.perf_counter()
        self.clients: list[NetClient] = []
        self.frontend = None
        self.gateway = ShardGateway(
            n_shards=1,
            workers_per_shard=workload.workers,
            drain_dir=str(scratch / "drain"),
            flight_dir=str(scratch / "flight"),
        )
        try:
            self.frontend = NetworkFrontEnd(self.gateway)
            self.frontend.start_in_thread()
            for _ in range(workload.rooms):
                client = NetClient("127.0.0.1", self.frontend.port)
                self.clients.append(client)
                client.connect()
        except BaseException:
            self.close()
            raise
        self.start_s = time.perf_counter() - t0

    def close(self) -> None:
        try:
            for client in self.clients:
                client.close()
        finally:
            try:
                if self.frontend is not None:
                    self.frontend.stop_from_thread()
            finally:
                self.gateway.shutdown()


def workers_peak_rss_mb() -> float:
    """Summed peak RSS (``VmHWM``) of this process's live children, the workers.

    The sum, not the largest: how the cases split between two workers
    varies from run to run, their total does not.
    """
    total_kb = 0
    for child in multiprocessing.active_children():
        for line in Path(f"/proc/{child.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def make_request(
    workload: Workload, inputs: Inputs, patient: Patient, scan_slot: int, case_id: str
) -> CaseRequest:
    return CaseRequest(
        case_id=case_id,
        preop_mri=patient.preop_mri,
        preop_labels=inputs.preop_labels,
        scans=[patient.scans[scan_slot]],
        config=PipelineConfig(**workload.config),
    )


def serve_case(client: NetClient, request: CaseRequest, due: float | None = None) -> dict:
    """Submit one case and wait for its terminal result.

    Latency runs from ``due`` (the scheduled send time, open loop) or
    from the submit call (closed loop) to the result reaching the caller.
    """
    t_submit = time.perf_counter()
    start = t_submit if due is None else due
    row = {"case_id": request.case_id, "late_s": t_submit - start, "failures": []}
    try:
        client.submit(request)
        t_ack = time.perf_counter()
        client.wait(timeout=WAIT_TIMEOUT_S)
        t_done = time.perf_counter()
    except Exception as exc:  # noqa: BLE001 - a failed case is a counted failure
        row["failures"].append(f"{type(exc).__name__}: {exc}")
        row.update(t_submit=t_submit, t_ack=None, t_done=time.perf_counter(), result=None)
        row["latency_s"] = row["t_done"] - start
        return row
    result = client.results.get(request.case_id)
    row.update(t_submit=t_submit, t_ack=t_ack, t_done=t_done, latency_s=t_done - start)
    row["submit_ack_s"] = t_ack - t_submit
    row["result"] = None if result is None else result.as_dict()
    if result is None:
        row["failures"].append("no terminal result")
    else:
        if result.status != STATUS_COMPLETED:
            row["failures"].append(f"status {result.status}: {result.detail}")
        if len(result.scans) != 1:
            row["failures"].append(f"{len(result.scans)} scan outcomes, expected 1")
        elif result.scans[0].degradation not in (None, "full-fem"):
            row["failures"].append(f"degraded: {result.scans[0].degradation}")
    return row


def warm_up(workload: Workload, inputs: Inputs, stack: ServeStack, tag: str) -> list[dict]:
    """One case per room: uploads the room's preop and builds its model."""
    rows = []
    for room, client in enumerate(stack.clients):
        patient = inputs.patients[room]
        request = make_request(workload, inputs, patient, 0, f"{tag}-warm-{room}")
        row = serve_case(client, request)
        row.update(room=room, patient=patient.index, scan_id=patient.scan_ids[0])
        rows.append(row)
    return rows


def _room_loop(
    workload: Workload, inputs: Inputs, client: NetClient, room: int,
    t_start: float, seconds: float, dues: list[float] | None,
) -> list[dict]:
    """One room's load generator (runs on its own thread); returns its case rows."""
    n_rooms = workload.rooms
    out: list[dict] = []
    k = 0
    probe = SpeedProbe()
    speed = probe()
    while True:
        if dues is not None:
            if k >= len(dues):
                return out
            due = t_start + dues[k]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        else:
            due = None
            if time.perf_counter() - t_start >= seconds:
                return out
        if workload.new_patients:
            # Warm-up used patients 0..rooms-1; timed cases take fresh ones
            # until the room's ``new_patients_per_room`` are used up.
            index = n_rooms + room + k * n_rooms
            if index >= len(inputs.patients):
                return out
            patient, slot = inputs.patients[index], 0
        else:
            patient = inputs.patients[room]
            slot = (k + 1) % len(patient.scans)
        request = make_request(workload, inputs, patient, slot, f"r{room}-c{k}")
        row = serve_case(client, request, due)
        before, speed = speed, probe()
        row.update(room=room, patient=patient.index, scan_id=patient.scan_ids[slot], k=k)
        row["slowdown"] = slowdown(before, speed)
        row["latency_ref_s"] = row["latency_s"] / row["slowdown"]
        out.append(row)
        k += 1


def run_serve(
    workload: Workload, inputs: Inputs, seconds: float, setup_repeats: int,
    recorder: SpanRecorder, root: int | None, scratch: Path,
) -> dict:
    setups = []
    stack = None
    probe = SpeedProbe()
    try:
        for rep in range(setup_repeats):
            if stack is not None:
                stack.close()
                stack = None
            before = probe.settled()
            t0 = time.perf_counter()
            stack = ServeStack(workload, scratch)
            warm = warm_up(workload, inputs, stack, f"s{rep}")
            t1 = time.perf_counter()
            slow = slowdown(before, probe.settled())
            setups.append(
                {"setup_s": (t1 - t0) / slow, "setup_wall_s": t1 - t0, "slowdown": slow,
                 "start_s": stack.start_s, "warm": warm}
            )
            span = recorder.add("setup", t0, t1, root, scan=f"setup[{rep}]")
            recorder.add("start", t0, t0 + stack.start_s, span, f"setup[{rep}]")

        dues = workload.schedule(seconds) if workload.paced else [None] * workload.rooms
        t_start = time.perf_counter() + 0.05  # let every room thread reach its first wait
        with ThreadPoolExecutor(workload.rooms, thread_name_prefix="room") as pool:
            futures = [
                pool.submit(_room_loop, workload, inputs, client, room, t_start, seconds,
                            dues[room])
                for room, client in enumerate(stack.clients)
            ]
            per_room = [future.result() for future in futures]
        rows = sorted((r for room in per_room for r in room), key=lambda r: r["t_submit"])
        wall = max((r["t_done"] for r in rows), default=t_start) - t_start
        client_metrics = [dict(c.metrics.as_dict()) for c in stack.clients]
        workers_rss_mb = workers_peak_rss_mb()
    finally:
        if stack is not None:
            stack.close()

    # Traced and untraced cases alternate in blocks of one scan cycle per room,
    # so both halves hold the same mix of scans.
    block = workload.rooms * len(SHIFTS_MM)
    for index, row in enumerate(rows):
        row["traced"] = recorder.enabled and (index // block) % 2 == 0
        if row["traced"]:
            add_case_spans(recorder, root, row)
    return {
        "setups": setups, "rows": rows, "wall_s": wall, "client_metrics": client_metrics,
        "workers_rss_mb": workers_rss_mb,
    }


def add_case_spans(recorder: SpanRecorder, root, row: dict) -> None:
    """case -> submit, wait -> queue, service: rebuilt from the CaseResult split."""
    cid = row["case_id"]
    start = row["t_done"] - row["latency_s"]
    case = recorder.add("case", start, row["t_done"], root, scan=cid)
    if row.get("t_ack") is None:
        return
    recorder.add("submit", row["t_submit"], row["t_ack"], case, cid)
    wait = recorder.add("wait", row["t_ack"], row["t_done"], case, cid)
    result = row.get("result")
    if result:
        # Queue then service, ending where the result was pushed back;
        # what is left of the wait span is wire, pump and dispatch time.
        end = row["t_done"]
        service_start = end - result["service_seconds"]
        queue_start = service_start - result["queue_seconds"]
        recorder.add("queue", max(queue_start, row["t_ack"]), service_start, wait, cid)
        recorder.add("service", service_start, end, wait, cid)


def reference_cases(
    workload: Workload, inputs: Inputs, pairs: list[tuple[int, int]],
    recorder: SpanRecorder, root: int | None,
) -> dict[tuple[int, int], dict]:
    """In-process ``SurgicalSession`` results for (patient, scan) pairs.

    Mirrors what a worker does for a single-scan case: the patient's
    model is built once and its warm memory reset before each case, so
    the fields are bit-identical to a from-scratch session.
    """
    out: dict[tuple[int, int], dict] = {}
    models: dict[int, tuple] = {}
    for patient_index, scan_id in pairs:
        patient = inputs.patients[patient_index]
        with recorder.span("reference", root, scan=f"ref-p{patient_index}-s{scan_id}"):
            t0 = time.perf_counter()
            if patient_index not in models:
                pipeline = IntraoperativePipeline(PipelineConfig(**workload.config))
                preop = pipeline.prepare_preoperative(patient.preop_mri, inputs.preop_labels)
                models[patient_index] = (pipeline, preop, time.perf_counter() - t0)
            pipeline, preop, build_s = models[patient_index]
            if preop.solve_context is not None:
                preop.solve_context.reset_warm_state()
            session = SurgicalSession.begin(
                pipeline, patient.preop_mri, inputs.preop_labels, preop=preop
            )
            t1 = time.perf_counter()
            result = session.process(patient.scans[patient.scan_ids.index(scan_id)])
            row = scan_row(result, time.perf_counter() - t1, inputs, scan_id)
        row["preop_build_s"] = build_s
        row["session"] = session
        out[(patient_index, scan_id)] = row
        if workload.new_patients:
            models.pop(patient_index)  # one case per patient: nothing to reuse
    return out
