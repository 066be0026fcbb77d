"""Seeded input generation: patients, their intraoperative scans, ground truth.

Geometry (phantom anatomy and the four brain-shift fields) is fixed per
workload so the amount of work does not wander with the seed; the seed
drives every noise and bias-field realisation, i.e. every voxel value the
program sees. The same seed gives byte-identical inputs (the record
carries their hash). Generation is the harness's cost, reported as
``harness.inputs_s`` and excluded from ``setup_s``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from repro.imaging.phantom import (
    BrainPhantom,
    Tissue,
    brain_shift_field,
    synthesize_mri,
)
from repro.imaging.resample import invert_displacement_field, warp_volume
from repro.imaging.volume import ImageVolume

from spec import HEAD_SCALE, SHIFTS_MM, Workload

BRAIN_LABELS = (int(Tissue.BRAIN), int(Tissue.VENTRICLE), int(Tissue.FALX), int(Tissue.TUMOR))
INTRAOP_BRAIN_LABELS = BRAIN_LABELS + (int(Tissue.RESECTION),)


@dataclass
class ScanTruth:
    """Seed-independent part of one intraoperative scan."""

    shift_mm: float
    labels: ImageVolume
    true_forward_mm: np.ndarray
    do_nothing_err_mm: float  # mean |u_true| over the preop brain mask


@dataclass
class Patient:
    index: int
    preop_mri: ImageVolume
    scans: list[ImageVolume]  # aligned with Inputs.truths by ``scan_ids``
    scan_ids: list[int]


@dataclass
class Inputs:
    preop_labels: ImageVolume
    brain_mask: np.ndarray
    truths: list[ScanTruth]
    patients: list[Patient]
    sha: str
    seconds: float


def scaled_phantom(scale: float = HEAD_SCALE) -> BrainPhantom:
    base = BrainPhantom()
    s = lambda axes: tuple(a * scale for a in axes)  # noqa: E731
    return BrainPhantom(
        head_semi_axes=s(base.head_semi_axes),
        ventricle_semi_axes=s(base.ventricle_semi_axes),
        ventricle_offset_x=base.ventricle_offset_x * scale,
        tumor_radius=base.tumor_radius * scale,
        tumor_center_offset=s(base.tumor_center_offset),
    )


def _geometry(shape) -> tuple[ImageVolume, list[ScanTruth], np.ndarray]:
    phantom = scaled_phantom()
    head = np.asarray(phantom.head_semi_axes)
    spacing = tuple(float(v) for v in (2.0 * head * 1.12) / np.asarray(shape))
    labels = phantom.label_volume(tuple(shape), spacing)
    mask = np.isin(labels.data, BRAIN_LABELS)
    center = phantom.craniotomy_center()
    truths = []
    for shift in SHIFTS_MM:
        forward = brain_shift_field(labels, center, magnitude_mm=shift)
        inverse = invert_displacement_field(forward, labels.spacing)
        warped = warp_volume(labels, inverse, fill_value=int(Tissue.AIR), nearest=True)
        data = warped.data.astype(np.uint8)
        data[data == int(Tissue.TUMOR)] = int(Tissue.RESECTION)
        truths.append(
            ScanTruth(
                shift_mm=shift,
                labels=ImageVolume(data, labels.spacing, labels.origin),
                true_forward_mm=forward,
                do_nothing_err_mm=float(np.linalg.norm(forward, axis=-1)[mask].mean()),
            )
        )
    return labels, truths, mask


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *path]))


def make_patient(
    index: int, seed: int, labels: ImageVolume, truths: list[ScanTruth], scan_ids
) -> Patient:
    preop = synthesize_mri(labels, seed=_rng(seed, index, 0))
    scans = [
        synthesize_mri(truths[k].labels, seed=_rng(seed, index, 1 + k)) for k in scan_ids
    ]
    return Patient(index=index, preop_mri=preop, scans=scans, scan_ids=list(scan_ids))


def make_inputs(workload: Workload, seed: int, n_patients: int) -> Inputs:
    """Inputs of one workload run.

    Session and steady-serving patients carry all four scans; a
    new-patient workload's patients carry one scan each, the scan type
    cycling with the patient index.
    """
    t0 = time.perf_counter()
    labels, truths, mask = _geometry(workload.shape)
    patients = []
    for index in range(n_patients):
        ids = [index % len(truths)] if workload.new_patients else range(len(truths))
        patients.append(make_patient(index, seed, labels, truths, ids))
    digest = hashlib.blake2b(digest_size=16)
    digest.update(labels.data.tobytes())
    for patient in patients:
        digest.update(patient.preop_mri.data.tobytes())
        for scan in patient.scans:
            digest.update(scan.data.tobytes())
    return Inputs(
        preop_labels=labels,
        brain_mask=mask,
        truths=truths,
        patients=patients,
        sha=digest.hexdigest(),
        seconds=time.perf_counter() - t0,
    )
