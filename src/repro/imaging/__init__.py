"""Volumetric image substrate.

Everything the pipeline needs to stand in for the paper's intraoperative
MR acquisitions: an image-volume container with world-space geometry, a
synthetic multi-tissue brain phantom with ground-truth deformations,
distance transforms (the paper's "saturated distance transform" tissue
localization models), smoothing/gradient filters, trilinear resampling /
displacement-field warping, and image-match metrics.
"""

from repro.imaging.bias import BiasCorrection, correct_bias
from repro.imaging.distance import (
    euclidean_distance_transform,
    saturated_distance_transform,
    saturation_window,
    signed_distance,
)
from repro.imaging.filters import gaussian_smooth, gradient_magnitude, image_gradient
from repro.imaging.io import load_mesh, load_volume, save_mesh, save_volume
from repro.imaging.metrics import (
    joint_histogram,
    mean_absolute_difference,
    mutual_information,
    normalized_cross_correlation,
    rms_difference,
)
from repro.imaging.noise import add_rician_noise, bias_field
from repro.imaging.phantom import (
    BrainPhantom,
    NeurosurgeryCase,
    Tissue,
    make_neurosurgery_case,
)
from repro.imaging.resample import (
    resample_volume,
    trilinear_sample,
    trilinear_sample_many,
    warp_volume,
)
from repro.imaging.scanner import INTRAOP_05T, ScannerProtocol, acquire
from repro.imaging.volume import ImageVolume

__all__ = [
    "BiasCorrection",
    "BrainPhantom",
    "INTRAOP_05T",
    "ScannerProtocol",
    "ImageVolume",
    "NeurosurgeryCase",
    "Tissue",
    "acquire",
    "add_rician_noise",
    "correct_bias",
    "bias_field",
    "euclidean_distance_transform",
    "gaussian_smooth",
    "gradient_magnitude",
    "image_gradient",
    "joint_histogram",
    "load_mesh",
    "load_volume",
    "make_neurosurgery_case",
    "mean_absolute_difference",
    "mutual_information",
    "normalized_cross_correlation",
    "resample_volume",
    "rms_difference",
    "save_mesh",
    "save_volume",
    "saturated_distance_transform",
    "saturation_window",
    "signed_distance",
    "trilinear_sample",
    "trilinear_sample_many",
    "warp_volume",
]
