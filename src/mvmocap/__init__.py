"""Markerless multi-view motion capture.

Reconstructs 3D human joints from calibrated multi-view 2D detections by
iterative voxel-space subdivision, converts skeletons to animation-ready
per-bone transforms against a T-pose template, and evaluates accuracy with
3D and reprojection error metrics.
"""

from .geometry import CameraParams, project
from .metrics import avg_2d_err, mean_abs_3d_err, sequence_mean
from .retarget import BoneTransformSet, retarget_chunks, retarget_sequence
from .skeleton import BONES, FRAME_ROTATION, Skeleton3D
from .synth import SyntheticScene, generate_scene, render_observations
from .voxel import Cube, EstimatorConfig, JointObservationFrame, estimate_skeletons

__version__ = "0.1.0"
