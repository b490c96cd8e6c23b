"""Markerless multi-view motion capture.

Reconstructs 3D human joints from calibrated multi-view 2D detections by
iterative voxel-space subdivision, converts skeletons to animation-ready
per-bone transforms against a T-pose template, and evaluates accuracy with
3D and reprojection error metrics.
"""

from .geometry import CameraParams, project
from .metrics import ErrorReport, avg_2d_err, mean_abs_3d_err, sequence_mean
from .retarget import (
    BoneTransformSet,
    retarget_frame,
    retarget_sequence,
    spin_correct,
)
from .skeleton import (
    Skeleton3D,
    SkeletonTopology,
    TPoseTemplate,
    default_template,
    default_topology,
)
from .synth import SyntheticScene, generate_scene, render_observations
from .voxel import (
    Cube,
    EstimatorConfig,
    JointEstimate,
    JointObservationFrame,
    estimate_joint,
    estimate_joints,
    estimate_skeleton,
)

__version__ = "0.1.0"
