"""Markerless multi-view motion capture.

Reconstructs 3D human joints from calibrated multi-view 2D detections by
iterative voxel-space subdivision, converts skeletons to animation-ready
per-bone transforms against a T-pose template, and evaluates accuracy with
3D and reprojection error metrics.
"""
