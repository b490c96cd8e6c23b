import numpy as np
import pytest

from mvmocap.synth import camera_ring
from mvmocap.voxel import EstimatorConfig


@pytest.fixture(scope="session")
def ring():
    return camera_ring()


@pytest.fixture
def config():
    return EstimatorConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)
