import numpy as np
import pytest

from beamstab import geometry
from beamstab.admissibility import constant_schedule
from beamstab.discretization import assemble
from beamstab.feedback import identity_law, zero_law


@pytest.fixture(scope="session")
def interval3():
    return geometry.build_interval_mesh(1.0, 3)


@pytest.fixture(scope="session")
def interval3_partition(interval3):
    return geometry.classify_boundary(interval3, np.array([0.0]))


def make_system(mesh=None, nodes=11, alpha1=0.1, alpha2=0.1, law1=None, law2=None,
                schedule=None, x0=0.0):
    """Small assembled system for unit tests."""
    if mesh is None:
        mesh = geometry.build_interval_mesh(1.0, nodes)
    partition = geometry.classify_boundary(mesh, np.atleast_1d(x0))
    return assemble(mesh, partition, alpha1, alpha2,
                    schedule or constant_schedule(1.0),
                    law1 or identity_law(), law2 or identity_law())


def make_conservative_system(nodes=11):
    """Decoupled undamped configuration: zero laws, no coupling, sigma = 0
    (sigma = alpha2 * sum_i nu_i vanishes with alpha2)."""
    return make_system(nodes=nodes, alpha1=0.0, alpha2=0.0,
                       law1=zero_law(), law2=zero_law())
