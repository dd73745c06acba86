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


def grid_cells(mesh):
    """Node ids of the cells of a tensor-grid mesh, for the element-loop
    oracles. Interval: node pairs (i, i+1).  Rectangle: corners (i,j),
    (i+1,j), (i+1,j+1), (i,j+1) of node ids i*(ny+1)+j, ordered by i, then j."""
    counts = [len(x) for x in mesh.axes]
    if len(counts) == 1:
        e = np.arange(counts[0] - 1)
        return np.stack([e, e + 1], axis=1)
    ny1 = counts[1]
    i, j = np.meshgrid(np.arange(counts[0] - 1), np.arange(ny1 - 1), indexing="ij")
    base = (i * ny1 + j).ravel()
    return np.stack([base, base + ny1, base + ny1 + 1, base + 1], axis=1)


def make_conservative_system(nodes=11):
    """Decoupled undamped configuration: zero laws, no coupling, sigma = 0
    (sigma = alpha2 * sum_i nu_i vanishes with alpha2)."""
    return make_system(nodes=nodes, alpha1=0.0, alpha2=0.0,
                       law1=zero_law(), law2=zero_law())
