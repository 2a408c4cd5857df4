import dataclasses

import numpy as np
import pytest

from dyadica.dyadic import CubeTable
from dyadica.space import PointMeasure, build_space, generate_space


@pytest.fixture
def segment4():
    space, mu = generate_space("integer_segment_counting", n=4)
    return space, mu


@pytest.fixture
def segment16():
    space, mu = generate_space("integer_segment_counting", n=16)
    return space, mu


@pytest.fixture
def snowflake8():
    space, mu = generate_space("snowflake_power", n=8, power=2.0)
    return space, mu


@pytest.fixture
def tree27():
    space, mu = generate_space("ultrametric_tree", depth=3, branching=3, ratio=1.0 / 96.0)
    return space, mu


@pytest.fixture
def two_point():
    space = build_space(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return space, PointMeasure(np.ones(2))


def random_masses(rng, n, zero_fraction=0.0):
    """Integer masses so that reordered partial sums stay exactly equal."""
    m = rng.integers(1, 20, size=n).astype(float)
    if zero_fraction > 0:
        kill = rng.random(n) < zero_fraction
        if kill.all():
            kill[rng.integers(0, n)] = False
        m[kill] = 0.0
    return m


def coarse_copy(system, k_max):
    """system cut to generations k_min..k_max, built from its arrays: ids
    run by generation, so the cut keeps a prefix of the cube table, and
    its finest cubes may hold many points."""
    stop = int(np.searchsorted(system.cubes.k, k_max + 1))
    c = system.cubes
    return dataclasses.replace(
        system, k_max=k_max,
        cubes=CubeTable(c.k[:stop], c.center[:stop], c.diameter[:stop]),
        label=system.label[:k_max - system.k_min + 1],
        parent=system.parent[:stop])


def with_C_K(op, C_K):
    """op on a copy of its envelope whose bound constant is C_K; the
    operator reads C_K off its envelope, and nothing else changes."""
    return dataclasses.replace(op, phi=dataclasses.replace(op.phi, C_K=C_K))


def members(system, i):
    """Cube i's points in ascending order, read off the incidence block."""
    return tuple(np.flatnonzero(system.incidence[i]).tolist())


def distance_prefix(space, mu, x):
    """x's distances in the order of its row of the space index, and mu
    summed point by point along that row: pref[k] is the mass of the first
    k points, so a ball of k points has mass pref[k]."""
    order = space.index.order[x]
    pref = [0.0]
    for m in mu.masses[order].tolist():
        pref.append(pref[-1] + m)
    return space.dist[x, order].tolist(), pref


def order_ulps(n):
    """Relative bound on how far two sums of the same n nonnegative floats,
    added in different orders, may lie apart: each is within (n - 1) units
    of 2^-53 of the exact sum."""
    return max(n - 1, 1) * 2.0**-52
