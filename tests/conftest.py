import itertools

import numpy as np
import pytest
from scipy.spatial import HalfspaceIntersection

from convexlab.geometry import (
    Ellipsoid,
    SymmetricVPolytope,
    cross_polytope,
    cube,
    random_symmetric_polytope,
)


@pytest.fixture
def square():
    return cube(2)


@pytest.fixture
def cross2():
    return cross_polytope(2)


@pytest.fixture
def disk():
    return Ellipsoid.ball(2)


@pytest.fixture
def random_bodies_2d():
    return [random_symmetric_polytope(2, 8, seed=s) for s in range(5)]


@pytest.fixture
def random_bodies_3d():
    return [random_symmetric_polytope(3, 10, seed=s) for s in range(3)]


@pytest.fixture
def qhull_vertex_form():
    """A reference vertex form of an H-polytope that shares no step with the
    package's plane read (``geometry._plane_vertices``): scipy's halfspace
    intersection about the origin, closed under negation."""

    def make(body):
        halfspaces = np.column_stack([body.normals, -body.offsets])
        pts = HalfspaceIntersection(halfspaces, np.zeros(body.dim)).intersections
        return SymmetricVPolytope(np.vstack([pts, -pts]))

    return make


@pytest.fixture
def subset_sweep_vertices():
    """Reference H->V solver for the bounded polytope ``{x : a x <= b}``.

    Every vertex solves n of the facet equalities, so solve every n-subset
    and keep the feasible solutions; a vertex on more than n facets comes out
    once per subset that meets it.
    """

    def sweep(a, b):
        m, n = a.shape
        idx = np.array(list(itertools.combinations(range(m), n)))
        mats, rhs = a[idx], b[idx]
        ok = np.abs(np.linalg.det(mats)) > 1e-12
        sols = np.linalg.solve(mats[ok], rhs[ok][..., None])[..., 0]
        feasible = np.max(sols @ a.T - b, axis=1) <= 1e-9 * max(1.0, float(np.max(b)))
        return sols[feasible]

    return sweep


def assert_allclose(a, b, atol=1e-12, rtol=0.0):
    np.testing.assert_allclose(a, b, atol=atol, rtol=rtol)
