"""Isotropic position: the mapped body's second-moment matrix is a multiple of
the identity (or its polar's is, with target="polar")."""

import numpy as np
import pytest

from convexlab.geometry import (
    Ellipsoid,
    cube,
    polar,
    random_ellipsoid,
    random_symmetric_polytope,
)
from convexlab.isotropic import isotropize, moment_anisotropy
from convexlab.moments import second_moment_matrix


def _isotropy_residual(body):
    m = second_moment_matrix(body).matrix
    scale = np.trace(m) / body.dim
    return float(np.max(np.abs(m - scale * np.eye(body.dim)))) / scale


def test_cube_already_isotropic():
    smap, image, cert = isotropize(cube(2))
    assert cert.off_diag_rel < 1e-12
    # the map can only be a multiple of the identity here
    off = smap.matrix - np.diag(np.diag(smap.matrix))
    assert np.max(np.abs(off)) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_isotropize_self(seed):
    body = random_symmetric_polytope(2, 9, seed=seed)
    smap, image, cert = isotropize(body)
    assert cert.off_diag_rel < 1e-9
    assert cert.diag_spread_rel < 1e-9
    assert _isotropy_residual(image) < 1e-9


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [2, 3])
def test_isotropize_polar_target(seed, n):
    body = random_symmetric_polytope(n, 4 * n, seed=seed)
    smap, image, cert = isotropize(body, target="polar")
    assert cert.off_diag_rel < 1e-9
    assert _isotropy_residual(polar(image)) < 1e-9


def test_isotropize_ellipsoid_gives_ball():
    e = random_ellipsoid(3, seed=7)
    _, image, cert = isotropize(e)
    w = np.linalg.eigvalsh(image.shape)
    assert w[-1] / w[0] == pytest.approx(1.0, abs=1e-9)
    assert cert.off_diag_rel < 1e-9


def test_isotropize_deterministic():
    body = random_symmetric_polytope(3, 12, seed=4)
    a, _, _ = isotropize(body)
    b, _, _ = isotropize(body)
    np.testing.assert_array_equal(a.matrix, b.matrix)


def test_isotropize_rejects_unknown_modes(square):
    with pytest.raises(ValueError):
        isotropize(square, target="dual")


def test_moment_anisotropy_identity():
    mm = second_moment_matrix(Ellipsoid.ball(2))
    off, spread = moment_anisotropy(mm)
    assert off < 1e-14 and spread < 1e-14


def test_moment_anisotropy_detects_skew():
    mm = second_moment_matrix(random_ellipsoid(2, seed=8))
    off, spread = moment_anisotropy(mm)
    assert max(off, spread) > 1e-3

