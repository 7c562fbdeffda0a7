"""Exact and Monte Carlo volumes / second moments against closed forms.

Oracles used below (all elementary integrals):
    cube [-1,1]^n:      |K| = 2^n,        int x_i^2 = 2^n / 3
    cross |x|_1 <= 1:   |K| = 2^n / n!,   int x_i^2 = 1/3 (n=2), 2/15 (n=3)
    ball r B_2^n:       |K| = w_n r^n,    int x_i^2 = w_n r^{n+2} / (n+2)
    unit simplex conv(0, e_1..e_n): |S| = 1/n!, int x_i^2 = 2/(n+2)!
"""

import math

import numpy as np
import pytest

from convexlab.geometry import (
    Ellipsoid,
    LinearMap,
    SimplicialCone,
    apply_map,
    cross_polytope,
    cube,
    polar,
    random_ellipsoid,
    random_symmetric_polytope,
    unit_ball_volume,
    write_json,
)
from convexlab import harness, moments
from convexlab.isotropic import isotropize
from convexlab.moments import (
    MomentMatrix,
    ball_functional,
    box_chunks,
    box_moments,
    mc_second_moment,
    mc_volume,
    reference_ball_moment,
    rejection_sample,
    second_moment_matrix,
    simplex_second_moment,
    simplex_volume,
    volume,
)
from convexlab.stability import homothetic_distance


@pytest.mark.parametrize("n", [2, 3, 4])
def test_simplex_closed_forms(n):
    verts = np.vstack([np.zeros(n), np.eye(n)])
    assert simplex_volume(verts) == pytest.approx(1.0 / math.factorial(n), abs=1e-15)
    mm = simplex_second_moment(verts)
    expected = 2.0 / math.factorial(n + 2)
    for i in range(n):
        assert mm.matrix[i, i] == pytest.approx(expected, abs=1e-15)


def test_simplex_moment_off_diagonal():
    # int_{x,y>=0, x+y<=1} xy = 1/24
    mm = simplex_second_moment(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert mm.matrix[0, 1] == pytest.approx(1.0 / 24.0, abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_volume_cube_cross(n):
    assert volume(cube(n)) == pytest.approx(2.0**n, abs=1e-10)
    assert volume(cross_polytope(n)) == pytest.approx(2.0**n / math.factorial(n), abs=1e-10)


def test_volume_ellipsoid():
    assert volume(Ellipsoid.ball(3, 0.7)) == pytest.approx(
        unit_ball_volume(3) * 0.7**3, abs=1e-12
    )
    e = random_ellipsoid(2, seed=9)
    assert volume(e) == pytest.approx(
        math.pi / math.sqrt(np.linalg.det(e.shape)), rel=1e-12
    )


def test_moment_matrix_cube_cross():
    np.testing.assert_allclose(
        second_moment_matrix(cube(2)).matrix, (4.0 / 3.0) * np.eye(2), atol=1e-12
    )
    np.testing.assert_allclose(
        second_moment_matrix(cube(3)).matrix, (8.0 / 3.0) * np.eye(3), atol=1e-12
    )
    np.testing.assert_allclose(
        second_moment_matrix(cross_polytope(2)).matrix, np.eye(2) / 3.0, atol=1e-12
    )
    np.testing.assert_allclose(
        second_moment_matrix(cross_polytope(3)).matrix, (2.0 / 15.0) * np.eye(3), atol=1e-12
    )


def test_moment_matrix_ball():
    np.testing.assert_allclose(
        second_moment_matrix(Ellipsoid.ball(2)).matrix, (math.pi / 4.0) * np.eye(2),
        atol=1e-12,
    )


def test_moment_matrix_ellipsoid_closed_form():
    """M(T B) = w_n det(T)/(n+2) * T T^t, i.e. w_n sqrt(det Q^-1)/(n+2) * Q^-1."""
    e = random_ellipsoid(3, seed=5)
    qinv = np.linalg.inv(e.shape)
    expected = unit_ball_volume(3) * math.sqrt(np.linalg.det(qinv)) / 5.0 * qinv
    np.testing.assert_allclose(second_moment_matrix(e).matrix, expected, atol=1e-10)


def test_moment_linear_image_rule(square):
    # M(T K) = det(T) T M(K) T^t
    t = LinearMap(np.array([[1.5, 0.3], [-0.2, 0.8]]))
    img = apply_map(t, square)
    expected = abs(t.det) * t.matrix @ second_moment_matrix(square).matrix @ t.matrix.T
    np.testing.assert_allclose(second_moment_matrix(img).matrix, expected, atol=1e-9)


def test_reference_ball_moment():
    assert reference_ball_moment(2) == pytest.approx(math.pi / 4.0, abs=1e-14)
    assert reference_ball_moment(3) == pytest.approx(4.0 * math.pi / 15.0, abs=1e-14)


# ---------------------------------------------------------------------------
# Monte Carlo routes
# ---------------------------------------------------------------------------


def test_mc_volume_within_four_sigma():
    for seed, body in enumerate([cube(2), cross_polytope(3), random_ellipsoid(2, seed=1)]):
        exact = volume(body)
        est, se = mc_volume(body, 200_000, seed=seed)
        # the cube fills its own bounding box, so its estimator is exact
        assert se >= 0
        assert abs(est - exact) <= max(4.0 * se, 1e-12)


def test_mc_volume_deterministic():
    b = random_symmetric_polytope(2, 8, seed=2)
    assert mc_volume(b, 50_000, seed=7) == mc_volume(b, 50_000, seed=7)


def test_mc_second_moment_within_four_sigma(square):
    mm = mc_second_moment(square, 400_000, seed=3)
    diff = np.abs(mm.matrix - (4.0 / 3.0) * np.eye(2))
    assert np.all(diff <= 4.0 * mm.stderr + 1e-12)
    assert mm.samples == 400_000 and mm.seed == 3


def test_second_moment_matrix_mc_dispatch():
    b = random_symmetric_polytope(2, 6, seed=11)
    exact = second_moment_matrix(b, method="exact")
    est = second_moment_matrix(b, method="mc", samples=400_000, seed=5)
    assert est.stderr is not None
    assert np.all(np.abs(est.matrix - exact.matrix) <= 4.0 * est.stderr + 1e-12)


BOX_LO = np.array([-1.0, 0.0, -2.5])
BOX_HI = np.array([1.0, 0.5, 3.0])


@pytest.mark.parametrize("chunk", [1, 7, 49, 50, 64])
def test_box_chunks_concatenate_to_one_draw(chunk, monkeypatch):
    monkeypatch.setattr(moments, "MC_CHUNK", chunk)
    n_draws = 50
    whole = np.random.default_rng(4).uniform(BOX_LO, BOX_HI, (n_draws, 3))
    parts = list(box_chunks(BOX_LO, BOX_HI, n_draws, 4))
    assert [len(p) for p in parts[:-1]] == [chunk] * (len(parts) - 1)
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def _in_unit_ball(pts):
    return np.einsum("ij,ij->i", pts, pts) <= 1.0


def test_rejection_sample_independent_of_chunk(monkeypatch):
    monkeypatch.setattr(moments, "MC_CHUNK", 64)
    a = rejection_sample(_in_unit_ball, BOX_LO, BOX_HI, 300, seed=2)
    monkeypatch.setattr(moments, "MC_CHUNK", 1000)
    b = rejection_sample(_in_unit_ball, BOX_LO, BOX_HI, 300, seed=2)
    assert a.shape == (300, 3)
    assert np.all(_in_unit_ball(a))
    assert a.tobytes() == b.tobytes()


def test_rejection_sample_gives_up(monkeypatch):
    monkeypatch.setattr(moments, "MAX_REJECT_ROUNDS", 3)
    monkeypatch.setattr(moments, "MC_CHUNK", 16)
    calls = []

    def reject_all(pts):
        calls.append(len(pts))
        return np.zeros(len(pts), dtype=bool)

    with pytest.raises(ValueError, match="acceptance rate too low"):
        rejection_sample(reject_all, BOX_LO, BOX_HI, 1, seed=0)
    assert calls == [16, 16, 16]


def test_box_moments_asks_region_only_about_accepted_rows(monkeypatch):
    monkeypatch.setattr(moments, "MC_CHUNK", 1000)
    asked = []

    def upper(pts):
        asked.append(pts.copy())
        return pts[:, 1] >= 0.2

    u = np.array([0.6, 0.0, 0.8])
    value, stderr, accepted = box_moments(_in_unit_ball, BOX_LO, BOX_HI, 5000, 3, u[:, None], upper)
    asked = np.concatenate(asked)
    assert len(asked) > 0 and np.all(_in_unit_ball(asked))

    pts = np.random.default_rng(3).uniform(BOX_LO, BOX_HI, (5000, 3))
    inside = _in_unit_ball(pts)
    assert len(asked) == np.count_nonzero(inside)
    h2 = (pts[inside & (pts[:, 1] >= 0.2)] @ u) ** 2
    box_vol = float(np.prod(BOX_HI - BOX_LO))
    mean = h2.sum() / 5000
    assert accepted == len(h2)
    assert value[0, 0] == pytest.approx(box_vol * mean, rel=1e-12)
    se = box_vol * math.sqrt((np.sum(h2 * h2) / 5000 - mean * mean) / 5000)
    assert stderr[0, 0] == pytest.approx(se, rel=1e-12)


E1 = np.array([1.0, 0.0])


def _directional_mc(samples):
    _, image, cert = isotropize(cube(2), target="polar")
    return harness.directional_deficit(image, E1, cert, method="mc", samples=samples)


# every Monte Carlo route that takes a sample count
NONPOSITIVE_ROUTES = {
    "mc_volume": lambda k: mc_volume(cube(2), k, 0),
    "mc_second_moment": lambda k: mc_second_moment(cube(2), k, 0),
    "directional_deficit": _directional_mc,
    "cone_restricted_deficit": lambda k: harness.cone_restricted_deficit(
        cube(2), E1, SimplicialCone(np.eye(2)), samples=k
    ),
    "coordinate_moment": lambda k: harness.OrthantRegion(cube(2)).coordinate_moment(
        0, method="mc", samples=k
    ),
    "homothetic_distance": lambda k: homothetic_distance(cube(2), Ellipsoid.ball(2), samples=k),
}


@pytest.mark.parametrize("samples", [0, -5])
@pytest.mark.parametrize("route", sorted(NONPOSITIVE_ROUTES))
def test_mc_routes_refuse_nonpositive_samples(route, samples):
    with pytest.raises(ValueError, match="positive sample count"):
        NONPOSITIVE_ROUTES[route](samples)


def test_mc_estimates_independent_of_chunk(monkeypatch):
    body = random_symmetric_polytope(3, 10, seed=4)
    u = np.array([0.6, 0.8, 0.0])
    cone = SimplicialCone(np.array([[1.0, 0.2, 0.1], [0.1, 1.0, 0.3], [0.0, 0.2, 1.0]]))
    runs = []
    for chunk in (7, 1 << 16, 10**6):
        monkeypatch.setattr(moments, "MC_CHUNK", chunk)
        mm = mc_second_moment(body, 70_000, 5)
        cone_moment = harness._mc_restricted_moment(body, u, cone.contains, 70_000, 6)
        runs.append((mm, cone_moment))
    ref_mm, ref_cone = runs[0]
    for mm, cone_moment in runs[1:]:
        # the chunk may change only the order of accumulation
        assert mm.volume == ref_mm.volume
        np.testing.assert_allclose(mm.matrix, ref_mm.matrix, rtol=1e-12, atol=0)
        np.testing.assert_allclose(mm.stderr, ref_mm.stderr, rtol=1e-12, atol=0)
        np.testing.assert_allclose(cone_moment, ref_cone, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# ball functional
# ---------------------------------------------------------------------------


def test_ball_functional_cube_exact(square):
    # tr(M(K) M(K*)) for the square: (4/3)(1/3) * 2 = 8/9
    assert ball_functional(square) == pytest.approx(8.0 / 9.0, abs=1e-12)


def test_ball_functional_unit_ball():
    assert ball_functional(Ellipsoid.ball(2)) == pytest.approx(math.pi**2 / 8.0, abs=1e-12)


def test_ball_functional_linear_invariance(square):
    t = LinearMap(np.array([[1.1, 0.6], [0.0, 0.9]]))
    assert ball_functional(apply_map(t, square)) == pytest.approx(8.0 / 9.0, abs=1e-9)


# ---------------------------------------------------------------------------
# dataclass and file format
# ---------------------------------------------------------------------------


def test_moment_matrix_validation():
    with pytest.raises(ValueError):
        MomentMatrix(dim=2, matrix=np.array([[1.0, 0.5], [0.4, 1.0]]), volume=1.0)
    with pytest.raises(ValueError):
        MomentMatrix(dim=2, matrix=np.eye(3), volume=1.0)


def test_moment_matrix_roundtrip(tmp_path):
    import json

    mm = mc_second_moment(cube(2), 20_000, seed=1)
    path = tmp_path / "mm.json"
    write_json(path, {**mm.to_json_dict(), "seed": 1})
    with open(path) as fh:
        back = MomentMatrix.from_json_dict(json.load(fh))
    np.testing.assert_array_equal(back.matrix, mm.matrix)
    np.testing.assert_array_equal(back.stderr, mm.stderr)
    assert back.volume == mm.volume
