"""Equipartition of the <x,u>^2 measure into 2^n cones, duals, and shears."""

import itertools
import math

import numpy as np
import pytest

from convexlab.geometry import (
    Ellipsoid,
    SimplicialCone,
    cross_polytope,
    cube,
    dual_cone,
    orthonormal_basis,
    random_directions,
    random_symmetric_polytope,
)
from convexlab.yaoyao import (
    MeasureSamples,
    YaoYaoPartition,
    assign_cones,
    cone_to_orthant,
    dual_partition,
    load_partition,
    sample_measure,
    save_partition,
    shear_partition,
    shear_to_axis,
    yao_yao_equipartition,
)

E1 = np.array([1.0, 0.0])


# ---------------------------------------------------------------------------
# measure sampling
# ---------------------------------------------------------------------------


def test_sample_measure_structure(square):
    cloud = sample_measure(square, E1, 20_000, seed=0)
    assert cloud.points.shape == (20_000, 2)
    np.testing.assert_array_equal(cloud.points[1::2], -cloud.points[0::2])
    np.testing.assert_array_equal(cloud.weights, (cloud.points @ E1) ** 2)
    assert square.contains(cloud.points).all()


def test_sample_measure_deterministic(square):
    a = sample_measure(square, E1, 20_000, seed=3)
    b = sample_measure(square, E1, 20_000, seed=3)
    np.testing.assert_array_equal(a.points, b.points)


def test_sample_measure_total_estimates_moment(square):
    # mean weight * |K|-> int x1^2; loose 4-sigma-style bound
    cloud = sample_measure(square, E1, 200_000, seed=1)
    est = cloud.weights.mean() * 4.0
    assert est == pytest.approx(4.0 / 3.0, abs=0.02)


def test_sample_measure_validation(square):
    with pytest.raises(ValueError):
        sample_measure(square, E1, 5_001, seed=0)  # odd
    with pytest.raises(ValueError):
        sample_measure(square, E1, 20_000, seed=0, density="gauss")


def test_measure_samples_rejects_broken_pairs():
    pts = np.array([[1.0, 0.0], [-1.0, 0.1]])
    with pytest.raises(ValueError, match="antipodal"):
        MeasureSamples(points=pts, weights=np.ones(2), direction=E1, density="uniform")


def test_measure_samples_rejects_wrong_weights():
    pts = np.array([[0.5, 0.0], [-0.5, 0.0]])
    with pytest.raises(ValueError, match="moment2"):
        MeasureSamples(points=pts, weights=np.ones(2), direction=E1, density="moment2")


# ---------------------------------------------------------------------------
# equipartition
# ---------------------------------------------------------------------------


def test_equipartition_square(square):
    cloud = sample_measure(square, E1, 100_000, seed=0)
    part = yao_yao_equipartition(cloud)
    assert len(part.cones) == 4
    np.testing.assert_allclose(part.center, 0.0, atol=1e-12)
    assert float(part.base_direction @ part.axis) > 0
    np.testing.assert_allclose(part.mass_fractions, 0.25, rtol=5e-3)


def test_equipartition_masses_match_assignment(square):
    cloud = sample_measure(square, E1, 60_000, seed=2)
    part = yao_yao_equipartition(cloud)
    labels = assign_cones(part, cloud.points)
    sums = np.bincount(labels, weights=cloud.weights, minlength=4)
    np.testing.assert_allclose(np.sort(sums), np.sort(part.masses), rtol=1e-6)
    assert part.total == pytest.approx(cloud.total, rel=1e-12)


def test_equipartition_disk_axis_aligns():
    # for the disk the Yao-Yao axis converges to u itself
    cloud = sample_measure(Ellipsoid.ball(2), E1, 400_000, seed=5)
    part = yao_yao_equipartition(cloud)
    angle = math.acos(min(1.0, abs(float(part.axis @ E1))))
    assert angle < 1e-2


@pytest.mark.parametrize("seed", [0, 1])
def test_equipartition_3d(seed):
    body = random_symmetric_polytope(3, 12, seed=seed)
    cloud = sample_measure(body, np.array([1.0, 0.0, 0.0]), 150_000, seed=seed)
    part = yao_yao_equipartition(cloud)
    assert len(part.cones) == 8
    np.testing.assert_allclose(part.mass_fractions, 0.125, rtol=5e-3)


def test_equipartition_custom_direction(square):
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    cloud = sample_measure(square, u, 100_000, seed=4)
    part = yao_yao_equipartition(cloud)
    np.testing.assert_allclose(part.base_direction, u, atol=1e-12)
    np.testing.assert_allclose(part.mass_fractions, 0.25, rtol=5e-3)


def test_equipartition_impossible_tolerance(square):
    cloud = sample_measure(square, E1, 20_000, seed=0)
    with pytest.raises(RuntimeError):
        yao_yao_equipartition(cloud, mass_tol=1e-13)


def test_cones_partition_the_plane(square):
    """Every point lands in at least one cone, and boundary overlap is thin."""
    cloud = sample_measure(square, E1, 60_000, seed=6)
    part = yao_yao_equipartition(cloud)
    pts = random_directions(2, 5_000, np.random.default_rng(0))
    hits = np.zeros(len(pts), dtype=int)
    for cone in part.cones:
        hits += np.asarray(cone.contains(pts), dtype=int)
    assert np.all(hits >= 1)
    assert np.mean(hits > 1) < 0.01


def _solve_assign(cones, pts):
    """Cone assignment from fresh solves: the reference for the cached inverse.
    Returns the chosen index and every cone's depth (smallest coordinate)."""
    depths = np.stack([np.linalg.solve(c.generators, pts.T).min(axis=0) for c in cones])
    best = np.full(len(pts), -np.inf)
    idx = np.zeros(len(pts), dtype=np.intp)
    for i, depth in enumerate(depths):
        better = depth > best
        best[better] = depth[better]
        idx[better] = i
    return idx, depths


def _rotated_orthants(n, rng):
    """The 2^n orthants of a random orthonormal frame, as a partition."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    cones = tuple(SimplicialCone(q * np.array(s)) for s in itertools.product((1.0, -1.0), repeat=n))
    return YaoYaoPartition(
        center=np.zeros(n), base_direction=q[:, 0], axis=q[:, 0], cones=cones,
        masses=np.ones(2**n), total=float(2**n), mass_tol=5e-3,
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_assign_cones_matches_solve(square, n):
    rng = np.random.default_rng(10 + n)
    parts = [_rotated_orthants(n, rng)]
    if n == 2:
        parts.append(yao_yao_equipartition(sample_measure(square, E1, 60_000, seed=8)))
    for part in parts:
        pts = rng.standard_normal((4000, n))
        ref, _ = _solve_assign(part.cones, pts)
        np.testing.assert_array_equal(assign_cones(part, pts), ref)
        # points on generator rays lie on several cones: the choice may go to
        # any cone whose depth ties the best one within roundoff
        gens = np.hstack([c.generators for c in part.cones])
        rays = (gens[:, rng.integers(0, gens.shape[1], 500)] * rng.uniform(0.1, 3, 500)).T
        got = assign_cones(part, rays)
        _, depths = _solve_assign(part.cones, rays)
        chosen = depths[got, np.arange(len(rays))]
        np.testing.assert_allclose(chosen, depths.max(axis=0), rtol=0, atol=1e-12)
        assert [set(c) for c in part.to_json_dict()["cones"]] == [{"generators"}] * 2**n


# ---------------------------------------------------------------------------
# duals and shears
# ---------------------------------------------------------------------------


def test_dual_partition_rejects_a_gap():
    """Two opposite quadrants, each listed twice: the quadrants between them
    are uncovered, although every direction has one nonnegative coordinate."""
    q1, q3 = SimplicialCone(np.eye(2)), SimplicialCone(-np.eye(2))
    part = YaoYaoPartition(
        center=np.zeros(2), base_direction=E1, axis=E1, cones=(q1, q3, q1, q3),
        masses=np.ones(4), total=4.0, mass_tol=5e-3,
    )
    with pytest.raises(RuntimeError, match="dual cone family does not cover the sphere"):
        dual_partition(part)


def test_dual_partition_covers(square):
    cloud = sample_measure(square, E1, 60_000, seed=7)
    part = yao_yao_equipartition(cloud)
    duals = dual_partition(part)
    assert len(duals) == 4
    pts = random_directions(2, 5_000, np.random.default_rng(1))
    hits = np.zeros(len(pts), dtype=int)
    for cone in duals:
        hits += np.asarray(cone.contains(pts), dtype=int)
    assert np.all(hits >= 1)
    # duality is involutive cone by cone
    for cone, dual in zip(part.cones, duals):
        np.testing.assert_allclose(
            dual_cone(dual).generators, cone.generators, atol=1e-9
        )


def test_shear_to_axis_fixes_u_component():
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([0.9, 0.3, -0.2])
    v = v / np.linalg.norm(v)
    w = shear_to_axis(u, v)
    # unit determinant and <u, Wx> = <u, x> for all x
    assert abs(w.det) == pytest.approx(1.0, abs=1e-12)
    x = np.random.default_rng(2).standard_normal((20, 3))
    np.testing.assert_allclose(w(x) @ u, x @ u, atol=1e-12)
    # the axis itself maps onto the u line
    img = w(v)
    np.testing.assert_allclose(img[1:], 0.0, atol=1e-12)


def test_cone_to_orthant_maps_generators(square):
    # operates on sheared cones: one generator on the +-u line, the rest in
    # u-perp; the image is the first orthant of the rotated frame coordinates
    cloud = sample_measure(square, E1, 60_000, seed=8)
    part = yao_yao_equipartition(cloud)
    for _, sheared in shear_partition(part):
        heights = E1 @ sheared.generators
        sigma = math.copysign(1.0, heights[int(np.argmax(np.abs(heights)))])
        t = cone_to_orthant(sheared, sigma * E1)
        assert abs(abs(np.linalg.det(t.matrix)) - 1.0) < 1e-9
        frame = orthonormal_basis(sigma * E1)
        img = frame.T @ t.matrix @ sheared.generators
        assert np.min(img) > -1e-9


def test_shear_partition_pairs(square):
    cloud = sample_measure(square, E1, 60_000, seed=9)
    part = yao_yao_equipartition(cloud)
    pairs = shear_partition(part)
    assert len(pairs) == len(part.cones)
    for smap, cone in pairs:
        assert abs(smap.det) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_partition_roundtrip(tmp_path, square):
    cloud = sample_measure(square, E1, 60_000, seed=10)
    part = yao_yao_equipartition(cloud)
    path = tmp_path / "part.json"
    save_partition(path, part, extra={"seed": 10})
    back = load_partition(path)
    np.testing.assert_array_equal(back.axis, part.axis)
    np.testing.assert_array_equal(back.masses, part.masses)
    for a, b in zip(back.cones, part.cones):
        np.testing.assert_array_equal(a.generators, b.generators)
    # re-save must be byte-identical
    path2 = tmp_path / "part2.json"
    save_partition(path2, back, extra={"seed": 10})
    assert path.read_bytes() == path2.read_bytes()


def test_load_partition_rejects_other_files(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"u": [1, 0]}\n')
    with pytest.raises(ValueError, match="missing key"):
        load_partition(path)
