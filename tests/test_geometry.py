"""Body types, polarity, maps, grids, and serialization round-trips."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

import convexlab.geometry as geometry
from convexlab.geometry import (
    CONTAIN_TOL,
    Ellipsoid,
    LinearMap,
    SimplicialCone,
    SymmetricHPolytope,
    SymmetricVPolytope,
    apply_map,
    ball_approx,
    cross_polytope,
    cube,
    dual_cone,
    load_body,
    orthonormal_basis,
    polar,
    random_directions,
    random_ellipsoid,
    random_symmetric_polytope,
    save_body,
    star_triangulation,
    symmetric_direction_grid,
    unit_ball_volume,
    vertex_enumeration,
)
from convexlab.stability import kt_family


def test_unit_ball_volume_closed_forms():
    assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-15)
    assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-14)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0, abs=1e-14)


# ---------------------------------------------------------------------------
# constructors and canonicalization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cube_cross_vertex_counts(n):
    assert cube(n).vertices.shape == (2**n, n)
    assert cross_polytope(n).vertices.shape == (2 * n, n)


def test_vertices_closed_under_negation_exactly():
    b = random_symmetric_polytope(3, 12, seed=1)
    v = b.vertices
    asset = {tuple(row) for row in v}
    assert all(tuple(-row) in asset for row in v)


def test_duplicate_and_interior_vertices_dropped():
    v = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                  [1.0, 0.0], [0.1, 0.1], [-0.1, -0.1]])
    b = SymmetricVPolytope(v)
    assert b.vertices.shape == (4, 2)


def test_asymmetric_vertices_rejected():
    with pytest.raises(ValueError, match="not symmetric"):
        SymmetricVPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.3, -1.0]]))


def test_flat_vertex_set_rejected():
    with pytest.raises(ValueError):
        SymmetricVPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.0], [-0.5, 0.0]]))


def test_hpolytope_requires_negation_partner():
    u = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        SymmetricHPolytope(u, np.ones(3))


def test_hpolytope_rejects_nonpositive_offset():
    u = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        SymmetricHPolytope(u, np.array([1.0, -1.0]))


# ---------------------------------------------------------------------------
# support / radial / membership
# ---------------------------------------------------------------------------


def test_cube_support_is_l1_norm(square):
    # h_{[-1,1]^n}(u) = sum |u_i|
    dirs = random_directions(2, 50, np.random.default_rng(0))
    np.testing.assert_allclose(square.support(dirs), np.abs(dirs).sum(axis=1), atol=1e-12)


def test_cube_radial_diagonal(square):
    d = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert square.radial(d) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_membership_boundary(square):
    assert square.contains(np.array([0.999999, 0.999999]))
    assert not square.contains(np.array([1.001, 0.0]))
    inside = square.contains(np.array([[0.5, -0.5], [2.0, 0.0]]))
    assert inside.tolist() == [True, False]


def _one_shot_facet_test(pts, normals, offsets, tol=1e-9):
    """The whole (points x facets) product at once: the unblocked reference."""
    return np.max((pts @ normals.T) / offsets, axis=1) <= 1.0 + tol


def _clustered_polygon():
    """300 vertex pairs on an ellipse of aspect ratio 1e-3: the angles crowd
    about 0 and pi, so the fullest angle bucket holds over a hundred."""
    theta = np.linspace(0.0, np.pi, 300, endpoint=False) + 1e-3
    half = np.column_stack([np.cos(theta), 1e-3 * np.sin(theta)])
    return SymmetricVPolytope(np.vstack([half, -half]))


def _contains_bodies():
    """2D, 3D and 4D V-polytopes (6, 28 and 100 facets), three polygons on
    the angular path (an 80-gon, the 2050-gon K_t and a clustered 600-gon),
    the 2D K_t as an H-polytope, which takes the angular path of its vertex
    form, and a 3D H-polytope with non-unit offsets (40 facets).  The
    H-polytopes are checked against their own normals and offsets."""
    vps = [random_symmetric_polytope(n, k, seed=4) for n, k in ((2, 3), (3, 10), (4, 16))]
    theta = np.linspace(0.0, 2.0 * np.pi, 80, endpoint=False)
    vps.append(SymmetricVPolytope(np.column_stack([1.3 * np.cos(theta), 0.8 * np.sin(theta)])))
    vps += [kt_family(2, 0.05).to_v(), _clustered_polygon()]
    warp = LinearMap(np.array([[1.5, 0.2, 0.0], [0.0, 0.7, 0.3], [0.1, 0.0, 1.2]]))
    hps = [kt_family(2, 0.05), apply_map(warp, ball_approx(3, 40, seed=2))]
    assert np.ptp(hps[1].offsets) > 0.1
    cases = [(vp, polar(vp).vertices, np.ones(len(polar(vp).vertices))) for vp in vps]
    return cases + [(hp, hp.normals, hp.offsets) for hp in hps]


# Budgets 1, 7 and 100 give every body point-major kernel blocks; 1024 gives
# the 6- and 28-facet bodies row-major blocks and the others point-major
# ones; 65536 gives every body row-major blocks (points per block >= rows up
# to 256 rows).  The polygons run the angular test in blocks of the budget.
@pytest.mark.parametrize("block", [1, 7, 100, 1 << 10, 1 << 16])
def test_polytope_contains_blocks_match_one_shot(monkeypatch, block):
    monkeypatch.setattr(geometry, "CONTAIN_BLOCK_ELEMENTS", block)
    rng = np.random.default_rng(block)
    for body, normals, offsets in _contains_bodies():
        n = body.dim
        pts = rng.uniform(-1.5, 1.5, size=(max(1001, len(normals) + 500), n))
        # points on facets, inside the tolerance band of the test
        on = normals * (offsets / np.sum(normals**2, axis=1))[:, None]
        pts[: len(on)] = on
        np.testing.assert_array_equal(
            body.contains(pts), _one_shot_facet_test(pts, normals, offsets)
        )
        assert body.contains(np.zeros((0, n))).shape == (0,)


@pytest.mark.parametrize("block", [1, 7, 100, 1 << 10, 1 << 16])
def test_polytope_support_blocks_match_one_shot(monkeypatch, block):
    """Support over many directions runs in the membership kernel's blocks,
    with the body's vertices as rows.  A block of one or two directions
    rounds differently from the whole product: up to 2 ulps (3.4e-16
    relative) on the 3D and 4D bodies at budgets 1 and 7, at most 1 ulp
    elsewhere."""
    monkeypatch.setattr(geometry, "CONTAIN_BLOCK_ELEMENTS", block)
    rng = np.random.default_rng(block)
    for body, _, _ in _contains_bodies():
        if not isinstance(body, SymmetricVPolytope):
            continue
        dirs = random_directions(body.dim, 777, rng)
        ref = np.max(dirs @ body.vertices.T, axis=1)
        got = body.support(dirs)
        assert got.shape == (777,)
        assert np.all(np.abs(got - ref) <= 2 * np.spacing(ref))
        assert body.support(dirs[0]) == pytest.approx(ref[0], rel=1e-15, abs=0)


def _ngon(m, aspect=1.0):
    theta = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    return SymmetricVPolytope(np.column_stack([np.cos(theta), aspect * np.sin(theta)]))


ANGULAR_POLYGONS = {
    # vertices on the x axis: (1, 0) and its negation (-1, -0.0), at angle -pi
    "64-gon": lambda: _ngon(64),
    "80-gon": lambda: _ngon(80, 0.8 / 1.3),
    "kt-2d": lambda: kt_family(2, 0.05).to_v(),
    "clustered": _clustered_polygon,
}


@pytest.mark.parametrize("name", sorted(ANGULAR_POLYGONS))
def test_angular_lookup_matches_searchsorted(name):
    """The bucketed edge index is ``searchsorted(angs, pa, "right")`` at every
    vertex angle and one ulp to either side, at +-pi and 0, on every edge and
    at random points."""
    body = ANGULAR_POLYGONS[name]()
    ang = np.arctan2(body.vertices[:, 1], body.vertices[:, 0])
    v = body.vertices[np.argsort(ang)]
    angs = np.sort(ang)
    pts = np.vstack([
        v, 0.5 * v, 2.0 * v,
        0.5 * (v + np.roll(v, -1, axis=0)),
        # pi (y = +0.0), -pi (y = -0.0), 0 and the origin
        [[-1.0, 0.0], [-1.0, -0.0], [1.0, 0.0], [1.0, -0.0], [0.0, 1.0], [0.0, 0.0]],
        np.random.default_rng(3).uniform(-1.5, 1.5, (4000, 2)),
    ])
    pa = np.concatenate([
        np.arctan2(pts[:, 1], pts[:, 0]),
        np.nextafter(angs, -np.inf), np.nextafter(angs, np.inf),
        [np.pi, -np.pi, np.nextafter(-np.pi, 0.0), np.nextafter(np.pi, 0.0)],
    ])
    body.contains(pts)
    table = body._angular
    assert np.array_equal(table.count_at_most(pa), np.searchsorted(angs, pa, side="right"))
    if name == "clustered":
        assert len(table.steps) >= 7
    if name == "64-gon":
        assert angs[0] == -np.pi


def test_contains_memory_bounded_on_3d_kt():
    """2^20 points against the 4098 facets of a 3D K_t: a one-shot product
    would take 32 GiB; the blocked test stays within a few MiB."""
    body = kt_family(3, 0.05).to_v()
    body.contains(np.zeros(3))  # builds the cached polar (facet normals)
    pts = np.random.default_rng(0).uniform(-1.2, 1.2, size=(1 << 20, 3))
    tracemalloc.start()
    try:
        inside = body.contains(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < np.count_nonzero(inside) < inside.size
    assert peak < 16 * 2**20


def test_ellipsoid_support_radial_reciprocal():
    e = random_ellipsoid(3, seed=2)
    dirs = random_directions(3, 20, np.random.default_rng(3))
    for u in dirs:
        # for an ellipsoid h(u) * rho_{polar}(u) = 1
        assert e.support(u) * polar(e).radial(u) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# polarity
# ---------------------------------------------------------------------------


def test_polar_cube_is_cross(square, cross2):
    np.testing.assert_allclose(
        polar(square).vertices, cross2.vertices, atol=1e-12
    )


def test_polar_involution(square):
    again = polar(polar(square))
    np.testing.assert_allclose(again.vertices, square.vertices, atol=1e-12)


def test_polar_ellipsoid_inverts_shape():
    e = random_ellipsoid(2, seed=4)
    np.testing.assert_allclose(polar(e).shape, np.linalg.inv(e.shape), atol=1e-12)


def test_polar_support_radial_duality():
    b = random_symmetric_polytope(2, 9, seed=5)
    dirs = random_directions(2, 30, np.random.default_rng(6))
    for u in dirs:
        assert b.support(u) * polar(b).radial(u) == pytest.approx(1.0, abs=1e-9)


def _h_cross(n):
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    return SymmetricHPolytope(signs, np.ones(len(signs)))


def _h_random(n, pairs):
    rng = np.random.default_rng(n)
    u = random_directions(n, pairs, rng)
    c = rng.uniform(0.6, 1.4, pairs)
    return SymmetricHPolytope(np.vstack([u, -u]), np.concatenate([c, c]))


_H_BODIES = {
    "cube-3d": lambda: SymmetricHPolytope(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6)),
    **{f"cross-{n}d": (lambda n=n: _h_cross(n)) for n in (2, 3, 4)},
    **{f"random-{n}d": (lambda n=n: _h_random(n, 3 * n)) for n in (2, 3, 4)},
    "kt-2d": lambda: kt_family(2, 0.05, grid_size=256),
}


@pytest.mark.parametrize("name", list(_H_BODIES))
def test_vertex_enumeration_cube(name, subset_sweep_vertices):
    """The vertices read off the polar's hull planes are the subset sweep's,
    each once, also where a vertex lies on more than n facets (the
    cross-polytope's e_i on 2^(n-1)); and ``to_v`` is built from exactly
    them, so an H-polytope has one vertex set.  (The 3D K_t, too large for
    the sweep, is checked against scipy's halfspace intersection in
    ``test_h_polytope_moments_against_long_double_reference``.)"""
    hp = _H_BODIES[name]()
    got = vertex_enumeration(hp).vertices
    ref = subset_sweep_vertices(hp.normals, hp.offsets)
    assert np.max(cKDTree(ref).query(got)[0]) <= 1e-9
    assert np.max(cKDTree(got).query(ref)[0]) <= 1e-9
    dual = hp._dual_facets()[0]
    assert len(dual) == len(got)
    closed = SymmetricVPolytope(np.vstack([dual, -dual])).vertices
    np.testing.assert_array_equal(hp.to_v().vertices, closed)


def test_halfspace_vertices_refuses_a_point_not_interior():
    """Qhull's error comes out as ValueError (CLI exit 1), not as an
    unexpected failure."""
    a = np.vstack([np.eye(2), -np.eye(2)])
    for point in ([1.0, 0.0], [2.0, 0.0]):
        with pytest.raises(ValueError, match="halfspace intersection failed"):
            geometry._halfspace_vertices(a, np.ones(4), np.array(point))


def test_polar_of_rotated_cross_is_exact():
    """Rotation leaves some vertex coordinates as roundoff noise around zero;
    the polar pipeline has to survive that (regression)."""
    th = 0.3
    r = np.array([
        [math.cos(th), -math.sin(th), 0.0],
        [math.sin(th), math.cos(th), 0.0],
        [0.0, 0.0, 1.0],
    ])
    b = SymmetricVPolytope(np.vstack([np.eye(3), -np.eye(3)]) @ r.T)
    pb = polar(b)
    assert pb.vertices.shape == (8, 3)
    # rotated cube: all vertices at distance sqrt(3)
    np.testing.assert_allclose(np.linalg.norm(pb.vertices, axis=1), math.sqrt(3.0), atol=1e-9)


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------


def test_linear_map_roundtrip():
    t = LinearMap(np.array([[2.0, 1.0], [0.0, 1.0]]))
    x = np.array([[1.0, 2.0], [3.0, -1.0]])
    np.testing.assert_allclose(t(x) @ t.inverse.T, x, atol=1e-12)
    assert t.det == pytest.approx(2.0)


def test_apply_map_consistent_across_forms(square):
    t = LinearMap(np.array([[1.0, 0.7], [0.0, 1.0]]))
    v_image = apply_map(t, square)
    h_image = apply_map(t, polar(polar(square)))  # same body, V route
    dirs = random_directions(2, 40, np.random.default_rng(7))
    np.testing.assert_allclose(v_image.support(dirs), h_image.support(dirs), atol=1e-9)


def test_apply_map_hpolytope(square):
    hp = SymmetricHPolytope(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    t = LinearMap(np.array([[3.0, 0.0], [0.0, 0.5]]))
    img = apply_map(t, hp)
    assert img.contains(np.array([2.99, 0.0]))
    assert not img.contains(np.array([0.0, 0.51]))


def test_apply_map_polar_commutes():
    # (T K)* = T^{-t} K*
    b = random_symmetric_polytope(2, 7, seed=8)
    t = LinearMap(np.array([[1.2, 0.4], [-0.3, 0.9]]))
    left = polar(apply_map(t, b))
    right = apply_map(LinearMap(t.inverse_transpose), polar(b))
    dirs = random_directions(2, 25, np.random.default_rng(9))
    np.testing.assert_allclose(left.support(dirs), right.support(dirs), atol=1e-9)


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


def test_orthant_cone_self_dual():
    c = SimplicialCone(np.eye(3))
    d = dual_cone(c)
    np.testing.assert_allclose(d.generators, np.eye(3), atol=1e-12)


def test_dual_cone_involution():
    g = np.array([[1.0, 1.0], [0.3, -0.8]]).T
    c = SimplicialCone(g)
    # generator columns are normalized on construction, so compare against the
    # constructed cone rather than the raw input matrix
    np.testing.assert_allclose(dual_cone(dual_cone(c)).generators, c.generators, atol=1e-12)


def _random_cone(n, rng):
    while True:
        g = rng.standard_normal((n, n))
        if np.linalg.cond(g) < 20:
            return SimplicialCone(g)


def _solve_coordinates(cone, pts):
    """Coordinates from a fresh solve: the reference for the cached inverse."""
    return np.linalg.solve(cone.generators, pts.T).T


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cone_coordinates_match_solve(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        cone = _random_cone(n, rng)
        random_pts = rng.uniform(-2.0, 2.0, size=(500, n))
        ray_pts = (cone.generators[:, rng.integers(0, n, 200)] * rng.uniform(0, 3, 200)).T
        for pts in (random_pts, ray_pts):
            ref = _solve_coordinates(cone, pts)
            np.testing.assert_allclose(cone.coordinates(pts), ref, rtol=0, atol=1e-13)
            scale = np.maximum(1.0, np.max(np.abs(ref), axis=1))
            np.testing.assert_array_equal(
                cone.contains(pts), np.min(ref, axis=1) >= -CONTAIN_TOL * scale
            )
        assert cone.contains(ray_pts).all()
        assert cone.contains(cone.generators[:, 0]) is True


def test_cone_inverse_is_private_state():
    """The cached inverse takes no part in equality, repr or the constructor."""
    g = np.array([[1.0, 1.0], [0.3, -0.8]])
    cone = SimplicialCone(g)
    assert [f.name for f in dataclasses.fields(cone) if f.compare] == ["generators"]
    assert repr(cone) == f"SimplicialCone(generators={cone.generators!r})"
    assert cone == cone
    assert not cone._inverse.flags.writeable
    np.testing.assert_allclose(cone._inverse @ cone.generators, np.eye(2), atol=1e-15)
    with pytest.raises(TypeError):
        SimplicialCone(g, np.eye(2))


def test_cone_contains_generators_and_combinations():
    g = np.column_stack([[1.0, 0.5], [1.0, -0.5]])
    c = SimplicialCone(g)
    assert c.contains(g[:, 0]) and c.contains(g[:, 1])
    assert c.contains(g @ np.array([0.3, 1.7]))
    assert not c.contains(np.array([-1.0, 0.0]))


# ---------------------------------------------------------------------------
# grids and random generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_directions_bytes_match_the_row_norm(n):
    """The column-by-column norm is ``np.linalg.norm`` along rows bit for bit."""
    g = np.random.default_rng(n).standard_normal((100_003, n))
    ref = g / np.linalg.norm(g, axis=1, keepdims=True)
    assert random_directions(n, 100_003, np.random.default_rng(n)).tobytes() == ref.tobytes()


def test_direction_grid_exact_antipodes():
    for n in (2, 3):
        g = symmetric_direction_grid(n, 32, seed=11)
        assert g.shape == (32, n)
        np.testing.assert_allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-12)
        assert np.array_equal(g[16:], -g[:16])


def test_direction_grid_validation():
    with pytest.raises(ValueError):
        symmetric_direction_grid(2, 7)
    with pytest.raises(ValueError):
        symmetric_direction_grid(3, 4)


def test_ball_approx_contains_ball():
    hp = ball_approx(2, 64, seed=0)
    dirs = random_directions(2, 200, np.random.default_rng(1))
    # circumscribed: rho >= 1 along every direction, and not by much at 64 facets
    rad = np.array([hp.radial(u) for u in dirs])
    assert np.all(rad >= 1.0 - 1e-12)
    assert np.max(rad) <= 1.0 / math.cos(math.pi / 64)


def test_random_polytope_deterministic_and_bounded():
    a = random_symmetric_polytope(3, 10, seed=42)
    b = random_symmetric_polytope(3, 10, seed=42)
    np.testing.assert_array_equal(a.vertices, b.vertices)
    norms = np.linalg.norm(a.vertices, axis=1)
    assert np.all((norms > 0.6 - 1e-12) & (norms < 1.4 + 1e-12))


def test_random_ellipsoid_aspect_bound():
    e = random_ellipsoid(3, seed=13)
    w = np.linalg.eigvalsh(e.shape)
    # semi-axes 1/sqrt(w): aspect ratio capped at 4
    assert math.sqrt(w[-1] / w[0]) <= 4.0 + 1e-9


def test_orthonormal_basis_properties():
    u = np.array([0.3, -1.2, 0.5])
    q = orthonormal_basis(u)
    np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(q[:, 0], u / np.linalg.norm(u), atol=1e-12)


def test_star_triangulation_volume(square):
    simplices = star_triangulation(square)
    vols = np.abs(np.linalg.det(simplices[:, 1:, :] - simplices[:, :1, :])) / 2.0
    assert vols.sum() == pytest.approx(4.0, abs=1e-12)


# ---------------------------------------------------------------------------
# vertex dedup
# ---------------------------------------------------------------------------


def _greedy_dedup_reference(rows, tol):
    """The per-row greedy scan: lexsort, then drop each row within tol of a
    kept row in a sliding window on the leading coordinate."""
    order = np.lexsort(rows.T[::-1])
    rs = rows[order]
    kept = []
    window = []
    for i in range(rs.shape[0]):
        r = rs[i]
        while window and rs[window[0]][0] < r[0] - tol:
            window.pop(0)
        if any(np.max(np.abs(rs[j] - r)) <= tol for j in window):
            continue
        window.append(i)
        kept.append(i)
    return rs[kept]


def _dedup_input(rng, n, tol):
    """Random rows plus exact repeats, near-duplicate chains spaced 0.9 tol,
    rows exactly tol away, and roundoff-sized jitter, shuffled."""
    base = rng.uniform(-1.0, 1.0, size=(int(rng.integers(20, 200)), n))
    if rng.random() < 0.5:
        base = np.round(base / tol) * tol  # shared leading coordinates
    parts = [base, base[rng.integers(0, len(base), size=len(base) // 2)]]
    for _ in range(int(rng.integers(1, 8))):
        step = rng.choice([-1.0, 0.0, 1.0], size=n) * 0.9 * tol
        step[0] = 0.9 * tol
        length = int(rng.integers(2, 12))
        parts.append(base[rng.integers(0, len(base))] + np.arange(1, length)[:, None] * step)
    parts.append(base[:8] + tol * rng.choice([-1.0, 0.0, 1.0], size=(8, n)))
    parts.append(base[:8] + 1e-3 * tol * rng.standard_normal((8, n)))
    rows = np.vstack(parts)
    return rows[rng.permutation(len(rows))]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6, 1e-3, 1e-1])
def test_dedup_rows_matches_greedy_reference(n, tol):
    rng = np.random.default_rng([n, int(-math.log10(tol))])
    for _ in range(20):
        rows = _dedup_input(rng, n, tol)
        np.testing.assert_array_equal(
            geometry._dedup_rows(rows, tol), _greedy_dedup_reference(rows, tol)
        )


def test_dedup_rows_edge_cases():
    for rows in (np.zeros((0, 2)), np.ones((1, 3)), np.ones((5, 3))):
        np.testing.assert_array_equal(
            geometry._dedup_rows(rows, 1e-10), _greedy_dedup_reference(rows, 1e-10)
        )
    # |x - y| rounds to <= tol, yet x < fl(y - tol): the window has already
    # passed x when y is scanned, so both rows are kept
    tol = 0.04039494944476028
    rows = np.array([[0.004958849371071625, 0.0], [0.0453537988158319, 0.0]])
    assert np.max(np.abs(rows[1] - rows[0])) <= tol
    assert len(_greedy_dedup_reference(rows, tol)) == 2
    np.testing.assert_array_equal(geometry._dedup_rows(rows, tol), rows)


# ---------------------------------------------------------------------------
# near-row search: the sorted kernel against scipy's k-d tree
# ---------------------------------------------------------------------------


def _kernel_pairs(queries, rows, radius, norm):
    out = set()
    for i, j in geometry._near_pairs(queries, rows, radius, norm):
        out.update(zip(i.tolist(), j.tolist()))
    return out


def _tree_pairs(queries, rows, radius, norm):
    hits = cKDTree(rows).query_ball_point(queries, radius, p=norm)
    return {(i, j) for i, js in enumerate(hits) for j in js}


def _near_row_inputs(n, tol, rng):
    """Random rows, near-duplicate chains within tol (``_dedup_input``), and
    rows with tied coordinates: the cube, the cross-polytope and an orthant
    clip, each with copies moved by 0, 0.5 and 1 tol per coordinate."""
    from convexlab.harness import _orthant_clip_vertices

    tied = [
        cube(n).vertices,
        cross_polytope(n).vertices,
        _orthant_clip_vertices(random_symmetric_polytope(n, 2 * n + 2, seed=n)),
    ]
    sets = [rng.uniform(-1.0, 1.0, size=(300, n)), _dedup_input(rng, n, tol)]
    for v in tied:
        moves = tol * rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(2 * len(v), n))
        sets.append(np.vstack([v, np.tile(v, (2, 1)) + moves]))
    return sets


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("tol", [1e-10, 1e-6, 0.05])
@pytest.mark.parametrize("block", [geometry.NEAR_BLOCK, 64])  # 64: windows in many small blocks
def test_near_pairs_match_kdtree(n, tol, block, monkeypatch):
    monkeypatch.setattr(geometry, "NEAR_BLOCK", block)
    rng = np.random.default_rng([n, int(-math.log10(tol))])
    for rows in _near_row_inputs(n, tol, rng):
        pairs = cKDTree(rows).query_pairs(tol, p=np.inf, output_type="ndarray")
        got = {(i, j) for i, j in _kernel_pairs(rows, rows, tol, np.inf) if i < j}
        assert got == set(map(tuple, pairs.tolist()))
        queries = -rows[rng.permutation(len(rows))] + tol * rng.uniform(-1, 1, rows.shape)
        for norm in (np.inf, 2):
            assert _kernel_pairs(queries, rows, tol, norm) == _tree_pairs(queries, rows, tol, norm)
        np.testing.assert_array_equal(
            geometry._dedup_rows(rows, tol), _greedy_dedup_reference(rows, tol)
        )


def test_near_pairs_of_an_empty_set():
    rows = cube(3).vertices
    empty = np.empty((0, 3))
    assert _kernel_pairs(empty, rows, 1.0, np.inf) == set()
    assert _kernel_pairs(rows, empty, 1.0, 2) == set()


def test_incident_support_reads_the_offsets_off_the_hull():
    """A square with a redundant halfspace ``<(1, 1)/sqrt 2, x> <= 1.5``:
    each facet's offset comes back from the vertices it meets, and the
    redundant one, whose dual point lies inside the polar, gets -inf."""
    diag = np.array([1.0, 1.0]) / math.sqrt(2.0)
    normals = np.vstack([np.eye(2), diag, -np.eye(2), -diag])
    hp = SymmetricHPolytope(normals, np.array([1.0, 1.0, 1.5] * 2))
    got = hp.incident_support()
    np.testing.assert_allclose(got[[0, 1, 3, 4]], 1.0, rtol=1e-15)
    assert np.all(got[[2, 5]] == -np.inf)
    for n in (3, 4):
        hp = ball_approx(n, 60, seed=n)  # every dual point on the sphere: a hull vertex
        np.testing.assert_allclose(hp.incident_support(), hp.offsets, rtol=1e-13)
        np.testing.assert_allclose(hp.support(hp.normals), hp.offsets, rtol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetry_checks_refuse_a_moved_row(n):
    """The V check allows ``tol * sqrt(n)`` between x and the nearest row to
    -x, the H check ``1e-9 * sqrt(n + 1)`` between (u, c) and (-u, c)."""
    tol = 1e-8
    direction = np.arange(1.0, n + 1.0) / np.linalg.norm(np.arange(1.0, n + 1.0))
    for rows in (cube(n).vertices, cross_polytope(n).vertices):
        bound = tol * math.sqrt(n)
        for scale, ok in ((0.5, True), (2.0, False)):
            moved = rows.copy()
            moved[1] += scale * bound * direction
            if ok:
                geometry._check_symmetric_rows(moved, tol)
            else:
                with pytest.raises(ValueError, match="not symmetric"):
                    geometry._check_symmetric_rows(moved, tol)
    normals = np.vstack([np.eye(n), -np.eye(n)])
    bound = 1e-9 * math.sqrt(n + 1)
    for scale, ok in ((0.5, True), (2.0, False)):
        offsets = np.ones(2 * n)
        offsets[1] += scale * bound
        if ok:
            SymmetricHPolytope(normals, offsets)
        else:
            with pytest.raises(ValueError, match="not symmetric"):
                SymmetricHPolytope(normals, offsets)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_hpolytope_refuses_non_finite_input(bad):
    normals = np.vstack([np.eye(2), -np.eye(2)])
    offsets = np.array([1.0, bad, 1.0, bad])
    with pytest.raises(ValueError, match="must be finite"):
        SymmetricHPolytope(normals, offsets)
    normals[0, 1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        SymmetricHPolytope(normals, np.ones(4))


def test_near_pairs_memory_on_a_shared_leading_coordinate():
    """20 000 rows share their first coordinate: a search sorted on a
    coordinate would test every pair of them (2 * 10^8), the kernel sorts on
    a generic direction and works in blocks."""
    rng = np.random.default_rng(11)
    rows = np.column_stack([np.full(20_000, 0.25), rng.uniform(-1.0, 1.0, size=(20_000, 2))])
    rows = np.vstack([rows, -rows])
    tracemalloc.start()
    try:
        kept = geometry._dedup_rows(rows, 1e-10)
        geometry._check_symmetric_rows(kept, 1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept.shape == rows.shape
    # measured 7.7 MiB: the rows' copies and one block of candidate pairs
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("maker", [
    lambda: cube(2),
    lambda: random_symmetric_polytope(3, 8, seed=3),
    lambda: ball_approx(2, 16, seed=5),
    lambda: random_ellipsoid(2, seed=6),
])
def test_save_load_roundtrip(tmp_path, maker):
    body = maker()
    path = tmp_path / "body.json"
    save_body(path, body, extra={"seed": 3})
    loaded = load_body(path)
    assert type(loaded) is type(body)
    dirs = random_directions(body.dim, 20, np.random.default_rng(0))
    np.testing.assert_allclose(
        np.array([body.support(u) for u in dirs]),
        np.array([loaded.support(u) for u in dirs]),
        atol=1e-12,
    )


def test_load_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "torus"}\n')
    with pytest.raises(ValueError, match="unknown body kind"):
        load_body(path)
