"""Homothetic distance, ellipsoid fitting, the K_t bump family, and sweeps."""

import math
import tracemalloc

import numpy as np
import pytest

from convexlab.geometry import (
    LinearMap,
    apply_map,
    cross_polytope,
    cube,
    random_ellipsoid,
    unit_ball_volume,
)
from convexlab.moments import second_moment_matrix, volume
from convexlab.stability import (
    StabilityRecord,
    _count_inside,
    _quadratic_monomials,
    _sym_expm,
    _sym_from_vec,
    best_fit_ellipsoid,
    fit_loglog_slope,
    homothetic_distance,
    kt_family,
    kt_sweep,
    save_records_csv,
)

def square_disk_distance() -> float:
    """|K~ delta E~| for the square against the disk, both at volume 1.

    The disk of radius r = 1/sqrt(pi) pokes past the four edges of the
    square of side 1: the symmetric difference is eight circular segments
    of half-width d = 1/2.
    """
    r = 1.0 / math.sqrt(math.pi)
    d = 0.5
    seg = r * r * math.acos(d / r) - d * math.sqrt(r * r - d * d)
    return 8.0 * seg


# ---------------------------------------------------------------------------
# homothetic distance
# ---------------------------------------------------------------------------


def test_homothetic_square_disk_closed_form(square, disk):
    exact = square_disk_distance()
    est = homothetic_distance(square, disk, samples=10**6, seed=0)
    assert est == pytest.approx(exact, abs=2e-3)


def test_homothetic_symmetry_and_self(square, disk):
    a = homothetic_distance(square, disk, samples=200_000, seed=1)
    b = homothetic_distance(disk, square, samples=200_000, seed=1)
    assert a == pytest.approx(b, abs=3e-3)
    assert homothetic_distance(square, square, samples=100_000, seed=2) == pytest.approx(
        0.0, abs=1e-12
    )


def test_homothetic_scale_invariance(square, disk):
    big = apply_map(LinearMap(3.0 * np.eye(2)), square)
    a = homothetic_distance(square, disk, samples=400_000, seed=3)
    b = homothetic_distance(big, disk, samples=400_000, seed=3)
    assert a == pytest.approx(b, abs=3e-3)


def test_homothetic_deterministic(square, disk):
    a = homothetic_distance(square, disk, samples=100_000, seed=4)
    b = homothetic_distance(square, disk, samples=100_000, seed=4)
    assert a == b


# ---------------------------------------------------------------------------
# best-fit ellipsoid
# ---------------------------------------------------------------------------


def test_fit_recovers_ellipsoid():
    e = random_ellipsoid(2, seed=5)
    fit, dist, converged, evals = best_fit_ellipsoid(e, samples=400_000, seed=0)
    assert dist < 5e-3
    assert converged and 0 < evals


def test_fit_square_known_value(square):
    """The optimum over ellipses is the disk-like fit with A about 0.18;
    anything above the crude 0.1 mark means the fit is not degenerate."""
    fit, dist, _, _ = best_fit_ellipsoid(square, samples=400_000, seed=1)
    assert 0.1 < dist < 0.25
    # |E| is matched to |K|
    assert volume(fit) == pytest.approx(4.0, rel=5e-2)


def test_fit_shear_invariance(square):
    sheared = apply_map(LinearMap(np.array([[1.0, 0.6], [0.0, 1.0]])), square)
    _, a, _, _ = best_fit_ellipsoid(square, samples=300_000, seed=2)
    _, b, _, _ = best_fit_ellipsoid(sheared, samples=300_000, seed=2)
    assert a == pytest.approx(b, abs=0.02)


def test_fit_bounds_homothetic_distance(square, disk):
    # the fitted ellipsoid can only do better than the unit disk
    _, fitted, _, _ = best_fit_ellipsoid(square, samples=300_000, seed=3)
    direct = homothetic_distance(square, disk, samples=300_000, seed=3)
    assert fitted <= direct + 5e-3


def test_fit_rejects_nonpositive_samples(square):
    with pytest.raises(ValueError, match="positive sample count"):
        best_fit_ellipsoid(square, samples=0)


def _einsum_count(pts, q, level):
    return int(np.count_nonzero(np.einsum("ij,jk,ik->i", pts, q, pts) <= level))


@pytest.mark.parametrize("n", [2, 4])
def test_monomial_count_matches_einsum(n):
    """The cached-monomial objective counts the same points as the quadratic
    form x^T q x, on the fit's own kind of cloud and for 120 shape draws at
    the volume-matched level, where the count is most sensitive."""
    rng = np.random.default_rng(n)
    if n == 2:
        body = kt_family(2, 0.08).to_v()
        cloud = rng.uniform(-1.2, 1.2, size=(200_000, 2))
        pts = cloud[body.contains(cloud)]
    else:
        pts = rng.uniform(-1.0, 1.0, size=(100_000, 4))
    cut = len(pts) // 3
    blocks = [_quadratic_monomials(pts[:cut]), _quadratic_monomials(pts[cut:])]
    wn = unit_ball_volume(n)
    for _ in range(120):
        q = _sym_expm(_sym_from_vec(0.3 * rng.standard_normal(n * (n + 1) // 2), n))
        level = (wn / math.sqrt(np.linalg.det(q))) ** (-2.0 / n)
        assert _count_inside(blocks, q, level) == _einsum_count(pts, q, level)


# ---------------------------------------------------------------------------
# K_t family
# ---------------------------------------------------------------------------


def test_kt_zero_is_ball():
    body = kt_family(2, 0.0)
    assert volume(body) == pytest.approx(math.pi, rel=1e-4)
    rad = np.linalg.norm(body.to_v().vertices, axis=1)
    assert np.ptp(rad) < 1e-3


def test_kt_volume_normalized():
    for t in (0.02, 0.08):
        body = kt_family(2, t)
        assert volume(body) == pytest.approx(math.pi, rel=1e-6)


@pytest.mark.parametrize("n,t", [(2, 0.04), (2, 0.12), (3, 0.08)])
def test_kt_volume_matches_its_vertex_form(n, t, qhull_vertex_form):
    """The rescaling takes the volume of the flag route, which enumerates no
    vertices; it is within a few ulps of the star triangulation of a vertex
    form enumerated apart from it, so the offsets move by about one ulp at
    most."""
    for seed_grid in range(3):
        body = kt_family(n, t, seed_grid=seed_grid)
        assert volume(body) == pytest.approx(volume(qhull_vertex_form(body)), rel=1e-15, abs=0)


def test_kt_bump_direction():
    body = kt_family(2, 0.05)
    # the bump is centered on the diagonal; directions orthogonal to it stay
    # outside both chordal ramps and keep the plain ball support
    u0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    far = np.array([1.0, -1.0]) / math.sqrt(2.0)
    ratio = body.support(u0) / body.support(far)
    assert ratio == pytest.approx(1.05, abs=5e-3)


def test_kt_deterministic_bytes():
    a = kt_family(2, 0.03, seed_grid=1)
    b = kt_family(2, 0.03, seed_grid=1)
    np.testing.assert_array_equal(a.normals, b.normals)
    np.testing.assert_array_equal(a.offsets, b.offsets)


def test_kt_narrow_ramp_radii_hold_at_tiny_t():
    # the (1/8, 1/4) chord profile supports t up to 0.0027362825 (by bisection)
    u0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    far = np.array([1.0, -1.0]) / math.sqrt(2.0)
    for t in (0.002, 0.00273):
        body = kt_family(2, t, radii=(0.125, 0.25))
        assert body.support(u0) / body.support(far) == pytest.approx(1.0 + t, abs=2e-4)


def test_kt_narrow_ramp_radii_reject_large_t():
    for t in (0.00274, 0.01):
        with pytest.raises(ValueError, match="support-function condition"):
            kt_family(2, t, radii=(0.125, 0.25))


def test_kt_membership_matches_its_vertex_form(disk, qhull_vertex_form):
    """A 2D H-polytope tests membership in its vertex form, so the MC
    distances of the K_t equal those of a vertex form enumerated apart from
    its own (``to_v``) bit for bit.

    The fit also starts from the body's exact moment and volume.  The H
    body's come from its polar's hull and the vertex form's from its star;
    they agree to a tolerance, not bit for bit, so a fresh vertex form is
    given the H body's, and membership is left the one difference."""
    body = kt_family(2, 0.05)
    vbody = qhull_vertex_form(body)
    assert homothetic_distance(body, disk, 100_000, seed=4) == homothetic_distance(
        vbody, disk, 100_000, seed=4
    )
    mm = second_moment_matrix(body)
    np.testing.assert_allclose(second_moment_matrix(vbody).matrix, mm.matrix, rtol=1e-13, atol=0)
    assert volume(vbody) == pytest.approx(volume(body), rel=1e-13, abs=0)
    object.__setattr__(vbody, "_moment", mm)
    object.__setattr__(vbody, "_volume", volume(body))
    ell, a_dist, converged, evals = best_fit_ellipsoid(body, samples=100_000, seed=5)
    v_ell, v_a_dist, v_converged, v_evals = best_fit_ellipsoid(vbody, samples=100_000, seed=5)
    np.testing.assert_array_equal(ell.shape, v_ell.shape)
    assert (a_dist, converged, evals) == (v_a_dist, v_converged, v_evals)


def test_kt_parameter_validation():
    with pytest.raises(ValueError):
        kt_family(5, 0.01)
    with pytest.raises(ValueError):
        kt_family(2, 0.2)  # beyond the hard cap
    with pytest.raises(ValueError):
        kt_family(2, 0.05, grid_size=64)  # below the floor


def test_kt_3d_constructs():
    body = kt_family(3, 0.04)
    assert volume(body) == pytest.approx(unit_ball_volume(3), rel=1e-2)


def test_kt_support_check_memory_is_bounded():
    """The support condition tests 8192 vertices against 4098 directions;
    1024 directions of that product take 64 MiB, so it must run in blocks."""
    tracemalloc.start()
    try:
        kt_family(3, 0.08)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# sweep and slope fitting
# ---------------------------------------------------------------------------


def test_fit_loglog_slope_exact_power_law():
    t = np.array([0.02, 0.04, 0.08])
    assert fit_loglog_slope(t, 3.0 * t**2) == pytest.approx(2.0, abs=1e-12)
    assert fit_loglog_slope(t, 0.5 * t) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_loglog_slope([0.1], [0.2])
    with pytest.raises(ValueError):
        fit_loglog_slope([0.1, 0.2], [0.0, 0.1])


def test_kt_sweep_quadratic_scaling():
    records = kt_sweep(2, [0.04, 0.07, 0.10], samples=200_000, seed=0)
    assert [r.t for r in records] == [0.04, 0.07, 0.10]
    slope = fit_loglog_slope([r.t for r in records], [r.deficit_santalo for r in records])
    assert 1.7 <= slope <= 2.3
    slope_a = fit_loglog_slope([r.t for r in records], [r.A_dist for r in records])
    assert 0.8 <= slope_a <= 1.2
    ratios = [r.ratio for r in records]
    assert max(ratios) / min(ratios) < 10.0


def test_kt_sweep_rejects_out_of_range():
    with pytest.raises(ValueError):
        kt_sweep(2, [0.0, 0.05])
    with pytest.raises(ValueError):
        kt_sweep(2, [0.05, 0.13])


def test_stability_record_validation():
    with pytest.raises(ValueError):
        StabilityRecord(
            t=0.1, vol_K=1.0, vol_polar=1.0, deficit_santalo=0.0, deficit_ball=0.0,
            A_dist=-0.1, ratio=0.0, samples=10, seed=0, fit_converged=True, fit_evals=1,
        )


def test_records_csv_format(tmp_path):
    records = kt_sweep(2, [0.05, 0.10], samples=100_000, seed=1)
    path = tmp_path / "sweep.csv"
    save_records_csv(path, records, meta={"seed": 1})
    assert b"\r" not in path.read_bytes()
    lines = path.read_text().splitlines()
    assert lines[0] == '# {"seed": 1}'
    assert lines[1] == (
        "t,vol_K,vol_polar,deficit_santalo,deficit_ball,A_dist,ratio,samples,seed,"
        "fit_converged,fit_evals"
    )
    assert len(lines) == 4
    # every cell is a number; the fit outcome is written as 1/0 and a count
    for line, rec in zip(lines[2:], records):
        cells = line.split(",")
        assert [float(c) for c in cells]
        assert cells[-2:] == [str(int(rec.fit_converged)), str(rec.fit_evals)]
    # rerun writes identical bytes
    path2 = tmp_path / "sweep2.csv"
    save_records_csv(path2, kt_sweep(2, [0.05, 0.10], samples=100_000, seed=1), meta={"seed": 1})
    assert path.read_bytes() == path2.read_bytes()
    # an empty meta is still written, as by every artifact writer; None is not
    save_records_csv(path2, records, meta={})
    assert path2.read_text().splitlines()[:2] == ["# {}", lines[1]]
    save_records_csv(path2, records)
    assert path2.read_text().splitlines() == lines[1:]
