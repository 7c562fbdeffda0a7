"""Homothetic distance, ellipsoid fitting, the K_t bump family, and sweeps."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from convexlab.geometry import (
    Ellipsoid,
    LinearMap,
    SymmetricHPolytope,
    SymmetricVPolytope,
    apply_map,
    cross_polytope,
    cube,
    polar,
    random_ellipsoid,
    random_symmetric_polytope,
    unit_ball_volume,
)
from convexlab import stability
from convexlab.harness import ball_deficit, santalo_deficit
from convexlab.moments import box_chunks, second_moment_matrix, volume
from convexlab.stability import (
    StabilityRecord,
    _radial_distance,
    _sphere_rule,
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


def _reference_homothetic_distance(k_body, c_body, samples, seed):
    """Reference ``homothetic_distance``: both memberships on every draw."""
    n = k_body.dim
    alpha = volume(k_body) ** (-1.0 / n)
    beta = volume(c_body) ** (-1.0 / n)
    hi = np.maximum(alpha * k_body.bounding_box()[1], beta * c_body.bounding_box()[1])
    lo = -hi
    box_vol = float(np.prod(hi - lo))
    hits = 0
    for pts in box_chunks(lo, hi, samples, seed):
        hits += int(np.count_nonzero(k_body.contains(pts / alpha) ^ c_body.contains(pts / beta)))
    return box_vol * hits / samples


@functools.cache
def _kt_and_fit(n, t):
    body = kt_family(n, t)
    return body, best_fit_ellipsoid(body, samples=1000, seed=0)[0]


def _scaled(body, s):
    return apply_map(LinearMap(s * np.eye(body.dim)), body)


def _polygon80():
    """Every one of its 80 points is a vertex, so membership is angular."""
    theta = np.linspace(0.0, 2.0 * np.pi, 80, endpoint=False)
    return SymmetricVPolytope(np.column_stack([1.3 * np.cos(theta), 0.8 * np.sin(theta)]))


HOMOTHETIC_PAIRS = {
    "kt-2d-0.04": lambda: _kt_and_fit(2, 0.04),
    "kt-2d-0.12": lambda: _kt_and_fit(2, 0.12),
    "kt-3d-0.08": lambda: _kt_and_fit(3, 0.08),
    "square-disk": lambda: (cube(2), Ellipsoid.ball(2)),
    "cube3-ball": lambda: (cube(3), Ellipsoid.ball(3)),
    "cross4-ball": lambda: (cross_polytope(4), Ellipsoid.ball(4)),
    "random3-ellipsoid": lambda: (random_symmetric_polytope(3, 10, 1), random_ellipsoid(3, seed=3)),
    "random4-ellipsoid": lambda: (random_symmetric_polytope(4, 16, 1), random_ellipsoid(4, seed=3)),
    "aspect-1e3-ball": lambda: (Ellipsoid(np.diag([1.0, 1e6])), Ellipsoid.ball(2)),
    "polygon80-ellipse": lambda: (_polygon80(), random_ellipsoid(2, seed=2)),
    "kt-2d-itself": lambda: (_kt_and_fit(2, 0.08)[0],) * 2,
    "square-itself": lambda: (cube(2), cube(2)),
    "small-large": lambda: (_scaled(random_symmetric_polytope(2, 8, 4), 1e-3),
                            _scaled(random_ellipsoid(2, seed=4), 1e3)),
    "large-small": lambda: (_scaled(cube(3), 1e3), _scaled(Ellipsoid.ball(3), 1e-3)),
}


@pytest.mark.parametrize("name", sorted(HOMOTHETIC_PAIRS))
def test_homothetic_distance_equals_the_every_draw_reference(name):
    """The draws outside the membership shell are not hits: the same hit
    count, and so the same float, as testing both bodies on every draw."""
    k_body, c_body = HOMOTHETIC_PAIRS[name]()
    samples = 100_000 if k_body.dim > 2 else 200_000
    for seed in range(5):
        assert homothetic_distance(k_body, c_body, samples, seed) == (
            _reference_homothetic_distance(k_body, c_body, samples, seed)
        )


def test_homothetic_distance_tests_membership_in_the_shell_only(monkeypatch):
    """On 2D K_0.08 against its fit about 12 % of the draws lie between the
    two bodies' inball and circumball."""
    body, ell = _kt_and_fit(2, 0.08)
    seen = {SymmetricHPolytope: 0, Ellipsoid: 0}
    for cls in seen:
        def counted(self, points, *args, _cls=cls, _contains=cls.contains, **kwargs):
            seen[_cls] += len(points)
            return _contains(self, points, *args, **kwargs)

        monkeypatch.setattr(cls, "contains", counted)
    samples = 200_000
    homothetic_distance(body, ell, samples, seed=0)
    assert 0 < seen[SymmetricHPolytope] == seen[Ellipsoid] < samples / 5


def test_homothetic_distance_peak_no_higher_than_the_reference():
    body, ell = _kt_and_fit(2, 0.08)
    peaks = []
    for distance in (homothetic_distance, _reference_homothetic_distance):
        distance(body, ell, 1000, 0)  # the bodies' own caches
        tracemalloc.start()
        try:
            distance(body, ell, 10**6, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sphere_rule_weights_and_nodes(n):
    """The weights sum to |S^(n-1)| = n omega_n, the nodes are unit vectors,
    and the rule integrates u_1^2 to omega_n."""
    dirs, weights = _sphere_rule(n)
    wn = unit_ball_volume(n)
    assert weights.sum() == pytest.approx(n * wn, rel=1e-14)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0, atol=1e-15)
    assert weights @ dirs[:, 0] ** 2 == pytest.approx(wn, rel=1e-13)


def test_radial_distance_square_disk_closed_form(square):
    assert _radial_distance(square)(np.eye(2)) == pytest.approx(square_disk_distance(), rel=2e-4)


@pytest.mark.parametrize("n,pairs", [(3, 10), (4, 16)])
def test_radial_distance_matches_monte_carlo(n, pairs):
    """Within 4 sigma of the MC ``homothetic_distance``, sigma the binomial
    error of its hit count over the same sampling box."""
    body = random_symmetric_polytope(n, pairs, 1)
    ell = random_ellipsoid(n, seed=3)
    samples = 10**6
    mc = homothetic_distance(body, ell, samples=samples, seed=1)
    hi = np.maximum(
        volume(body) ** (-1.0 / n) * body.bounding_box()[1],
        volume(ell) ** (-1.0 / n) * ell.bounding_box()[1],
    )
    box_vol = float(np.prod(2.0 * hi))
    sigma = math.sqrt(mc * (box_vol - mc) / samples)
    assert _radial_distance(body)(ell.shape) == pytest.approx(mc, abs=4.0 * sigma)


def test_fit_memory_does_not_grow_with_samples(monkeypatch):
    """The fit's objective reads no point cloud: the one box stream of a call
    is the final MC distance, whose chunks bound the peak at any sample count."""
    body = kt_family(2, 0.08)
    best_fit_ellipsoid(body, samples=1000, seed=0)  # the body's own caches
    streams = []

    def counted(lo, hi, samples, seed):
        streams.append(samples)
        return box_chunks(lo, hi, samples, seed)

    monkeypatch.setattr(stability, "box_chunks", counted)
    peaks = []
    for samples in (10**5, 10**7):
        tracemalloc.start()
        try:
            best_fit_ellipsoid(body, samples=samples, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert streams == [10**5, 10**7]
    assert peaks[1] < 1.1 * peaks[0]


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

    The fit also starts from the body's exact moment and volume and reads its
    radial function off its polar.  The H body's come from its polar's hull
    and the halfspaces, the vertex form's from its star and the polar's vertex
    enumeration; they agree to a tolerance, not bit for bit, so a fresh vertex
    form is given the H body's, and membership is left the one difference."""
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
    object.__setattr__(vbody, "_polar", polar(body))
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


def _full_scan_clipped(pre, dirs, h):
    return pre.support(dirs) < h * (1.0 - 1e-9)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "radii", [(stability.BUMP_INNER, stability.BUMP_OUTER), (0.125, 0.25), (0.1, 0.3)]
)
def test_kt_support_decision_equals_the_full_scan(n, radii):
    """The facet-local check flags the same prescribed halfspaces as a scan
    of every vertex, on bodies that pass and on clipped ones."""
    for t in (0.01, 0.04, 0.08, 0.12, 0.15):
        dirs, h = stability._kt_halfspaces(n, t, None, 0, radii)
        pre = SymmetricHPolytope(dirs, h)
        np.testing.assert_array_equal(
            stability._clipped(pre, dirs, h), _full_scan_clipped(pre, dirs, h)
        )


def test_kt_support_decision_equals_the_full_scan_4d():
    dirs, h = stability._kt_halfspaces(4, 0.05, None, 0, (0.1, 0.3))
    pre = SymmetricHPolytope(dirs, h)
    clipped = stability._clipped(pre, dirs, h)
    np.testing.assert_array_equal(clipped, _full_scan_clipped(pre, dirs, h))
    assert clipped.any()


def test_support_check_refuses_a_redundant_halfspace():
    """A halfspace that misses the square has a dual point inside the polar,
    on no hull vertex, and the full scan decides it; one that touches a
    vertex of the square has its dual point on an edge of the polar."""
    normals = np.array([[1.0, 0.0], [0.0, 1.0], [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)]])
    for offset, clipped in ((1.5, True), (math.sqrt(2.0) * (1.0 + 1e-12), False)):
        dirs = np.vstack([normals, -normals])
        h = np.array([1.0, 1.0, offset] * 2)
        pre = SymmetricHPolytope(dirs, h)
        got = stability._clipped(pre, dirs, h)
        np.testing.assert_array_equal(got, _full_scan_clipped(pre, dirs, h))
        np.testing.assert_array_equal(got, [False, False, clipped] * 2)


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


def test_fit_loglog_slope_refuses_one_repeated_x():
    with pytest.raises(ValueError, match="two distinct x values"):
        fit_loglog_slope([0.04, 0.04], [1e-3, 2e-3])
    assert fit_loglog_slope([0.04, 0.04, 0.08], [1e-3, 1e-3, 4e-3]) == pytest.approx(2.0)


def test_kt_sweep_quadratic_scaling():
    records = kt_sweep(2, [0.04, 0.07, 0.10], samples=200_000, seed=0)
    assert [r.t for r in records] == [0.04, 0.07, 0.10]
    slope = fit_loglog_slope([r.t for r in records], [r.deficit_santalo for r in records])
    assert 1.7 <= slope <= 2.3
    slope_a = fit_loglog_slope([r.t for r in records], [r.A_dist for r in records])
    assert 0.8 <= slope_a <= 1.2
    ratios = [r.ratio for r in records]
    assert max(ratios) / min(ratios) < 10.0


SLOPE_T = [0.04, 0.08, 0.12]


def _exact_deficits(n: int, t: float) -> tuple[float, float]:
    body = kt_family(n, t)
    return (
        santalo_deficit(body, method="exact").deficit,
        ball_deficit(body, method="exact").deficit,
    )


def test_kt_ball_deficit_slope_2d():
    """Ball's trace-product deficit of K_t scales like t^2, with no sampling."""
    deficits = [_exact_deficits(2, t)[1] for t in SLOPE_T]
    assert 1.9 <= fit_loglog_slope(SLOPE_T, deficits) <= 2.1


def test_kt_excess_deficit_slopes_3d():
    """The 3D K_0 is a polytope on 4098 random directions, whose Santalo and
    ball deficits (0.025 and 0.005) swamp the raw t^2 slopes (about 1.06 and
    0.93).  The excess over K_0 scales like t^2 in both."""
    floor = _exact_deficits(3, 0.0)
    deficits = [_exact_deficits(3, t) for t in SLOPE_T]
    for k in (0, 1):
        excess = [d[k] - floor[k] for d in deficits]
        assert 1.7 <= fit_loglog_slope(SLOPE_T, excess) <= 2.3


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
