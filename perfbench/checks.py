"""Output checks for the four workloads.

Every check compares the program's outputs with quantities computed here,
apart from the program (Qhull hulls and halfspace intersections, closed
forms, fresh samples drawn by the benchmark), or with properties the method
must have.  None compares with saved copies of earlier output.  Each
function raises ``CheckFailed`` naming the first output that is wrong.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, HalfspaceIntersection, cKDTree

EXACT_TOL = 1e-8
# Relative agreement of exact volumes and moments with the Qhull references.
REL_TOL = 1e-9
# Standard errors allowed between an MC estimate and its exact value.  Two-
# sided normal tail at 6 sigma is 2e-9; a moment-oracle run makes under 100
# such comparisons, so a correct program fails one with probability < 1e-6.
MC_SIGMAS = 6.0
# Standard errors allowed between a Yao-Yao cone mass, re-measured on a fresh
# sample, and 2^-n (8 comparisons per equipartition run, 5.7e-7 each).
CONE_SIGMAS = 5.0


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def omega(n: int) -> float:
    """Volume of the Euclidean unit ball in R^n."""
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


# ---------------------------------------------------------------------------
# references computed apart from the program


def hull_volume_moment(points: np.ndarray) -> tuple[float, np.ndarray]:
    """Volume (``ConvexHull.volume``) and second-moment matrix of conv(points).

    The moment sums the simplex formula over a Delaunay triangulation of the
    points, joggled ("QJ") so that every region is a simplex; the simplices
    keep the points' own coordinates.  (Summing over Qhull's triangulated hull
    facets, or over a default Delaunay, can miss or double-count regions.)
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[1]
    simplices = pts[Delaunay(pts, qhull_options="QJ").simplices]
    vols = np.abs(np.linalg.det(simplices[:, 1:] - simplices[:, :1])) / math.factorial(n)
    weight = vols / ((n + 1) * (n + 2))
    s = simplices.sum(axis=1)
    moment = np.einsum("k,kvi,kvj->ij", weight, simplices, simplices)
    moment += np.einsum("k,ki,kj->ij", weight, s, s)
    volume = float(ConvexHull(pts).volume)
    if not close(float(vols.sum()), volume, rel=1e-9):
        raise CheckFailed("reference triangulation does not add up to the hull volume")
    return volume, moment


def halfspace_vertices(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Vertices of {x : <u_i, x> <= c_i} by Qhull halfspace intersection.

    A vertex where more than n halfspaces meet comes out once per n-subset;
    the copies are dropped without touching coordinates (rounding them bends
    coplanar facets enough to move Qhull's volume by 1e-7).
    """
    normals = np.asarray(normals, dtype=float)
    hs = np.column_stack([normals, -np.asarray(offsets, dtype=float)])
    pts = HalfspaceIntersection(hs, np.zeros(normals.shape[1])).intersections
    tol = 1e-9 * float(np.max(np.abs(pts)))
    copies = {j for _, j in cKDTree(pts).query_pairs(tol)}
    return pts[[i for i in range(len(pts)) if i not in copies]]


def reference(body: dict) -> tuple[tuple[float, np.ndarray], tuple[float, np.ndarray]]:
    """(volume, moment) of a body file's body and of its polar."""
    kind = body["kind"]
    if kind == "ellipsoid":
        q = np.asarray(body["shape"], dtype=float)
        n = q.shape[0]
        vol = omega(n) / math.sqrt(np.linalg.det(q))
        vol_p = omega(n) * math.sqrt(np.linalg.det(q))
        return (vol, vol / (n + 2) * np.linalg.inv(q)), (vol_p, vol_p / (n + 2) * q)
    if kind == "v-polytope":
        v = np.asarray(body["vertices"], dtype=float)
        return hull_volume_moment(v), hull_volume_moment(halfspace_vertices(v, np.ones(len(v))))
    if kind == "h-polytope":
        u = np.asarray(body["normals"], dtype=float)
        c = np.asarray(body["offsets"], dtype=float)
        return hull_volume_moment(halfspace_vertices(u, c)), hull_volume_moment(u / c[:, None])
    raise CheckFailed(f"unknown body kind {kind!r}")


def cube_cross_closed_form(n: int) -> tuple[tuple[float, np.ndarray], tuple[float, np.ndarray]]:
    """(volume, moment) of the cube [-1, 1]^n and of its polar, the unit cross-polytope."""
    cube = (2.0**n, 2.0**n / 3.0 * np.eye(n))
    cross = (2.0**n / math.factorial(n), 2.0 ** (n + 1) / math.factorial(n + 2) * np.eye(n))
    return cube, cross


def matrix_close(a, b, rel: float = REL_TOL) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and float(np.max(np.abs(a - b))) <= rel * float(np.max(np.abs(b)))


# ---------------------------------------------------------------------------
# exact-geometry


def check_exact_geometry(bodies: list[dict]) -> None:
    """``bodies``: one entry per generated body with its body file, compute
    output, directional reports, kind (cube, cross, ellipsoid, random, kt),
    dimension and, for the closed forms, the vertex set the benchmark built."""
    require(bool(bodies), "no body was generated")
    for entry in bodies:
        label, n, kind = entry["label"], entry["dim"], entry["kind"]
        body, comp, reports = entry["body"], entry["compute"], entry["reports"]
        wn = omega(n)
        require(body["dim"] == n and comp["dim"] == n, f"{label}: wrong dimension")
        if "vertices" in entry:
            own = np.unique(np.asarray(entry["vertices"], dtype=float), axis=0)
            got = np.unique(np.asarray(body["vertices"], dtype=float), axis=0)
            require(own.shape == got.shape and np.allclose(own, got, rtol=0, atol=1e-12),
                    f"{label}: vertex set differs from the one built by the benchmark")
        (vol, mom), (vol_p, mom_p) = reference(body)
        if kind in ("cube", "cross"):
            forms = cube_cross_closed_form(n)
            (vol_c, mom_c), (vol_pc, mom_pc) = forms if kind == "cube" else forms[::-1]
            require(close(vol, vol_c) and close(vol_p, vol_pc) and matrix_close(mom, mom_c)
                    and matrix_close(mom_p, mom_pc), f"{label}: Qhull reference off its closed form")
            require(close(comp["volume"], vol_c) and close(comp["volume_polar"], vol_pc),
                    f"{label}: volumes differ from the closed form")
            require(matrix_close(comp["moment_matrix"], mom_c)
                    and matrix_close(comp["moment_matrix_polar"], mom_pc),
                    f"{label}: moment matrices differ from the closed form")
        require(close(comp["volume"], vol), f"{label}: volume {comp['volume']!r} != hull {vol!r}")
        require(close(comp["volume_polar"], vol_p),
                f"{label}: polar volume {comp['volume_polar']!r} != hull {vol_p!r}")
        require(matrix_close(comp["moment_matrix"], mom), f"{label}: moment matrix off")
        require(matrix_close(comp["moment_matrix_polar"], mom_p), f"{label}: polar moment matrix off")
        if kind == "kt":
            require(close(comp["volume"], wn) and close(vol, wn), f"{label}: |K_t| != omega_n")
        product = comp["volume"] * comp["volume_polar"]
        require(close(comp["volume_product"], product), f"{label}: volume product off")
        require(close(comp["santalo_bound"], wn * wn), f"{label}: Santalo bound != omega_n^2")
        require(close(comp["santalo_deficit"], wn * wn - vol * vol_p, abs_tol=EXACT_TOL),
                f"{label}: Santalo deficit != omega_n^2 - |K||K*|")
        ball_bound = n * (wn / (n + 2)) ** 2
        functional = float(np.sum(mom * mom_p))
        require(close(comp["ball_bound"], ball_bound), f"{label}: ball bound off")
        require(close(comp["ball_functional"], functional), f"{label}: ball functional off")
        require(close(comp["ball_deficit"], ball_bound - functional, abs_tol=EXACT_TOL),
                f"{label}: ball deficit off")
        require(comp["santalo_deficit"] >= -EXACT_TOL and comp["ball_deficit"] >= -EXACT_TOL,
                f"{label}: negative Santalo or ball deficit")
        require(comp["chain_lhs"] <= comp["chain_rhs"] * (1 + EXACT_TOL), f"{label}: chain violated")
        if kind == "ellipsoid":
            require(abs(comp["santalo_deficit"]) <= EXACT_TOL
                    and abs(comp["ball_deficit"]) <= EXACT_TOL,
                    f"{label}: ellipsoid deficits are not 0")
        require(len(reports) == n + 2, f"{label}: {len(reports)} directional reports, want {n + 2}")
        rhs = (wn / (n + 2)) ** 2
        for rep in reports:
            require(rep["name"] == "directional" and close(rep["rhs"], rhs),
                    f"{label}: directional bound != (omega_n/(n+2))^2")
            require(rep["deficit"] >= -EXACT_TOL, f"{label}: negative directional deficit")
            if kind == "ellipsoid":
                require(abs(rep["deficit"]) <= EXACT_TOL, f"{label}: ellipsoid directional deficit")


# ---------------------------------------------------------------------------
# moment-oracle


def check_moment_oracle(bodies: list[dict], deficits: list[dict]) -> None:
    """``bodies``: body file dict, exact and MC moment results, and the
    bounding-box volume of the body.  ``deficits``: MC Santalo and ball
    reports on ellipsoids, whose exact deficits are 0."""
    require(bool(bodies) and bool(deficits), "no moment was computed")
    for entry in bodies:
        label, body = entry["label"], entry["body"]
        (vol, mom), _ = reference(body)
        n = mom.shape[0]
        if entry.get("cube"):
            (vol_c, mom_c), _ = cube_cross_closed_form(n)
            require(close(vol, vol_c) and matrix_close(mom, mom_c), f"{label}: cube off closed form")
        exact, mc = entry["exact"], entry["mc"]
        require(close(exact["volume"], vol), f"{label}: exact volume {exact['volume']!r} != {vol!r}")
        require(matrix_close(exact["matrix"], mom), f"{label}: exact moment matrix off")
        m_exact = np.asarray(exact["matrix"], dtype=float)
        m_mc = np.asarray(mc["matrix"], dtype=float)
        se = np.asarray(mc["stderr"], dtype=float)
        iu = np.triu_indices(n)
        z = np.abs(m_mc - m_exact)[iu] / se[iu]
        require(bool(np.all(se[iu] > 0)) and float(z.max()) <= MC_SIGMAS,
                f"{label}: MC moment {float(z.max()):.2f} standard errors off the exact one")
        box = entry["box_volume"]
        se_vol = math.sqrt(vol * max(box - vol, 0.0) / mc["samples"])
        require(abs(mc["volume"] - vol) <= MC_SIGMAS * se_vol, f"{label}: MC volume off")
    for rep in deficits:
        label, n = rep["label"], rep["dim"]
        target = omega(n) ** 2 if rep["name"] == "santalo" else n * (omega(n) / (n + 2)) ** 2
        sigma = rep["metadata"]["stderr"]
        require(close(rep["rhs"], target), f"{label}: {rep['name']} bound off")
        require(sigma > 0 and abs(rep["lhs"] - target) <= MC_SIGMAS * sigma,
                f"{label}: MC {rep['name']} functional {rep['lhs']!r} off {target!r}")


# ---------------------------------------------------------------------------
# equipartition


def _cone_coordinates(generators: list, points: np.ndarray) -> np.ndarray:
    """(cones, points, n) coordinates of points in each cone's generator basis."""
    gens = np.asarray(generators, dtype=float)
    return np.stack([np.linalg.solve(g, points.T).T for g in gens])


def sample_body(vertices: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points of conv(vertices) by rejection from the bounding box."""
    hull = ConvexHull(vertices)
    lo, hi = vertices.min(axis=0), vertices.max(axis=0)
    out, have = [], 0
    while have < count:
        cand = rng.uniform(lo, hi, size=(1 << 16, vertices.shape[1]))
        keep = cand[np.all(cand @ hull.equations[:, :-1].T + hull.equations[:, -1] <= 0, axis=1)]
        out.append(keep)
        have += len(keep)
    return np.concatenate(out)[:count]


def cone_mass_z(
    partition: dict, vertices: np.ndarray, build_samples: int, count: int, rng
) -> np.ndarray:
    """Deviation of each cone's <x,u>^2 mass share from 2^-n, in standard errors.

    The shares are re-measured on ``count`` fresh uniform points.  The error
    combines the fresh sample's with the construction sample's: the partition
    equalised the masses of ``build_samples / 2`` independent antipodal pairs.
    """
    u = np.asarray(partition["u"], dtype=float)
    gens = [c["generators"] for c in partition["cones"]]
    pts = sample_body(vertices, count, rng)
    w = (pts @ u) ** 2
    depth = _cone_coordinates(gens, pts).min(axis=2)
    member = np.arange(len(gens))[:, None] == np.argmax(depth, axis=0)[None, :]
    share = member @ w / w.sum()
    # delta-method variance of a ratio estimator, per point
    var = ((w[None, :] * (member - share[:, None])) ** 2).mean(axis=1) / w.mean() ** 2
    se = np.sqrt(var / count + var / (build_samples // 2))
    return (share - 2.0 ** -len(u)) / se


def uncovered(generators: list, directions: np.ndarray) -> int:
    """Directions lying in none of the cones spanned by the generator matrices."""
    coords = _cone_coordinates(generators, directions)
    return int(np.count_nonzero(~np.any(np.all(coords >= -1e-9, axis=2), axis=0)))


def check_equipartition(verifies: list[dict], partitions: list[dict], rng) -> None:
    """``verifies``: reports of ``verify --which cones|pl``; ``partitions``:
    ``yaoyao`` output files with the vertex sets they were built from."""
    require(bool(verifies) and bool(partitions), "no equipartition output")
    for entry in verifies:
        label, n, which, reports = entry["label"], entry["dim"], entry["which"], entry["reports"]
        for rep in reports:
            require(rep["passed"], f"{label}: report {rep['name']} fails")
        names = [rep["name"] for rep in reports]
        h = omega(n) / (n + 2)
        if which == "cones":
            require(names == ["cone-restricted"] * 2**n + ["cone-sum"], f"{label}: reports {names}")
            for rep in reports[:-1]:
                require(close(rep["rhs"], 4.0**-n * h * h), f"{label}: cone bound off")
            total = reports[-1]
            require(close(total["lhs"], sum(total["metadata"]["per_cone"])),
                    f"{label}: cone-sum lhs != sum of cone moments")
        else:
            require(names == ["pl-triple"] * 2**n, f"{label}: reports {names}")
            for rep in reports:
                require(close(rep["rhs"], (2.0**-n * h) ** 2), f"{label}: Prekopa-Leindler bound off")
                require(rep["metadata"]["hypothesis_margin"] <= 1e-9, f"{label}: <x,y> > 1")
    for entry in partitions:
        label, part = entry["label"], entry["partition"]
        vertices = np.asarray(entry["vertices"], dtype=float)
        n = vertices.shape[1]
        require(len(part["cones"]) == 2**n, f"{label}: {len(part['cones'])} cones, want {2**n}")
        shares = np.asarray(part["masses"], dtype=float) / part["total"]
        require(float(np.max(np.abs(shares - 2.0**-n))) <= part["mass_tol"] * 2.0**-n,
                f"{label}: reported cone masses are not equal")
        z = cone_mass_z(part, vertices, entry["samples"], entry["fresh_samples"], rng)
        require(float(np.max(np.abs(z))) <= CONE_SIGMAS,
                f"{label}: re-measured cone mass {float(np.max(np.abs(z))):.1f} standard errors off 2^-n")
        dirs = rng.standard_normal((20_000, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        gens = [np.asarray(c["generators"], dtype=float) for c in part["cones"]]
        require(uncovered(gens, dirs) == 0, f"{label}: cones do not cover the sphere")
        duals = [np.linalg.inv(g).T for g in gens]
        require(uncovered(duals, dirs) == 0, f"{label}: dual cones do not cover the sphere")


# ---------------------------------------------------------------------------
# kt-stability


def loglog_slope(x, y) -> float:
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def check_kt_stability(sweeps: list[dict], volumes: dict) -> None:
    """``sweeps``: rows of each ``stability kt-sweep`` CSV (2D);
    ``volumes``: t -> (|K_t|, |K_t*|) from Qhull."""
    require(bool(sweeps), "no sweep output")
    wn = omega(2)
    for entry in sweeps:
        label, rows = entry["label"], entry["rows"]
        require([r["t"] for r in rows] == entry["t"], f"{label}: t values {[r['t'] for r in rows]}")
        for r in rows:
            vk, vp = volumes[r["t"]]
            require(close(r["vol_K"], wn, rel=2e-9) and close(vk, wn), f"{label}: vol_K != omega_2")
            require(close(r["deficit_santalo"], wn * wn - vk * vp, abs_tol=1e-7),
                    f"{label}: deficit_santalo != omega_2^2 - |K||K*| at t={r['t']}")
            require(0.0 < r["A_dist"] <= 2.0, f"{label}: A_dist {r['A_dist']!r} outside (0, 2]")
            require(close(r["ratio"], r["deficit_santalo"] / r["A_dist"] ** 2, rel=1e-8),
                    f"{label}: ratio != deficit / A^2")
        ts = [r["t"] for r in rows]
        slope_d = loglog_slope(ts, [r["deficit_santalo"] for r in rows])
        slope_a = loglog_slope(ts, [r["A_dist"] for r in rows])
        require(1.7 <= slope_d <= 2.3, f"{label}: deficit slope {slope_d:.3f} outside [1.7, 2.3]")
        require(0.8 <= slope_a <= 1.2, f"{label}: A_dist slope {slope_a:.3f} outside [0.8, 1.2]")
        ratios = [r["ratio"] for r in rows]
        require(max(ratios) / min(ratios) < 10.0, f"{label}: ratio spread >= 10")
