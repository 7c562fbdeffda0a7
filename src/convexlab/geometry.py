"""Origin-symmetric convex bodies in R^n (n = 2..4) and their polar duality.

Bodies come in three flavors: vertex-represented polytopes, halfspace-
represented polytopes, and ellipsoids.  All are immutable value objects
validated at construction (dimension cap, symmetry, origin strictly interior,
non-degeneracy).  The module-level operations -- polar, vertex enumeration,
linear images, star triangulation, dual cones -- are the exact-geometry layer
everything else builds on.

Conventions:
    * polytope halfspaces are stored with unit normals, ``<u_i, x> <= c_i``;
    * an ellipsoid is ``{x : x^T Q x <= 1}`` with ``Q`` symmetric positive
      definite ("shape" matrix);
    * the polar body is ``K* = {y : <x, y> <= 1 for all x in K}``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection, cKDTree
from scipy.spatial import QhullError

# Absolute vertex dedup tolerance, applied after rescaling to circumradius <= 10.
DEDUP_TOL = 1e-10
# Default slack for membership tests, in the polar-normalized facet form <w,x> <= 1.
CONTAIN_TOL = 1e-9
# Polytope membership forms its (points x facets) product in blocks of about
# CONTAIN_BLOCK_ELEMENTS, so its memory does not grow with the point count;
# blocks that fit in cache were the fastest size measured.  See _facet_test
# for the layout of a block.  The polygon path takes that many points a block.
CONTAIN_BLOCK_ELEMENTS = 1 << 16
# Maps with |det| below this are rejected as singular.
DET_TOL = 1e-12
# Above this many candidate n-subsets, the H->V step (vertex enumeration and
# the orthant clip) switches from the brute-force subset sweep to Qhull
# halfspace intersection (same exact result).
BRUTEFORCE_SUBSET_CAP = 500_000

MIN_DIM = 2
MAX_DIM = 4


def _check_dim(n: int) -> int:
    if not MIN_DIM <= n <= MAX_DIM:
        raise ValueError(f"dimension {n} outside supported range [{MIN_DIM}, {MAX_DIM}]")
    return n


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.flags.writeable = False
    return a


def unit_ball_volume(n: int) -> float:
    """Volume of the Euclidean unit ball in R^n."""
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearMap:
    """Invertible linear map, stored as its matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("linear map matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("linear map matrix must be finite")
        if abs(np.linalg.det(m)) <= DET_TOL:
            raise ValueError("linear map is numerically singular")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))

    @property
    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.matrix)

    @property
    def inverse_transpose(self) -> np.ndarray:
        return np.linalg.inv(self.matrix).T

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Apply to a point (n,) or a stack of points (N, n)."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.matrix.T

    @staticmethod
    def identity(n: int) -> "LinearMap":
        return LinearMap(np.eye(n))


# ---------------------------------------------------------------------------
# bodies
# ---------------------------------------------------------------------------


def _dedup_rows(rows: np.ndarray, tol: float) -> np.ndarray:
    """Drop rows within tol (infinity norm) of a kept row.

    Greedy in lexicographic order: a row is dropped when an earlier kept row
    lies within tol of it, counting only kept rows whose leading coordinate is
    at least this row's minus tol (a sliding window on the leading
    coordinate).  The survivors are returned lexsorted.

    Exact repeats sit next to each other after the sort and only the first of
    each run can survive, so they are collapsed up front.  The near pairs come
    from one k-d tree query, and the greedy pass (``_greedy_keep``) runs only
    over the rows that have one.
    """
    order = np.lexsort(rows.T[::-1])
    rs = rows[order]
    if rs.shape[0] < 2:
        return rs
    fresh = np.ones(rs.shape[0], dtype=bool)
    np.any(rs[1:] != rs[:-1], axis=1, out=fresh[1:])
    rs = rs[fresh]
    pairs = cKDTree(rs).query_pairs(tol, p=np.inf, output_type="ndarray")
    if pairs.shape[0] == 0:
        return rs
    a, b = pairs[:, 0], pairs[:, 1]  # a < b: a precedes b in lexicographic order
    in_window = rs[a, 0] >= rs[b, 0] - tol
    return rs[_greedy_keep(rs.shape[0], a[in_window], b[in_window])]


def _greedy_keep(count: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows kept by a greedy scan in row order over near pairs ``(a, b)``,
    ``a < b``: a row is dropped when an earlier kept row is its partner.

    Each sweep drops every row with a kept earlier partner and keeps every
    row whose earlier partners are all dropped, so a chain of k near rows
    takes at most k sweeps.
    """
    # state: 1 kept, -1 dropped, 0 undecided; a row with no earlier partner is kept
    state = np.ones(count, dtype=np.int8)
    state[b] = 0
    while True:
        state[b[state[a] == 1]] = -1
        undecided = state == 0
        if not undecided.any():
            break
        alive = np.bincount(b[state[a] != -1], minlength=count)
        state[undecided & (alive == 0)] = 1
    return state == 1


def _dedup_in_order(rows: np.ndarray, tol: float) -> np.ndarray:
    """Drop rows within tol (infinity norm) of an earlier kept row, keeping
    the survivors in their given order."""
    pairs = cKDTree(rows).query_pairs(tol, p=np.inf, output_type="ndarray")
    return rows[_greedy_keep(rows.shape[0], pairs[:, 0], pairs[:, 1])]


def _facet_test(
    pts: np.ndarray, normals: np.ndarray, bound: float, offsets: np.ndarray | None = None
) -> np.ndarray:
    """``max_i <u_i, x> / c_i <= bound`` per point (``c_i = 1`` without
    offsets), in blocks of about ``CONTAIN_BLOCK_ELEMENTS`` products.

    The maximum is taken along the longer axis of a block.  When a block holds
    at least as many points as there are facets (m <= 256 facets), it is formed
    facet-major, ``normals @ block.T``, and folded over the facets with a few
    contiguous elementwise maxima.  On 2D to 4D bodies with 6 to 100 facets a
    point then costs 9 to 101 ns instead of 75 to 173 ns (10^6 points, one
    BLAS thread).  With more facets a block is formed point-major and reduced
    per row: on the 4098 facets of a 3D K_t the facet-major fold was 1.04 to
    3.9 times slower at every budget from 2^16 to 2^22 elements.

    Every product is blocked, small ones too.  Forming products up to 32 MB
    whole made glibc keep the freed heap between calls: about 20 minor page
    faults per round of the benchmark's equipartition workload instead of
    about 49k, but a peak RSS of 121 MB instead of 105-106 MB, while the
    faults cost only about 0.1 s of system time per round.
    """
    m = normals.shape[0]
    rows = max(1, CONTAIN_BLOCK_ELEMENTS // m)
    facet_major = rows >= m
    out = np.empty(pts.shape[0], dtype=bool)
    for lo in range(0, pts.shape[0], rows):
        block = pts[lo : lo + rows]
        if facet_major:
            prod = normals @ block.T
            if offsets is not None:
                prod /= offsets[:, None]
            peak = np.maximum.reduce(prod, axis=0)
        else:
            prod = block @ normals.T
            if offsets is not None:
                prod /= offsets
            peak = np.maximum.reduce(prod, axis=1)
        np.less_equal(peak, bound, out=out[lo : lo + rows])
    return out


def _check_symmetric_rows(rows: np.ndarray, tol: float) -> None:
    """Require the row set to equal its negation within tol.

    Matches by nearest row rather than by sort order: coordinates that are
    roundoff noise around zero flip sign under negation, which reorders a
    lexicographic sort and would pair unrelated rows.
    """
    dist, _ = cKDTree(rows).query(-rows, k=1)
    if np.max(dist) > tol * math.sqrt(rows.shape[1]):
        raise ValueError("vertex set is not symmetric about the origin")


def _extreme_points(points: np.ndarray) -> np.ndarray:
    try:
        hull = ConvexHull(points)
    except QhullError as exc:
        raise ValueError(f"degenerate vertex set (flat or too few points): {exc}") from exc
    return points[hull.vertices]


def _canonical_vertices(vertices: np.ndarray) -> np.ndarray:
    """Dedup, verify symmetry, reduce to extreme points, make +/- exact, sort."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2:
        raise ValueError("vertices must be a 2-D array")
    if not np.all(np.isfinite(v)):
        raise ValueError("vertices must be finite")
    n = v.shape[1]
    circum = float(np.max(np.linalg.norm(v, axis=1))) if v.size else 0.0
    if circum <= 0:
        raise ValueError("vertex set collapses to the origin")
    tol = DEDUP_TOL * max(1.0, circum / 10.0)
    v = _dedup_rows(v, tol)
    _check_symmetric_rows(v, 100 * tol)
    if v.shape[0] < 2 * n:
        raise ValueError(f"need at least {2 * n} vertices after dedup, got {v.shape[0]}")
    ext = _extreme_points(v)
    # -x is extreme whenever x is; union with the negation makes pairing exact
    v = _dedup_rows(np.vstack([ext, -ext]), tol)
    order = np.lexsort(v.T[::-1])
    return v[order]


@dataclass(frozen=True)
class SymmetricVPolytope:
    """Origin-symmetric polytope given by its vertices.

    The constructor canonicalizes: duplicates and non-extreme points are
    dropped, the vertex list is closed under negation, and vertices are sorted
    lexicographically so equal bodies compare equal.
    """

    vertices: np.ndarray
    _polar: object = field(default=None, init=False, repr=False, compare=False)
    _hull: object = field(default=None, init=False, repr=False, compare=False)
    _angular: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        v = _canonical_vertices(self.vertices)
        n = _check_dim(v.shape[1])
        circum = float(np.max(np.linalg.norm(v, axis=1)))
        if np.linalg.matrix_rank(v, tol=1e-10 * max(1.0, circum)) < n:
            raise ValueError("origin is not interior (vertex set not full-dimensional)")
        object.__setattr__(self, "vertices", _freeze(v))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def circumradius(self) -> float:
        return float(np.max(np.linalg.norm(self.vertices, axis=1)))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def support(self, u: np.ndarray) -> float | np.ndarray:
        u = np.asarray(u, dtype=float)
        prods = u @ self.vertices.T if u.ndim > 1 else self.vertices @ u
        return prods.max(axis=-1)

    def radial(self, u: np.ndarray) -> float | np.ndarray:
        """Largest s with s*u in the body (ray-facet intersection via the polar)."""
        sup = polar(self).support(u)
        return 1.0 / sup

    def _facet_normals(self) -> np.ndarray:
        # facets of K are <w, x> <= 1 for w a vertex of the polar
        return polar(self).vertices

    def contains(self, points: np.ndarray, tol: float = CONTAIN_TOL) -> np.ndarray | bool:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if self.dim == 2 and self.vertices.shape[0] >= 64:
            # in blocks, like _facet_test: a dozen full-length temporaries
            # per call would otherwise be returned to the OS and refaulted
            out = np.empty(pts.shape[0], dtype=bool)
            for lo in range(0, pts.shape[0], CONTAIN_BLOCK_ELEMENTS):
                block = slice(lo, lo + CONTAIN_BLOCK_ELEMENTS)
                out[block] = self._contains_angular(pts[block], tol)
        else:
            out = _facet_test(pts, self._facet_normals(), 1.0 + tol)
        return bool(out[0]) if single else out

    def _contains_angular(self, pts: np.ndarray, tol: float) -> np.ndarray:
        """O(log m) membership for large polygons via angular bisection."""
        cache = self._angular
        if cache is None:
            ang = np.arctan2(self.vertices[:, 1], self.vertices[:, 0])
            order = np.argsort(ang)
            vs = self.vertices[order]
            cache = (np.sort(ang), vs)
            object.__setattr__(self, "_angular", cache)
        angs, vs = cache
        m = vs.shape[0]
        pa = np.arctan2(pts[:, 1], pts[:, 0])
        idx = np.searchsorted(angs, pa, side="right") - 1
        idx %= m
        a = vs[idx]
        b = vs[(idx + 1) % m]
        # interior lies left of each CCW edge; cross >= -tol * (a x b) matches
        # the facet inequality <w, x> <= 1 + tol with w the dual vertex of (a, b)
        edge_cross = (b[:, 0] - a[:, 0]) * (pts[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
            pts[:, 0] - a[:, 0]
        )
        ab_cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        return edge_cross >= -tol * ab_cross

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "kind": "v-polytope", "vertices": self.vertices.tolist()}


@dataclass(frozen=True)
class SymmetricHPolytope:
    """Origin-symmetric polytope ``{x : <u_i, x> <= c_i}`` with unit normals.

    The normal set must be closed under negation with matching offsets, all
    offsets strictly positive (origin interior), and the normals must span R^n
    (boundedness).
    """

    normals: np.ndarray
    offsets: np.ndarray
    _vrep: object = field(default=None, init=False, repr=False, compare=False)
    _polar: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        u = np.asarray(self.normals, dtype=float)
        c = np.asarray(self.offsets, dtype=float)
        if u.ndim != 2 or c.ndim != 1 or u.shape[0] != c.shape[0]:
            raise ValueError("normals (m, n) and offsets (m,) shapes do not match")
        n = _check_dim(u.shape[1])
        norms = np.linalg.norm(u, axis=1)
        if np.any(norms <= 0):
            raise ValueError("zero normal vector")
        c = c / norms
        u = u / norms[:, None]
        if np.any(c <= 0):
            raise ValueError("non-positive offset: origin not strictly interior")
        # closed under negation with matching offsets: every (u, c) row needs
        # a (-u, c) partner (nearest-row match, O(m log m))
        rows = np.column_stack([u, c])
        neg = np.column_stack([-u, c])
        dist, _ = cKDTree(rows).query(neg, k=1)
        if np.max(dist) > 1e-9 * math.sqrt(rows.shape[1]):
            raise ValueError("halfspace set is not symmetric (missing -u partner)")
        if np.linalg.matrix_rank(u, tol=1e-10) < n:
            raise ValueError("normals do not span R^n: polytope unbounded")
        object.__setattr__(self, "normals", _freeze(u))
        object.__setattr__(self, "offsets", _freeze(c))

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def contains(self, points: np.ndarray, tol: float = CONTAIN_TOL) -> np.ndarray | bool:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        # scale-free form <u, x>/c <= 1 + tol, consistent with the V-side test
        out = _facet_test(pts, self.normals, 1.0 + tol, self.offsets)
        return bool(out[0]) if single else out

    def radial(self, u: np.ndarray) -> float:
        u = np.asarray(u, dtype=float)
        dots = self.normals @ u
        pos = dots > 1e-15
        return float(np.min(self.offsets[pos] / dots[pos]))

    def support(self, u: np.ndarray) -> float | np.ndarray:
        return self.to_v().support(u)

    def to_v(self) -> SymmetricVPolytope:
        if self._vrep is None:
            object.__setattr__(self, "_vrep", vertex_enumeration(self))
        return self._vrep

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.to_v().bounding_box()

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "kind": "h-polytope",
            "normals": self.normals.tolist(),
            "offsets": self.offsets.tolist(),
        }


@dataclass(frozen=True)
class Ellipsoid:
    """Origin-centered ellipsoid ``{x : x^T Q x <= 1}``."""

    shape: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.shape, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("shape matrix must be square")
        _check_dim(q.shape[0])
        scale = float(np.max(np.abs(q)))
        if scale <= 0 or not np.all(np.isfinite(q)):
            raise ValueError("shape matrix must be finite and nonzero")
        if np.max(np.abs(q - q.T)) > 1e-12 * scale:
            raise ValueError("shape matrix must be symmetric")
        q = 0.5 * (q + q.T)
        if np.any(np.linalg.eigvalsh(q) <= 0):
            raise ValueError("shape matrix must be positive definite")
        object.__setattr__(self, "shape", _freeze(q))

    @property
    def dim(self) -> int:
        return self.shape.shape[0]

    def volume_exact(self) -> float:
        return unit_ball_volume(self.dim) / math.sqrt(np.linalg.det(self.shape))

    def contains(self, points: np.ndarray, tol: float = CONTAIN_TOL) -> np.ndarray | bool:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        q = np.einsum("ij,jk,ik->i", pts, self.shape, pts)
        out = q <= 1.0 + tol
        return bool(out[0]) if single else out

    def support(self, u: np.ndarray) -> float | np.ndarray:
        u = np.asarray(u, dtype=float)
        qinv = np.linalg.inv(self.shape)
        if u.ndim == 1:
            return float(math.sqrt(u @ qinv @ u))
        return np.sqrt(np.einsum("ij,jk,ik->i", u, qinv, u))

    def radial(self, u: np.ndarray) -> float | np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.ndim == 1:
            return float(1.0 / math.sqrt(u @ self.shape @ u))
        return 1.0 / np.sqrt(np.einsum("ij,jk,ik->i", u, self.shape, u))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        half = np.sqrt(np.diag(np.linalg.inv(self.shape)))
        return -half, half

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "kind": "ellipsoid", "shape": self.shape.tolist()}

    @staticmethod
    def ball(n: int, radius: float = 1.0) -> "Ellipsoid":
        return Ellipsoid(np.eye(n) / radius**2)


Body = SymmetricVPolytope | SymmetricHPolytope | Ellipsoid


@dataclass(frozen=True)
class SimplicialCone:
    """Cone ``{G c : c >= 0}`` spanned by n linearly independent generators.

    Generators are the columns of ``generators`` and are stored unit-normalized.
    ``G^{-1}`` is computed once at construction, so the coordinates of N points
    are one ``G^{-1} @ X^T`` product, laid out generator-major so that the
    per-point minimum folds n contiguous rows.  Coordinates from the inverse
    differ from a fresh ``solve`` in the last bits: at most 2.2e-16 on 2D
    Yao-Yao cones and 5.3e-15 on random cones of condition number below 20,
    for points of norm about 1.  The inverse is private and takes no part in
    ``==`` or ``repr``.
    """

    generators: np.ndarray
    _inverse: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.generators, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("generator matrix must be square (one column per generator)")
        norms = np.linalg.norm(g, axis=0)
        if np.any(norms <= 0):
            raise ValueError("zero generator")
        g = g / norms
        if abs(np.linalg.det(g)) <= DET_TOL:
            raise ValueError("generators are linearly dependent")
        object.__setattr__(self, "generators", _freeze(g))
        object.__setattr__(self, "_inverse", _freeze(np.linalg.inv(g)))

    @property
    def dim(self) -> int:
        return self.generators.shape[0]

    def coordinates(self, points: np.ndarray) -> np.ndarray:
        """Generator coordinates, one row per point (a transposed view of the
        generator-major product)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (self._inverse @ pts.T).T

    def contains(self, points: np.ndarray, tol: float = CONTAIN_TOL) -> np.ndarray | bool:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        coords = self.coordinates(pts).T
        scale = np.maximum(1.0, np.max(np.abs(coords), axis=0))
        out = np.min(coords, axis=0) >= -tol * scale
        return bool(out[0]) if single else out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _halfspace_vertices(a: np.ndarray, b: np.ndarray, interior: np.ndarray) -> np.ndarray:
    """Vertices of the bounded polytope ``{x : a x <= b}``, with repeats.

    Solves every n-subset of facet equalities and keeps the feasible
    solutions, in subset order; a vertex on more than n facets comes out once
    per subset that meets it.  Above ``BRUTEFORCE_SUBSET_CAP`` candidate
    subsets the vertices come from Qhull halfspace intersection about the
    strictly interior point ``interior`` instead (the subset sweep is
    combinatorial and only meant for desk-scale inputs).
    """
    m, n = a.shape
    if math.comb(m, n) > BRUTEFORCE_SUBSET_CAP:
        return HalfspaceIntersection(np.column_stack([a, -b]), interior).intersections
    idx = np.array(list(itertools.combinations(range(m), n)), dtype=int)
    mats = a[idx]
    rhs = b[idx]
    dets = np.linalg.det(mats)
    ok = np.abs(dets) > 1e-12
    sols = np.linalg.solve(mats[ok], rhs[ok][..., None])[..., 0]
    scale = max(1.0, float(np.max(b)))
    feas = np.max(sols @ a.T - b, axis=1) <= 1e-9 * scale
    verts = sols[feas]
    if verts.shape[0] == 0:
        raise ValueError("no feasible vertices found (inconsistent halfspaces)")
    return verts


def vertex_enumeration(hp: SymmetricHPolytope) -> SymmetricVPolytope:
    """Exact vertex set of a halfspace-represented polytope.

    The candidates of ``_halfspace_vertices`` (about the origin) are deduped
    within the standard tolerance by the vertex-polytope constructor.
    """
    verts = _halfspace_vertices(hp.normals, hp.offsets, np.zeros(hp.dim))
    # the facet set is symmetric, so the true vertex set is too; closing the
    # candidates under negation protects against one-sided tolerance cutoffs
    return SymmetricVPolytope(np.vstack([verts, -verts]))


def polar(body: Body) -> Body:
    """Polar body ``{y : <x, y> <= 1 for all x in K}``.

    Vertex polytope -> facet polytope -> vertex enumeration; halfspace
    polytope -> convex hull of ``u_i / c_i``; ellipsoid -> shape inverse.
    The result is cached on the body.
    """
    cached = getattr(body, "_polar", None)
    if cached is not None:
        return cached
    if isinstance(body, SymmetricVPolytope):
        v = body.vertices
        norms = np.linalg.norm(v, axis=1)
        if np.any(norms <= 0):
            raise ValueError("origin not interior: unbounded polar")
        hp = SymmetricHPolytope(v / norms[:, None], 1.0 / norms)
        out = vertex_enumeration(hp)
    elif isinstance(body, SymmetricHPolytope):
        out = SymmetricVPolytope(body.normals / body.offsets[:, None])
    elif isinstance(body, Ellipsoid):
        out = Ellipsoid(np.linalg.inv(body.shape))
    else:
        raise TypeError(f"unsupported body type {type(body)!r}")
    object.__setattr__(body, "_polar", out)
    if getattr(out, "_polar", None) is None and not isinstance(body, SymmetricHPolytope):
        object.__setattr__(out, "_polar", body)
    return out


def apply_map(t: LinearMap, body: Body) -> Body:
    """Image of a body under an invertible linear map."""
    if isinstance(body, SymmetricVPolytope):
        return SymmetricVPolytope(body.vertices @ t.matrix.T)
    if isinstance(body, SymmetricHPolytope):
        w = body.normals @ t.inverse  # rows: u_i T^{-1} = (T^{-t} u_i)^T
        norms = np.linalg.norm(w, axis=1)
        return SymmetricHPolytope(w / norms[:, None], body.offsets / norms)
    if isinstance(body, Ellipsoid):
        ti = t.inverse
        return Ellipsoid(ti.T @ body.shape @ ti)
    raise TypeError(f"unsupported body type {type(body)!r}")


def star_triangulation(body: Body) -> np.ndarray:
    """Decompose a polytope into simplices sharing the origin.

    Returns an array of shape (k, n+1, n): each simplex lists the origin
    followed by the n vertices of one hull facet (facets are simplicial as
    returned by Qhull).  Simplex volumes sum to the polytope volume.
    """
    if isinstance(body, SymmetricHPolytope):
        body = body.to_v()
    if not isinstance(body, SymmetricVPolytope):
        raise TypeError("star triangulation requires a polytope")
    hull = getattr(body, "_hull", None)
    if hull is None:
        try:
            hull = ConvexHull(body.vertices)
        except QhullError as exc:
            raise ValueError(f"degenerate polytope: {exc}") from exc
        object.__setattr__(body, "_hull", hull)
    n = body.dim
    facets = body.vertices[hull.simplices]  # (k, n, n)
    dets = np.linalg.det(facets)
    # qhull triangulates merged non-simplicial facets and may emit sliver
    # simplices of zero volume; they contribute nothing to any integral
    keep = np.abs(dets) >= 1e-14 * max(1.0, body.circumradius) ** n
    if not np.any(keep):
        raise ValueError("degenerate facet in star triangulation")
    facets = facets[keep]
    k = facets.shape[0]
    simplices = np.zeros((k, n + 1, n))
    simplices[:, 1:, :] = facets
    return simplices


def dual_cone(cone: SimplicialCone) -> SimplicialCone:
    """Dual cone ``{y : <x, y> >= 0 for all x in the cone}``.

    For a simplicial cone with generator matrix G the dual is spanned by the
    dual basis, i.e. the rows of ``G^{-1}`` (columns of ``G^{-T}``).
    """
    return SimplicialCone(np.linalg.inv(cone.generators).T)


def support(body: Body, u: np.ndarray) -> float | np.ndarray:
    """Support function ``h_K(u) = max_x <x, u>``."""
    return body.support(u)


def radial(body: Body, u: np.ndarray) -> float | np.ndarray:
    """Radial function ``rho_K(u) = max {s : s u in K}``."""
    return body.radial(u)


def contains(body: Body, x: np.ndarray, tol: float = CONTAIN_TOL) -> np.ndarray | bool:
    """Membership test with absolute slack ``tol`` on the normalized facet form."""
    return body.contains(x, tol)


def orthonormal_basis(u: np.ndarray) -> np.ndarray:
    """Orthonormal basis of R^n with first column parallel to u (deterministic)."""
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    nu = np.linalg.norm(u)
    if nu <= 0:
        raise ValueError("zero direction")
    q, r = np.linalg.qr(np.column_stack([u / nu, np.eye(n)]))
    flips = np.where(np.diag(r)[:n] < 0, -1.0, 1.0)
    q = q[:, :n] * flips[None, :]
    if q[:, 0] @ u < 0:
        q[:, 0] = -q[:, 0]
    return q


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def cube(n: int, half_side: float = 1.0) -> SymmetricVPolytope:
    verts = np.array(list(itertools.product((-half_side, half_side), repeat=n)))
    return SymmetricVPolytope(verts)


def cross_polytope(n: int, radius: float = 1.0) -> SymmetricVPolytope:
    return SymmetricVPolytope(np.vstack([np.eye(n), -np.eye(n)]) * radius)


def random_directions(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on the unit sphere."""
    g = rng.standard_normal((count, n))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def symmetric_direction_grid(n: int, count: int, seed: int = 0) -> np.ndarray:
    """Direction grid closed under negation: even angles (n = 2, with a seeded
    phase) or seeded uniform sphere points plus their negatives (n >= 3)."""
    if count % 2 or count < 2 * n:
        raise ValueError("grid size must be even and at least 2n")
    rng = np.random.default_rng(seed)
    half = count // 2
    if n == 2:
        phase = rng.uniform(0.0, 1.0)
        theta = (np.arange(half) + phase) * math.pi / half
        base = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        base = random_directions(n, half, rng)
    return np.vstack([base, -base])


def ball_approx(n: int, facets: int, seed: int = 0) -> SymmetricHPolytope:
    """Circumscribed polytope approximation of the unit ball on a direction grid."""
    grid = symmetric_direction_grid(n, facets, seed)
    return SymmetricHPolytope(grid, np.ones(len(grid)))


def random_symmetric_polytope(
    n: int,
    vertex_pairs: int,
    seed: int,
    radius_range: tuple[float, float] = (0.6, 1.4),
) -> SymmetricVPolytope:
    """conv(+/- {r_i d_i}) with d_i uniform on the sphere, r_i uniform radii."""
    if vertex_pairs < n + 1:
        raise ValueError("need at least n+1 vertex pairs")
    for attempt in range(64):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        dirs = random_directions(n, vertex_pairs, rng)
        radii = rng.uniform(*radius_range, size=vertex_pairs)
        pts = dirs * radii[:, None]
        try:
            return SymmetricVPolytope(np.vstack([pts, -pts]))
        except ValueError:
            continue
    raise ValueError(f"could not draw a non-degenerate polytope for seed {seed}")


def random_ellipsoid(n: int, seed: int, max_aspect: float = 4.0) -> Ellipsoid:
    """Random linear image T(B) of the unit ball with bounded aspect ratio."""
    rng = np.random.default_rng(seed)
    for _ in range(64):
        t = rng.standard_normal((n, n))
        s = np.linalg.svd(t, compute_uv=False)
        if s[0] / s[-1] <= max_aspect and s[-1] > 0.25:
            return Ellipsoid(np.linalg.inv(t @ t.T))
    raise ValueError(f"could not draw a well-conditioned ellipsoid for seed {seed}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def body_from_json_dict(data: dict) -> Body:
    kind = data.get("kind")
    if kind == "v-polytope":
        return SymmetricVPolytope(np.array(data["vertices"], dtype=float))
    if kind == "h-polytope":
        return SymmetricHPolytope(
            np.array(data["normals"], dtype=float), np.array(data["offsets"], dtype=float)
        )
    if kind == "ellipsoid":
        return Ellipsoid(np.array(data["shape"], dtype=float))
    raise ValueError(f"unknown body kind {kind!r}")


def save_body(path, body: Body, extra: dict | None = None) -> None:
    data = body.to_json_dict()
    if extra:
        data.update(extra)
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_body(path) -> Body:
    with open(path) as fh:
        return body_from_json_dict(json.load(fh))
