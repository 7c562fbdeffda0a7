"""Origin-symmetric convex bodies in R^n (n = 2..4) and their polar duality.

Bodies come in three flavors: vertex-represented polytopes, halfspace-
represented polytopes, and ellipsoids.  All are immutable value objects
validated at construction (dimension cap, symmetry, origin strictly interior,
non-degeneracy).  The module-level operations -- polar, vertex enumeration,
linear images, star triangulation, dual cones -- are the exact-geometry layer
everything else builds on.

Conventions:
    * polytope halfspaces are stored with unit normals, ``<u_i, x> <= c_i``;
    * a polytope's facets are read as ``<w, x> <= 1`` over the vertices w of
      its polar, for both polytope kinds (membership, radial function and
      orthant clip);
    * an ellipsoid is ``{x : x^T Q x <= 1}`` with ``Q`` symmetric positive
      definite ("shape" matrix);
    * the polar body is ``K* = {y : <x, y> <= 1 for all x in K}``.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull
from scipy.spatial import QhullError

# Absolute vertex dedup tolerance, applied after rescaling to circumradius <= 10.
DEDUP_TOL = 1e-10
# Default slack for membership tests, in the polar-normalized facet form <w,x> <= 1.
CONTAIN_TOL = 1e-9
# _max_products forms its (points x rows) product in blocks of about
# CONTAIN_BLOCK_ELEMENTS, so its memory does not grow with the point count;
# blocks that fit in cache were the fastest size measured.  See _max_products
# for the layout of a block.  The polygon path takes that many points a block.
CONTAIN_BLOCK_ELEMENTS = 1 << 16
# Maps with |det| below this are rejected as singular.
DET_TOL = 1e-12
# _near_pairs sorts rows on their projection onto this fixed direction.  Its
# coordinates are rationally independent, so rows that tie on coordinates
# (cube, cross-polytope and orthant-clip vertices, or rows sharing a leading
# coordinate) still project apart and a query's window holds only near rows.
NEAR_DIRECTION = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0])
# _near_pairs tests about this many candidate pairs a block.
NEAR_BLOCK = 1 << 16

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
    from ``_near_pairs``, and the greedy pass runs only over the rows that
    have one.
    """
    order = np.lexsort(rows.T[::-1])
    rs = rows[order]
    if rs.shape[0] < 2:
        return rs
    fresh = np.ones(rs.shape[0], dtype=bool)
    np.any(rs[1:] != rs[:-1], axis=1, out=fresh[1:])
    rs = rs[fresh]
    pairs = [(i[i < j], j[i < j]) for i, j in _near_pairs(rs, rs, tol, np.inf)]
    a, b = (np.concatenate(x) for x in zip(*pairs)) if pairs else ((), ())
    if len(a) == 0:
        return rs
    # a < b: a precedes b in lexicographic order
    in_window = rs[a, 0] >= rs[b, 0] - tol
    a, b = a[in_window], b[in_window]
    # The greedy scan in row order, in sweeps over the near pairs: each sweep
    # drops every row with a kept earlier partner and keeps every row whose
    # earlier partners are all dropped, so a chain of k near rows takes at
    # most k sweeps.  state: 1 kept, -1 dropped, 0 undecided; a row with no
    # earlier partner is kept.
    state = np.ones(rs.shape[0], dtype=np.int8)
    state[b] = 0
    while True:
        state[b[state[a] == 1]] = -1
        undecided = state == 0
        if not undecided.any():
            break
        alive = np.bincount(b[state[a] != -1], minlength=rs.shape[0])
        state[undecided & (alive == 0)] = 1
    return rs[state == 1]


def _max_products(pts: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``max_i <r_i, x>`` for each point x, in blocks of about
    ``CONTAIN_BLOCK_ELEMENTS`` products.

    Membership passes the polar's vertices as rows, the facets ``<w, x> <= 1``
    of the body; ``SymmetricVPolytope.support`` passes the body's vertices,
    with the directions as points.

    The maximum is taken along the longer axis of a block.  When a block holds
    at least as many points as there are rows (m <= 256 rows), it is formed
    row-major, ``rows @ block.T``, and folded over the rows with a few
    contiguous elementwise maxima.  On 2D to 4D bodies with 6 to 100 facets a
    point then costs 9 to 101 ns instead of 75 to 173 ns (10^6 points, one
    BLAS thread).  With more rows a block is formed point-major and reduced
    per point: on the 4098 facets of a 3D K_t the row-major fold was 1.04 to
    3.9 times slower at every budget from 2^16 to 2^22 elements.

    Every product is blocked, small ones too.  Forming products up to 32 MB
    whole made glibc keep the freed heap between calls: about 20 minor page
    faults per round of the benchmark's equipartition workload instead of
    about 49k, but a peak RSS of 121 MB instead of 105-106 MB, while the
    faults cost only about 0.1 s of system time per round.
    """
    m = rows.shape[0]
    per_block = max(1, CONTAIN_BLOCK_ELEMENTS // m)
    row_major = per_block >= m
    out = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], per_block):
        block = pts[lo : lo + per_block]
        if row_major:
            np.maximum.reduce(rows @ block.T, axis=0, out=out[lo : lo + per_block])
        else:
            np.maximum.reduce(block @ rows.T, axis=1, out=out[lo : lo + per_block])
    return out


def _near_pairs(queries: np.ndarray, rows: np.ndarray, radius: float, norm: float):
    """Yield blocks ``(i, j)`` of the index pairs with ``||queries[i] -
    rows[j]|| <= radius``, in the infinity norm (``norm=np.inf``) or the
    Euclidean norm (``norm=2``).

    The rows are sorted on their projection onto ``NEAR_DIRECTION`` d.  Two
    rows within the radius project within ``radius * ||d||_1`` (infinity
    norm) or ``radius * ||d||_2`` (Euclidean) of each other; that width,
    widened by the roundoff of the projections, gives each query its window
    of sorted rows by ``searchsorted``, and the exact distance is tested on
    the window only.  Windows are expanded about ``NEAR_BLOCK`` candidate
    pairs at a time (a query's window is never split), so memory stays
    bounded however many rows project close together.
    """
    if queries.shape[0] == 0 or rows.shape[0] == 0:
        return
    d = NEAR_DIRECTION[: rows.shape[1]]

    def near(qcols, cols):
        acc = 0.0
        for qcol, col in zip(qcols, cols):
            diff = col - qcol
            acc = np.maximum(acc, np.abs(diff)) if norm == np.inf else acc + diff * diff
        return (acc if norm == np.inf else np.sqrt(acc)) <= radius

    def by_projection(x):
        proj = x @ d
        order = np.argsort(proj)
        return order, proj[order], [np.ascontiguousarray(c) for c in x[order].T]

    # sorted queries make searchsorted's binary searches cheap (0.09 against
    # 0.44 ms on 4100 rows)
    order, proj, cols = by_projection(rows)
    qorder, qproj, qcols = (order, proj, cols) if queries is rows else by_projection(queries)
    # d is positive: ||d||_1 is its sum
    width = radius * float(d.sum() if norm == np.inf else np.linalg.norm(d))
    reach = float(d.sum()) * max(float(np.max(np.abs(rows))), float(np.max(np.abs(queries))))
    width += 64 * np.finfo(float).eps * (reach + width)
    lo = np.searchsorted(proj, qproj - width, "left")
    count = np.searchsorted(proj, qproj + width, "right") - lo
    ends = np.cumsum(count)
    start = 0
    while start < qproj.shape[0]:
        base = ends[start] - count[start]
        stop = max(start + 1, int(np.searchsorted(ends, base + NEAR_BLOCK, "right")))
        c = count[start:stop]
        total = int(ends[stop - 1] - base)
        if total:
            i = np.repeat(np.arange(start, stop), c)
            j = np.arange(total) + np.repeat(lo[start:stop] - (ends[start:stop] - c - base), c)
            hit = near([qcol[i] for qcol in qcols], [col[j] for col in cols])
            yield qorder[i[hit]], order[j[hit]]
        start = stop


def _has_near_rows(queries: np.ndarray, rows: np.ndarray, radius: float) -> bool:
    """Whether every query has a row within Euclidean distance radius."""
    hit = np.zeros(queries.shape[0], dtype=bool)
    for i, _ in _near_pairs(queries, rows, radius, 2):
        hit[i] = True
    return bool(hit.all())


def _check_symmetric_rows(rows: np.ndarray, tol: float) -> None:
    """Require the row set to equal its negation within tol.

    Matches by nearby row rather than by sort order: coordinates that are
    roundoff noise around zero flip sign under negation, which reorders a
    lexicographic sort and would pair unrelated rows.
    """
    if not _has_near_rows(-rows, rows, tol * math.sqrt(rows.shape[1])):
        raise ValueError("vertex set is not symmetric about the origin")


def _canonical_vertices(
    vertices: np.ndarray,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """Dedup, verify symmetry, reduce to extreme points, close under negation.

    The closure holds within the dedup tolerance only: a near cluster keeps
    its first row, so x may face -x' (54 of the 100 rows of the polar of
    ``random_symmetric_polytope(4, 16, 1)`` have no exact negative).

    Returns the canonical vertices, lexsorted as ``_dedup_rows`` leaves them,
    and the hull built to find the extreme points as its facet simplices and
    their plane equations.  The hull is handed on only when its input is the
    canonical array bit for bit and in the same order, so it is what a fresh
    Qhull of the canonical vertices returns; otherwise it is None.
    """
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
    try:
        hull = ConvexHull(v)
    except QhullError as exc:
        raise ValueError(f"degenerate vertex set (flat or too few points): {exc}") from exc
    ext = v[hull.vertices]
    # -x is extreme whenever x is; the union pairs every vertex within tol
    out = _dedup_rows(np.vstack([ext, -ext]), tol)
    same = out.shape == v.shape and out.tobytes() == v.tobytes()
    return out, (hull.simplices, hull.equations) if same else None


def _angle_bucket(a: np.ndarray, inv_width: float, buckets: int) -> np.ndarray:
    """Uniform bucket of each angle in [-pi, pi].

    One float expression for vertex and query angles alike; ``+``, ``*`` and
    truncation are monotone whatever the rounding, and so is the map.
    """
    # a NaN angle casts to an arbitrary bucket, where no vertex angle is <= it
    with np.errstate(invalid="ignore"):
        b = ((a + np.pi) * inv_width).astype(np.intp)
    return np.clip(b, 0, buckets - 1, out=b)


@dataclass(frozen=True)
class _AngularTable:
    """The sorted vertex angles of a polygon under a table of about 2m buckets.

    ``count_at_most(pa)`` equals ``searchsorted(angs, pa, "right")`` for every
    query.  The bucket map is monotone, so a vertex in a lower bucket than the
    query has an angle at most the query's and one in a higher bucket a larger
    angle; only the query's own bucket is searched, by ``len(steps)``
    branch-free bisection passes (the bit length of the fullest bucket).
    ``vx``/``vy`` hold the sorted vertices with the last one in front and the
    first one behind, so vertices ``pos - 1`` and ``pos`` (mod m) are
    ``v[pos]`` and ``v[pos + 1]``.
    """

    angs: np.ndarray  # sorted vertex angles, then +inf for the passes to overrun
    vx: np.ndarray
    vy: np.ndarray
    start: np.ndarray  # vertices in the buckets below each bucket
    inv_width: float
    steps: tuple[int, ...]

    def count_at_most(self, pa: np.ndarray) -> np.ndarray:
        pos = self.start[_angle_bucket(pa, self.inv_width, len(self.start))]
        for step in self.steps:
            pos += (self.angs.take(pos + (step - 1)) <= pa) * step
        return pos

    @staticmethod
    def build(vertices: np.ndarray) -> "_AngularTable":
        ang = np.arctan2(vertices[:, 1], vertices[:, 0])
        order = np.argsort(ang)
        angs, vs = ang[order], vertices[order]
        buckets = 2 * len(angs)
        inv_width = buckets / (2.0 * np.pi)
        occupancy = np.bincount(_angle_bucket(angs, inv_width, buckets), minlength=buckets)
        start = np.cumsum(occupancy) - occupancy
        steps = tuple(1 << k for k in reversed(range(int(occupancy.max()).bit_length())))
        ring = np.vstack([vs[-1:], vs, vs[:1]])
        return _AngularTable(
            angs=np.concatenate([angs, np.full(steps[0], np.inf)]),
            vx=ring[:, 0].copy(),
            vy=ring[:, 1].copy(),
            start=start,
            inv_width=inv_width,
            steps=steps,
        )


@dataclass(frozen=True)
class SymmetricVPolytope:
    """Origin-symmetric polytope given by its vertices.

    The constructor canonicalizes: duplicates and non-extreme points are
    dropped, the vertex list is closed under negation within the dedup
    tolerance, and vertices are sorted lexicographically so equal bodies
    compare equal.

    Like the polar, the hull (``_hull``), the star triangulation and the exact
    moment matrix and volume (``moments``) are computed once and cached on the
    body; the caches take no part in ``==`` or ``repr``.
    """

    vertices: np.ndarray
    _polar: object = field(default=None, init=False, repr=False, compare=False)
    # the hull's facet simplices (vertex indices) and their plane equations
    _facets: object = field(default=None, init=False, repr=False, compare=False)
    _planes: object = field(default=None, init=False, repr=False, compare=False)
    _star: object = field(default=None, init=False, repr=False, compare=False)
    _moment: object = field(default=None, init=False, repr=False, compare=False)
    _volume: object = field(default=None, init=False, repr=False, compare=False)
    _angular: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        v, hull = _canonical_vertices(self.vertices)
        n = _check_dim(v.shape[1])
        circum = float(np.max(np.linalg.norm(v, axis=1)))
        if np.linalg.matrix_rank(v, tol=1e-10 * max(1.0, circum)) < n:
            raise ValueError("origin is not interior (vertex set not full-dimensional)")
        object.__setattr__(self, "vertices", _freeze(v))
        if hull is not None:
            object.__setattr__(self, "_facets", hull[0])
            object.__setattr__(self, "_planes", hull[1])

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def support(self, u: np.ndarray) -> float | np.ndarray:
        u = np.asarray(u, dtype=float)
        out = _max_products(np.atleast_2d(u), self.vertices)
        return out[0] if u.ndim == 1 else out

    def radial(self, u: np.ndarray) -> float | np.ndarray:
        """Largest s with s*u in the body (ray-facet intersection via the polar)."""
        return 1.0 / polar(self).support(u)

    def contains(self, points: np.ndarray, tol: float = CONTAIN_TOL) -> np.ndarray | bool:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if self.dim == 2 and self.vertices.shape[0] >= 64:
            # in blocks, like _max_products: a dozen full-length temporaries
            # per call would otherwise be returned to the OS and refaulted
            out = np.empty(pts.shape[0], dtype=bool)
            for lo in range(0, pts.shape[0], CONTAIN_BLOCK_ELEMENTS):
                block = slice(lo, lo + CONTAIN_BLOCK_ELEMENTS)
                out[block] = self._contains_angular(pts[block], tol)
        else:
            out = _max_products(pts, polar(self).vertices) <= 1.0 + tol
        return bool(out[0]) if single else out

    def _contains_angular(self, pts: np.ndarray, tol: float) -> np.ndarray:
        """Membership for large polygons: the edge at each point's angle.

        The edge is found in the cached ``_AngularTable`` and is the one
        ``searchsorted`` over the sorted vertex angles would give.
        """
        table = self._angular
        if table is None:
            table = _AngularTable.build(self.vertices)
            object.__setattr__(self, "_angular", table)
        pa = np.arctan2(pts[:, 1], pts[:, 0])
        # the edge from vertex pos - 1 to vertex pos (both mod m)
        pos = table.count_at_most(pa)
        ax, bx = table.vx.take(pos), table.vx.take(pos + 1)
        ay, by = table.vy.take(pos), table.vy.take(pos + 1)
        # interior lies left of each CCW edge; cross >= -tol * (a x b) matches
        # the facet inequality <w, x> <= 1 + tol with w the dual vertex of (a, b)
        edge_cross = (bx - ax) * (pts[:, 1] - ay) - (by - ay) * (pts[:, 0] - ax)
        ab_cross = ax * by - ay * bx
        return edge_cross >= -tol * ab_cross

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "kind": "v-polytope", "vertices": self.vertices.tolist()}


@dataclass(frozen=True)
class SymmetricHPolytope:
    """Origin-symmetric polytope ``{x : <u_i, x> <= c_i}`` with unit normals.

    The normal set must be closed under negation with matching offsets, all
    offsets strictly positive (origin interior), and the normals must span R^n
    (boundedness).

    Like the polar, the vertices read off the polar's hull (``_dual_facets``),
    the exact moment matrix and volume (``moments``) and the vertex form built
    from those vertices (``to_v``) are computed once and cached on the body;
    the caches take no part in ``==`` or ``repr``.
    """

    normals: np.ndarray
    offsets: np.ndarray
    _vrep: object = field(default=None, init=False, repr=False, compare=False)
    _polar: object = field(default=None, init=False, repr=False, compare=False)
    _vertices: object = field(default=None, init=False, repr=False, compare=False)
    _facet: object = field(default=None, init=False, repr=False, compare=False)
    _moment: object = field(default=None, init=False, repr=False, compare=False)
    _volume: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        u = np.asarray(self.normals, dtype=float)
        c = np.asarray(self.offsets, dtype=float)
        if u.ndim != 2 or c.ndim != 1 or u.shape[0] != c.shape[0]:
            raise ValueError("normals (m, n) and offsets (m,) shapes do not match")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(c))):
            raise ValueError("normals and offsets must be finite")
        n = _check_dim(u.shape[1])
        norms = np.linalg.norm(u, axis=1)
        if np.any(norms <= 0):
            raise ValueError("zero normal vector")
        c = c / norms
        u = u / norms[:, None]
        if np.any(c <= 0):
            raise ValueError("non-positive offset: origin not strictly interior")
        # closed under negation with matching offsets: every (u, c) row needs
        # a (-u, c) partner (near-row match, O(m log m))
        rows = np.column_stack([u, c])
        neg = np.column_stack([-u, c])
        if not _has_near_rows(neg, rows, 1e-9 * math.sqrt(rows.shape[1])):
            raise ValueError("halfspace set is not symmetric (missing -u partner)")
        if np.linalg.matrix_rank(u, tol=1e-10) < n:
            raise ValueError("normals do not span R^n: polytope unbounded")
        object.__setattr__(self, "normals", _freeze(u))
        object.__setattr__(self, "offsets", _freeze(c))

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def contains(self, points: np.ndarray, tol: float = CONTAIN_TOL) -> np.ndarray | bool:
        if self.dim == 2:
            # the vertex form takes the angular test on large polygons
            return self.to_v().contains(points, tol)
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        out = _max_products(np.atleast_2d(pts), polar(self).vertices) <= 1.0 + tol
        return bool(out[0]) if single else out

    def radial(self, u: np.ndarray) -> float | np.ndarray:
        """Largest s with s*u in the body (ray-facet intersection via the polar)."""
        return 1.0 / polar(self).support(u)

    def support(self, u: np.ndarray) -> float | np.ndarray:
        u = np.asarray(u, dtype=float)
        out = _max_products(np.atleast_2d(u), self._dual_facets()[0])
        return out[0] if u.ndim == 1 else out

    def _dual_facets(self) -> tuple[np.ndarray, np.ndarray]:
        """The body's one vertex set, read off its polar's hull planes
        (``_plane_vertices``), and the true facet of each hull simplex."""
        if self._vertices is None:
            # polar(V) sets the body as its H-form's polar: no second polar call
            pol = self._polar if self._polar is not None else polar(self)
            verts, facet = _plane_vertices(_hull(pol)[1])
            object.__setattr__(self, "_vertices", _freeze(verts))
            object.__setattr__(self, "_facet", facet)
        return self._vertices, self._facet

    def incident_support(self) -> np.ndarray:
        """For each halfspace ``<u_i, x> <= c_i``, the largest ``<u_i, v>``
        over the vertices v of the facets of the polar's hull that meet
        ``p_i = u_i / c_i``, and ``-inf`` where p_i is not a hull vertex.

        On a hull vertex p_i the largest ``<p_i, v>`` over all vertices is 1,
        taken on exactly those facets, so this is the support ``c_i`` read
        off a few vertices.  A p_i that is no hull vertex (a redundant
        halfspace, or a near repeat the polar's dedup dropped) has none.
        """
        pol = polar(self)
        simplices = _hull(pol)[0]
        verts, facet = self._dual_facets()
        # the polar's hull vertices are rows of p, exactly
        owner = np.full(pol.vertices.shape[0], -1)
        for i, k in _near_pairs(self.normals / self.offsets[:, None], pol.vertices, 0.0, np.inf):
            owner[k] = i
        corner = owner[simplices].reshape(-1)
        known = corner >= 0
        rows, facets = corner[known], np.repeat(facet, simplices.shape[1])[known]
        prod = np.zeros(rows.size)
        for col, vcol in zip(self.normals.T, verts.T):
            prod += col[rows] * vcol[facets]
        out = np.full(self.normals.shape[0], -np.inf)
        np.maximum.at(out, rows, prod)
        return out

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
        # one BLAS product and a row dot, within 1e-14 of the three-operand
        # einsum; support and radial keep that einsum, as their values are outputs
        q = np.einsum("ij,ij->i", pts @ self.shape, pts)
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


def _plane_vertices(planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The package's one halfspace-to-vertex step: each distinct plane
    ``<a, y> + b = 0`` of a hull about the origin is the vertex ``-a / b`` of
    its polar, and the distinct plane of each row.  Qhull gives every simplex
    of a merged facet the same plane bit for bit."""
    rows, facet = np.unique(planes, axis=0, return_inverse=True)
    return -rows[:, :-1] / rows[:, -1:], facet.reshape(-1)


def _halfspace_vertices(a: np.ndarray, b: np.ndarray, interior: np.ndarray) -> np.ndarray:
    """Vertices of the bounded polytope ``{x : a x <= b}``.  About its
    strictly interior point z it is ``{y : <p_i, y> <= 1}`` with
    ``p_i = a_i / (b_i - <a_i, z>)``, read off the one Qhull of the p_i.  A
    vertex near one on more than n facets can come out as near repeats;
    callers dedup."""
    slack = b - a @ interior
    if not np.all(slack > 0):
        raise ValueError("halfspace intersection failed: the point is not strictly interior")
    try:
        planes = ConvexHull(a / slack[:, None]).equations
    except QhullError as exc:
        raise ValueError(f"halfspace intersection failed: {exc}") from exc
    return _plane_vertices(planes)[0] + interior


def vertex_enumeration(hp: SymmetricHPolytope) -> SymmetricVPolytope:
    """Vertex form of an H-polytope from its ``_dual_facets``, closed under
    negation so that the constructor's deduped input is its canonical output
    and the constructor hands its hull on."""
    verts = hp._dual_facets()[0]
    return SymmetricVPolytope(np.vstack([verts, -verts]))


def polar(body: Body) -> Body:
    """Polar body ``{y : <x, y> <= 1 for all x in K}``.

    Vertex polytope -> facet polytope, its vertices read off the body's hull
    (``vertex_enumeration``); halfspace polytope -> convex hull of ``u_i /
    c_i``; ellipsoid -> shape inverse.  The result is cached on the body.
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
        object.__setattr__(hp, "_polar", body)
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

    Returns a read-only array of shape (k, n+1, n): each simplex lists the
    origin followed by the n vertices of one hull facet (facets are simplicial
    as returned by Qhull).  Simplex volumes sum to the polytope volume.

    A vertex polytope is hulled once (``_hull``) and triangulated once, and
    the simplices are cached on it like its polar.  A halfspace polytope has
    no star triangulation: its exact moments come from its polar's hull.
    """
    if not isinstance(body, SymmetricVPolytope):
        raise TypeError("star triangulation requires a vertex polytope")
    if body._star is None:
        object.__setattr__(body, "_star", _freeze(_star_simplices(body)))
    return body._star


def _star_simplices(body: SymmetricVPolytope) -> np.ndarray:
    return _apex_simplices(body.vertices, np.zeros(body.dim), _hull(body)[0])


def _hull(body: SymmetricVPolytope) -> tuple[np.ndarray, np.ndarray]:
    """Facet simplices (vertex indices) and plane equations of a vertex
    polytope's Qhull: the hull its constructor built when that hull's input
    was the canonical vertex array, else one fresh Qhull, cached on the body.

    The hull outlives the star triangulation: the flag route of an
    H-polytope reads its polar's hull, often after that polar's star was
    built (``isotropize`` takes the polar's moments first).
    """
    if body._facets is None:
        try:
            hull = ConvexHull(body.vertices)
        except QhullError as exc:
            raise ValueError(f"degenerate polytope: {exc}") from exc
        object.__setattr__(body, "_facets", hull.simplices)
        object.__setattr__(body, "_planes", hull.equations)
    return body._facets, body._planes


def _solid(dets: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Which simplices, given their determinants about the origin, are not
    slivers: Qhull triangulates merged non-simplicial facets and may emit flat
    simplices, whose determinant is roundoff and whose volume is zero."""
    radius = float(np.max(np.linalg.norm(points, axis=1)))
    return np.abs(dets) >= 1e-14 * max(1.0, radius) ** points.shape[1]


def _apex_simplices(
    verts: np.ndarray, apex: np.ndarray, facets: np.ndarray | None = None
) -> np.ndarray:
    """Simplices joining ``apex`` to each hull facet of ``verts``, shape (k, n+1, n).

    The facets are ``facets`` (Qhull simplices of ``verts``) when given, else
    those of a fresh Qhull.  For a point inside the hull, the simplex volumes
    sum to the hull's volume.
    """
    if facets is None:
        try:
            facets = ConvexHull(verts).simplices
        except QhullError as exc:
            raise ValueError(f"degenerate polytope: {exc}") from exc
    n = verts.shape[1]
    facets = verts[facets]  # (k, n, n)
    keep = _solid(np.linalg.det(facets - apex), verts - apex)
    if not np.any(keep):
        raise ValueError("degenerate polytope: every hull facet is a sliver")
    facets = facets[keep]
    simplices = np.empty((facets.shape[0], n + 1, n))
    simplices[:, 0, :] = apex
    simplices[:, 1:, :] = facets
    return simplices


def dual_cone(cone: SimplicialCone) -> SimplicialCone:
    """Dual cone ``{y : <x, y> >= 0 for all x in the cone}``.

    For a simplicial cone with generator matrix G the dual is spanned by the
    dual basis, i.e. the rows of ``G^{-1}`` (columns of ``G^{-T}``), read off
    the cone's cached inverse.
    """
    return SimplicialCone(cone._inverse.T)


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
    """Uniform points on the unit sphere.

    The squared norms are summed one column at a time: ``np.linalg.norm``
    along rows runs numpy's inner loop once per row, and below 8 columns
    (every supported dimension) it sums in this same order, to the same bits.
    """
    g = rng.standard_normal((count, n))
    sq = g[:, 0] * g[:, 0]
    for j in range(1, n):
        sq += g[:, j] * g[:, j]
    return g / np.sqrt(sq)[:, None]


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


def write_json(path, data: dict) -> None:
    """The one artifact format: sorted keys, one-space indent, trailing newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_csv(path, header, rows, meta: dict | None = None) -> None:
    """The one CSV artifact format: a leading ``# <json>`` comment whenever meta
    is given (sorted keys, also for an empty dict), one header row, then the
    rows; every line ends in a bare line feed."""
    with open(path, "w", newline="") as fh:
        if meta is not None:
            fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def save_body(path, body: Body, extra: dict | None = None) -> None:
    write_json(path, {**body.to_json_dict(), **(extra or {})})


def load_body(path) -> Body:
    with open(path) as fh:
        return body_from_json_dict(json.load(fh))
