"""Convex cells, overlap bookkeeping, and the two concrete domain families.

Everything downstream (constant aggregation, eigenvalue transfer, oracle
verification) consumes the primitives defined here: convex polytopes with
their volumes/diameters, pairwise intersection volumes, overlapping
triple/chain containers, the two kinds of cell cover (exact integer
measures of axis-aligned rectangles, or hull measures of convex cells), the
closed-form measures of the two-piece star domain, and the snowflake
triangle tree with per-level analytic metadata.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

VOLUME_TOL = 1e-12  # cut-off of degenerate cells and empty overlaps, relative to their scale
# |Q1 ∩ Q3| below this fraction of the smaller cell counts as disjoint
# (clipping noise allowance).
DISJOINT_REL_TOL = 1e-9
# maximum snowflake depth such that the level cell count 3*2^(j-1) still
# fits an int64 (serialization safety)
MAX_TREE_DEPTH = 62
# largest 3D star cross-section in m-gon vertices; the star's closed forms cost no memory
MAX_MGON = 1024
# nextafter steps that move each closed-form star measure outward: its roundings, each scaled
# by what later operations make of it (sin and cos taken at 1 ulp), sum to below 18 * 2^-53
STAR_OUTWARD_STEPS = 20

SQRT3 = math.sqrt(3.0)
# largest |coordinate| such that (2 * |coordinate|)**n stays finite
MAX_COORDINATE = {n: 0.5 * sys.float_info.max ** (1.0 / n) for n in (2, 3)}
# largest |coordinate| of a cell vertex: the squared diagonal of the cell's box,
# n * (2 * |coordinate|)**2, stays finite too (the star's measures square no diagonal)
MAX_CELL_COORDINATE = {2: 0.5 * math.sqrt(sys.float_info.max / 2.0), 3: MAX_COORDINATE[3]}


class GeometryError(ValueError):
    """Invalid geometric input (degenerate cell, dimension mismatch, ...)."""


def _first_line(exc: Exception) -> str:
    """Qhull errors carry a multi-line option dump; keep the diagnosis line."""
    lines = str(exc).strip().splitlines()
    return lines[0] if lines else type(exc).__name__


def polygon_area(poly: np.ndarray) -> float:
    """Area of a simple polygon given as an (m, 2) vertex loop. The shoelace is
    taken from the loop's box corner: its products cancel far from the origin."""
    x, y = (poly - poly.min(axis=0)).T
    # the shift np.roll(., -1), without its overhead on 4-8 vertex loops
    return float(0.5 * abs(np.dot(x, np.concatenate((y[1:], y[:1])))
                           - np.dot(y, np.concatenate((x[1:], x[:1])))))


def _hull_volume_3d(points: np.ndarray, hull: ConvexHull) -> float:
    """Volume of a 3D convex hull via tetrahedra fanned from the centroid."""
    centroid = points[hull.vertices].mean(axis=0)
    tet = points[hull.simplices] - centroid
    a = tet[:, 0]
    cr = np.cross(tet[:, 1], tet[:, 2])
    # matmul dot products and a left-to-right cumsum reproduce the per-facet
    # np.dot loop bit for bit; einsum or (a * cr).sum(1) round differently
    terms = np.abs((a[:, None, :] @ cr[:, :, None])[:, 0, 0]) / 6.0
    return float(np.cumsum(terms)[-1])


def _check_magnitude(magnitude: float, n: int) -> None:
    """Qhull's determinants and the shoelace take degree-n products of coordinates;
    past float range Qhull fails or crashes (segfault in 3D). The bound also keeps
    extent**n and the squared diagonal finite."""
    if magnitude > MAX_CELL_COORDINATE[n]:
        raise GeometryError(f"vertex coordinate {magnitude:g} too large: degree-{n} products overflow")


def _check_volume(volume: float, scale: float, n: int) -> None:
    """A cell volume must be a normal float above VOLUME_TOL times the cell's extent to the n."""
    if volume < sys.float_info.min:  # subnormal: its relative accuracy is lost
        raise GeometryError(f"cell volume {volume:g} is below the smallest normal float "
                            f"{sys.float_info.min:g}")
    if volume <= VOLUME_TOL * scale**n:
        raise GeometryError(f"degenerate cell: volume {volume:g} below tolerance")


class ConvexCell:
    """A bounded convex polytope in R^2 or R^3 given by its vertex list.

    Degenerate inputs (volume below tolerance) and vertex lists containing
    points strictly inside the hull are rejected at construction, so a
    constructed cell always satisfies cell_volume(cell) > 0 and has every
    vertex on its hull boundary.
    """

    __slots__ = ("vertices", "n", "_hull", "_volume", "_hull_vertices", "_box")

    def __init__(self, vertices) -> None:
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[0] == 0:
            raise GeometryError("vertex list must be a non-empty (m, n) array")
        n = verts.shape[1]
        if n not in (2, 3):
            raise GeometryError(f"dimension must be 2 or 3, got {n}")
        if not np.all(np.isfinite(verts)):
            raise GeometryError("vertices must be finite")
        _check_magnitude(float(np.abs(verts).max()), n)
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        # Qhull's flatness test scales with the coordinates: it sees the cell from its box corner
        local = verts - lo
        from scipy.spatial import ConvexHull, QhullError  # imported on use: it costs start-up
        try:
            hull = ConvexHull(local)
        except QhullError as exc:
            raise GeometryError(f"degenerate cell: {_first_line(exc)}") from None
        hull_vertices = verts[hull.vertices]
        volume = polygon_area(hull_vertices) if n == 2 else _hull_volume_3d(verts, hull)
        scale = float((hi - lo).max())
        _check_volume(volume, scale, n)
        # convexity audit: no input vertex may sit strictly inside the hull
        dist = local @ hull.equations[:, :-1].T + hull.equations[:, -1]
        if np.any(dist.max(axis=1) < -1e-9 * scale):
            raise GeometryError("vertex strictly inside the convex hull of the vertex set")
        self.vertices = verts
        self.n = n
        self._hull = hull
        self._volume = float(volume)
        hull_vertices.flags.writeable = False
        self._hull_vertices = hull_vertices
        self._box = (lo.tolist(), hi.tolist())

    def __repr__(self) -> str:  # pragma: no cover
        return f"ConvexCell(n={self.n}, vertices={len(self.vertices)}, volume={self._volume:.6g})"

    def _halfspaces_from(self, origin) -> np.ndarray:
        """Rows (a, b) with a.(x - origin) + b <= 0 inside; Qhull's are box-corner relative."""
        a, b = self._hull.equations[:, :-1], self._hull.equations[:, -1]
        return np.column_stack((a, b - a @ np.subtract(self._box[0], origin)))

    def hull_polygon(self) -> np.ndarray:
        """2D only: hull vertices in counterclockwise order."""
        if self.n != 2:
            raise GeometryError("hull_polygon is 2D only")
        return self._hull_vertices

    def _box_apart(self, other: "ConvexCell") -> bool:
        """Whether the bounding boxes are strictly apart on some axis, so the cells are disjoint."""
        return any(h1 < l2 or h2 < l1 for l1, h1, l2, h2 in zip(*self._box, *other._box))


def cell_volume(cell: ConvexCell) -> float:
    """Lebesgue measure of the cell (shoelace in 2D, hull tetrahedra in 3D)."""
    return cell._volume


def cell_diameter(cell: ConvexCell) -> float:
    """Diameter of the polytope; attained at a vertex pair. Blocks of 32 vertices
    meet the vertices from their own index on: each pair once, in O(m) memory."""
    verts, best = cell._hull_vertices, 0.0
    for start in range(0, len(verts), 32):
        block, rest = verts[start:start + 32], verts[start:].T
        # the axes added left to right, as a sum over the last axis adds them
        d2 = sum((block[:, k, None] - rest[k]) ** 2 for k in range(cell.n))
        best = max(best, float(d2.max()))
    return math.sqrt(best)


def clip_polygon(subject: np.ndarray, clipper: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a polygon by a convex polygon.

    Both inputs are (m, 2) counterclockwise vertex loops; returns the
    clipped loop (possibly empty).
    """
    output = subject.tolist()
    clip = clipper.tolist()
    x1, y1 = clip[-1]
    for x2, y2 in clip:
        if not output:
            break
        ex, ey = x2 - x1, y2 - y1
        inputs, output = output, []
        # one inside test per vertex: on or left of the edge (x1, y1) -> (x2, y2)
        inside = [ex * (y - y1) - ey * (x - x1) >= 0.0 for x, y in inputs]
        s, s_in = inputs[-1], inside[-1]
        for e, e_in in zip(inputs, inside):
            if e_in != s_in:  # the edge s -> e crosses the clip line
                dx, dy = e[0] - s[0], e[1] - s[1]
                denom = ex * dy - ey * dx
                if denom == 0.0:
                    output.append(e)
                else:
                    t = (ex * (y1 - s[1]) - ey * (x1 - s[0])) / denom
                    output.append((s[0] + t * dx, s[1] + t * dy))
            if e_in:
                output.append(e)
            s, s_in = e, e_in
        x1, y1 = x2, y2
    return np.array(output, dtype=float).reshape(-1, 2)


def _chebyshev_center(halfspaces: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Interior point of the polytope {a.x + b <= 0} maximizing facet clearance, and that clearance."""
    from scipy.optimize import linprog  # imported on use: it costs the CLI's start-up
    a = halfspaces[:, :-1]
    b = halfspaces[:, -1]
    norms = np.linalg.norm(a, axis=1)
    dim = a.shape[1]
    # maximize r subject to a.x + r*|a| <= -b
    c = np.zeros(dim + 1)
    c[-1] = -1.0
    a_ub = np.hstack([a, norms[:, None]])
    res = linprog(c, A_ub=a_ub, b_ub=-b, bounds=[(None, None)] * dim + [(0, None)], method="highs")
    if not res.success:
        return None
    return res.x[:-1], float(res.x[-1])


def intersection_volume(c1: ConvexCell, c2: ConvexCell) -> float:
    """Volume of the intersection of two convex cells of equal dimension.

    2D clips the hull polygons and takes the shoelace; 3D intersects the
    facet half-space lists and measures the resulting polytope. Both work
    relative to c1's box corner, so that the cells' offset costs no accuracy.
    Both round to nearest, so the result may lie on either side of the
    exact volume (RectCover measures rectangles exactly). A failed 3D
    construction raises GeometryError: overlaps serve as lower bounds
    (combination-rule denominators) and as upper bounds (WhitneyTriple's
    disjointness test), so no one-sided estimate can stand in.
    """
    if c1.n != c2.n:
        raise GeometryError(f"dimension mismatch: {c1.n} vs {c2.n}")
    if c1._box_apart(c2):
        return 0.0
    if c1.n == 2:
        corner = c1._box[0]
        clipped = clip_polygon(c1.hull_polygon() - corner, c2.hull_polygon() - corner)
        if len(clipped) < 3:
            return 0.0
        return polygon_area(clipped)
    halfspaces = np.vstack([c1._halfspaces_from(c1._box[0]), c2._halfspaces_from(c1._box[0])])
    center = _chebyshev_center(halfspaces)
    # an overlap thinner than VOLUME_TOL times the smaller cell's length scale is empty
    if center is None or center[1] <= VOLUME_TOL * min(map(cell_volume, (c1, c2))) ** (1.0 / 3.0):
        return 0.0
    from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError  # imported on use
    try:
        hs = HalfspaceIntersection(halfspaces, center[0])
        hull = ConvexHull(hs.intersections)
    except QhullError as exc:
        raise GeometryError(f"overlap polytope construction failed: {_first_line(exc)}") from None
    return _hull_volume_3d(hs.intersections, hull)


def _intersect_polygons(polys: list[np.ndarray]) -> np.ndarray:
    acc = polys[0]
    for poly in polys[1:]:
        if len(acc) < 3:
            break
        acc = clip_polygon(acc, poly)
    return acc


def union_volume_2d(polygons: list[np.ndarray]) -> float:
    """Area of a union of convex polygons via inclusion-exclusion.

    Subsets whose intersection is already empty prune all their supersets,
    which keeps the 2^k sweep cheap at desk scale.
    """
    polys = [np.asarray(p, dtype=float) for p in polygons if len(p) >= 3]
    k = len(polys)
    if k == 0:
        return 0.0
    empty: set[int] = set()
    total = 0.0
    for mask in range(1, 1 << k):
        if any(mask & e == e for e in empty):
            continue
        members = [polys[i] for i in range(k) if mask & (1 << i)]
        inter = _intersect_polygons(members)
        area = polygon_area(inter) if len(inter) >= 3 else 0.0
        if area <= 0.0:
            empty.add(mask)
            continue
        sign = 1.0 if bin(mask).count("1") % 2 == 1 else -1.0
        total += sign * area
    return max(total, 0.0)


# what the triple rule reads: the cell volumes |Q1|, |R2|, |Q3|, the unions |Q1 ∪ R2|,
# |Q3 ∪ R2| and the overlaps |Q1 ∩ R2|, |R2 ∩ Q3|; the rule has |Q1|, |Q3| and the
# unions in numerators, |R2| and the overlaps in denominators
TripleMeasures = namedtuple("TripleMeasures", "v1 v2 v3 u12 u32 o12 o23")


@dataclass(frozen=True)
class WhitneyTriple:
    """Three overlapping convex cells Q1, R2, Q3 with disjoint outer cells.

    Overlap volumes are Lebesgue measures of Q1 ∩ R2 and R2 ∩ Q3.
    """

    q1: ConvexCell
    r2: ConvexCell
    q3: ConvexCell
    v_q1r2: float
    v_r2q3: float

    def __post_init__(self) -> None:
        if self.v_q1r2 <= 0.0 or self.v_r2q3 <= 0.0:
            raise GeometryError("triple overlap volumes must be positive")
        v13 = intersection_volume(self.q1, self.q3)
        limit = DISJOINT_REL_TOL * min(cell_volume(self.q1), cell_volume(self.q3))
        if v13 >= limit:
            raise GeometryError(
                f"outer cells are not disjoint: |Q1 ∩ Q3| = {v13:g} exceeds {limit:g}"
            )

    @classmethod
    def from_cells(cls, q1: ConvexCell, r2: ConvexCell, q3: ConvexCell) -> "WhitneyTriple":
        return cls(q1, r2, q3, intersection_volume(q1, r2), intersection_volume(r2, q3))

    @property
    def cells(self) -> tuple[ConvexCell, ConvexCell, ConvexCell]:
        return (self.q1, self.r2, self.q3)

    def volume(self) -> float:
        """|Q1 ∪ R2 ∪ Q3|; outer cells are disjoint, so two overlap terms suffice."""
        m = self.measures()
        return m.v1 + m.v2 + m.v3 - m.o12 - m.o23

    def measures(self) -> TripleMeasures:
        """The triple rule's measures, the unions taken as |Q| + |R| - overlap."""
        v1, v2, v3 = map(cell_volume, self.cells)
        return TripleMeasures(v1, v2, v3, v1 + v2 - self.v_q1r2, v3 + v2 - self.v_r2q3,
                              self.v_q1r2, self.v_r2q3)


def triple_link_volume(t1: WhitneyTriple, t2: WhitneyTriple) -> float:
    """|A_j ∩ A_{j+1}| for two triples of 2D cells.

    The intersection of the two three-cell unions is a union of up to nine
    convex pieces (pairwise cell intersections), measured exactly by
    inclusion-exclusion. The pieces are clipped relative to the box corner
    of t1's first cell.
    """
    pieces, corner = [], t1.q1._box[0]
    for a in t1.cells:
        for b in t2.cells:
            if a.n != 2:
                raise GeometryError("triple link volumes are implemented for 2D cells")
            if a._box_apart(b):
                continue
            clipped = clip_polygon(a.hull_polygon() - corner, b.hull_polygon() - corner)
            if len(clipped) >= 3 and polygon_area(clipped) > VOLUME_TOL * min(map(cell_volume, (a, b))):
                pieces.append(clipped)
    return union_volume_2d(pieces)


@dataclass(frozen=True)
class WhitneyChain:
    """An ordered chain of Whitney triples A_1..A_J with positive links.

    link_volumes[j] = |A_{j+1} ∩ A_{j+2}| (0-based storage of the J-1
    consecutive overlaps); multiplicity is the maximum number of triples
    containing any single point. A triple is a WhitneyTriple or a RectCover's.
    """

    triples: tuple[WhitneyTriple, ...]
    link_volumes: tuple[float, ...]
    multiplicity: int

    def __post_init__(self) -> None:
        j = len(self.triples)
        if j == 0:
            raise GeometryError("chain must contain at least one triple")
        if len(self.link_volumes) != j - 1:
            raise GeometryError(f"expected {j - 1} link volumes, got {len(self.link_volumes)}")
        if any(v <= 0.0 for v in self.link_volumes):
            raise GeometryError("all link volumes must be positive")
        if not (1 <= self.multiplicity <= j):
            raise GeometryError(f"multiplicity must lie in [1, {j}]")

    @classmethod
    def from_triples(cls, triples: list, multiplicity: int, link=triple_link_volume) -> "WhitneyChain":
        links = tuple(link(triples[i], triples[i + 1]) for i in range(len(triples) - 1))
        return cls(tuple(triples), links, multiplicity)

    def volumes(self) -> list[float]:
        return [t.volume() for t in self.triples]


def _axis_aligned_rect(cell: ConvexCell) -> tuple[float, float, float, float] | None:
    """Bounding rectangle if the cell's hull is that rectangle to 1e-12 of its area."""
    if cell.n != 2 or len(cell.hull_polygon()) != 4:
        return None
    (x0, y0), (x1, y1) = cell._box
    box_area = (x1 - x0) * (y1 - y0)
    return None if abs(box_area - cell_volume(cell)) > 1e-12 * box_area else (x0, y0, x1, y1)


class CellCover:
    """A cover by convex cells, measured on their hulls and rounded to nearest: every
    cover that is no RectCover. rects holds each cell's rectangle, None where it is none."""

    link = staticmethod(triple_link_volume)

    def __init__(self, cells: list[ConvexCell]) -> None:
        self.cells, self.n = cells, cells[0].n

    @cached_property
    def rects(self) -> list[tuple[float, float, float, float] | None]:
        return [_axis_aligned_rect(cell) for cell in self.cells]

    def __len__(self) -> int:
        return len(self.cells)

    def volume(self, i: int) -> float:
        return cell_volume(self.cells[i])

    def diameter(self, i: int) -> float:
        return cell_diameter(self.cells[i])

    def overlap(self, i: int, j: int) -> float:
        return intersection_volume(self.cells[i], self.cells[j])

    def triple(self, idx) -> WhitneyTriple:
        return WhitneyTriple.from_cells(*(self.cells[i] for i in idx))


def _outward(num: int, scale: int, up: bool) -> float:
    """num / scale (integers, num >= 0) as the nearest float above it, or below it if not
    up: the division rounds to nearest, so one step at most moves it to that side."""
    value = num / scale
    low, den = value.as_integer_ratio()
    excess = low * scale - num * den  # the sign of value - num / scale
    return math.nextafter(value, math.inf if up else 0.0) if (excess < 0 if up else excess > 0) else value


def _meet(a: tuple, b: tuple) -> tuple | None:
    """The intersection of two boxes (x0, y0, x1, y1), or None if it has no area."""
    box = (max(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), min(a[3], b[3]))
    return box if box[0] < box[2] and box[1] < box[3] else None


def _area(box: tuple | None) -> int:
    return (box[2] - box[0]) * (box[3] - box[1]) if box else 0


class _RectTriple(namedtuple("_RectTriple", "idx rule union")):
    """A triple of RectCover cells, read as a WhitneyTriple is."""

    def measures(self) -> TripleMeasures:
        return self.rule

    def volume(self) -> float:
        return self.union


class RectCover:
    """A cover by exact axis-aligned rectangles (x0, y0, x1, y1), measured in integers.

    Every coordinate is an integer times 2^-k for one k, so areas, overlaps,
    unions and links are integers times 4^-k. Each measure is rounded to a
    float once, to the side its rule needs: volumes in numerators, unions,
    triple volumes and diameters up; overlaps, links and the triple rule's
    |R2| down.
    CellCover's refusals and tolerances stay, the triple's DISJOINT_REL_TOL
    and the link pieces' VOLUME_TOL evaluated on the exact values.
    """

    n = 2

    def __init__(self, rects: list[tuple[float, float, float, float]]) -> None:
        ratios = [c.as_integer_ratio() for rect in rects for c in rect]
        k = max(den for _, den in ratios).bit_length() - 1
        ints = [num << k - den.bit_length() + 1 for num, den in ratios]
        self.rects, self._scale = rects, 1 << 2 * k
        self._up, self._down = (partial(_outward, scale=self._scale, up=up) for up in (True, False))
        self._boxes = [tuple(ints[i:i + 4]) for i in range(0, len(ints), 4)]
        self._areas = list(map(_area, self._boxes))
        for (x0, y0, x1, y1), area in zip(rects, self._areas):
            _check_magnitude(max(abs(x0), abs(y0), abs(x1), abs(y1)), 2)
            _check_volume(area / self._scale, max(x1 - x0, y1 - y0), 2)

    @classmethod
    def detect(cls, vertex_lists: list[np.ndarray]) -> "RectCover | None":
        """The cover if each vertex list is the four corners of an axis-aligned
        rectangle, each once and in any order; None otherwise."""
        rects = []
        for verts in vertex_lists:
            corners = verts.tolist() if verts.shape == (4, 2) else []
            xs, ys = sorted({x for x, _ in corners}), sorted({y for _, y in corners})
            if len(xs) != 2 or len(ys) != 2 or len(set(map(tuple, corners))) != 4:
                return None
            rects.append((xs[0], ys[0], xs[1], ys[1]))
        return cls(rects)

    def __len__(self) -> int:
        return len(self.rects)

    def volume(self, i: int) -> float:
        return self._up(self._areas[i])

    def diameter(self, i: int) -> float:
        """The diagonal: the root of the float nearest its exact square lies on one of the
        two floats around it, so one step up at most moves it above."""
        x0, y0, x1, y1 = self._boxes[i]
        square = (x1 - x0) ** 2 + (y1 - y0) ** 2
        value = math.sqrt(square / self._scale)
        num, den = value.as_integer_ratio()
        return math.nextafter(value, math.inf) if num * num * self._scale < square * den * den else value

    def overlap(self, i: int, j: int) -> float:
        return self._down(_area(_meet(self._boxes[i], self._boxes[j])))

    def triple(self, idx) -> _RectTriple:
        """The triple of cells idx = (q1, r2, q3), refused where a WhitneyTriple is."""
        (a1, a2, a3), (b1, b2, b3) = ([seq[i] for i in idx] for seq in (self._areas, self._boxes))
        o12, o23, o13 = (_area(_meet(*pair)) for pair in ((b1, b2), (b2, b3), (b1, b3)))
        if not (o12 and o23):
            raise GeometryError("triple overlap volumes must be positive")
        num, den = DISJOINT_REL_TOL.as_integer_ratio()
        if o13 * den >= num * min(a1, a3):
            raise GeometryError(f"outer cells are not disjoint: |Q1 ∩ Q3| = {o13 / self._scale:g} "
                                f"exceeds {DISJOINT_REL_TOL * (min(a1, a3) / self._scale):g}")
        up, down = self._up, self._down
        rule = TripleMeasures(up(a1), down(a2), up(a3), up(a1 + a2 - o12), up(a3 + a2 - o23),
                              down(o12), down(o23))
        return _RectTriple(tuple(idx), rule, up(a1 + a2 + a3 - o12 - o23))

    def link(self, t1: _RectTriple, t2: _RectTriple) -> float:
        """|A_1 ∩ A_2| rounded down: the pairwise cell intersections less the pieces that
        triple_link_volume drops, united by inclusion-exclusion that grows a subset only
        from a non-empty intersection."""
        num, den = VOLUME_TOL.as_integer_ratio()
        pieces = [box for i in t1.idx for j in t2.idx if (box := _meet(self._boxes[i], self._boxes[j]))
                  and _area(box) * den > num * min(self._areas[i], self._areas[j])]
        total, stack = 0, [(i, box, 1) for i, box in enumerate(pieces)]
        while stack:
            i, box, sign = stack.pop()
            total += sign * _area(box)
            stack += [(j, meet, -sign) for j in range(i + 1, len(pieces)) if (meet := _meet(box, pieces[j]))]
        return self._down(total)


@dataclass(frozen=True)
class StarDomainSpec:
    """Parameters of the two-piece star-shaped domain.

    The half-height alpha is always recomputed from delta, never stored.
    """

    delta: float
    n: int = 2
    mgon: int = 64  # cross-section resolution of the 3D polytopal model

    def __post_init__(self) -> None:
        if self.delta <= 0.0:
            raise GeometryError("delta must be positive")
        if self.n not in (2, 3):
            raise GeometryError("star domain dimension must be 2 or 3")
        if self.n == 3 and not 8 <= self.mgon <= MAX_MGON:
            raise GeometryError(f"3D cross-section needs between 8 and {MAX_MGON} vertices, "
                                f"got {self.mgon}")

    @property
    def alpha(self) -> float:
        return self.delta * (SQRT3 - 1.0) / 2.0


def star_discretization_error(mgon: int) -> float:
    """Relative volume deficit of the inscribed regular m-gon cross-section.

    The polytopal 3D star pieces underestimate the exact solid of
    revolution by at most this factor; O(1/M^2).
    """
    return 2.0 * math.pi**2 / (3.0 * mgon**2)


def build_star_domain(spec: StarDomainSpec) -> tuple[float, float, float]:
    """The closed-form measures the pair rule reads, rounded outward: (volume
    of each piece, volume of their overlap, diameter of a piece).

    Piece 1 occupies max(|x'| - delta, -alpha) < x_n < alpha: cross-sections
    omega r^(n-1) of radius r = delta + x_n, with omega = 2 in 2D and in 3D
    the area of the regular m-gon of circumradius 1, inscribed in the solid
    of revolution. Piece 2 is its mirror image in x_n; their overlap has
    radius delta - |x_n|.
    """
    d, a, n, m = spec.delta, spec.alpha, spec.n, spec.mgon
    if d + a > MAX_COORDINATE[n]:
        raise GeometryError(f"star delta {d:g} too large: degree-{n} products overflow")
    f, e = d + a, d - a  # top and bottom radius of piece 1
    omega = 2.0 if n == 2 else 0.5 * m * math.sin(2.0 * math.pi / m)
    # omega times the integral of r^(n-1), over the piece from r = e to f and over the overlap
    # twice from e to d: (x^n - y^n) / n = (x - y)(x + y) / 2 or (x - y)(x^2 + xy + y^2) / 3
    quotients = (f + e, d + e) if n == 2 else (f * f + f * e + e * e, d * d + d * e + e * e)
    volume, overlap = (2.0 * omega * a * q / n for q in quotients)
    diameter = 2.0 * f  # the top rim, across the axis
    if n == 3 and m % 2:  # odd m: a narrower top chord, or a top vertex to a bottom one
        diameter = max(diameter * math.cos(math.pi / (2 * m)),
                       math.sqrt(f * f + e * e + 2.0 * f * e * math.cos(math.pi / m) + 4.0 * a * a))
    for _ in range(STAR_OUTWARD_STEPS):
        volume, overlap = math.nextafter(volume, math.inf), math.nextafter(overlap, 0.0)
        diameter = math.nextafter(diameter, math.inf)
    if overlap < sys.float_info.min:  # subnormal (the volume is larger): its accuracy is lost
        raise GeometryError(f"star overlap {overlap:g} is below the smallest normal float "
                            f"{sys.float_info.min:g}")
    return volume, overlap, diameter


@dataclass(frozen=True)
class FractalTreeSpec:
    """Snowflake-style triangle tree: one root, 3 children, then 2 per cell.

    overlap_fraction fixes |Δ_{j-1} ∩ Δ_j*| = overlap_fraction * |Δ_j|
    for the extended cells Δ_j* poking into their parents.
    """

    a: float
    depth: int
    overlap_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.a <= 0.0:
            raise GeometryError("root side length must be positive")
        if self.depth < 0:
            raise GeometryError("depth must be >= 0")
        if self.depth > MAX_TREE_DEPTH:
            raise GeometryError(
                f"depth {self.depth} overflows the level cell count (max {MAX_TREE_DEPTH})"
            )
        if not 0.0 < self.overlap_fraction < 1.0:
            raise GeometryError("overlap_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class TreeLevel:
    """Analytic per-level metadata for the snowflake tree."""

    level: int
    count: int
    side: float
    area: float
    star_side: float  # side of the extended cell Δ*
    star_area: float
    parent_overlap: float  # |Δ_{j-1} ∩ Δ_j*|, zero for the root


@dataclass(frozen=True)
class FractalTree:
    spec: FractalTreeSpec
    levels: tuple[TreeLevel, ...]
    multiplicity: int

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def snowflake_level_count(level: int) -> int:
    """Number of cells at a given level: 1 at the root, then 3 * 2^(j-1)."""
    return 1 if level == 0 else 3 * 2 ** (level - 1)


def snowflake_level(spec: FractalTreeSpec, j: int) -> TreeLevel:
    """Closed-form metadata of level j; defined for every j >= 0, stored or not."""
    side = spec.a / 3.0**j
    area = SQRT3 * spec.a**2 / (4.0 * 3.0 ** (2 * j))
    if j == 0:
        return TreeLevel(0, 1, side, area, side, area, 0.0)
    c = spec.overlap_fraction
    # the extended cell Δ* scales the side by sqrt(1 + c), the area by 1 + c
    return TreeLevel(
        j,
        snowflake_level_count(j),
        side,
        area,
        math.sqrt(1.0 + c) * side,
        (1.0 + c) * area,
        c * area,
    )


def build_snowflake_tree(spec: FractalTreeSpec) -> FractalTree:
    """Level-indexed snowflake tree with analytic counts, sides, and areas.

    Counts and measures are stored in closed form for every level up to
    the stored depth spec.depth; no cell polygons are built.
    """
    return FractalTree(
        spec=spec,
        levels=tuple(snowflake_level(spec, j) for j in range(spec.depth + 1)),
        multiplicity=1 if spec.depth == 0 else 2,
    )
