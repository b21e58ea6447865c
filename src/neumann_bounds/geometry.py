"""Convex cells, overlap bookkeeping, and the two concrete domain families.

Everything downstream (constant aggregation, eigenvalue transfer, oracle
verification) consumes the primitives defined here: convex polytopes with
their volumes/diameters, pairwise intersection volumes, the two kinds of
cell cover (axis-aligned rectangles, or convex cells) with their Whitney
triples and triple links, the closed-form measures of the two-piece star
domain, and the snowflake triangle tree with per-level analytic metadata.
Both kinds of cover take volumes, overlaps, triples and links from one
layer, each kind supplying only its exact kernel. Every 2D measure,
diameters included, is exact: coordinates are integers times 2^-k, hulls,
areas and clips are taken in integers, and each measure is rounded once to
the side its rule needs. 3D cells are measured on Qhull hulls.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np

VOLUME_TOL = 1e-12  # cut-off of degenerate cells and empty overlaps, relative to their scale
# |Q1 ∩ Q3| below this fraction of the smaller cell counts as disjoint
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


def _integers(values) -> tuple[list[int], int]:
    """Floats as integers times 2^-k, for the least k that serves them all."""
    ratios = [v.as_integer_ratio() for v in values]
    k = max(den for _, den in ratios).bit_length() - 1
    return [num << k - den.bit_length() + 1 for num, den in ratios], k


def _cross(o: tuple, a: tuple, b: tuple) -> int:
    """Twice the signed area of the triangle o, a, b: positive if b lies left of o -> a."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(points: list[tuple[int, int]]) -> list[int]:
    """Andrew's monotone chain: the indices of the hull's corners, counterclockwise, none on an edge."""
    order, hull = sorted(range(len(points)), key=points.__getitem__), []
    for chain in (order, order[::-1]):  # the lower hull, then the upper
        start = len(hull)
        for i in chain:
            while len(hull) >= start + 2 and _cross(points[hull[-2]], points[hull[-1]], points[i]) <= 0:
                hull.pop()
            hull.append(i)
        hull.pop()  # the chain's last point starts the other chain
    return hull


def _shoelace(points: list[tuple[int, int]]) -> int:
    """Twice the signed area of an integer vertex loop."""
    return sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]))


def _loop_area(poly: list[tuple[int, int, int]]):
    """The area of a counterclockwise loop of homogeneous integer vertices (X, Y, W), W > 0,
    as a Fraction: the shoelace on their common denominator. An empty loop has none."""
    from fractions import Fraction  # imported on use: it costs start-up
    den = math.lcm(*(w for _, _, w in poly))
    return Fraction(_shoelace([(x * (den // w), y * (den // w)) for x, y, w in poly]), 2 * den * den)


def _clip(poly: list[tuple[int, int, int]], cells) -> list[tuple[int, int, int]]:
    """A convex homogeneous loop with area clipped to each 2D cell's edge lines: a loop with
    area, or [] if none is left. A line keeps side(P) = A X + B Y + C W >= 0; the crossing of
    an edge S -> E is side(S) E - side(E) S, signed so that W > 0 and reduced by its gcd.
    A line that cuts the loop leaves a corner strictly inside and a chord of it."""
    for a, b, c in (line for cell in cells for line in cell._lines):
        sides = [a * x + b * y + c * w for x, y, w in poly]
        if min(sides) >= 0:
            continue
        if max(sides) <= 0:
            return []
        out, s, s_side = [], poly[-1], sides[-1]
        for e, e_side in zip(poly, sides):
            if s_side * e_side < 0:
                cut = [abs(s_side) * ec + abs(e_side) * sc for ec, sc in zip(e, s)]
                g = math.gcd(*cut)
                out.append((cut[0] // g, cut[1] // g, cut[2] // g))
            if e_side >= 0:
                out.append(e)
            s, s_side = e, e_side
        poly = out
    return poly


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
    """Qhull's determinants take degree-n products of coordinates; past float range
    Qhull fails or crashes (segfault in 3D). The bound also keeps extent**n, the
    float measures and the squared diagonal finite."""
    if magnitude > MAX_CELL_COORDINATE[n]:
        raise GeometryError(f"vertex coordinate {magnitude:g} too large: degree-{n} products overflow")


def _check_volume(volume: float, scale: float, n: int) -> None:
    """A cell volume must be above VOLUME_TOL times the cell's extent to the n, and a normal float."""
    if volume <= VOLUME_TOL * scale**n:
        raise GeometryError(f"degenerate cell: volume {volume:g} below tolerance")
    if volume < sys.float_info.min:  # subnormal: its relative accuracy is lost
        raise GeometryError(f"cell volume {volume:g} is below the smallest normal float "
                            f"{sys.float_info.min:g}")


class ConvexCell:
    """A bounded convex polytope in R^2 or R^3 given by its vertex list.

    Degenerate inputs (volume below tolerance) and vertex lists containing
    points strictly inside the hull are rejected at construction, so a
    constructed cell always satisfies cell_volume(cell) > 0 and has every
    vertex on its hull boundary. A 2D cell's hull and area are exact, in
    integers; a 3D cell is measured on its Qhull hull, rounded to nearest.
    """

    __slots__ = ("vertices", "n", "_hull", "_points", "_loop", "_lines", "_exact", "_volume",
                 "_hull_vertices", "_box")

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
        scale = float((hi - lo).max())
        if n == 2:
            ints, k = _integers(verts.ravel().tolist())
            self._points = points = list(zip(ints[::2], ints[1::2]))
            corners, w = _hull_2d(points), 1 << k
            self._loop = [(*points[i], w) for i in corners]  # homogeneous (X, Y, W)
            self._exact = (_shoelace([points[i] for i in corners]), 2 << 2 * k)
            # each edge a -> b as the line A X + B Y + C W = det(a, b, (X, Y, W)), >= 0 inside
            self._lines = [(w * (a[1] - b[1]), w * (b[0] - a[0]), a[0] * b[1] - a[1] * b[0])
                           for a, b in zip(self._loop[-1:] + self._loop[:-1], self._loop)]
            # convexity audit: no input vertex may lie more than 1e-9 of the cell's extent inside
            # every edge line, at distance side / |(A, B)|, compared squared in integers
            extent = max(max(ints[d::2]) - min(ints[d::2]) for d in (0, 1))
            inner = any(all((side := a * x + b * y + c * w) > 0
                            and (side * 10**9) ** 2 > extent**2 * (a * a + b * b) for a, b, c in self._lines)
                        for x, y in map(points.__getitem__, set(range(len(points))) - set(corners)))
        else:
            # Qhull's flatness test scales with the coordinates: it sees the cell from its box corner
            local = verts - lo
            from scipy.spatial import ConvexHull, QhullError  # imported on use: it costs start-up
            try:
                self._hull = ConvexHull(local)
            except QhullError as exc:
                raise GeometryError(f"degenerate cell: {_first_line(exc)}") from None
            corners = self._hull.vertices
            self._exact = _hull_volume_3d(verts, self._hull).as_integer_ratio()
            # convexity audit: no input vertex may sit strictly inside the hull
            dist = local @ self._hull.equations[:, :-1].T + self._hull.equations[:, -1]
            inner = np.any(dist.max(axis=1) < -1e-9 * scale)
        self._volume = _outward(*self._exact, True)
        _check_volume(self._volume, scale, n)
        if inner:
            raise GeometryError("vertex strictly inside the convex hull of the vertex set")
        self.vertices = verts
        self.n = n
        self._hull_vertices = verts[corners]
        self._hull_vertices.flags.writeable = False
        self._box = (lo.tolist(), hi.tolist())

    def __repr__(self) -> str:  # pragma: no cover
        return f"ConvexCell(n={self.n}, vertices={len(self.vertices)}, volume={self._volume:.6g})"

    def _halfspaces_from(self, origin) -> np.ndarray:
        """3D only: rows (a, b) with a.(x - origin) + b <= 0 inside; Qhull's are box-corner relative."""
        a, b = self._hull.equations[:, :-1], self._hull.equations[:, -1]
        return np.column_stack((a, b - a @ np.subtract(self._box[0], origin)))

    def _box_apart(self, other: "ConvexCell") -> bool:
        """Whether the bounding boxes are strictly apart on some axis, so the cells are disjoint."""
        return any(h1 < l2 or h2 < l1 for l1, h1, l2, h2 in zip(*self._box, *other._box))


def cell_volume(cell: ConvexCell) -> float:
    """Lebesgue measure of the cell (the integer shoelace rounded up in 2D, hull tetrahedra in 3D)."""
    return cell._volume


def cell_diameter(cell: ConvexCell) -> float:
    """Diameter of the polytope; attained at a vertex pair. Blocks of 32 vertices
    meet the vertices from their own index on: each pair once, in O(m) memory.
    A 2D diameter is exact, rounded up: the pairs whose float square lies within
    1e-12 of the largest are compared in integers. A 3D one is the float kernel's."""
    verts, best, pairs = cell._hull_vertices, 0.0, []
    for start in range(0, len(verts), 32):
        block, rest = verts[start:start + 32], verts[start:].T
        # the axes added left to right, as a sum over the last axis adds them
        d2 = sum((block[:, k, None] - rest[k]) ** 2 for k in range(cell.n))
        best = max(best, float(d2.max()))
        if cell.n == 2:
            pairs += (np.argwhere(d2 >= best * (1.0 - 1e-12)) + start).tolist()
    if cell.n == 3:
        return math.sqrt(best)
    loop = cell._loop
    square = max((loop[i][0] - loop[j][0]) ** 2 + (loop[i][1] - loop[j][1]) ** 2 for i, j in pairs)
    return _root_up(square, loop[0][2] ** 2)


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


def _exact_overlap(c1: ConvexCell, c2: ConvexCell):
    """|c1 ∩ c2|: exact in 2D (a Fraction), the float of the 3D half-space intersection, 0
    if the boxes are apart. A failed 3D construction raises GeometryError: overlaps serve
    as lower bounds and as upper bounds (the triple's disjointness test), so no one-sided
    estimate can stand in."""
    if c1.n != c2.n:
        raise GeometryError(f"dimension mismatch: {c1.n} vs {c2.n}")
    if c1._box_apart(c2):
        return 0
    if c1.n == 2:
        return _loop_area(_clip(c1._loop, (c2,)))
    halfspaces = np.vstack([c1._halfspaces_from(c1._box[0]), c2._halfspaces_from(c1._box[0])])
    center = _chebyshev_center(halfspaces)
    # an overlap thinner than VOLUME_TOL times the smaller cell's length scale is empty
    if center is None or center[1] <= VOLUME_TOL * min(map(cell_volume, (c1, c2))) ** (1.0 / 3.0):
        return 0
    from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError  # imported on use
    try:
        hs = HalfspaceIntersection(halfspaces, center[0])
        hull = ConvexHull(hs.intersections)
    except QhullError as exc:
        raise GeometryError(f"overlap polytope construction failed: {_first_line(exc)}") from None
    return _hull_volume_3d(hs.intersections, hull)


def intersection_volume(c1: ConvexCell, c2: ConvexCell) -> float:
    """Volume of the intersection of two convex cells of equal dimension, rounded down:
    exact in 2D, so it lies within 1 ulp below the true overlap; to nearest in 3D."""
    return _outward(_exact_overlap(c1, c2), 1, False)


def _outward(value, scale: int, up: bool) -> float:
    """value / scale (value >= 0: an int, Fraction or float) as the nearest float above it, or
    below it if not up: the division rounds to nearest, so one step at most moves it there."""
    num, den = value.as_integer_ratio()
    scale *= den
    nearest = num / scale
    low, den = nearest.as_integer_ratio()
    excess = low * scale - num * den  # the sign of nearest - num / scale
    return math.nextafter(nearest, math.inf if up else 0.0) if (excess < 0 if up else excess > 0) else nearest


def _root_up(square: int, scale: int) -> float:
    """The root of square / scale (integers) rounded up: the root of the float nearest the square
    lies on one of the two floats around the exact root, so one step up at most moves it above."""
    value = math.sqrt(square / scale)
    num, den = value.as_integer_ratio()
    return math.nextafter(value, math.inf) if num * num * scale < square * den * den else value


def _union(shapes: list, cutters: list, meet, measure):
    """|∪ shapes| by inclusion-exclusion that grows a subset only from a non-empty
    intersection: meet(shape, cutters[j]) is shape ∩ shapes[j], falsy where it has no area."""
    total, stack = 0, [(i, shape, 1) for i, shape in enumerate(shapes)]
    while stack:
        i, shape, sign = stack.pop()
        total += sign * measure(shape)
        stack += [(j, m, -sign) for j in range(i + 1, len(shapes)) if (m := meet(shape, cutters[j]))]
    return total


# what the triple rule reads: the cell volumes |Q1|, |R2|, |Q3|, the unions |Q1 ∪ R2|,
# |Q3 ∪ R2| and the overlaps |Q1 ∩ R2|, |R2 ∩ Q3|; the rule has |Q1|, |Q3| and the
# unions in numerators, |R2| and the overlaps in denominators
TripleMeasures = namedtuple("TripleMeasures", "v1 v2 v3 u12 u32 o12 o23")


class WhitneyTriple(namedtuple("WhitneyTriple", "cover idx rule union")):
    """Three cells Q1, R2, Q3 of a cover, at indices idx, with disjoint outer cells: the
    triple rule's measures and the triple volume, as the cover's triple rounds them."""

    @classmethod
    def from_cells(cls, q1: ConvexCell, r2: ConvexCell, q3: ConvexCell) -> "WhitneyTriple":
        return CellCover([q1, r2, q3]).triple((0, 1, 2))

    @property
    def cells(self) -> tuple:
        return tuple(self.cover.cells[i] for i in self.idx)

    def volume(self) -> float:
        """|Q1 ∪ R2 ∪ Q3| rounded up; outer cells are disjoint, so two overlap terms suffice."""
        return self.union

    def measures(self) -> TripleMeasures:
        """The triple rule's measures, the unions taken as |Q| + |R| - overlap."""
        return self.rule


def triple_link_volume(t1: WhitneyTriple, t2: WhitneyTriple) -> float:
    """|A_j ∩ A_{j+1}| for two triples of 2D cells, rounded down: a link in their six cells' cover."""
    cover = CellCover(t1.cells + t2.cells)
    return cover.link(t1._replace(cover=cover, idx=(0, 1, 2)), t2._replace(cover=cover, idx=(3, 4, 5)))


class _Cover:
    """The measures of both kinds of cover, each exact and rounded once to its rule's side:
    volumes, unions, triple volumes and diameters up; overlaps, links and the triple rule's |R2|
    down. A kind's kernel gives its cells as _cells, their exact areas _areas and overlaps
    _overlap(i, j) over one _scale, and for links the shape _piece(i, j) of cell i ∩ cell j,
    the meet _cut(shape, cells) with original cells (falsy without area) and a shape's _measure."""

    def volume(self, i: int) -> float:
        return _outward(self._areas[i], self._scale, True)

    def overlap(self, i: int, j: int) -> float:
        return _outward(self._overlap(i, j), self._scale, False)

    def triple(self, idx) -> WhitneyTriple:
        """The triple of cells idx = (q1, r2, q3) with the triple volume |Q1| + |R2| + |Q3| -
        overlaps. Refused unless both overlaps have area and |Q1 ∩ Q3| stays below
        DISJOINT_REL_TOL of the smaller outer cell."""
        i1, i2, i3 = idx
        a1, a2, a3 = (self._areas[i] for i in idx)
        o12, o23, o13 = self._overlap(i1, i2), self._overlap(i2, i3), self._overlap(i1, i3)
        if not (o12 > 0 and o23 > 0):
            raise GeometryError("triple overlap volumes must be positive")
        num, den = DISJOINT_REL_TOL.as_integer_ratio()
        if o13 * den >= num * min(a1, a3):
            raise GeometryError(f"outer cells are not disjoint: |Q1 ∩ Q3| = {float(o13 / self._scale):g} "
                                f"exceeds {DISJOINT_REL_TOL * (min(a1, a3) / self._scale):g}")
        up, down = (partial(_outward, scale=self._scale, up=side) for side in (True, False))
        rule = TripleMeasures(up(a1), down(a2), up(a3), up(a1 + a2 - o12), up(a3 + a2 - o23),
                              down(o12), down(o23))
        if min(rule.o12, rule.o23) < sys.float_info.min:  # subnormal or zero: its accuracy is lost
            raise GeometryError(f"triple overlap {min(rule.o12, rule.o23):g} is below the smallest "
                                f"normal float {sys.float_info.min:g}")
        return WhitneyTriple(self, tuple(idx), rule, up(a1 + a2 + a3 - o12 - o23))

    def link(self, t1: WhitneyTriple, t2: WhitneyTriple) -> float:
        """|A_1 ∩ A_2| for two triples of this cover, rounded down: the union of the nine pairwise
        cell intersections, less those below VOLUME_TOL of their smaller cell. Each is cut from
        one cell by another, and each intersection of them by their original cells."""
        num, den = VOLUME_TOL.as_integer_ratio()
        pieces, cutters = [], []
        for i in t1.idx:
            for j in t2.idx:
                piece = self._piece(i, j)
                if piece and self._measure(piece) * den > num * min(self._areas[i], self._areas[j]):
                    pieces.append(piece)
                    cutters.append((self._cells[i], self._cells[j]))
        return _outward(_union(pieces, cutters, self._cut, self._measure), self._scale, False)


class CellCover(_Cover):
    """A cover by convex cells: every cover that is no RectCover. 2D areas and overlaps are exact
    Fractions and links clip integer loops; 3D Qhull floats are read as exact, links refused."""

    _scale = 1
    _cut = staticmethod(_clip)
    _measure = staticmethod(_loop_area)

    def __init__(self, cells: list[ConvexCell]) -> None:
        from fractions import Fraction  # imported on use: it costs start-up
        self.cells = self._cells = cells
        self.n = max(cell.n for cell in cells)  # one 3D cell refuses the cover's links
        self._areas = [Fraction(*cell._exact) for cell in cells]

    def overlap(self, i: int, j: int) -> float:  # the base's value, by the public cell overlap
        return intersection_volume(self.cells[i], self.cells[j])

    def diameter(self, i: int) -> float:
        return cell_diameter(self.cells[i])

    def _overlap(self, i: int, j: int):
        from fractions import Fraction  # imported on use: it costs start-up
        return Fraction(_exact_overlap(self.cells[i], self.cells[j]))

    def _piece(self, i: int, j: int) -> list:
        if self.n != 2:
            raise GeometryError("triple link volumes are implemented for 2D cells")
        a, b = self.cells[i], self.cells[j]
        return [] if a._box_apart(b) else _clip(a._loop, (b,))


class RectCover(_Cover):
    """A cover by exact axis-aligned rectangles (x0, y0, x1, y1), measured in integers.

    Every coordinate is an integer times 2^-k for one k, so each cell is an integer box and
    areas, overlaps, unions and links are integers over the scale 4^k. A ConvexCell's
    refusals and tolerances stay, evaluated on the exact values.
    """

    def __init__(self, rects: list[tuple[float, float, float, float]]) -> None:
        ints, k = _integers([c for rect in rects for c in rect])
        self.cells, self._scale = rects, 1 << 2 * k
        self._cells = [tuple(ints[i:i + 4]) for i in range(0, len(ints), 4)]
        self._areas = list(map(self._measure, self._cells))
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

    def diameter(self, i: int) -> float:
        x0, y0, x1, y1 = self._cells[i]
        return _root_up((x1 - x0) ** 2 + (y1 - y0) ** 2, self._scale)

    def _overlap(self, i: int, j: int) -> int:
        return self._measure(self._piece(i, j))

    def _piece(self, i: int, j: int) -> tuple | None:
        return self._cut(self._cells[i], (self._cells[j],))

    @staticmethod
    def _cut(box: tuple, boxes) -> tuple | None:
        """The intersection of a box (x0, y0, x1, y1) with boxes, or None if it has no area."""
        x0, y0, x1, y1 = box
        for b0, b1, b2, b3 in boxes:  # conditionals, not max and min: the calls cost 3x more
            x0, y0 = (b0 if b0 > x0 else x0), (b1 if b1 > y0 else y0)
            x1, y1 = (b2 if b2 < x1 else x1), (b3 if b3 < y1 else y1)
        return (x0, y0, x1, y1) if x0 < x1 and y0 < y1 else None

    @staticmethod
    def _measure(box: tuple | None) -> int:
        return (box[2] - box[0]) * (box[3] - box[1]) if box else 0


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
