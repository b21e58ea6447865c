"""Convex cells, overlap bookkeeping, and the two concrete domain families.

Everything downstream (constant aggregation, eigenvalue transfer, oracle
verification) consumes the primitives defined here: convex polytopes with
exact volumes/diameters, pairwise intersection volumes, overlapping
triple/chain containers, the two-piece star-shaped domain, and the
snowflake triangle tree with per-level analytic metadata.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

VOLUME_TOL = 1e-12  # cut-off of degenerate cells and empty overlaps, relative to their scale
# |Q1 ∩ Q3| below this fraction of the smaller cell counts as disjoint
# (clipping noise allowance).
DISJOINT_REL_TOL = 1e-9
# maximum snowflake depth such that the level cell count 3*2^(j-1) still
# fits an int64 (serialization safety)
MAX_TREE_DEPTH = 62
# largest 3D star cross-section; a 3D bound-star peaks near 0.2 GB of RSS at 1024
MAX_MGON = 1024

SQRT3 = math.sqrt(3.0)
# largest |coordinate| such that (2 * |coordinate|)**n stays finite
MAX_COORDINATE = {n: 0.5 * sys.float_info.max ** (1.0 / n) for n in (2, 3)}


class GeometryError(ValueError):
    """Invalid geometric input (degenerate cell, dimension mismatch, ...)."""


def _first_line(exc: Exception) -> str:
    """Qhull errors carry a multi-line option dump; keep the diagnosis line."""
    lines = str(exc).strip().splitlines()
    return lines[0] if lines else type(exc).__name__


def polygon_area(poly: np.ndarray) -> float:
    """Area of a simple polygon given as an (m, 2) vertex loop."""
    x, y = poly[:, 0], poly[:, 1]
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
        # Qhull's determinants and the shoelace take degree-n products of
        # coordinates; past float range Qhull fails or crashes (segfault in
        # 3D). The bound also keeps extent**n finite.
        magnitude = float(np.abs(verts).max())
        if magnitude > MAX_COORDINATE[n]:
            raise GeometryError(
                f"vertex coordinate {magnitude:g} too large: degree-{n} products overflow"
            )
        try:
            hull = ConvexHull(verts)
        except QhullError as exc:
            raise GeometryError(f"degenerate cell: {_first_line(exc)}") from None
        hull_vertices = verts[hull.vertices]
        volume = polygon_area(hull_vertices) if n == 2 else _hull_volume_3d(verts, hull)
        if volume < sys.float_info.min:  # subnormal: its relative accuracy is lost
            raise GeometryError(f"cell volume {volume:g} is below the smallest normal float "
                                f"{sys.float_info.min:g}")
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        scale = float((hi - lo).max())
        if volume <= VOLUME_TOL * scale**n:
            raise GeometryError(f"degenerate cell: volume {volume:g} below tolerance")
        # convexity audit: no input vertex may sit strictly inside the hull
        dist = verts @ hull.equations[:, :-1].T + hull.equations[:, -1]
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

    @property
    def halfspaces(self) -> np.ndarray:
        """Facet inequalities as rows (a, b) with a.x + b <= 0 inside."""
        return self._hull.equations

    def hull_polygon(self) -> np.ndarray:
        """2D only: hull vertices in counterclockwise order."""
        if self.n != 2:
            raise GeometryError("hull_polygon is 2D only")
        return self._hull_vertices

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self._box[0]), np.array(self._box[1])

    def _box_apart(self, other: "ConvexCell") -> bool:
        """Whether the bounding boxes are strictly apart on some axis, so the cells are disjoint."""
        return any(h1 < l2 or h2 < l1 for l1, h1, l2, h2 in zip(*self._box, *other._box))

    def scaled(self, factor: float) -> "ConvexCell":
        return ConvexCell(self.vertices * factor)


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

    2D uses exact polygon clipping; 3D intersects the facet half-space
    lists and measures the resulting polytope. A failed 3D construction
    raises GeometryError: overlaps serve as lower bounds (combination-rule
    denominators) and as upper bounds (WhitneyTriple's disjointness test),
    so no one-sided estimate can stand in.
    """
    if c1.n != c2.n:
        raise GeometryError(f"dimension mismatch: {c1.n} vs {c2.n}")
    if c1._box_apart(c2):
        return 0.0
    if c1.n == 2:
        clipped = clip_polygon(c1.hull_polygon(), c2.hull_polygon())
        if len(clipped) < 3:
            return 0.0
        return polygon_area(clipped)
    halfspaces = np.vstack([c1.halfspaces, c2.halfspaces])
    center = _chebyshev_center(halfspaces)
    # an overlap thinner than VOLUME_TOL times the smaller cell's length scale is empty
    if center is None or center[1] <= VOLUME_TOL * min(map(cell_volume, (c1, c2))) ** (1.0 / 3.0):
        return 0.0
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
        return (
            cell_volume(self.q1)
            + cell_volume(self.r2)
            + cell_volume(self.q3)
            - self.v_q1r2
            - self.v_r2q3
        )


def triple_link_volume(t1: WhitneyTriple, t2: WhitneyTriple) -> float:
    """|A_j ∩ A_{j+1}| for two triples of 2D cells.

    The intersection of the two three-cell unions is a union of up to nine
    convex pieces (pairwise cell intersections), measured exactly by
    inclusion-exclusion.
    """
    pieces = []
    for a in t1.cells:
        for b in t2.cells:
            if a.n != 2:
                raise GeometryError("triple link volumes are implemented for 2D cells")
            if a._box_apart(b):
                continue
            clipped = clip_polygon(a.hull_polygon(), b.hull_polygon())
            if len(clipped) >= 3 and polygon_area(clipped) > VOLUME_TOL * min(map(cell_volume, (a, b))):
                pieces.append(clipped)
    return union_volume_2d(pieces)


@dataclass(frozen=True)
class WhitneyChain:
    """An ordered chain of Whitney triples A_1..A_J with positive links.

    link_volumes[j] = |A_{j+1} ∩ A_{j+2}| (0-based storage of the J-1
    consecutive overlaps); multiplicity is the maximum number of triples
    containing any single point.
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
    def from_triples(cls, triples: list[WhitneyTriple], multiplicity: int) -> "WhitneyChain":
        links = tuple(
            triple_link_volume(triples[i], triples[i + 1]) for i in range(len(triples) - 1)
        )
        return cls(tuple(triples), links, multiplicity)

    def volumes(self) -> list[float]:
        return [t.volume() for t in self.triples]


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


def build_star_domain(spec: StarDomainSpec) -> tuple[ConvexCell, ConvexCell]:
    """The two convex pieces of the star-shaped domain.

    Piece 1 occupies max(|x'| - delta, -alpha) < x_n < alpha; piece 2 is
    its mirror image in x_n. In 2D each piece is an explicit trapezoid;
    in 3D each is a convex frustum-like polytope with a regular m-gon
    cross-section.
    """
    d, a = spec.delta, spec.alpha
    if spec.n == 2:
        omega1 = ConvexCell([(-(d + a), a), (d + a, a), (d - a, -a), (-(d - a), -a)])
        omega2 = ConvexCell([(-(d + a), -a), (d + a, -a), (d - a, a), (-(d - a), a)])
        return omega1, omega2
    angles = 2.0 * math.pi * np.arange(spec.mgon) / spec.mgon
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)

    def piece(r_bottom: float, r_top: float) -> ConvexCell:
        bottom = np.hstack([r_bottom * ring, np.full((spec.mgon, 1), -a)])
        top = np.hstack([r_top * ring, np.full((spec.mgon, 1), a)])
        return ConvexCell(np.vstack([bottom, top]))

    return piece(d - a, d + a), piece(d + a, d - a)


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
