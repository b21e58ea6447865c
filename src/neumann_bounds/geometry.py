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
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

VOLUME_TOL = 1e-12
# |Q1 ∩ Q3| below this fraction of the smaller cell counts as disjoint
# (clipping noise allowance).
DISJOINT_REL_TOL = 1e-9
# maximum snowflake depth such that the level cell count 3*2^(j-1) still
# fits an int64 (serialization safety)
MAX_TREE_DEPTH = 62

SQRT3 = math.sqrt(3.0)
# largest |coordinate| such that (2 * |coordinate|)**n stays finite
MAX_COORDINATE = {n: 0.5 * sys.float_info.max ** (1.0 / n) for n in (2, 3)}


class GeometryError(ValueError):
    """Invalid geometric input (degenerate cell, dimension mismatch, ...)."""


def _first_line(exc: Exception) -> str:
    """Qhull errors carry a multi-line option dump; keep the diagnosis line."""
    lines = str(exc).strip().splitlines()
    return lines[0] if lines else type(exc).__name__


def _shoelace(poly: np.ndarray) -> float:
    """Area of a simple polygon given as an (m, 2) vertex loop."""
    x, y = poly[:, 0], poly[:, 1]
    return float(0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


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

    __slots__ = ("vertices", "n", "_hull", "_volume")

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
        volume = _shoelace(verts[hull.vertices]) if n == 2 else _hull_volume_3d(verts, hull)
        if volume <= VOLUME_TOL:
            raise GeometryError(f"degenerate cell: volume {volume:g} below tolerance")
        # convexity audit: no input vertex may sit strictly inside the hull
        scale = float(np.ptp(verts, axis=0).max())
        dist = verts @ hull.equations[:, :-1].T + hull.equations[:, -1]
        if np.any(dist.max(axis=1) < -1e-9 * scale):
            raise GeometryError("vertex strictly inside the convex hull of the vertex set")
        self.vertices = verts
        self.n = n
        self._hull = hull
        self._volume = float(volume)

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
        return self.vertices[self._hull.vertices]

    def contains(self, points: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """Vectorized membership test for an (m, n) array of points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dist = pts @ self._hull.equations[:, :-1].T + self._hull.equations[:, -1]
        return np.all(dist <= tol, axis=1)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def scaled(self, factor: float) -> "ConvexCell":
        return ConvexCell(self.vertices * factor)


def cell_volume(cell: ConvexCell) -> float:
    """Lebesgue measure of the cell (shoelace in 2D, hull tetrahedra in 3D)."""
    return cell._volume


def cell_diameter(cell: ConvexCell) -> float:
    """Diameter of the polytope; attained at a vertex pair."""
    verts = cell.vertices[cell._hull.vertices]
    diff = verts[:, None, :] - verts[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=-1)).max())


def clip_polygon(subject: np.ndarray, clipper: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a polygon by a convex polygon.

    Both inputs are (m, 2) counterclockwise vertex loops; returns the
    clipped loop (possibly empty).
    """
    output = [tuple(p) for p in subject]
    cp1 = tuple(clipper[-1])
    for cp2 in map(tuple, clipper):
        if not output:
            break
        ex, ey = cp2[0] - cp1[0], cp2[1] - cp1[1]

        def inside(p):
            return ex * (p[1] - cp1[1]) - ey * (p[0] - cp1[0]) >= 0.0

        def intersect(s, e):
            dx, dy = e[0] - s[0], e[1] - s[1]
            denom = ex * dy - ey * dx
            if denom == 0.0:
                return e
            t = (ex * (cp1[1] - s[1]) - ey * (cp1[0] - s[0])) / denom
            return (s[0] + t * dx, s[1] + t * dy)

        inputs, output = output, []
        s = inputs[-1]
        for e in inputs:
            if inside(e):
                if not inside(s):
                    output.append(intersect(s, e))
                output.append(e)
            elif inside(s):
                output.append(intersect(s, e))
            s = e
        cp1 = cp2
    return np.array(output, dtype=float).reshape(-1, 2)


def _chebyshev_center(halfspaces: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Interior point of the polytope {a.x + b <= 0} maximizing facet clearance."""
    a = halfspaces[:, :-1]
    b = halfspaces[:, -1]
    norms = np.linalg.norm(a, axis=1)
    dim = a.shape[1]
    # maximize r subject to a.x + r*|a| <= -b
    c = np.zeros(dim + 1)
    c[-1] = -1.0
    a_ub = np.hstack([a, norms[:, None]])
    res = linprog(c, A_ub=a_ub, b_ub=-b, bounds=[(None, None)] * dim + [(0, None)], method="highs")
    if not res.success or res.x[-1] <= 1e-12:
        return None
    return res.x[:-1], float(res.x[-1])


def monte_carlo_intersection_volume(
    c1: ConvexCell, c2: ConvexCell, samples: int = 10**6, seed: int = 0
) -> tuple[float, float]:
    """Membership-sampling estimate of |c1 ∩ c2| with its standard error.

    Draws from the overlap of the two bounding boxes with a per-call
    generator, so results are reproducible for a given seed.
    """
    lo = np.maximum(c1.bounding_box()[0], c2.bounding_box()[0])
    hi = np.minimum(c1.bounding_box()[1], c2.bounding_box()[1])
    if np.any(hi <= lo):
        return 0.0, 0.0
    box_vol = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 500_000
    drawn = 0
    while drawn < samples:
        m = min(chunk, samples - drawn)
        pts = rng.uniform(lo, hi, size=(m, c1.n))
        hits += int(np.count_nonzero(c1.contains(pts) & c2.contains(pts)))
        drawn += m
    frac = hits / samples
    stderr = box_vol * math.sqrt(max(frac * (1.0 - frac), 0.0) / samples)
    return box_vol * frac, stderr


def intersection_volume(c1: ConvexCell, c2: ConvexCell, seed: int = 0) -> float:
    """Volume of the intersection of two convex cells of equal dimension.

    2D uses exact polygon clipping; 3D intersects the facet half-space
    lists and measures the resulting polytope, falling back to seeded
    Monte-Carlo sampling when the half-space construction fails.
    """
    if c1.n != c2.n:
        raise GeometryError(f"dimension mismatch: {c1.n} vs {c2.n}")
    if c1.n == 2:
        clipped = clip_polygon(c1.hull_polygon(), c2.hull_polygon())
        if len(clipped) < 3:
            return 0.0
        return _shoelace(clipped)
    halfspaces = np.vstack([c1.halfspaces, c2.halfspaces])
    center = _chebyshev_center(halfspaces)
    if center is None:
        return 0.0
    try:
        hs = HalfspaceIntersection(halfspaces, center[0])
        hull = ConvexHull(hs.intersections)
        return _hull_volume_3d(hs.intersections, hull)
    except QhullError:
        value, _ = monte_carlo_intersection_volume(c1, c2, seed=seed)
        return value


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
        area = _shoelace(inter) if len(inter) >= 3 else 0.0
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
            clipped = clip_polygon(a.hull_polygon(), b.hull_polygon())
            if len(clipped) >= 3 and _shoelace(clipped) > VOLUME_TOL:
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
        if self.n == 3 and self.mgon < 8:
            raise GeometryError("3D cross-section needs at least 8 vertices")

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
