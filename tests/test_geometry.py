import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.spatial
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from neumann_bounds import geometry
from neumann_bounds.geometry import (
    ConvexCell,
    FractalTreeSpec,
    GeometryError,
    StarDomainSpec,
    WhitneyTriple,
    _chebyshev_center,
    _hull_volume_3d,
    build_snowflake_tree,
    build_star_domain,
    cell_diameter,
    cell_volume,
    intersection_volume,
    snowflake_level,
    snowflake_level_count,
    star_discretization_error,
    triple_link_volume,
)
# the exact references of the rectangle-cover tests: Fraction clips, areas, unions and sides
from test_rect_cover import assert_down, assert_up, exact_union, fraction_area, fraction_clip

SQRT3 = math.sqrt(3.0)


def bounding_box(cell):
    return cell.vertices.min(axis=0), cell.vertices.max(axis=0)


def monte_carlo_intersection_volume(c1, c2, samples, seed):
    """Membership-sampling estimate of |c1 ∩ c2| with its standard error.

    Draws from the overlap of the two bounding boxes with a per-call
    generator, so results are reproducible for a given seed.
    """
    def contains(cell, pts):
        halfspaces = ConvexHull(cell.vertices).equations
        dist = pts @ halfspaces[:, :-1].T + halfspaces[:, -1]
        return np.all(dist <= 1e-12, axis=1)

    lo = np.maximum(bounding_box(c1)[0], bounding_box(c2)[0])
    hi = np.minimum(bounding_box(c1)[1], bounding_box(c2)[1])
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
        hits += int(np.count_nonzero(contains(c1, pts) & contains(c2, pts)))
        drawn += m
    frac = hits / samples
    stderr = box_vol * math.sqrt(max(frac * (1.0 - frac), 0.0) / samples)
    return box_vol * frac, stderr


def star_membership(points, spec):
    """Defining-inequality membership test for the full star domain union."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    radial = np.linalg.norm(pts[:, :-1], axis=1)
    height = pts[:, -1]
    return (np.abs(height) < spec.alpha) & (radial < spec.delta + np.abs(height))


def star_pieces(spec):
    """The two star pieces as polytopes: trapezoids in 2D, frusta over the regular
    m-gon in 3D. The reference model of build_star_domain's closed forms."""
    d, a = spec.delta, spec.alpha
    if spec.n == 2:
        omega1 = ConvexCell([(-(d + a), a), (d + a, a), (d - a, -a), (-(d - a), -a)])
        omega2 = ConvexCell([(-(d + a), -a), (d + a, -a), (d - a, a), (-(d - a), a)])
        return omega1, omega2
    angles = 2.0 * math.pi * np.arange(spec.mgon) / spec.mgon
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)

    def piece(r_bottom, r_top):
        bottom = np.hstack([r_bottom * ring, np.full((spec.mgon, 1), -a)])
        top = np.hstack([r_top * ring, np.full((spec.mgon, 1), a)])
        return ConvexCell(np.vstack([bottom, top]))

    return piece(d - a, d + a), piece(d + a, d - a)


def unit_square(dx=0.0, dy=0.0):
    return ConvexCell([(dx, dy), (1 + dx, dy), (1 + dx, 1 + dy), (dx, 1 + dy)])


def equilateral(side=1.0, dx=0.0, dy=0.0):
    return ConvexCell(
        [(dx, dy), (dx + side, dy), (dx + side / 2, dy + side * SQRT3 / 2)]
    )


def _equilateral_on(base_start, base_end):
    """Equilateral triangle on the directed base, apex to the left of it."""
    edge = base_end - base_start
    normal = np.array([-edge[1], edge[0]])
    apex = (base_start + base_end) / 2.0 + normal * (SQRT3 / 2.0)
    return np.array([base_start, base_end, apex])


def snowflake_cells(a, depth):
    """Snowflake triangles level by level: the root, then one child on the
    middle third of every free edge of the level above."""
    root = np.array(
        [(0.0, a / SQRT3), (-a / 2.0, -a / (2.0 * SQRT3)), (a / 2.0, -a / (2.0 * SQRT3))]
    )
    cells = [(ConvexCell(root),)]
    # free (outward) edges of the current level, directed with the outside on the left
    frontier = [(root[1], root[0]), (root[0], root[2]), (root[2], root[1])]
    for _ in range(depth):
        level, next_frontier = [], []
        for start, end in frontier:
            u = start + (end - start) / 3.0
            v = start + 2.0 * (end - start) / 3.0
            tri = _equilateral_on(u, v)
            level.append(ConvexCell(tri))
            next_frontier += [(u, tri[2]), (tri[2], v)]
        cells.append(tuple(level))
        frontier = next_frontier
    return cells


class TestCellBasics:
    def test_unit_square_volume(self):
        assert cell_volume(unit_square()) == pytest.approx(1.0, abs=1e-15)

    def test_equilateral_area(self):
        assert cell_volume(equilateral()) == pytest.approx(SQRT3 / 4, rel=1e-14)

    def test_unit_square_diameter(self):
        assert cell_diameter(unit_square()) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_equilateral_diameter_is_side(self):
        assert cell_diameter(equilateral(side=0.7)) == pytest.approx(0.7, rel=1e-14)

    def test_degenerate_segment_rejected(self):
        with pytest.raises(GeometryError):
            ConvexCell([(0, 0), (1, 0), (2, 0)])

    def test_interior_vertex_rejected(self):
        with pytest.raises(GeometryError):
            ConvexCell([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])

    @pytest.mark.parametrize(
        "verts",
        [
            [(0, 0), (1e200, 0), (0, 1e200)],
            [(0, 0, 0), (1e120, 0, 0), (0, 1e120, 0), (0, 0, 1e120)],
            # extent**2 is finite, but the shoelace products are not (NaN volume)
            [(1e160, 1e160), (1e160 + 1e150, 1e160), (1e160, 1e160 + 1e150)],
        ],
    )
    def test_coordinate_overflow_rejected(self, verts):
        with pytest.raises(GeometryError, match="too large"):
            ConvexCell(verts)

    @pytest.mark.parametrize("lam, n", [(1e-154, 2), (1e-160, 2), (1e-103, 3)])
    def test_subnormal_volume_rejected(self, lam, n):
        # a subnormal volume would make the disjointness and overlap cut-offs
        # that scale with it underflow to 0
        cube = [tuple(lam * x for x in corner) for corner in np.ndindex(*(2,) * n)]
        with pytest.raises(GeometryError, match=r"cell volume \S+ is below the smallest normal float"):
            ConvexCell(cube)

    @pytest.mark.parametrize("lam, n", [(1e-153, 2), (1e-102, 3)])
    def test_small_normal_volume_accepted(self, lam, n):
        cube = [tuple(lam * x for x in corner) for corner in np.ndindex(*(2,) * n)]
        assert cell_volume(ConvexCell(cube)) == pytest.approx(lam**n, rel=1e-12, abs=0)

    @pytest.mark.parametrize("x", [0.0, 1e3, 1e6, 1e9])
    def test_thin_trapezoid_judged_by_shape_not_position(self, x):
        # Qhull's flatness test scales with the coordinates, but a cell must be
        # judged by its shape wherever it sits
        verts = np.array([[x, 0], [x + 1, 0], [x + 1, 1e-9], [x + 0.5, 1e-9]])
        cell = ConvexCell(verts)
        assert len(cell._hull_vertices) == 4
        # the shoelace is taken in integers, so no product of size x cancels: the area
        # 0.75 * 1e-9 rounded up, at every offset
        assert_up(cell_volume(cell), Fraction(3, 4) * Fraction(1e-9))

    @pytest.mark.parametrize("x", [0.0, 1e3, 1e6, 1e9])
    def test_thin_box_judged_by_shape_not_position(self, x):
        cell = ConvexCell([(x + i, j, 1e-9 * k) for i in (0, 1) for j in (0, 1) for k in (0, 1)])
        assert cell_volume(cell) == pytest.approx(1e-9, rel=1e-12, abs=0)

    def test_qhull_error_condensed_to_one_line(self):
        with pytest.raises(GeometryError) as err:
            ConvexCell([(0, 0), (1, 0), (2, 0)])
        assert "\n" not in str(err.value)

    def test_dimension_validation(self):
        with pytest.raises(GeometryError):
            ConvexCell([(0,), (1,)])

    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.0])
    def test_scaling_homogeneity_2d(self, lam):
        cell = equilateral(side=1.3, dx=0.2, dy=-0.4)
        scaled = ConvexCell(cell.vertices * lam)
        assert cell_volume(scaled) == pytest.approx(lam**2 * cell_volume(cell), rel=1e-12)
        assert cell_diameter(scaled) == pytest.approx(lam * cell_diameter(cell), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.0])
    def test_scaling_homogeneity_3d(self, lam):
        cube = ConvexCell([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        scaled = ConvexCell(cube.vertices * lam)
        assert cell_volume(scaled) == pytest.approx(lam**3, rel=1e-12)
        assert cell_diameter(scaled) == pytest.approx(lam * math.sqrt(3.0), rel=1e-12)


class TestIntersection:
    def test_shifted_squares(self):
        assert intersection_volume(unit_square(), unit_square(dx=0.5)) == pytest.approx(
            0.5, rel=1e-12
        )

    def test_disjoint(self):
        assert intersection_volume(unit_square(), unit_square(dx=3.0)) == 0.0

    def test_self_intersection_matches_volume(self):
        cell = equilateral(side=1.7, dx=0.3)
        assert intersection_volume(cell, cell) == pytest.approx(
            cell_volume(cell), rel=1e-10
        )

    def test_symmetry(self):
        a, b = equilateral(1.2), unit_square(dx=0.3, dy=0.1)
        assert intersection_volume(a, b) == pytest.approx(
            intersection_volume(b, a), abs=1e-12
        )

    def test_dimension_mismatch(self):
        cube = ConvexCell([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        with pytest.raises(GeometryError):
            intersection_volume(unit_square(), cube)

    def test_triangle_pair_against_monte_carlo(self):
        # oracle: membership sampling, 1e7 points, agreement within 3 SE
        t1 = equilateral()
        t2 = equilateral(dx=0.5)
        exact = intersection_volume(t1, t2)
        est, se = monte_carlo_intersection_volume(t1, t2, samples=10**7, seed=42)
        assert se > 0.0
        assert abs(exact - est) <= 3.0 * se

    def test_3d_shifted_cubes(self):
        c1 = ConvexCell([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        c2 = ConvexCell([(x + 0.25, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        assert intersection_volume(c1, c2) == pytest.approx(0.75, rel=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_3d_overlap_independent_of_offset(self, seed):
        # dyadic cells moved by exact offsets bound the same polytope each time,
        # so their overlap must not depend on the offset
        rng = np.random.default_rng(seed)
        points = np.round(rng.normal(size=(int(rng.integers(5, 12)), 3)) * 1024) / 1024
        points = points[ConvexHull(points).vertices]
        moved = points + np.round(rng.normal(size=3) * 256) / 1024
        at_origin = intersection_volume(ConvexCell(points), ConvexCell(moved))
        assert at_origin > 0.0
        for offset in (2.0**10, 2.0**20, 2.0**30):
            shift = offset * np.array([1.0, -1.0, 0.5])
            got = intersection_volume(ConvexCell(points + shift), ConvexCell(moved + shift))
            assert got == pytest.approx(at_origin, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_2d_measures_independent_of_offset(self, seed):
        # dyadic cells moved by exact offsets are measured exactly, so area, overlap and
        # triple link must keep their bits
        rng = np.random.default_rng(seed)
        points = np.round(rng.normal(size=(8, 2)) * 1024) / 1024
        polygon = points[ConvexHull(points).vertices]
        moved = polygon + np.round(rng.normal(size=2) * 256) / 1024
        # five quadrilaterals in a row, each overlapping its neighbours only
        row = [np.round(np.array([(x, 0), (x + 1, rng.uniform(-0.1, 0.1)), (x + 1, 1),
                                  (x + rng.uniform(-0.1, 0.1), 1)]) * 1024) / 1024
               for x in 0.75 * np.arange(5)]
        measures = []
        for offset in (0.0, 2.0**20, 2.0**30):
            shift = offset * np.array([1.0, -1.0])
            c1, c2 = ConvexCell(polygon + shift), ConvexCell(moved + shift)
            cells = [ConvexCell(quad + shift) for quad in row]
            t1, t2 = WhitneyTriple.from_cells(*cells[:3]), WhitneyTriple.from_cells(*cells[2:])
            measures.append((cell_volume(c1), intersection_volume(c1, c2), triple_link_volume(t1, t2)))
        assert min(measures[0]) > 0.0
        assert measures[1] == measures[0] and measures[2] == measures[0]

    def test_3d_construction_failure_raises(self, monkeypatch):
        # no sampling fallback: the overlap feeds lower- and upper-bound uses
        def failing(*args, **kwargs):
            raise QhullError("QH6271 qhull topology error\nsecond line of the option dump")

        monkeypatch.setattr(scipy.spatial, "HalfspaceIntersection", failing)
        c1 = ConvexCell([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        c2 = ConvexCell([(x + 0.25, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        with pytest.raises(GeometryError, match=r"QH6271 qhull topology error$"):
            intersection_volume(c1, c2)

    def test_3d_disjoint(self):
        c1 = ConvexCell([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        c2 = ConvexCell([(x + 2.0, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        assert intersection_volume(c1, c2) == 0.0


def reference_hull_volume_3d(points, hull):
    """Per-facet loop that _hull_volume_3d vectorizes."""
    centroid = points[hull.vertices].mean(axis=0)
    vol = 0.0
    for simplex in hull.simplices:
        a, b, c = points[simplex] - centroid
        vol += abs(np.dot(a, np.cross(b, c))) / 6.0
    return vol


def intersection_polytope(c1, c2):
    """Vertices and hull of the polytope that intersection_volume measures in 3D."""
    origin = bounding_box(c1)[0]
    halfspaces = np.vstack([c1._halfspaces_from(origin), c2._halfspaces_from(origin)])
    center, _ = _chebyshev_center(halfspaces)
    points = HalfspaceIntersection(halfspaces, center).intersections
    return points, ConvexHull(points)


class TestHullVolume3D:
    """The batched volume must equal the per-facet loop exactly (==)."""

    @pytest.mark.parametrize("mgon", [8, 9, 16, 31, 64, 100, 128, 200, 256])
    @pytest.mark.parametrize("delta", [0.3, 1.0, 2.7])
    def test_star_pieces_and_their_overlap(self, mgon, delta):
        pieces = star_pieces(StarDomainSpec(delta=delta, n=3, mgon=mgon))
        for piece in pieces:
            assert cell_volume(piece) == reference_hull_volume_3d(piece.vertices, piece._hull)
        points, hull = intersection_polytope(*pieces)
        assert _hull_volume_3d(points, hull) == reference_hull_volume_3d(points, hull)

    @pytest.mark.parametrize("seed", range(50))
    def test_random_hulls_and_intersections(self, seed):
        rng = np.random.default_rng(seed)
        clouds = [rng.normal(size=(int(rng.integers(4, 80)), 3)) * rng.uniform(0.01, 100.0)
                  for _ in range(2)]
        for points in clouds:
            hull = ConvexHull(points)
            assert _hull_volume_3d(points, hull) == reference_hull_volume_3d(points, hull)
        c1 = ConvexCell(clouds[0][ConvexHull(clouds[0]).vertices])
        c2 = ConvexCell(c1.vertices * 0.8 + rng.normal(size=3) * 0.1 * np.ptp(c1.vertices))
        points, hull = intersection_polytope(c1, c2)
        assert _hull_volume_3d(points, hull) == reference_hull_volume_3d(points, hull)

    def test_shifted_cubes_intersection(self):
        c1 = ConvexCell([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        c2 = ConvexCell([(x + 0.25, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        points, hull = intersection_polytope(c1, c2)
        assert _hull_volume_3d(points, hull) == reference_hull_volume_3d(points, hull)
        assert intersection_volume(c1, c2) == reference_hull_volume_3d(points, hull)


def kernel_union(cells):
    """|∪ cells| by the exact kernel: the shared inclusion-exclusion over integer clips."""
    return geometry._union([c._loop for c in cells], [[c] for c in cells], geometry._clip,
                           geometry._loop_area)


class TestUnionVolume:
    def test_two_squares(self):
        assert kernel_union([unit_square(), unit_square(dx=0.5)]) == Fraction(3, 2)

    def test_three_squares_chain(self):
        assert kernel_union([unit_square(dx=0.5 * i) for i in range(3)]) == 2

    def test_nested(self):
        small = ConvexCell([(0.25, 0.25), (0.5, 0.25), (0.5, 0.5), (0.25, 0.5)])
        assert kernel_union([unit_square(), small]) == 1

    def test_triangles(self):
        # two unit right triangles across each other's hypotenuse: 1/2 + 1/2 - 1/4
        lower = ConvexCell([(0, 0), (1, 0), (0, 1)])
        upper = ConvexCell([(1, 0), (1, 1), (0, 1)])
        shifted = ConvexCell([(0.5, 0), (1.5, 0), (0.5, 1)])
        assert kernel_union([lower, upper]) == 1
        assert kernel_union([lower, shifted]) == Fraction(7, 8)


def previous_cell_diameter(cell):
    """The 3D diameter kernel before the box test and the lean rewrites, verbatim."""
    verts = cell.vertices[cell._hull.vertices]
    diff = verts[:, None, :] - verts[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=-1)).max())


def fraction_loop(cell):
    """The cell's hull corners as Fractions, checked in Fractions to be a strictly convex
    counterclockwise loop of input vertices with every input vertex on or inside it."""
    loop = [tuple(map(Fraction, v)) for v in cell._hull_vertices.tolist()]
    inputs = {tuple(map(Fraction, v)) for v in cell.vertices.tolist()}
    assert set(loop) <= inputs
    for (x0, y0), (x1, y1), (x2, y2) in zip(loop[-2:] + loop[:-2], loop[-1:] + loop[:-1], loop):
        assert (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) > 0
        assert all((x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) >= 0 for x, y in inputs)
    return loop


def random_convex_cell(rng):
    """A random convex polygon of 3-12 hull vertices at a random scale and offset."""
    scale = 10.0 ** rng.uniform(-3, 3)
    points = rng.normal(size=(int(rng.integers(3, 13)), 2)) * scale + rng.normal(size=2) * scale
    return ConvexCell(points[ConvexHull(points).vertices])


def bitwise_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestKernelsMatchPrevious:
    """2D areas, overlaps, links and diameters lie within 1 ulp of their exact values, on
    their side; 3D diameters and the box test reproduce the previous kernels exactly."""

    @pytest.mark.parametrize("seed", range(20))
    def test_clip_area_and_overlap(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            c1 = random_convex_cell(rng)
            # a partner near c1, so the draws mix overlaps, nesting and disjoint pairs
            c2 = ConvexCell(c1._hull_vertices * rng.uniform(0.3, 1.5)
                            + rng.normal(size=2) * np.ptp(c1.vertices))
            for a, b in ((c1, c2), (c2, c1), (c1, c1)):
                exact = fraction_area(fraction_clip(fraction_loop(a), fraction_loop(b)))
                assert_down(intersection_volume(a, b), exact)
                assert intersection_volume(b, a) == intersection_volume(a, b)
            assert_up(cell_volume(c1), fraction_area(fraction_loop(c1)))

    @pytest.mark.parametrize("seed", range(5))
    def test_diameter_2d(self, seed):
        def assert_diameter_up(cell):
            # the input vertices as integers over one power of two, every pair compared
            coords = [Fraction(c) for c in cell.vertices.ravel().tolist()]
            den = max(c.denominator for c in coords)
            points = list(zip(*[iter(int(c * den) for c in coords)] * 2))
            square = Fraction(max((x0 - x1) ** 2 + (y0 - y1) ** 2
                                  for i, (x0, y0) in enumerate(points) for x1, y1 in points[i:]), den * den)
            d = cell_diameter(cell)
            assert Fraction(math.nextafter(d, 0.0)) ** 2 < square <= Fraction(d) ** 2

        rng = np.random.default_rng(seed)
        for _ in range(40):
            assert_diameter_up(random_convex_cell(rng))
        # many-vertex polygons cross the 32-vertex blocks
        for m in (31, 32, 33, 64, 200, 1000):
            angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=m))
            assert_diameter_up(ConvexCell(np.stack([np.cos(angles), 0.4 * np.sin(angles)], axis=1)))

    @pytest.mark.parametrize("mgon", [8, 16, 17, 64, 256, 512, 1024])
    @pytest.mark.parametrize("delta", [0.3, 2.7])
    def test_diameter_3d_prisms(self, mgon, delta):
        for piece in star_pieces(StarDomainSpec(delta=delta, n=3, mgon=mgon)):
            assert cell_diameter(piece) == previous_cell_diameter(piece)

    @pytest.mark.parametrize("seed", range(5))
    def test_diameter_3d_random(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            points = rng.normal(size=(int(rng.integers(4, 120)), 3)) * rng.uniform(0.01, 100.0)
            cell = ConvexCell(points[ConvexHull(points).vertices])
            assert cell_diameter(cell) == previous_cell_diameter(cell)

    @pytest.mark.parametrize("seed", range(10))
    def test_triple_links(self, seed):
        rng = np.random.default_rng(seed)
        count = 2 * int(rng.integers(2, 8)) + 1
        widths = rng.uniform(0.8, 1.4, size=count)
        x, cells, boxes = 0.0, [], []
        for w in widths:
            y0 = rng.uniform(-0.2, 0.2)
            cells.append(ConvexCell([(x, y0), (x + w, y0), (x + w, y0 + 1.0), (x, y0 + 1.0)]))
            boxes.append(tuple(map(Fraction, (x, y0, x + w, y0 + 1.0))))
            x += w - rng.uniform(0.15, 0.35) * w
        triples = [WhitneyTriple.from_cells(*cells[i:i + 3]) for i in range(0, count - 2, 2)]
        for i, (t1, t2) in enumerate(zip(triples, triples[1:])):
            # the rows overlap only neighbours, so the link is the pieces' union
            pieces = [(max(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), min(a[3], b[3]))
                      for a in boxes[2 * i:2 * i + 3] for b in boxes[2 * i + 2:2 * i + 5]]
            assert_down(triple_link_volume(t1, t2),
                        exact_union([p for p in pieces if p[0] < p[2] and p[1] < p[3]]))

    # box-test edge cases: only boxes strictly apart skip the clip
    @pytest.mark.parametrize("shift, expected", [
        ((2.0, 0.0), 0.0),     # strictly apart
        ((1.0, 1.0), 0.0),     # boxes touch at a corner
        ((1.0, 0.0), 0.0),     # shared edge
        ((0.5, 0.0), 0.5),     # overlap
        ((0.25, 0.25), 0.5625),
    ])
    def test_box_test_2d(self, shift, expected):
        a, b = unit_square(), unit_square(*shift)
        for c1, c2 in ((a, b), (b, a)):
            assert intersection_volume(c1, c2) == expected
        assert a._box_apart(b) == (shift == (2.0, 0.0))

    def test_box_test_nested_and_inside_box_but_disjoint(self):
        big = unit_square()
        small = ConvexCell([(0.2, 0.2), (0.4, 0.2), (0.4, 0.4), (0.2, 0.4)])
        assert not big._box_apart(small)
        assert intersection_volume(big, small) == intersection_volume(small, big)
        assert_down(intersection_volume(small, big), Fraction(0.2) ** 2)
        # the boxes overlap but the triangles do not: the clip decides
        lower = ConvexCell([(0, 0), (1, 0), (0, 1)])
        upper = ConvexCell([(1, 0.5), (1, 1), (0.5, 1)])
        assert not lower._box_apart(upper)
        assert intersection_volume(lower, upper) == 0.0

    @pytest.mark.parametrize("shift, expected", [(2.0, 0.0), (1.0, 0.0), (0.5, 0.5)])
    def test_box_test_3d(self, shift, expected):
        def cube(dx):
            return ConvexCell([(x + dx, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])

        assert cube(0.0)._box_apart(cube(shift)) == (shift == 2.0)
        assert intersection_volume(cube(0.0), cube(shift)) == pytest.approx(expected, abs=1e-12)

    def test_triple_link_skips_only_disjoint_boxes(self):
        squares = [unit_square(dx=0.5 * i) for i in range(5)]
        t1 = WhitneyTriple.from_cells(*squares[0:3])
        t2 = WhitneyTriple.from_cells(*squares[2:5])
        assert triple_link_volume(t1, t2) == 1.0
        far = [unit_square(dx=10.0 + 0.5 * i) for i in range(3)]
        assert triple_link_volume(t1, WhitneyTriple.from_cells(*far)) == 0.0


class TestWhitneyContainers:
    def row_of_squares(self, count, overlap=0.5):
        return [unit_square(dx=i * (1 - overlap)) for i in range(count)]

    def test_triple_from_cells(self):
        q1, r2, q3 = self.row_of_squares(3)
        t = WhitneyTriple.from_cells(q1, r2, q3)
        assert t.cells == (q1, r2, q3)
        assert t.measures() == (1.0, 1.0, 1.0, 1.5, 1.5, 0.5, 0.5)
        assert t.volume() == 2.0

    def test_triple_rejects_touching_outer_cells(self):
        q1, r2, _ = self.row_of_squares(3)
        q3 = unit_square(dx=0.75)  # overlaps q1 in area 0.25
        with pytest.raises(GeometryError):
            WhitneyTriple.from_cells(q1, r2, q3)

    def test_triple_rejects_nonpositive_overlap(self):
        # R2 meets Q1 along an edge only
        q1, r2, q3 = unit_square(), unit_square(dx=1.0), unit_square(dx=1.5)
        with pytest.raises(GeometryError, match="triple overlap volumes must be positive"):
            WhitneyTriple.from_cells(q1, r2, q3)

    def test_link_volume_shared_cell(self):
        cells = self.row_of_squares(5)
        t1 = WhitneyTriple.from_cells(*cells[0:3])
        t2 = WhitneyTriple.from_cells(*cells[2:5])
        # A_1 = [0,2]x[0,1] and A_2 = [1,3]x[0,1] meet exactly in the shared square
        link = triple_link_volume(t1, t2)
        assert link == pytest.approx(1.0, rel=1e-12)

    def test_links_of_3d_cells_refused(self):
        def cube(dx):
            return ConvexCell([(x + dx, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])

        cubes = [cube(0.5 * i) for i in range(5)]
        t1, t2 = WhitneyTriple.from_cells(*cubes[0:3]), WhitneyTriple.from_cells(*cubes[2:5])
        assert t1.volume() == pytest.approx(2.0, rel=1e-12)
        with pytest.raises(GeometryError, match="triple link volumes are implemented for 2D cells"):
            triple_link_volume(t1, t2)


class TestStarDomain:
    def test_alpha_recomputed(self):
        spec = StarDomainSpec(delta=2.0)
        assert spec.alpha == pytest.approx(2.0 * (SQRT3 - 1) / 2, rel=1e-15)

    def test_vertical_extent(self):
        spec = StarDomainSpec(delta=1.0, n=2)
        omega1, _ = star_pieces(spec)
        ys = omega1.vertices[:, 1]
        assert ys.max() - ys.min() == pytest.approx(SQRT3 - 1.0, rel=1e-14)

    def test_piece_volume_formula(self):
        spec = StarDomainSpec(delta=1.0, n=2)
        omega1, omega2 = star_pieces(spec)
        expected = 4.0 * spec.alpha * spec.delta  # 2 (sqrt3 - 1)
        assert cell_volume(omega1) == pytest.approx(expected, rel=1e-12)
        assert cell_volume(omega2) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(2.0 * (SQRT3 - 1.0), rel=1e-15)

    def test_piece_volume_against_monte_carlo(self):
        # oracle: membership sampling of the defining inequalities, 1e7 points
        spec = StarDomainSpec(delta=1.0, n=2)
        omega1, _ = star_pieces(spec)
        rng = np.random.default_rng(7)
        lo = np.array([-(spec.delta + spec.alpha), -spec.alpha])
        hi = np.array([spec.delta + spec.alpha, spec.alpha])
        pts = rng.uniform(lo, hi, size=(10**7, 2))
        inside = (pts[:, 1] < spec.alpha) & (
            np.maximum(np.abs(pts[:, 0]) - spec.delta, -spec.alpha) < pts[:, 1]
        )
        estimate = np.prod(hi - lo) * inside.mean()
        assert cell_volume(omega1) == pytest.approx(estimate, abs=1e-3)

    def test_union_volume_against_monte_carlo(self):
        # oracle: membership sampling of the union inequalities, 1e7 points
        spec = StarDomainSpec(delta=1.0, n=2)
        omega1, omega2 = star_pieces(spec)
        union = (
            cell_volume(omega1)
            + cell_volume(omega2)
            - intersection_volume(omega1, omega2)
        )
        assert union == pytest.approx(
            4 * spec.alpha * spec.delta + 2 * spec.alpha**2, rel=1e-12
        )
        rng = np.random.default_rng(11)
        lo = np.array([-(spec.delta + spec.alpha), -spec.alpha])
        hi = np.array([spec.delta + spec.alpha, spec.alpha])
        pts = rng.uniform(lo, hi, size=(10**7, 2))
        estimate = np.prod(hi - lo) * star_membership(pts, spec).mean()
        assert union == pytest.approx(estimate, abs=2e-3)

    def test_delta_scaling(self):
        one = star_pieces(StarDomainSpec(delta=1.0, n=2))
        two = star_pieces(StarDomainSpec(delta=2.0, n=2))
        assert cell_volume(two[0]) == pytest.approx(4.0 * cell_volume(one[0]), rel=1e-12)

    def test_3d_piece_volume_within_discretization_error(self):
        spec = StarDomainSpec(delta=1.0, n=3, mgon=64)
        omega1, omega2 = star_pieces(spec)
        d, a = spec.delta, spec.alpha
        frustum = 2 * a / 3 * ((d + a) ** 2 + (d + a) * (d - a) + (d - a) ** 2) * math.pi
        deficit = 1.0 - cell_volume(omega1) / frustum
        assert 0.0 < deficit <= star_discretization_error(spec.mgon)
        assert cell_volume(omega2) == pytest.approx(cell_volume(omega1), rel=1e-12)

    def test_invalid_dimension(self):
        with pytest.raises(GeometryError):
            StarDomainSpec(delta=1.0, n=4)


def exact_star_measures(spec, mpmath):
    """(piece volume, overlap, diameter) of the star model in mpmath arithmetic."""
    d = mpmath.mpf(spec.delta)
    a = d * (mpmath.sqrt(3) - 1) / 2
    n, m = spec.n, spec.mgon
    f, e = d + a, d - a
    omega = 2 if n == 2 else m * mpmath.sin(2 * mpmath.pi / m) / 2
    diameter = 2 * f
    if n == 3 and m % 2:
        diameter = max(diameter * mpmath.cos(mpmath.pi / (2 * m)),
                       mpmath.sqrt(f**2 + e**2 + 2 * f * e * mpmath.cos(mpmath.pi / m) + 4 * a**2))
    return omega * (f**n - e**n) / n, 2 * omega * (d**n - e**n) / n, diameter


class TestStarClosedForms:
    """build_star_domain measures the polytope model in closed form, rounded outward."""

    @pytest.mark.parametrize("n, mgon", [(2, 64)] + [(3, m) for m in
                                                    (8, 9, 16, 17, 31, 64, 100, 255, 256, 1024)])
    @pytest.mark.parametrize("delta", [0.3, 1.0, 2.7])
    def test_match_polytopes(self, n, mgon, delta):
        spec = StarDomainSpec(delta=delta, n=n, mgon=mgon)
        volume, overlap, diameter = build_star_domain(spec)
        pieces = star_pieces(spec)
        for piece in pieces:
            assert cell_volume(piece) == pytest.approx(volume, rel=2e-14, abs=0)
            assert cell_diameter(piece) == pytest.approx(diameter, rel=2e-14, abs=0)
        assert intersection_volume(*pieces) == pytest.approx(overlap, rel=2e-14, abs=0)

    def test_outward_within_budget_against_mpmath(self):
        # volumes and diameter never below the exact value, the overlap never above;
        # evaluation error and steps together stay within twice the steps
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(5)
        for _ in range(2000):
            spec = StarDomainSpec(delta=float(10.0 ** rng.uniform(-100, 100)),
                                  n=int(rng.integers(2, 4)),
                                  mgon=int(rng.integers(8, geometry.MAX_MGON + 1)))
            with mpmath.workdps(50):
                exact_measures = exact_star_measures(spec, mpmath)
                for got, exact, outward in zip(build_star_domain(spec), exact_measures, (1, -1, 1)):
                    offset = outward * (mpmath.mpf(got) - exact)
                    budget = 2 * geometry.STAR_OUTWARD_STEPS * math.ulp(max(got, float(exact)))
                    assert 0 <= offset <= budget, (spec, got, exact)


class TestSnowflakeTree:
    def test_level_one(self):
        tree = build_snowflake_tree(FractalTreeSpec(a=1.0, depth=1))
        level = tree.levels[1]
        assert level.count == 3
        assert level.side == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert level.area == pytest.approx(SQRT3 / 36.0, rel=1e-14)

    def test_level_three_count(self):
        tree = build_snowflake_tree(FractalTreeSpec(a=1.0, depth=3))
        assert tree.levels[3].count == 12

    def test_root_level(self):
        tree = build_snowflake_tree(FractalTreeSpec(a=2.0, depth=0))
        assert tree.levels[0].count == 1
        assert tree.levels[0].side == 2.0
        assert tree.multiplicity == 1

    def test_depth_overflow_rejected(self):
        with pytest.raises(GeometryError):
            FractalTreeSpec(a=1.0, depth=63)

    def test_analytic_level_mass_closed_form(self):
        a = 1.0
        tree = build_snowflake_tree(FractalTreeSpec(a=a, depth=10))
        for j in range(1, 11):
            level = tree.levels[j]
            assert level.count == snowflake_level_count(j) == 3 * 2 ** (j - 1)
            assert level.count * level.area == pytest.approx(
                3 * 2 ** (j - 1) * SQRT3 * a**2 / (4 * 3 ** (2 * j)), rel=1e-14
            )

    def test_materialized_cells_match_analytics(self):
        tree = build_snowflake_tree(FractalTreeSpec(a=1.0, depth=3))
        for j, level_cells in enumerate(snowflake_cells(1.0, 3)):
            assert len(level_cells) == tree.levels[j].count
            for cell in level_cells:
                assert cell_volume(cell) == pytest.approx(tree.levels[j].area, rel=1e-10)
                assert cell_diameter(cell) == pytest.approx(tree.levels[j].side, rel=1e-10)

    def test_materialized_children_sit_on_parent_edges(self):
        cells = snowflake_cells(1.0, 2)
        parents = cells[1]

        def on_some_parent_edge(v):
            for p in parents:
                pv = p.vertices
                for i in range(3):
                    a, b = pv[i], pv[(i + 1) % 3]
                    e = b - a
                    t = np.dot(v - a, e) / np.dot(e, e)
                    off = abs((v[0] - a[0]) * e[1] - (v[1] - a[1]) * e[0])
                    if off < 1e-12 and -1e-9 <= t <= 1 + 1e-9:
                        return True
            return False

        for child in cells[2]:
            # the base (two of the three vertices) lies on a parent edge
            on_edge = [on_some_parent_edge(v) for v in child.vertices]
            assert sum(on_edge) >= 2

    def test_level_closed_form_beyond_stored_depth(self):
        spec = FractalTreeSpec(a=1.3, depth=4, overlap_fraction=0.3)
        deep = build_snowflake_tree(FractalTreeSpec(a=1.3, depth=20, overlap_fraction=0.3))
        assert build_snowflake_tree(spec).levels == deep.levels[:5]
        for j, level in enumerate(deep.levels):
            assert snowflake_level(spec, j) == level

    def test_overlap_fraction_metadata(self):
        spec = FractalTreeSpec(a=1.0, depth=4, overlap_fraction=0.25)
        tree = build_snowflake_tree(spec)
        for level in tree.levels[1:]:
            assert level.parent_overlap == pytest.approx(0.25 * level.area, rel=1e-14)
            assert level.star_area == pytest.approx(1.25 * level.area, rel=1e-14)
