"""Ground-truth verification: P1 Neumann eigenvalues and Rayleigh quotients.

Everything needed to check that emitted bounds are genuine lower bounds at
desk scale: deterministic 2D triangulations (one masked triangle grid for
all kinds but the convex polygon), stiffness/mass assembly with consistent
(non-lumped) mass, the smallest nonzero Neumann eigenvalue with a residual
certificate, and discrete Rayleigh-quotient evaluation for general p. All
|f|-type integrals use the three-edge-midpoint rule, exact for quadratics.

Each mesh builds two sparse operators on first use and keeps them: the
midpoint operator P (3E x N) maps nodal values to the three edge midpoints
of every element, and the gradient operator G (2E x N) maps them to the
constant element gradients. They are the oracle's one quadrature: the P1
matrices are K = G^T diag(area) G and M = P^T diag(area / 3) P, and the
general-p integrals, the zero-mean constraint and the Rayleigh functional
are products with P and G, whose transposes scatter the functional's
gradient back to the nodes. The constraint shift is safeguarded Newton on
midpoint values, with the closed-form derivative of the constraint. The
assembly borrows the operators a mesh holds and otherwise builds them for
its call alone, so a p = 2 check factorizes next to the mesh arrays, K and
M only, while the descent builds them once before its solve and keeps them.

Each oracle call factors its mesh once (_shifted_solve): the p = 2
eigensolve uses the LU of K - sigma M as its shift-invert operator, and the
general-p descent, conjugate gradients preconditioned by the same LU, starts
from the eigenvectors of that solve; its trials carry their P and G values.
The solve deflates the constant null vector instead of computing it, and
computes only the eigenpairs its caller reads: one at p = 2, one per start.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .geometry import ConvexCell, StarDomainSpec, _shoelace
from .poincare import PoincareBound, check_exponent, read_field
from .qc_transfer import EigenBound

AREA_TOL = 1e-14
# mesh_domain refuses a mesh whose estimated node count exceeds this: ~28x
# the largest bench or test mesh (36k nodes), and small enough that the
# audit, the assembly and the eigensolve stay within desk-scale memory
MAX_MESH_NODES = 1_000_000
# stopping test of the general-p descent (minimize_rayleigh_p), both parts
# relative to the value R: R fell by at most STOP_DECREASE * R over the last
# STOP_WINDOW steps, or the slope g.(LU^-1 g) |v|_M / |LU^-1 g|_M, the
# first-order decrease over a step as long as the iterate v, is at most
# STOP_SLOPE * R
STOP_WINDOW = 10
STOP_DECREASE = 1e-8
STOP_SLOPE = 1e-8
EIGEN_RESIDUAL_TOL = 1e-8  # neumann_mu2 certifies |K v - mu M v| / |K v| below this
FEASIBILITY_TOL = 1e-8  # a function meets the zero-mean constraint when constraint_residual <= this


class MeshError(ValueError):
    """Invalid mesh or unsupported domain description."""


class SolveError(RuntimeError):
    """Eigenvalue iteration failed to meet the residual target."""


def _signed_areas(nodes: np.ndarray, elements: np.ndarray) -> np.ndarray:
    x = nodes[elements]
    return 0.5 * (
        (x[:, 1, 0] - x[:, 0, 0]) * (x[:, 2, 1] - x[:, 0, 1])
        - (x[:, 2, 0] - x[:, 0, 0]) * (x[:, 1, 1] - x[:, 0, 1])
    )


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the ranges starts[i] + 0 .. counts[i] - 1 laid end to end: the
    index i of the range each entry comes from, and the entries."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, starts[owner] + np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def _degenerate(nodes: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Elements whose |area| is below AREA_TOL times the squared mesh extent."""
    scale = float(np.ptp(nodes, axis=0).max()) or 1.0
    return np.abs(areas) <= AREA_TOL * scale**2


class TriangleMesh:
    """Conforming P1 triangulation with pure Neumann (implicit) boundary.

    Construction normalizes element orientation and audits the invariants
    (positive areas, connectivity, no edge shared by more than two elements,
    and no node hanging on the interior of a boundary edge). The gradient
    and midpoint operators and the midpoint weights are built on first use.
    """

    def __init__(self, nodes, elements) -> None:
        nodes = np.asarray(nodes, dtype=float)
        elements = np.array(elements, dtype=np.int64)  # copy: orientation may flip
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise MeshError("nodes must be an (N, 2) array")
        if not np.all(np.isfinite(nodes)):
            raise MeshError("nodes must be finite")
        if elements.ndim != 2 or elements.shape[1] != 3:
            raise MeshError("elements must be an (M, 3) array")
        if elements.min(initial=0) < 0 or elements.max(initial=-1) >= len(nodes):
            raise MeshError("element indices out of range")

        signed = _signed_areas(nodes, elements)
        flip = signed < 0.0
        elements[flip] = elements[flip][:, [0, 2, 1]]
        signed = np.abs(signed)
        if np.any(_degenerate(nodes, signed)):
            raise MeshError("mesh contains a degenerate element")

        self.nodes = nodes
        self.elements = elements
        self.areas = signed
        self._audit_edges()
        self._audit_connected()

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    # p1_matrices builds these for its call alone on a mesh that holds none
    # (_operator), so a p = 2 check never keeps them

    @cached_property
    def gradient_operator(self) -> sp.csr_matrix:
        """G (2E, N): row 2e + d holds the d-th derivative of the three basis
        functions of element e at columns elements[e, 0..2]; the derivative of
        basis i is the edge opposite node i, turned a quarter."""
        import scipy.sparse as sp  # imported on use: it costs the CLI's start-up
        e = self.element_count
        coords = self.nodes[self.elements]
        edges = coords[:, [2, 0, 1]] - coords[:, [1, 2, 0]]
        grads = np.stack([-edges[..., 1], edges[..., 0]], axis=1) / (2.0 * self.areas)[:, None, None]
        return sp.csr_matrix(
            (grads.ravel(), np.repeat(self.elements, 2, axis=0).ravel(), np.arange(0, 6 * e + 1, 3)),
            shape=(2 * e, self.node_count),
        )

    @cached_property
    def midpoint_operator(self) -> sp.csr_matrix:
        """P (3E, N): row 3e + i averages nodes elements[e, i] and
        elements[e, (i + 1) % 3]."""
        import scipy.sparse as sp
        e = self.element_count
        cols = np.stack([self.elements, self.elements[:, [1, 2, 0]]], axis=2).ravel()
        return sp.csr_matrix(
            (np.full(6 * e, 0.5), cols, np.arange(0, 6 * e + 1, 2)), shape=(3 * e, self.node_count)
        )

    @cached_property
    def midpoint_weights(self) -> np.ndarray:
        """The midpoint rule's weight area / 3 of each row of P."""
        return np.repeat(self.areas / 3.0, 3)

    # the descent scatters midpoint and gradient terms back to the nodes through
    # the transposes; scipy rebuilds a transpose on every .T, so they are kept

    @cached_property
    def midpoint_transpose(self) -> sp.csr_matrix:
        return self.midpoint_operator.T.tocsr()

    @cached_property
    def gradient_transpose(self) -> sp.csr_matrix:
        return self.gradient_operator.T.tocsr()

    @property
    def element_count(self) -> int:
        return len(self.elements)

    def _edge_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct edges as sorted (a, b) rows, and how many elements hold each."""
        a, b = self.elements, self.elements[:, [1, 2, 0]]
        n = self.node_count
        keys, counts = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_counts=True)
        return np.stack([keys // n, keys % n], axis=1), counts

    def _audit_edges(self) -> None:
        edges, counts = self._edge_counts()
        if np.any(counts > 2):
            raise MeshError("an edge is shared by more than two elements")
        # hanging-node audit: no mesh node may sit strictly inside a
        # boundary edge. Every node the exact test below can accept lies in
        # the edge's box grown by 2 tol, and a grid cell index is monotone in
        # the coordinate, so the nodes of the grid cells the box touches are
        # a superset. Sorted by column-major cell key, each column the box
        # spans is one searchsorted range. The cell side is the median box
        # side, but at least extent / sqrt(N): an edge spans <= ~sqrt(N) columns.
        boundary = edges[counts == 1]
        if not len(boundary):
            return
        scale = float(np.ptp(self.nodes, axis=0).max()) or 1.0
        tol = 1e-9 * scale
        pa, pb = self.nodes[boundary[:, 0]], self.nodes[boundary[:, 1]]
        lo, hi = np.minimum(pa, pb) - 2.0 * tol, np.maximum(pa, pb) + 2.0 * tol
        side = max(float(np.median((hi - lo).max(axis=1))), scale / math.sqrt(self.node_count))
        origin = self.nodes.min(axis=0)
        cells, lo, hi = (np.floor((x - origin) / side).astype(np.int64) for x in (self.nodes, lo, hi))
        top = cells.max(axis=0)
        lo, hi, rows = np.clip(lo, 0, top), np.clip(hi, 0, top), top[1] + 1
        keys = cells[:, 0] * rows + cells[:, 1]
        order = np.argsort(keys)
        keys = keys[order]
        edge, column = _ranges(lo[:, 0], hi[:, 0] - lo[:, 0] + 1)
        first = np.searchsorted(keys, column * rows + lo[edge, 1], side="left")
        last = np.searchsorted(keys, column * rows + hi[edge, 1], side="right")
        row, at = _ranges(first, last - first)
        edge, node = edge[row], order[at]
        d = (pb - pa)[edge]
        length2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        rel = self.nodes[node] - pa[edge]
        t = (rel[:, 0] * d[:, 0] + rel[:, 1] * d[:, 1]) / length2
        off = np.abs(rel[:, 0] * d[:, 1] - rel[:, 1] * d[:, 0]) / np.sqrt(length2)
        inside = (off < tol) & (t > 1e-9) & (t < 1.0 - 1e-9)
        inside &= (node != boundary[edge, 0]) & (node != boundary[edge, 1])
        if np.any(inside):
            raise MeshError("hanging node detected on a boundary edge")

    def _audit_connected(self) -> None:
        from scipy.sparse import coo_matrix, csgraph
        n = self.node_count
        rows = self.elements[:, [0, 1, 2]].ravel()
        cols = self.elements[:, [1, 2, 0]].ravel()
        graph = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        ncomp = csgraph.connected_components(graph, directed=False, return_labels=False)
        if ncomp != 1:
            raise MeshError(f"mesh is not connected ({ncomp} components)")

    def max_edge_length(self) -> float:
        coords = self.nodes[self.elements]
        edges = coords - np.roll(coords, 1, axis=1)
        return float(np.sqrt((edges**2).sum(axis=2)).max())

    def total_area(self) -> float:
        return float(self.areas.sum())

    @classmethod
    def from_dict(cls, data: dict) -> "TriangleMesh":
        """Mesh of a mesh file; a key whose entries are not finite numbers,
        or an element index that is not an integer, is refused by name."""
        nodes, elements = (read_field(data, key, "array", what="mesh", error=MeshError)
                           for key in ("nodes", "elements"))
        # below 2^53 every integer is an exact float
        if not np.all((np.trunc(elements) == elements) & (np.abs(elements) < 2.0**53)):
            raise MeshError("mesh key 'elements' must hold integer node indices")
        return cls(nodes, elements)


@dataclass(frozen=True)
class EigenResult:
    mu2: float
    residual: float
    eigenvector: np.ndarray  # one value per mesh node
    dof: int


# ---------------------------------------------------------------------------
# meshing
# ---------------------------------------------------------------------------


def _quad_grid_mesh(grid: np.ndarray, covered: np.ndarray) -> TriangleMesh:
    """Mesh of the covered triangles of a (ny+1, nx+1, 2) node grid.

    Cell (j, i), corners a = grid[j, i], b = grid[j, i+1], c = grid[j+1, i]
    and d = grid[j+1, i+1], holds (a, b, d) where covered[j, i, 0] and
    (a, d, c) where covered[j, i, 1], swept row by row; the nodes the
    triangles touch keep their row-major grid order.
    """
    nx = grid.shape[1] - 1
    nodes = grid.reshape(-1, 2)
    jj, ii, second = np.nonzero(covered)
    a = jj * (nx + 1) + ii
    b, c = a + 1, a + (nx + 1)
    d = c + 1
    elements = np.stack([a, np.where(second, d, b), np.where(second, c, d)], axis=1)
    used = np.zeros(len(nodes), dtype=bool)
    used[elements] = True
    renumber = np.cumsum(used) - 1
    return TriangleMesh(nodes[used], renumber[elements])


def _cut_lines(lo: float, hi: float, breaks: list[float], h: float) -> np.ndarray:
    pts = sorted({lo, hi, *[b for b in breaks if lo < b < hi]})
    out = []
    for a, b in zip(pts[:-1], pts[1:]):
        k = max(1, math.ceil((b - a) / h))
        out.extend(np.linspace(a, b, k + 1)[:-1])
    out.append(pts[-1])
    return np.array(out)


def _rect_union_mesh(rects: np.ndarray, h: float) -> TriangleMesh:
    """Conforming mesh of a union of axis-aligned rectangles, the (k, 4) rows
    [x0, y0, x1, y1] of rects.

    Grid lines are cut at every rectangle edge, so elements never straddle
    a rectangle boundary and the overlap regions are node-matched.
    """
    xs, ys = (_cut_lines(rects[:, d].min(), rects[:, d + 2].max(), rects[:, [d, d + 2]].ravel(), h)
              for d in (0, 1))
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])
    covered = np.zeros((len(cy), len(cx)), dtype=bool)
    for r in rects:
        covered |= ((r[1] <= cy) & (cy <= r[3]))[:, None] & ((r[0] <= cx) & (cx <= r[2]))[None, :]
    if not covered.any():
        raise MeshError("rectangle union is empty")
    return _quad_grid_mesh(np.stack(np.meshgrid(xs, ys), axis=-1), np.stack([covered, covered], axis=-1))


def _convex_polygon_mesh(vertices: np.ndarray, h: float) -> TriangleMesh:
    """Delaunay mesh of a convex polygon (boundary resolved to spacing h)."""
    from scipy.spatial import Delaunay
    verts = np.asarray(vertices, dtype=float)
    signed2 = float(
        np.dot(verts[:, 0], np.roll(verts[:, 1], -1)) - np.dot(verts[:, 1], np.roll(verts[:, 0], -1))
    )
    if signed2 < 0.0:
        verts = verts[::-1]
    spacing = 0.72 * h
    edges = np.roll(verts, -1, axis=0) - verts
    # edge i carries k_i samples verts[i] + edges[i] * (t / k_i), t = 0 .. k_i - 1
    counts = np.array([max(1, math.ceil(np.linalg.norm(e) / spacing)) for e in edges])
    edge, t = _ranges(np.zeros_like(counts), counts)
    boundary = verts[edge] + edges[edge] * (t / counts[edge])[:, None]
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    g = spacing
    gx = np.arange(lo[0] + g / 2, hi[0], g)
    gy = np.arange(lo[1] + g / 2, hi[1], g)
    grid = np.stack(np.meshgrid(gx, gy), axis=-1).reshape(-1, 2)
    if len(grid):
        # deterministic jitter breaks cocircular grid squares
        idx = np.arange(len(grid))
        jit = np.stack(
            [np.sin(idx * 12.9898) * 0.05 * g, np.sin(idx * 78.233) * 0.05 * g], axis=1
        )
        grid = grid + jit
        # keep points with a clearance margin inside every edge
        keep = np.ones(len(grid), dtype=bool)
        for a, e in zip(verts, edges):
            # signed area cross(e, p - a): positive strictly left of a ccw edge
            off = e[0] * (grid[:, 1] - a[1]) - e[1] * (grid[:, 0] - a[0])
            keep &= off > 0.45 * g * np.linalg.norm(e)
        grid = grid[keep]
    points = np.vstack([boundary, grid]) if len(grid) else boundary
    tri = Delaunay(points).simplices
    # Qhull triangulates runs of collinear boundary samples into zero-area
    # hull triangles. A sample strictly inside an edge of a proper triangle
    # would lie inside its circumcircle, so every sample is also a vertex of
    # proper triangles, and dropping the slivers leaves a conforming mesh.
    sliver = _degenerate(points, _signed_areas(points, tri)) & np.all(tri < len(boundary), axis=1)
    return TriangleMesh(points, tri[~sliver])


def _star_mesh(delta: float, h: float) -> TriangleMesh:
    """Graded structured mesh of the 2D star union {|x| < delta + |y|, |y| < alpha}.

    Rows of nodes are placed at uniform heights and rescaled to the exact
    row half-width, so the slanted boundary is matched exactly and no
    sliver elements appear.
    """
    spec = StarDomainSpec(delta=delta, n=2)
    alpha = spec.alpha
    half_width = delta + alpha
    # row shear adds up to one vertical spacing to the horizontal extent of
    # slanted edges; the budget dx <= 0.7h, dy <= 0.5h keeps every edge
    # below sqrt((0.7h + 0.5h)^2 + (0.5h)^2) = 1.3h
    nx = max(2, math.ceil(2.0 * half_width / (0.7 * h)))
    ny = max(2, math.ceil(2.0 * alpha / (0.5 * h)))
    ny += ny % 2  # keep the pinch row y = 0 in the lattice
    x, y = np.meshgrid(np.linspace(-1.0, 1.0, nx + 1), np.linspace(-alpha, alpha, ny + 1))
    grid = np.stack([x * (delta + np.abs(y)), y], axis=-1)
    return _quad_grid_mesh(grid, np.ones((ny, nx, 2), dtype=bool))


def _disk_mesh(radius: float, h: float, center=(0.0, 0.0)) -> TriangleMesh:
    """Polar structured mesh: ring k carries 6k nodes at radius k * R / K.

    It is the lattice i (1, 0) + j (-1/2, sqrt(3)/2) inside the hexagon of K
    rings k = max(|i|, |j|, |i - j|), mapped radially: place t on ring k goes
    to angle 2 pi t / (6k). A triangle is kept when its vertices have k <= K.
    """
    rings = max(2, round(radius / h))
    dr = radius / rings
    cx, cy = center
    j, i = np.mgrid[-rings:rings + 1, -rings:rings + 1]
    k = np.maximum(np.maximum(np.abs(i), np.abs(j)), np.abs(i - j))
    # place t counterclockwise from (k, 0): j, 2k - i, 2k - i, 3k - j, 5k + i, 5k + i on the six sides
    place = np.select([i == k, (j == k) | (j - i == k), i == -k], [j, 2 * k - i, 3 * k - j], 5 * k + i)
    ang = 2.0 * math.pi * place / np.maximum(6 * k, 1)
    grid = np.stack([cx + k * dr * np.cos(ang), cy + k * dr * np.sin(ang)], axis=-1)
    inside = k <= rings
    kept = inside[:-1, :-1] & inside[1:, 1:]
    return _quad_grid_mesh(grid, np.stack([kept & inside[:-1, 1:], kept & inside[1:, :-1]], axis=-1))


def mesh_domain(spec: dict, h: float) -> TriangleMesh | None:
    """Deterministic conforming triangulation of a supported 2D domain.

    The one place that knows a domain kind: each branch reads its keys,
    sizes the node guard and picks the mesher. Supported kinds: rectangle,
    rect_union, convex polygon, the star domain, and disk. A star whose
    "dim" (default 2) is not 2 is a kind the oracle has no mesh for, and
    gets None; an unknown kind is refused. Maximum edge length stays below
    1.5 h. Before any node is placed, the node count is estimated as that
    of a spacing-h lattice over the domain's bounding box (the meshers
    place between about 0.6x and 3.3x as many); above MAX_MESH_NODES the
    mesh is refused.
    """
    if not h > 0.0:
        raise MeshError("target edge length must be positive")
    kind = spec.get("kind")
    read = functools.partial(read_field, spec, what=f"{kind} mesh description", error=MeshError)
    if kind in ("rectangle", "rect_union"):  # a rectangle is a one-rectangle union
        if kind == "rectangle":
            rects, need = read("bounds", "array")[None], '"bounds": [x0, y0, x1, y1]'
        else:
            rects, need = read("rects", "array"), '"rects": a non-empty list of [x0, y0, x1, y1]'
        if rects.ndim != 2 or rects.shape[1:] != (4,) or not len(rects):
            raise MeshError(f"{kind} needs {need}")
        width, height = rects[:, 2:].max(axis=0) - rects[:, :2].min(axis=0)
        build = functools.partial(_rect_union_mesh, rects, h)
    elif kind == "polygon":
        vertices = read("vertices", "array")
        # ConvexCell refuses flat and non-convex sets; the loop must also enclose the hull's
        # area to 1e-9 relative: twice both areas, integers on the cell's 2^-k grid
        cell = ConvexCell(vertices)
        if cell.n == 2:
            loop, hull = abs(_shoelace(cell._points)), cell._exact[0]
        if cell.n != 2 or abs(loop - hull) * 10**9 > max(loop, hull):
            raise MeshError("polygon vertices must run in order around a convex polygon")
        width, height = np.ptp(vertices, axis=0)
        build = functools.partial(_convex_polygon_mesh, vertices, h)
    elif kind == "star":
        if read("dim", "integer", 2) != 2:
            return None
        delta = read("delta", "finite number")
        alpha = StarDomainSpec(delta=delta, n=2).alpha
        width, height = 2.0 * (delta + alpha), 2.0 * alpha
        build = functools.partial(_star_mesh, delta, h)
    elif kind == "disk":
        radius = read("radius", "number")
        center = read("center", "array", (0.0, 0.0))
        # the element areas, ~ radius^2, stay normal floats
        if not 1e-150 < radius < 1e150:
            raise MeshError(f"disk mesh description key 'radius' must lie between 1e-150 "
                            f"and 1e150, got {radius!r}")
        if np.shape(center) != (2,):
            raise MeshError(f"disk mesh description key 'center' must be two numbers, "
                            f"got {center.tolist()!r}")
        width = height = 2.0 * radius
        build = functools.partial(_disk_mesh, radius, h, tuple(center))
    else:
        raise MeshError(f"unsupported domain kind {kind!r}")
    estimate = (abs(width) / h + 1.0) * (abs(height) / h + 1.0)
    if estimate > MAX_MESH_NODES:
        raise MeshError(
            f"mesh too large: about {estimate:.3g} nodes at h = {h:g} (limit {MAX_MESH_NODES})"
        )
    return build()


# ---------------------------------------------------------------------------
# P1 assembly and the eigenvalue solve
# ---------------------------------------------------------------------------


def _operator(mesh: TriangleMesh, name: str):
    """The operator `name` the mesh holds, or else one built for the caller alone."""
    held = vars(mesh)
    return held[name] if name in held else getattr(TriangleMesh, name).func(mesh)


def p1_matrices(mesh: TriangleMesh) -> tuple[sp.csc_matrix, sp.csc_matrix]:
    """Stiffness G^T diag(area) G and consistent mass P^T diag(area / 3) P.

    The midpoint rule is exact for the quadratic products of P1 functions,
    so the mass is the consistent one, not lumped. Operators the mesh does
    not hold yet are built for this call alone, G dropped before P is
    built, so a p = 2 solve factorizes holding only the mesh arrays, K and M.
    """
    import scipy.sparse as sp
    g = _operator(mesh, "gradient_operator")
    stiffness = g.T @ sp.diags(np.repeat(mesh.areas, 2)) @ g
    del g
    p = _operator(mesh, "midpoint_operator")
    return stiffness, p.T @ sp.diags(_operator(mesh, "midpoint_weights")) @ p


def _shifted_solve(mesh: TriangleMesh, count: int):
    """Stiffness, mass, M @ 1, the LU of K - sigma M and the lowest
    non-constant eigenvectors.

    The shift is scale-free: sigma = -1e-2 min_d R(x_d - xbar_d), where R is
    the P1 Rayleigh quotient u.K u / u.M u and xbar the mass-weighted mean
    of the coordinates. Each x_d - xbar_d is mass-orthogonal to constants,
    so R bounds mu2 from above and sigma sits one percent of that below
    zero, which makes K - sigma M positive definite despite the constant
    null mode. One sparse shift-invert Lanczos solve (ARPACK through eigsh)
    then returns the k = min(count, N - 2) smallest nonzero eigenpairs of
    K v = mu M v. The constant null vector is known, so it is deflated
    rather than computed: every LU solve is projected mass-orthogonally off
    constants, and the Krylov basis holds min(N, 10 k) vectors, so a caller
    that reads one eigenvector pays for one. The eigenvectors come back as
    columns in ascending eigenvalue order.
    """
    import scipy.sparse.linalg as spla
    stiffness, mass = p1_matrices(mesh)
    n = mesh.node_count
    ones_mass = np.asarray(mass.sum(axis=0)).ravel()  # M @ 1
    total = ones_mass.sum()
    coords = mesh.nodes - (ones_mass @ mesh.nodes) / total
    energy = (coords * (stiffness @ coords)).sum(axis=0)
    sigma = -1e-2 * float((energy / (coords * (mass @ coords)).sum(axis=0)).min())
    # K - sigma M is symmetric positive definite, so diagonal pivots are stable; partial
    # pivoting would break the symmetric ordering's fill on unstructured or renumbered meshes
    lu = spla.splu((stiffness - sigma * mass).tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    def deflated_solve(x):
        y = lu.solve(x)
        return y - (ones_mass @ y) / total

    k = min(count, n - 2)  # ARPACK needs k < ncv, and the deflated range has N - 1 dimensions
    try:
        w, vecs = spla.eigsh(
            stiffness,
            k=k,
            M=mass,
            sigma=sigma,
            OPinv=spla.LinearOperator((n, n), matvec=deflated_solve, dtype=float),
            v0=np.random.default_rng(0).standard_normal(n),
            ncv=min(n, 10 * k),
            tol=1e-10,
        )
    except spla.ArpackNoConvergence as exc:
        raise SolveError(f"shift-invert Lanczos did not converge: {exc}") from None
    return stiffness, mass, ones_mass, lu, vecs[:, np.argsort(w)]


def neumann_mu2(mesh: TriangleMesh) -> EigenResult:
    """Smallest nonzero Neumann eigenvalue of the P1 discretization.

    The shifted solve (see _shifted_solve) gives the first non-constant
    eigenvector; it is deflated mass-orthogonally against constants once
    more (removing the rounding of the solve), mu is recomputed as its
    Rayleigh quotient, and the relative eigenpair residual is certified to
    EIGEN_RESIDUAL_TOL.
    """
    stiffness, mass, ones_mass, _, vecs = _shifted_solve(mesh, 1)
    v = vecs[:, 0]
    v = v - (ones_mass @ v) / ones_mass.sum()
    v /= math.sqrt(v @ (mass @ v))
    kv = stiffness @ v
    mu = float(v @ kv)
    residual = float(np.linalg.norm(kv - mu * (mass @ v)) / np.linalg.norm(kv))
    if residual > EIGEN_RESIDUAL_TOL:
        raise SolveError(f"eigenpair residual {residual:.3e} above target {EIGEN_RESIDUAL_TOL:g}")
    return EigenResult(mu2=mu, residual=residual, eigenvector=v, dof=mesh.node_count)


# ---------------------------------------------------------------------------
# discrete integrals (three-edge-midpoint rule) and Rayleigh quotients
# ---------------------------------------------------------------------------


def _midpoint_integral(mesh: TriangleMesh, g: np.ndarray, element_mask=None) -> float:
    """Midpoint-rule integral of g, given at the rows of the midpoint operator."""
    if element_mask is None:
        return float(mesh.midpoint_weights @ g)
    return float((mesh.midpoint_weights * g).reshape(-1, 3)[element_mask].sum())


def integrate_abs_power(mesh: TriangleMesh, values: np.ndarray, p: float) -> float:
    """int |f|^p over the mesh, midpoint rule."""
    return _midpoint_integral(mesh, np.abs(mesh.midpoint_operator @ values) ** p)


def subset_average(mesh: TriangleMesh, values: np.ndarray, element_mask=None) -> float:
    """Mean of f over the selected elements in the midpoint measure."""
    areas = mesh.areas if element_mask is None else mesh.areas[element_mask]
    total = float(areas.sum())
    if total <= 0.0:
        raise MeshError("subset has zero area")
    return _midpoint_integral(mesh, mesh.midpoint_operator @ values, element_mask) / total


def _gradient_powers(grads: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Squared lengths and p-th powers of the element gradients grads = G f."""
    sq = grads * grads
    gsq = sq[0::2] + sq[1::2]
    return gsq, gsq ** (0.5 * p)


def gradient_integral(mesh: TriangleMesh, values: np.ndarray, p: float, element_mask=None) -> float:
    """int |grad f|^p with the exact per-element constant gradients."""
    contrib = mesh.areas * _gradient_powers(mesh.gradient_operator @ values, p)[1]
    if element_mask is not None:
        contrib = contrib[element_mask]
    return float(contrib.sum())


def constraint_residual(mesh: TriangleMesh, values: np.ndarray, p: float) -> float:
    """|F| / S for the discretized zero-mean constraint F = int |f|^(p-2) f
    and its scale S = int |f|^(p-1); NaN if either is not finite, 0 for f = 0."""
    # sign(f) |f|^(p-1), unlike |f|^(p-2) f, is 0 and not NaN where f = 0
    mids = mesh.midpoint_operator @ values
    power = np.abs(mids) ** (p - 1.0)
    value = _midpoint_integral(mesh, np.copysign(power, mids))
    scale = _midpoint_integral(mesh, power)
    if not (math.isfinite(value) and math.isfinite(scale)):
        return math.nan
    return abs(value) / scale if scale > 0.0 else 0.0


def _constraint_shift(mids: np.ndarray, weights: np.ndarray, p: float, lo: float, hi: float):
    """The shift c of project_constraint from m = P f, its weights and the range
    [lo, hi] of f, with r = m - c and sign(r) |r|^(p-1) of the last Newton step."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("cannot project a function with non-finite values")
    if hi - lo <= 0.0:
        raise ValueError("cannot project a constant function")
    c, last_step = min(max(float(weights @ mids) / float(weights.sum()), lo), hi), hi - lo
    r, u, t2 = np.empty_like(mids), np.empty_like(mids), np.empty_like(mids)
    # u = |r|^(p-1) from one power, then sign(r) |r|^(p-1); t2 = |r|^(p-2) is NaN
    # at a zero of r with p < 2, and the step below falls back to bisection
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            np.subtract(mids, c, out=r)
            np.abs(r, out=u)
            if p >= 2.0:
                np.power(u, p - 2.0, out=t2)
                u *= t2
            else:
                np.power(u, p - 1.0, out=u)
            scale = float(weights @ u)
            np.copysign(u, r, out=u)
            value = float(weights @ u)
            if abs(value) <= 1e-13 * scale:
                break
            lo, hi = (c, hi) if value > 0.0 else (lo, c)
            if hi - lo <= 4.0 * np.spacing(max(abs(lo), abs(hi))):
                break
            if p < 2.0:
                np.divide(u, r, out=t2)
            step = value / ((p - 1.0) * float(weights @ t2))
            ok = math.isfinite(step) and lo < c + step < hi and abs(step) <= 0.5 * last_step
            c_next = c + step if ok else 0.5 * (lo + hi)
            last_step, c = abs(c_next - c), c_next
    return c, r, u


def project_constraint(mesh: TriangleMesh, values: np.ndarray, p: float) -> np.ndarray:
    """Shift by the unique constant that zeroes the constraint functional.

    The constraint F(c) = sum_k w_k sign(m_k - c) |m_k - c|^(p-1) over the
    midpoint values m_k (weights w_k = area / 3) is strictly decreasing in
    the shift c, with F'(c) = -(p - 1) sum_k w_k |m_k - c|^(p-2). Newton
    starts from the weighted mean of m, the exact root at p = 2, inside the
    bracket [min f, max f], which holds the root. A step that leaves the
    bracket, that fails to halve the previous step, or that meets a
    non-finite F' (a zero m_k - c at p < 2) is replaced by bisection. The
    iteration stops when |F| <= 1e-13 sum_k w_k |m_k - c|^(p-1), or when the
    bracket is a few ulps wide. The descent's trials call this Newton
    (_constraint_shift) on the midpoint values they carry.

    Floating-point limit: as p approaches 1, |m - c|^(p-1) gets unbounded
    slope at every midpoint value, so the ulp-wide bracket can still leave
    |F| above FEASIBILITY_TOL of that scale, the tolerance rayleigh_quotient
    demands (at p = 1.1 on a 697-node star, 12 of 200 random inputs, worst
    1.2e-5; at p >= 1.25 below 1e-13). minimize_rayleigh_p then reports the
    estimate as not converged.
    """
    mids, lo, hi = mesh.midpoint_operator @ values, float(values.min()), float(values.max())
    return values - _constraint_shift(mids, mesh.midpoint_weights, p, lo, hi)[0]


def rayleigh_quotient(
    mesh: TriangleMesh, values: np.ndarray, p: float, project: bool = False
) -> float:
    """Discrete Rayleigh quotient int |grad f|^p / int |f|^p of nodal values.

    The argument must satisfy the discretized zero-mean constraint to
    FEASIBILITY_TOL (constraint_residual), unless project=True requests the
    constant-shift projection.
    Always an upper bound for the discrete minimum.
    """
    values = np.asarray(values, dtype=float)
    if len(values) != mesh.node_count:
        raise ValueError("nodal value count does not match the mesh")
    if np.ptp(values) <= 1e-14 * max(1.0, np.abs(values).max()):
        raise ValueError("Rayleigh quotient of a constant function is undefined")
    # a NaN residual (non-finite constraint) counts as violated
    if not constraint_residual(mesh, values, p) <= FEASIBILITY_TOL:
        if not project:
            raise ValueError("constraint violated; pass project=True to shift")
        values = project_constraint(mesh, values, p)
    return gradient_integral(mesh, values, p) / integrate_abs_power(mesh, values, p)


def _rayleigh_gradient(mesh: TriangleMesh, values, p: float, terms=None):
    """Value and nodal gradient of the Rayleigh functional at f = values, or at the f
    of the terms P f, sign(P f) |P f|^(p-1), G f, |G f|^2 and |G f|^p (per element)."""
    if terms is None:
        mids, grads = mesh.midpoint_operator @ values, mesh.gradient_operator @ values
        terms = (mids, np.copysign(np.abs(mids) ** (p - 1.0), mids), grads, *_gradient_powers(grads, p))
    mids, signed, grads, gsq, gpow = terms
    num, den = float(mesh.areas @ gpow), float(mesh.midpoint_weights @ (mids * signed))
    # |grad f|^(p-2), taken as 0 on an element where grad f = 0
    weight = p * mesh.areas * np.divide(gpow, gsq, out=np.zeros_like(gsq), where=gsq > 0.0)
    dnum = mesh.gradient_transpose @ (weight[:, None] * grads.reshape(-1, 2)).ravel()
    dden = mesh.midpoint_transpose @ (p * mesh.midpoint_weights * signed)
    return num / den, (dnum - num / den * dden) / den


def _shifted_trial(mesh: TriangleMesh, p: float, x, mids, grads):
    """Rayleigh value of the projected trial f = x - c from mids = P x and
    grads = G x (= G f); with x, c, int |f|^p and f's _rayleigh_gradient terms."""
    c, r, signed = _constraint_shift(mids, mesh.midpoint_weights, p, float(x.min()), float(x.max()))
    gsq, gpow = _gradient_powers(grads, p)
    den = float(mesh.midpoint_weights @ (r * signed))
    return float(mesh.areas @ gpow) / den, (x, c, den, (r, signed, grads, gsq, gpow))


def _normalized(mesh: TriangleMesh, p: float, x, c: float, den: float, terms):
    """v = (x - c) / |x - c|_p of an accepted trial (_shifted_trial), P v, G v, and the
    Rayleigh value and nodal gradient at v: |x - c|_p times the gradient at x - c."""
    norm = den ** (1.0 / p)
    value, grad = _rayleigh_gradient(mesh, None, p, terms)
    return (x - c) / norm, terms[0] / norm, terms[2] / norm, value, grad * norm


def minimize_rayleigh_p(
    mesh: TriangleMesh,
    p: float,
    iterations: int = 200,
    starts: int = 2,
    return_info: bool = False,
):
    """Best-effort upper estimate of the discrete first nontrivial mu_p.

    Backtracking descent from the first `starts` non-constant P1
    eigenvectors (2 and 3 by default; a 3-node mesh has only one) along the
    Sobolev gradient z = LU^-1 g, made Polak-Ribiere+ conjugate in the LU
    metric (restarted at each start and wherever it is no descent direction)
    and scaled to unit M-norm. A trial is projected and valued from the
    carried P v - s P d and G v - s G d without a sparse product; only an
    accepted one is normalized and builds the gradient. Each start ends on
    the stopping test (STOP_WINDOW) or after `iterations` trials, and its
    final iterate is valued afresh. Converged: the best start ended on the
    test with a fresh P v meeting FEASIBILITY_TOL.
    An estimate, not a certificate: a claimed lower bound must not exceed it.
    """
    check_exponent(p)
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts!r}")
    # built and kept before the solve, whose assembly then reuses them
    mid_op, grad_op, weights = mesh.midpoint_operator, mesh.gradient_operator, mesh.midpoint_weights
    _, _, _, lu, vecs = _shifted_solve(mesh, starts)
    best, total_iters, converged = math.inf, 0, False
    for v in vecs.T:
        with np.errstate(over="ignore", invalid="ignore"):
            v = project_constraint(mesh, v, p)
            norm = integrate_abs_power(mesh, v, p)
        if not 0.0 < norm < math.inf:
            raise SolveError(f"general-p oracle at p = {p:g}: int |f|^p leaves float range")
        v /= norm ** (1.0 / p)
        pv, gv = mid_op @ v, grad_op @ v
        value, grad = _rayleigh_gradient(mesh, v, p)
        step, history, z, z_prev, stopped = 0.5, [], None, None, False
        for _ in range(iterations):
            history.append(value)
            if z is None:  # a new direction after each accepted step
                z = lu.solve(grad)
                pz, gz, gz_dot = mid_op @ z, grad_op @ z, float(grad @ z)
                # M-norms as w.(P x)^2, exact since M = P^T diag(w) P
                slope = gz_dot * math.sqrt((weights @ (pv * pv)) / (weights @ (pz * pz)))
                beta = 0.0 if z_prev is None else max(0.0, (gz_dot - float(grad @ z_prev)) / gz_dot_prev)
                if beta > 0.0 and gz_dot + beta * float(grad @ d) > 0.0:
                    d, pd, gd = z + beta * d, pz + beta * pd, gz + beta * gd
                else:
                    d, pd, gd = z, pz, gz
                d_norm, z_prev, gz_dot_prev = math.sqrt(weights @ (pd * pd)), z, gz_dot
            window = history[-1 - STOP_WINDOW] - value if len(history) > STOP_WINDOW else math.inf
            stopped = not (slope > STOP_SLOPE * value and window > STOP_DECREASE * value)
            if stopped:
                break
            total_iters += 1
            s = step / d_norm
            try:
                t_value, trial = _shifted_trial(mesh, p, v - s * d, pv - s * pd, gv - s * gd)
            except ValueError:
                step *= 0.5
                continue
            if t_value < value:
                v, pv, gv, value, grad = _normalized(mesh, p, *trial)
                z, step = None, min(step * 1.3, 1.0)
            else:
                step *= 0.5
        value = gradient_integral(mesh, v, p) / integrate_abs_power(mesh, v, p)
        if value < best:
            best, converged = value, stopped and constraint_residual(mesh, v, p) <= FEASIBILITY_TOL
    info = {"iterations": total_iters, "converged": converged, "final_step": step}
    return (best, info) if return_info else best


# ---------------------------------------------------------------------------
# domination checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominationReport:
    passed: bool
    kind: str
    claimed: float
    oracle_value: float
    margin: float
    oracle_is_estimate: bool
    iterations: int  # descent steps over all starts; 0 for the p = 2 solve
    converged: bool
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {**asdict(self), "notes": list(self.notes)}


def check_domination(bound, mesh: TriangleMesh) -> DominationReport:
    """PASS iff the claimed bound is on the safe side of the oracle.

    Poincare bounds must dominate the discrete constant mu^(-1/p); eigenvalue
    lower bounds must not exceed the discrete eigenvalue mu. At p = 2 the
    oracle is the FEM value; for other p it is the descent estimate, which
    is explicitly flagged as an estimate, not a certificate.
    """
    if isinstance(bound, PoincareBound):
        kind, claimed = "poincare", float(bound.value)
    elif isinstance(bound, EigenBound):
        kind, claimed = "eigen", float(bound.mu_lower)
    else:
        raise TypeError(f"cannot check bounds of type {type(bound).__name__}")
    p = bound.p
    estimate = not abs(p - 2.0) < 1e-12  # a NaN p is not 2 and takes the descent
    if estimate:
        mu, info = minimize_rayleigh_p(mesh, p, return_info=True)
    else:
        mu, info = neumann_mu2(mesh).mu2, {"iterations": 0, "converged": True}
    if kind == "poincare":
        oracle_value = mu ** (-1.0 / p if estimate else -0.5)
        margin = float(claimed - oracle_value)
    else:
        oracle_value = mu
        margin = float(oracle_value - claimed)
    notes = ("general-p oracle is an estimate, not a certificate",) if estimate else ()
    return DominationReport(
        passed=bool(margin >= 0.0),
        kind=kind,
        claimed=claimed,
        oracle_value=oracle_value,
        margin=margin,
        oracle_is_estimate=estimate,
        iterations=info["iterations"],
        converged=info["converged"],
        notes=notes,
    )
