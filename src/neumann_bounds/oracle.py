"""Ground-truth verification: P1 Neumann eigenvalues and Rayleigh quotients.

Everything needed to check that emitted bounds are genuine lower bounds at
desk scale: deterministic 2D triangulations of the supported domain kinds,
stiffness/mass assembly with consistent (non-lumped) mass, the smallest
nonzero Neumann eigenvalue with a residual certificate, and discrete
Rayleigh-quotient evaluation for general p. All |f|-type integrals use the
three-edge-midpoint rule, which is exact for quadratics.

Each mesh builds two sparse operators with itself: the midpoint operator P
(3E x N) maps nodal values to the three edge midpoints of every element,
and the gradient operator G (2E x N) maps them to the constant element
gradients. They are the oracle's one quadrature: the P1 matrices are
K = G^T diag(area) G and M = P^T diag(area / 3) P, and the general-p
integrals, the zero-mean constraint and the Rayleigh functional are
products with P and G, whose transposes scatter the functional's gradient
back to the nodes. The constraint projection finds its shift by
safeguarded Newton on the closed-form derivative of the constraint.

Each oracle call factors its mesh once (_shifted_solve): the p = 2
eigensolve uses the LU of K - sigma M as its shift-invert operator, and the
general-p descent starts from the eigenvectors of that solve and uses the
same LU as its Sobolev-gradient preconditioner. The solve deflates the
known constant null vector instead of computing it, and computes only the
eigenpairs its caller reads: one at p = 2, one per descent start.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .geometry import ConvexCell, StarDomainSpec, cell_volume, polygon_area
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


def _degenerate(nodes: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Elements whose |area| is below AREA_TOL times the squared mesh extent."""
    scale = float(np.ptp(nodes, axis=0).max()) or 1.0
    return np.abs(areas) <= AREA_TOL * scale**2


class TriangleMesh:
    """Conforming P1 triangulation with pure Neumann (implicit) boundary.

    Construction normalizes element orientation, audits the invariants
    (positive areas, connectivity, no edge shared by more than two elements,
    and no node hanging on the interior of a boundary edge) and builds the
    gradient and midpoint operators.
    """

    def __init__(self, nodes, elements) -> None:
        nodes = np.asarray(nodes, dtype=float)
        elements = np.array(elements, dtype=np.int64)  # copy: orientation may flip
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise MeshError("nodes must be an (N, 2) array")
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
        import scipy.sparse as sp  # imported on use: it costs the CLI's start-up
        e = len(elements)
        # gradient operator G (2E, N): row 2e + d holds the d-th derivative of the
        # three basis functions of element e at columns elements[e, 0..2]; the
        # derivative of basis i is the edge opposite node i, turned a quarter
        coords = nodes[elements]
        edges = coords[:, [2, 0, 1]] - coords[:, [1, 2, 0]]
        grads = np.stack([-edges[..., 1], edges[..., 0]], axis=1) / (2.0 * signed)[:, None, None]
        self.gradient_operator = sp.csr_matrix(
            (grads.ravel(), np.repeat(elements, 2, axis=0).ravel(), np.arange(0, 6 * e + 1, 3)),
            shape=(2 * e, len(nodes)),
        )
        # midpoint operator P (3E, N): row 3e + i averages nodes elements[e, i]
        # and elements[e, (i + 1) % 3]; the midpoint rule weighs each row area / 3
        cols = np.stack([elements, elements[:, [1, 2, 0]]], axis=2).ravel()
        self.midpoint_operator = sp.csr_matrix(
            (np.full(6 * e, 0.5), cols, np.arange(0, 6 * e + 1, 2)), shape=(3 * e, len(nodes))
        )
        self.midpoint_weights = np.repeat(signed / 3.0, 3)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

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
        pairs = np.sort(self.elements[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        n = self.node_count
        keys, counts = np.unique(pairs[:, 0] * n + pairs[:, 1], return_counts=True)
        return np.stack([keys // n, keys % n], axis=1), counts

    def boundary_edges(self) -> list[tuple[int, int]]:
        edges, counts = self._edge_counts()
        return [tuple(e) for e in edges[counts == 1].tolist()]

    def _audit_edges(self) -> None:
        from scipy.spatial import cKDTree
        edges, counts = self._edge_counts()
        if np.any(counts > 2):
            raise MeshError("an edge is shared by more than two elements")
        # hanging-node audit: no mesh node may sit strictly inside a
        # boundary edge. The ball around the edge midpoint holds every node
        # the exact test below can accept, so it only prunes candidates.
        boundary = edges[counts == 1]
        if not len(boundary):
            return
        scale = float(np.ptp(self.nodes, axis=0).max()) or 1.0
        tol = 1e-9 * scale
        pa, pb = self.nodes[boundary[:, 0]], self.nodes[boundary[:, 1]]
        length = np.sqrt(((pb - pa) ** 2).sum(axis=1))
        near = cKDTree(self.nodes).query_ball_point(0.5 * (pa + pb), 0.5 * length + 2.0 * tol)
        sizes = np.fromiter(map(len, near), dtype=np.int64, count=len(near))
        edge = np.repeat(np.arange(len(boundary)), sizes)
        node = np.fromiter(itertools.chain.from_iterable(near), dtype=np.int64, count=sizes.sum())
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

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes.tolist(),
            "elements": self.elements.tolist(),
        }

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
    """Mesh of the covered cells of a (ny+1, nx+1, 2) node grid.

    Each cell (j, i) with covered[j, i] splits into (a, b, d), (a, d, c),
    cells swept row by row; the nodes those cells touch keep their
    row-major grid order.
    """
    nx = grid.shape[1] - 1
    nodes = grid.reshape(-1, 2)
    jj, ii = np.nonzero(covered)
    a = jj * (nx + 1) + ii
    b, c = a + 1, a + (nx + 1)
    d = c + 1
    elements = np.stack([a, b, d, a, d, c], axis=1).reshape(-1, 3)
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
    return _quad_grid_mesh(np.stack(np.meshgrid(xs, ys), axis=-1), covered)


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
    boundary = []
    m = len(verts)
    for i in range(m):
        a, b = verts[i], verts[(i + 1) % m]
        k = max(1, math.ceil(np.linalg.norm(b - a) / spacing))
        for t in range(k):
            boundary.append(a + (b - a) * (t / k))
    boundary = np.array(boundary)
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    g = spacing
    gx = np.arange(lo[0] + g / 2, hi[0], g)
    gy = np.arange(lo[1] + g / 2, hi[1], g)
    grid = np.array([(x, y) for y in gy for x in gx])
    if len(grid):
        # deterministic jitter breaks cocircular grid squares
        idx = np.arange(len(grid))
        jit = np.stack(
            [np.sin(idx * 12.9898) * 0.05 * g, np.sin(idx * 78.233) * 0.05 * g], axis=1
        )
        grid = grid + jit
        # keep points with a clearance margin inside every edge
        keep = np.ones(len(grid), dtype=bool)
        for i in range(m):
            a, b = verts[i], verts[(i + 1) % m]
            e = b - a
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
    return _quad_grid_mesh(grid, np.ones((ny, nx), dtype=bool))


def _disk_mesh(radius: float, h: float, center=(0.0, 0.0)) -> TriangleMesh:
    """Polar structured mesh: ring k carries 6k nodes at radius k * R / K."""
    rings = max(2, round(radius / h))
    dr = radius / rings
    cx, cy = center
    nodes = [(cx, cy)]
    ring_start = [0]
    for k in range(1, rings + 1):
        m = 6 * k
        ring_start.append(len(nodes))
        ang = 2.0 * math.pi * np.arange(m) / m
        nodes.extend(zip(cx + k * dr * np.cos(ang), cy + k * dr * np.sin(ang)))
    elements = []
    for j in range(6):  # center fan
        elements.append((0, 1 + j, 1 + (j + 1) % 6))
    for k in range(2, rings + 1):
        m_prev, m_cur = 6 * (k - 1), 6 * k
        start_prev, start_cur = ring_start[k - 1], ring_start[k]
        i = j = 0
        for _ in range(m_prev + m_cur):
            next_prev = (i + 1) / m_prev
            next_cur = (j + 1) / m_cur
            pi_, ci_ = start_prev + i % m_prev, start_cur + j % m_cur
            # ties advance the coarse ring first, keeping the rings aligned
            if next_cur < next_prev:
                elements.append((pi_, ci_, start_cur + (j + 1) % m_cur))
                j += 1
            else:
                elements.append((pi_, ci_, start_prev + (i + 1) % m_prev))
                i += 1
    return TriangleMesh(np.array(nodes), np.array(elements))


def mesh_domain(spec: dict, h: float) -> TriangleMesh:
    """Deterministic conforming triangulation of a supported 2D domain.

    Supported kinds: rectangle, rect_union, convex polygon, the 2D star
    domain, and disk. Maximum edge length stays below 1.5 h. Before any
    node is placed, the node count is estimated as that of a spacing-h
    lattice over the domain's bounding box (the meshers place between
    about 0.6x and 3.3x as many); above MAX_MESH_NODES the mesh is refused.
    """
    if h <= 0.0:
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
        # ConvexCell refuses flat and non-convex sets; the loop must also enclose the hull's area
        cell = ConvexCell(vertices)
        if cell.n != 2 or not math.isclose(polygon_area(vertices), cell_volume(cell), rel_tol=1e-9):
            raise MeshError("polygon vertices must run in order around a convex polygon")
        width, height = np.ptp(vertices, axis=0)
        build = functools.partial(_convex_polygon_mesh, vertices, h)
    elif kind == "star":
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


def p1_matrices(mesh: TriangleMesh) -> tuple[sp.csc_matrix, sp.csc_matrix]:
    """Stiffness G^T diag(area) G and consistent mass P^T diag(area / 3) P.

    The midpoint rule is exact for the quadratic products of P1 functions,
    so the mass is the consistent one, not lumped.
    """
    import scipy.sparse as sp
    g, p = mesh.gradient_operator, mesh.midpoint_operator
    return (g.T @ sp.diags(np.repeat(mesh.areas, 2)) @ g,
            p.T @ sp.diags(mesh.midpoint_weights) @ p)


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


def _gradient_squares(mesh: TriangleMesh, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Element gradients as (E, 2) rows, and their squared lengths."""
    g = (mesh.gradient_operator @ values).reshape(-1, 2)
    return g, g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1]


def gradient_integral(mesh: TriangleMesh, values: np.ndarray, p: float, element_mask=None) -> float:
    """int |grad f|^p with the exact per-element constant gradients."""
    contrib = mesh.areas * np.sqrt(_gradient_squares(mesh, values)[1]) ** p
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
    bracket is a few ulps wide.

    Floating-point limit: as p approaches 1, |m - c|^(p-1) gets unbounded
    slope at every midpoint value, so the ulp-wide bracket can still leave
    |F| above FEASIBILITY_TOL of that scale, the tolerance rayleigh_quotient
    demands (at p = 1.1 on a 697-node star, 12 of 200 random inputs, worst
    1.2e-5; at p >= 1.25 below 1e-13). minimize_rayleigh_p then reports the
    estimate as not converged.
    """
    lo, hi = float(values.min()), float(values.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("cannot project a function with non-finite values")
    if hi - lo <= 0.0:
        raise ValueError("cannot project a constant function")
    mids = mesh.midpoint_operator @ values
    weights = mesh.midpoint_weights
    c = min(max(float(weights @ mids) / float(weights.sum()), lo), hi)
    last_step = hi - lo
    while True:
        r = mids - c
        a = np.abs(r)
        # t = |r|^(p-1) and t2 = |r|^(p-2) from one power; at a zero of r
        # with p < 2, t2 is NaN and the step below falls back to bisection
        with np.errstate(divide="ignore", invalid="ignore"):
            if p >= 2.0:
                t2 = a ** (p - 2.0)
                t = a * t2
            else:
                t = a ** (p - 1.0)
                t2 = t / a
        value = float(weights @ np.copysign(t, r))
        if abs(value) <= 1e-13 * float(weights @ t):
            break
        if value > 0.0:
            lo = c
        else:
            hi = c
        if hi - lo <= 4.0 * np.spacing(max(abs(lo), abs(hi))):
            break
        step = value / ((p - 1.0) * float(weights @ t2))
        if math.isfinite(step) and lo < c + step < hi and abs(step) <= 0.5 * last_step:
            c_next = c + step
        else:
            c_next = 0.5 * (lo + hi)
        last_step, c = abs(c_next - c), c_next
    return values - c


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


def _rayleigh_gradient(mesh: TriangleMesh, values: np.ndarray, p: float):
    """Value and nodal gradient of the Rayleigh functional."""
    grads_vec, gsq = _gradient_squares(mesh, values)
    gmag = np.sqrt(gsq)
    num = float((mesh.areas * gmag**p).sum())
    mids = mesh.midpoint_operator @ values
    abs_mids = np.abs(mids)
    mid_pow = abs_mids ** (p - 1.0)
    den = float(mesh.midpoint_weights @ (abs_mids * mid_pow))

    weight = mesh.areas * p * np.where(gmag > 0.0, gmag ** (p - 2.0), 0.0)
    dnum = mesh.gradient_transpose @ (weight[:, None] * grads_vec).ravel()
    dden = mesh.midpoint_transpose @ (p * mesh.midpoint_weights * np.copysign(mid_pow, mids))

    quotient = num / den
    return quotient, (dnum - quotient * dden) / den


def minimize_rayleigh_p(
    mesh: TriangleMesh,
    p: float,
    iterations: int = 200,
    starts: int = 2,
    return_info: bool = False,
):
    """Best-effort upper estimate of the discrete first nontrivial mu_p.

    Backtracking descent along the Sobolev gradient LU^-1 g (unit M-norm)
    from the first `starts` non-constant P1 eigenvectors (2 and 3 by
    default; a 3-node mesh has only one), with the constraint re-projected
    after every step. Each start ends on the stopping test (STOP_WINDOW) or
    after `iterations` steps. Converged: the best start ended on the test
    with the constraint met to FEASIBILITY_TOL.
    An estimate, not a certificate: a claimed lower bound must not exceed it.
    """
    check_exponent(p)
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts!r}")
    _, mass, _, lu, vecs = _shifted_solve(mesh, starts)
    best, total_iters, converged = math.inf, 0, False
    for v in vecs.T:
        with np.errstate(over="ignore", invalid="ignore"):
            v = project_constraint(mesh, v, p)
            norm = integrate_abs_power(mesh, v, p)
        if not 0.0 < norm < math.inf:
            raise SolveError(f"general-p oracle at p = {p:g}: int |f|^p leaves float range")
        v /= norm ** (1.0 / p)
        step, history, direction, stopped = 0.5, [], None, False
        value, grad = _rayleigh_gradient(mesh, v, p)
        for _ in range(iterations):
            history.append(value)
            if direction is None:  # recomputed only after an accepted step
                direction = lu.solve(grad)
                direction /= math.sqrt(direction @ (mass @ direction))
                slope = float(grad @ direction) * math.sqrt(v @ (mass @ v))
            window = history[-1 - STOP_WINDOW] - value if len(history) > STOP_WINDOW else math.inf
            stopped = not (slope > STOP_SLOPE * value and window > STOP_DECREASE * value)
            if stopped:
                break
            total_iters += 1
            try:
                trial = project_constraint(mesh, v - step * direction, p)
            except ValueError:
                step *= 0.5
                continue
            trial /= integrate_abs_power(mesh, trial, p) ** (1.0 / p)
            t_value, t_grad = _rayleigh_gradient(mesh, trial, p)
            if t_value < value:
                v, value, grad, direction = trial, t_value, t_grad, None
                step = min(step * 1.3, 1.0)
            else:
                step *= 0.5
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
