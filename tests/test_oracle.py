import functools
import gc
import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg
from scipy.optimize import brentq
from scipy.spatial import Delaunay

from neumann_bounds import oracle
from neumann_bounds.geometry import StarDomainSpec
from neumann_bounds.oracle import (
    MeshError,
    TriangleMesh,
    _cut_lines,
    _rayleigh_gradient,
    check_domination,
    constraint_residual,
    gradient_integral,
    integrate_abs_power,
    mesh_domain,
    minimize_rayleigh_p,
    neumann_mu2,
    p1_matrices,
    project_constraint,
    rayleigh_quotient,
    subset_average,
)
from neumann_bounds.poincare import FORM_DEVIATION, CertTerm, PoincareBound
from neumann_bounds.qc_transfer import EigenBound

PI2 = math.pi**2


def square_mesh(h=0.1):
    return mesh_domain({"kind": "rectangle", "bounds": [0, 0, 1, 1]}, h)


def refine_uniform(mesh):
    """Red refinement: each triangle splits into four via edge midpoints."""
    nodes = list(map(tuple, mesh.nodes))
    midpoint = {}

    def mid(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in midpoint:
            midpoint[key] = len(nodes)
            nodes.append(tuple(0.5 * (mesh.nodes[a] + mesh.nodes[b])))
        return midpoint[key]

    elements = []
    for a, b, c in mesh.elements:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        elements.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
    return TriangleMesh(np.array(nodes), np.array(elements))


def poincare_constant_p2(mesh):
    """Discrete (2,2)-Poincare constant mu2^(-1/2)."""
    return neumann_mu2(mesh).mu2 ** -0.5


def boundary_edges(mesh):
    """Edges held by one element only, as sorted node pairs."""
    edges, counts = mesh._edge_counts()
    return [tuple(e) for e in edges[counts == 1].tolist()]


class TestMeshing:
    def test_square_element_count_and_edges(self):
        mesh = square_mesh(0.1)
        assert mesh.element_count == 200
        assert mesh.max_edge_length() <= 1.5 * 0.1
        assert np.all(mesh.areas > 0)

    def test_determinism(self):
        m1, m2 = square_mesh(0.07), square_mesh(0.07)
        assert np.array_equal(m1.nodes, m2.nodes)
        assert np.array_equal(m1.elements, m2.elements)

    def test_disk_boundary_accuracy(self):
        mesh = mesh_domain({"kind": "disk", "radius": 1.0}, 0.05)
        boundary_nodes = {i for e in boundary_edges(mesh) for i in e}
        radii = np.linalg.norm(mesh.nodes[list(boundary_nodes)], axis=1)
        assert np.all(np.abs(radii - 1.0) < 1e-12)
        # polygon chord deviation from the circle
        sagitta = max(
            1.0 - np.linalg.norm(0.5 * (mesh.nodes[a] + mesh.nodes[b]))
            for a, b in boundary_edges(mesh)
        )
        assert sagitta < 1e-3
        assert mesh.max_edge_length() <= 1.5 * 0.05

    def test_rect_union_conforming_and_exact_area(self):
        mesh = mesh_domain(
            {"kind": "rect_union", "rects": [[0, 0, 1, 1], [0.5, 0, 1.5, 1]]}, 0.08
        )
        assert mesh.total_area() == pytest.approx(1.5, rel=1e-12)
        assert mesh.max_edge_length() <= 1.5 * 0.08

    def test_polygon_mesh(self):
        tri = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
        mesh = mesh_domain({"kind": "polygon", "vertices": tri}, 0.1)
        assert mesh.total_area() == pytest.approx(math.sqrt(3) / 4, rel=1e-12)
        assert mesh.max_edge_length() <= 1.5 * 0.1

    # seeded 5-9-gons whose collinear boundary samples made Delaunay emit
    # zero-area hull triangles
    SLIVER_POLYGONS = [
        (0.0854072, [
            [0.6322940950304714, 0.3928064052873968], [-0.05167223685374005, 0.5142061484157116],
            [-0.5883794746110531, 0.3727088453677407], [-0.897679256844456, 0.04271413214592648],
            [-0.8096653734061604, -0.26146826578667215], [-0.23469243773108717, -0.5075051065518318],
            [0.4426314876583346, -0.4355986059762007], [0.6535502016332783, -0.33546564820940433],
            [0.9066910877524059, 0.04712056395033009],
        ]),
        (0.0974366, [
            [-0.9134972617942712, -0.23639603335844894], [-0.05244165745336424, -0.5561793480954925],
            [1.0808399329166447, -0.349675761982414], [1.0518069000082455, 0.11304937563964165],
            [0.17574013641165334, 0.5348438164415338], [-0.3855035728658587, 0.580226992386497],
            [-1.1648616181992726, 0.18956575160123254],
        ]),
        (0.101771, [
            [-0.8818212278518722, -0.23222855285033683], [-0.005654102941423739, -0.6385569753623912],
            [0.4953249903355112, -0.6498310172738944], [0.8842184615134518, -0.5166733420038142],
            [1.0862234522007541, -0.22181375132960143], [0.5727382968908509, 0.45101830805332055],
            [-0.3976180304430662, 0.6598135945504335], [-1.0789090642896944, 0.26183212712397],
        ]),
    ]

    @pytest.mark.parametrize("h, vertices", SLIVER_POLYGONS)
    def test_polygon_hull_slivers_removed(self, h, vertices):
        mesh = mesh_domain({"kind": "polygon", "vertices": vertices}, h)
        v = np.asarray(vertices)
        area = 0.5 * abs(v[:, 0] @ np.roll(v[:, 1], -1) - v[:, 1] @ np.roll(v[:, 0], -1))
        assert mesh.total_area() == pytest.approx(area, rel=1e-12)
        assert mesh.max_edge_length() <= 1.5 * h
        assert neumann_mu2(mesh).residual <= 1e-8

    def test_polygon_without_slivers_unchanged(self):
        tri = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
        mesh = mesh_domain({"kind": "polygon", "vertices": tri}, 0.1)
        raw = TriangleMesh(mesh.nodes, Delaunay(mesh.nodes).simplices)
        assert np.array_equal(mesh.elements, raw.elements)

    def test_star_mesh(self):
        mesh = mesh_domain({"kind": "star", "delta": 1.0}, 0.08)
        assert mesh.total_area() == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert mesh.max_edge_length() <= 1.5 * 0.08
        # the oracle meshes the plane star only
        assert mesh_domain({"kind": "star", "delta": 1.0, "dim": 3}, 0.2) is None

    def test_unsupported_kind(self):
        with pytest.raises(MeshError):
            mesh_domain({"kind": "annulus", "radius": 1.0}, 0.1)

    def test_bad_h(self):
        for h in (0.0, -0.1, math.nan):
            with pytest.raises(MeshError, match="target edge length must be positive"):
                mesh_domain({"kind": "disk", "radius": 1.0}, h)

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "rectangle", "bounds": [0, 0, 2, 1]},
            {"kind": "rect_union", "rects": [[0, 0, 1, 1], [0.8, 0, 2, 1]]},
            {"kind": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]]},
            {"kind": "star", "delta": 1.0},
            {"kind": "disk", "radius": 1.0},
        ],
    )
    def test_oversized_mesh_refused_before_meshing(self, spec, monkeypatch):
        # the estimate comes from the bounding box alone: no mesher and no
        # mesh constructor may run, so nothing of mesh size is allocated
        def unreachable(*args, **kwargs):
            raise AssertionError("mesh construction reached")

        for name in ("_rect_union_mesh", "_convex_polygon_mesh", "_star_mesh", "_disk_mesh",
                     "_quad_grid_mesh", "TriangleMesh"):
            monkeypatch.setattr(oracle, name, unreachable)
        with pytest.raises(MeshError, match="mesh too large"):
            mesh_domain(spec, 1e-9)

    def test_size_limit_is_the_bounding_box_lattice(self, monkeypatch):
        # the unit square at h = 0.1 is an 11 x 11 lattice
        monkeypatch.setattr(oracle, "MAX_MESH_NODES", 121)
        assert square_mesh(0.1).node_count == 121
        with pytest.raises(MeshError, match="mesh too large"):
            square_mesh(0.099)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "rectangle"}, "needs key 'bounds'"),
            ({"kind": "rectangle", "bounds": [0, 0, 1]}, '"bounds"'),
            ({"kind": "rect_union"}, "needs key 'rects'"),
            ({"kind": "rect_union", "rects": []}, '"rects"'),
            ({"kind": "rect_union", "rects": [[0, 0, 1, 1], [1, 0, 2]]}, "key 'rects'"),
            ({"kind": "polygon"}, "needs key 'vertices'"),
            ({"kind": "star"}, "needs key 'delta'"),
            ({"kind": "disk"}, "needs key 'radius'"),
            ({"kind": "disk", "radius": -1}, "key 'radius'"),
            ({"kind": "disk", "radius": 0}, "key 'radius'"),
            ({"kind": "disk", "radius": 1e-300}, "key 'radius'"),
            ({"kind": "disk", "radius": math.nan}, "key 'radius'"),
            ({"kind": "disk", "radius": math.inf}, "key 'radius'"),
            ({"kind": "disk", "radius": 1, "center": [0]}, "key 'center'"),
            ({"kind": "disk", "radius": 1, "center": [0, 0, 0]}, "key 'center'"),
            ({"kind": "disk", "radius": 1, "center": [math.nan, 0]}, "key 'center'"),
            ({"kind": "disk", "radius": "abc"}, "key 'radius' must be a number, got 'abc'"),
            ({"kind": "disk", "radius": True}, "key 'radius' must be a number, got True"),
            ({"kind": "disk", "radius": 1, "center": ["1", "2"]}, "key 'center'"),
            ({"kind": "star", "delta": "abc"}, "key 'delta' must be a finite number, got 'abc'"),
            ({"kind": "star", "delta": math.nan}, "key 'delta' must be a finite number, got nan"),
            ({"kind": "rect_union", "rects": [[0, 0, 1, math.nan]]}, "key 'rects'"),
            ({"kind": "polygon", "vertices": [[0, 0], [1, "a"], [0, 1]]}, "key 'vertices'"),
        ],
    )
    def test_missing_or_short_key_named(self, spec, message):
        with pytest.raises(MeshError, match=message):
            mesh_domain(spec, 0.1)

    @pytest.mark.parametrize(
        "nodes, elements, message",
        [
            ([[0, 0], [1, 0], [0, 1]], [[0, 1, 2.5]], "'elements' must hold integer"),
            ([[0, 0], [1, 0], [0, 1]], [[0, 1, 1e300]], "'elements' must hold integer"),
            ([[0, 0], [1, 0], [0, 1]], [[0, 1, math.inf]],
             "'elements' must be an array of finite numbers"),
            ([[0, 0], [1, 0], [0, 1]], "abc", "'elements' must be an array of finite numbers"),
            ("abc", [[0, 1, 2]], "'nodes' must be an array of finite numbers"),
        ],
    )
    def test_mesh_file_entries_checked(self, nodes, elements, message):
        with pytest.raises(MeshError, match=message):
            TriangleMesh.from_dict({"nodes": nodes, "elements": elements})

    def test_json_round_trip_bit_exact(self):
        mesh = square_mesh(0.13)
        data = json.loads(json.dumps({"nodes": mesh.nodes.tolist(), "elements": mesh.elements.tolist()}))
        back = TriangleMesh.from_dict(data)
        assert back.nodes.tobytes() == mesh.nodes.tobytes()
        assert back.elements.tobytes() == mesh.elements.tobytes()
        assert back.nodes.dtype == mesh.nodes.dtype and back.elements.dtype == mesh.elements.dtype

    def test_hanging_node_rejected(self):
        nodes = [(0, 0), (1, 0), (0, 1), (0.5, 0), (0.5, -0.5)]
        elements = [(0, 1, 2), (3, 1, 4)]
        with pytest.raises(MeshError, match="hanging"):
            TriangleMesh(nodes, elements)

    def test_overshared_edge_rejected(self):
        nodes = [(0, 0), (1, 0), (0, 1), (0, -1), (-1, 0.5)]
        elements = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
        with pytest.raises(MeshError, match="more than two"):
            TriangleMesh(nodes, elements)

    def test_disconnected_rejected(self):
        nodes = [(0, 0), (1, 0), (0, 1), (5, 5), (6, 5), (5, 6)]
        elements = [(0, 1, 2), (3, 4, 5)]
        with pytest.raises(MeshError, match="connected"):
            TriangleMesh(nodes, elements)

    def test_degenerate_element_rejected(self):
        nodes = [(0, 0), (1, 0), (2, 0), (0, 1)]
        elements = [(0, 1, 2), (0, 1, 3)]
        with pytest.raises(MeshError, match="degenerate"):
            TriangleMesh(nodes, elements)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_node_rejected(self, bad):
        mesh = mesh_domain({"kind": "rectangle", "bounds": [0, 0, 1, 1]}, 0.2)
        nodes = mesh.nodes.copy()
        nodes[7, 1] = bad
        with pytest.raises(MeshError, match="finite"):
            TriangleMesh(nodes, mesh.elements)


# the unit square (near-double mu2), the 2x1 rectangle (double mu3), the unit
# disk (double mu2) and the delta = 1 star
SOLVE_SPECS = {
    "square": {"kind": "rectangle", "bounds": [0, 0, 1, 1]},
    "rect2x1": {"kind": "rectangle", "bounds": [0, 0, 2, 1]},
    "disk": {"kind": "disk", "radius": 1.0},
    "star": {"kind": "star", "delta": 1.0},
}


class TestNeumannEigenvalue:
    def test_square_convergence_from_above(self):
        values = [neumann_mu2(square_mesh(h)).mu2 for h in (0.1, 0.05)]
        assert values[0] > values[1] > PI2
        assert values[1] == pytest.approx(PI2, rel=0.01)

    def test_nested_refinement_monotone_and_second_order(self):
        mesh = square_mesh(0.2)
        errors = []
        for _ in range(3):
            errors.append(neumann_mu2(mesh).mu2 - PI2)
            mesh = refine_uniform(mesh)
        assert errors[0] > errors[1] > errors[2] > 0
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.0 <= coarse / fine <= 5.0

    def test_disk_nested_refinement_monotone(self):
        mesh = mesh_domain({"kind": "disk", "radius": 1.0}, 0.2)
        a = neumann_mu2(mesh).mu2
        b = neumann_mu2(refine_uniform(mesh)).mu2
        assert a > b

    def test_rectangle_2x1(self):
        mesh = mesh_domain({"kind": "rectangle", "bounds": [0, 0, 2, 1]}, 0.05)
        assert neumann_mu2(mesh).mu2 == pytest.approx(PI2 / 4.0, rel=0.01)

    def test_residual_and_mass_orthogonality(self):
        mesh = square_mesh(0.1)
        result = neumann_mu2(mesh)
        assert result.residual <= 1e-8
        assert result.dof == mesh.node_count
        from neumann_bounds.oracle import p1_matrices

        _, mass = p1_matrices(mesh)
        ones_mass = np.asarray(mass.sum(axis=0)).ravel()
        mean = abs(ones_mass @ result.eigenvector) / math.sqrt(ones_mass.sum())
        assert mean <= 1e-10

    def test_iterative_path_matches_dense(self):
        # the square's first nonzero eigenvalue is a near-double cluster
        specs = [
            ({"kind": "rectangle", "bounds": [0, 0, 1, 1]}, 0.12),
            ({"kind": "rectangle", "bounds": [0, 0, 2, 1]}, 0.1),
            # mu3 = mu4 = pi^2 here: only mu2 is requested, and the double
            # pair above it must not stall or replace it
            ({"kind": "rectangle", "bounds": [0, 0, 2, 1]}, 0.05),
            ({"kind": "disk", "radius": 1.0}, 0.1),
            ({"kind": "star", "delta": 1.0}, 0.15),
            ({"kind": "rect_union", "rects": [[0, 0, 1.2, 1], [0.8, 0, 2, 1], [1.6, 0, 2.8, 1]]}, 0.1),
            ({"kind": "polygon", "vertices": [[0, 0], [1, 0], [1.2, 0.7], [0.3, 1]]}, 0.08),
        ]
        for spec, h in specs:
            mesh = mesh_domain(spec, h)
            stiffness, mass = p1_matrices(mesh)
            dense = sla.eigh(
                stiffness.toarray(), mass.toarray(), subset_by_index=[0, 1], eigvals_only=True
            )[1]
            result = neumann_mu2(mesh)
            assert result.mu2 == pytest.approx(dense, rel=1e-10), spec["kind"]
            assert result.residual <= 1e-8

    @pytest.mark.parametrize("name", ["rect2x1", "disk", "star"])
    def test_one_eigenpair_costs_few_lu_solves(self, monkeypatch, name):
        # the constant is deflated and the Krylov basis holds 10 vectors per
        # requested pair, so mu2 alone takes about 11 solves
        solves = 0
        factor = scipy.sparse.linalg.splu

        def counting_splu(*args, **kwargs):
            lu = factor(*args, **kwargs)

            def solve(x):
                nonlocal solves
                solves += 1
                return lu.solve(x)

            return SimpleNamespace(solve=solve)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
        result = neumann_mu2(mesh_domain(SOLVE_SPECS[name], 0.05))
        assert result.residual <= 1e-8
        assert 0 < solves <= 15

    @pytest.mark.parametrize("name", SOLVE_SPECS)
    def test_shifted_solve_vectors_deflated_and_orthonormal(self, name):
        mesh = mesh_domain(SOLVE_SPECS[name], 0.05)
        stiffness, mass, ones_mass, _, vecs = oracle._shifted_solve(mesh, 2)
        assert vecs.shape == (mesh.node_count, 2)
        assert np.allclose(ones_mass, mass @ np.ones(mesh.node_count), rtol=1e-14, atol=0)
        gram = vecs.T @ (mass @ vecs)
        assert np.abs(gram - np.eye(2)).max() <= 1e-10
        assert np.abs(ones_mass @ vecs).max() / math.sqrt(ones_mass.sum()) <= 1e-10
        mu = np.einsum("ij,ij->j", vecs, stiffness @ vecs)
        if name == "disk":
            # the (cos t, sin t) pair: the mesh's six-fold symmetry makes it
            # degenerate, so its order is rounding
            assert 0 < mu[0] and abs(mu[1] - mu[0]) <= 1e-12 * mu[0]
        else:
            assert 0 < mu[0] <= mu[1]
        for v, value in zip(vecs.T, mu):
            kv = stiffness @ v
            assert np.linalg.norm(kv - value * (mass @ v)) / np.linalg.norm(kv) <= 1e-8

    def test_repeat_solve_bit_identical(self):
        mesh = mesh_domain({"kind": "star", "delta": 0.5}, 0.1)
        first, second = neumann_mu2(mesh), neumann_mu2(mesh)
        assert first.mu2 == second.mu2
        assert np.array_equal(first.eigenvector, second.eigenvector)

    @pytest.mark.parametrize(
        "nodes, elements",
        [
            ([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)]),
            ([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0, 2, 3)]),
        ],
    )
    def test_tiny_meshes(self, nodes, elements):
        result = neumann_mu2(TriangleMesh(nodes, elements))
        assert result.mu2 == pytest.approx(12.0, rel=1e-12)
        assert result.residual <= 1e-8

    def test_poincare_constant_square(self):
        assert poincare_constant_p2(square_mesh(0.05)) == pytest.approx(
            1.0 / math.pi, rel=0.01
        )

    def test_poincare_constant_rectangle(self):
        mesh = mesh_domain({"kind": "rectangle", "bounds": [0, 0, 2, 1]}, 0.05)
        assert poincare_constant_p2(mesh) == pytest.approx(2.0 / math.pi, rel=0.01)

    def test_poincare_constant_disk(self):
        mesh = mesh_domain({"kind": "disk", "radius": 1.0}, 0.05)
        assert poincare_constant_p2(mesh) == pytest.approx(0.54323, rel=0.02)

    def test_shuffled_disk_solves_as_fast_as_mesher_order(self):
        # K - sigma M is factored with diagonal pivots; SuperLU's default partial
        # pivoting took over a second on this 7,651-node disk once its nodes were shuffled
        mesh = mesh_domain({"kind": "disk", "radius": 1.0}, 0.02)
        perm = np.random.default_rng(0).permutation(mesh.node_count)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(len(perm))
        shuffled = TriangleMesh(mesh.nodes[perm], inverse[mesh.elements])
        expected = neumann_mu2(mesh).mu2
        started = time.perf_counter()
        mu2 = neumann_mu2(shuffled).mu2
        elapsed = time.perf_counter() - started
        assert mu2 == pytest.approx(expected, rel=1e-9, abs=0)
        assert elapsed < 0.6


class TestRayleighQuotient:
    def test_separated_mode_on_square(self):
        mesh = square_mesh(0.05)
        f = np.cos(math.pi * mesh.nodes[:, 0])
        value = rayleigh_quotient(mesh, f, 2.0)
        # interpolation error of the exact mode is O(h^2)
        assert value == pytest.approx(PI2, rel=5e-3)

    def test_eigenvector_reproduces_mu2(self):
        mesh = square_mesh(0.1)
        result = neumann_mu2(mesh)
        value = rayleigh_quotient(mesh, result.eigenvector, 2.0)
        assert abs(value - result.mu2) <= 1e-8 * result.mu2

    def test_minimality_against_random_functions(self):
        mesh = square_mesh(0.15)
        mu2 = neumann_mu2(mesh).mu2
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = rng.standard_normal(mesh.node_count)
            value = rayleigh_quotient(mesh, f, 2.0, project=True)
            assert value >= mu2 - 1e-8

    def test_scale_invariance(self):
        mesh = square_mesh(0.1)
        rng = np.random.default_rng(9)
        values = project_constraint(mesh, rng.standard_normal(mesh.node_count), 2.0)
        v1 = rayleigh_quotient(mesh, values, 2.0)
        v2 = rayleigh_quotient(mesh, 7.5 * values, 2.0)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_constant_rejected(self):
        mesh = square_mesh(0.2)
        with pytest.raises(ValueError):
            rayleigh_quotient(mesh, np.ones(mesh.node_count), 2.0)

    def test_constraint_enforced_unless_projected(self):
        mesh = square_mesh(0.2)
        f = mesh.nodes[:, 0] + 3.0
        with pytest.raises(ValueError, match="constraint"):
            rayleigh_quotient(mesh, f, 2.0)
        value = rayleigh_quotient(mesh, f, 2.0, project=True)
        assert value > 0.0

    def test_projection_zeroes_constraint_general_p(self):
        mesh = square_mesh(0.2)
        rng = np.random.default_rng(2)
        for p in (2.0, 3.0, 1.5):
            values = project_constraint(mesh, rng.standard_normal(mesh.node_count), p)
            assert constraint_residual(mesh, values, p) <= 1e-10


class TestMinimizer:
    def test_p2_agrees_with_fem(self):
        mesh = square_mesh(0.15)
        fem = neumann_mu2(mesh).mu2
        est = minimize_rayleigh_p(mesh, 2.0, iterations=400)
        assert est == pytest.approx(fem, rel=0.01)
        assert est >= fem - 1e-10

    def test_repeat_call_bit_identical(self):
        mesh = square_mesh(0.2)
        a = minimize_rayleigh_p(mesh, 3.0, iterations=100, return_info=True)
        b = minimize_rayleigh_p(mesh, 3.0, iterations=100, return_info=True)
        assert a == b

    def test_p3_respects_convex_lower_bound(self):
        # the diameter rule gives mu_3(square) >= (pi_3 / sqrt(2))^3
        from neumann_bounds.poincare import pi_p

        mesh = square_mesh(0.15)
        est = minimize_rayleigh_p(mesh, 3.0, iterations=300)
        assert est >= (pi_p(3.0) / math.sqrt(2.0)) ** 3 - 1e-9

    def test_info_channel(self):
        mesh = square_mesh(0.25)
        value, info = minimize_rayleigh_p(mesh, 3.0, iterations=50, return_info=True)
        assert value > 0 and info["iterations"] > 0 and info["final_step"] >= 0
        assert info["converged"] is True


def reference_random_start_descent(mesh, p, iterations=200, seed=0, starts=3):
    """The random-start Euclidean descent the oracle replaced, copied verbatim
    except for its info channel (step count and final step)."""
    if p <= 1.0:
        raise ValueError("exponent p must exceed 1")
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(starts):
        v = rng.standard_normal(mesh.node_count)
        v = project_constraint(mesh, v, p)
        v /= integrate_abs_power(mesh, v, p) ** (1.0 / p)
        step = 0.5
        value, grad = _rayleigh_gradient(mesh, v, p)
        for _ in range(iterations):
            gnorm = np.linalg.norm(grad)
            if gnorm <= 1e-12 * max(1.0, abs(value)):
                break
            trial = v - step * grad / gnorm
            try:
                trial = project_constraint(mesh, trial, p)
            except ValueError:
                step *= 0.5
                continue
            norm = integrate_abs_power(mesh, trial, p) ** (1.0 / p)
            if norm <= 0.0:
                step *= 0.5
                continue
            trial /= norm
            t_value, t_grad = _rayleigh_gradient(mesh, trial, p)
            if t_value < value:
                v, value, grad = trial, t_value, t_grad
                step = min(step * 1.3, 1.0)
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        best = min(best, value)
    return best


WARM_START_MESHES = {
    "star": ({"kind": "star", "delta": 1.0}, 0.25),
    "rect_union": (
        {"kind": "rect_union", "rects": [[0, 0, 1.2, 1], [0.8, 0, 2, 1], [1.6, 0, 2.8, 1]]}, 0.2
    ),
    "square": ({"kind": "rectangle", "bounds": [0, 0, 1, 1]}, 0.1),
    "rect21": ({"kind": "rectangle", "bounds": [0, 0, 2, 1]}, 0.15),
}


class TestPreconditionedDescent:
    """The warm-started Sobolev-gradient descent and its stopping state."""

    def test_p2_is_the_fem_eigenvalue(self):
        for spec, h in WARM_START_MESHES.values():
            mesh = mesh_domain(spec, h)
            mu2 = neumann_mu2(mesh).mu2
            value, info = minimize_rayleigh_p(mesh, 2.0, return_info=True)
            assert value == pytest.approx(mu2, rel=1e-10, abs=0.0), spec["kind"]
            assert value >= mu2 - 1e-10
            assert info["converged"]

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    @pytest.mark.parametrize("name", sorted(WARM_START_MESHES))
    def test_at_or_below_random_start_reference(self, name, p):
        # the reference runs 4800 steps (1600 per start); where it has itself
        # converged, the two minima agree to the stopping tolerance
        spec, h = WARM_START_MESHES[name]
        mesh = mesh_domain(spec, h)
        value, info = minimize_rayleigh_p(mesh, p, return_info=True)
        reference = reference_random_start_descent(mesh, p, iterations=1600)
        assert value <= reference * (1.0 + oracle.STOP_DECREASE)
        assert info["converged"]
        assert info["iterations"] < 2 * 200

    def test_three_node_mesh_uses_one_start(self):
        # one triangle has only two P1 eigenpairs, so there is no third start
        mesh = TriangleMesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
        one = minimize_rayleigh_p(mesh, 3.0, starts=1, return_info=True)
        assert minimize_rayleigh_p(mesh, 3.0, starts=2, return_info=True) == one

    @pytest.mark.parametrize("starts", [0, -1])
    def test_no_start_refused(self, starts):
        mesh = square_mesh(0.3)
        with pytest.raises(ValueError, match=f"starts must be at least 1, got {starts}"):
            minimize_rayleigh_p(mesh, 3.0, starts=starts)

    @pytest.mark.parametrize("iterations, starts", [(1, 1), (5, 2), (30, 1), (200, 2)])
    def test_cap_hit_is_not_converged(self, iterations, starts):
        mesh = mesh_domain({"kind": "star", "delta": 0.8}, 0.3)
        _, info = minimize_rayleigh_p(mesh, 4.0, iterations=iterations, starts=starts,
                                      return_info=True)
        assert info["converged"] == (info["iterations"] < iterations * starts)
        assert info["converged"] == (iterations == 200)


def carried_trials(mesh, p):
    """Trials from the descent's first start v (projected, unit L^p norm) along
    its Sobolev gradient d = LU^-1 g and along a seeded random d, at three
    steps of M-norm 1, 0.3 and 0.05: (direction, x = v - s d, _shifted_trial of x)."""
    _, _, _, lu, vecs = oracle._shifted_solve(mesh, 1)
    v = project_constraint(mesh, vecs[:, 0], p)
    v /= integrate_abs_power(mesh, v, p) ** (1.0 / p)
    pv, gv = mesh.midpoint_operator @ v, mesh.gradient_operator @ v
    sobolev = lu.solve(_rayleigh_gradient(mesh, v, p)[1])
    random = np.random.default_rng(5).standard_normal(mesh.node_count)
    for name, d in (("sobolev", sobolev), ("random", random)):
        pd, gd = mesh.midpoint_operator @ d, mesh.gradient_operator @ d
        for step in (1.0, 0.3, 0.05):
            s = step / math.sqrt(mesh.midpoint_weights @ (pd * pd))
            x = v - s * d
            yield name, x, oracle._shifted_trial(mesh, p, x, pv - s * pd, gv - s * gd)


def reference_steepest_descent(mesh, p, iterations=200, starts=2):
    """The steepest Sobolev-gradient descent that the conjugate one with carried
    trial values replaced, copied verbatim except for the module prefixes."""
    _, mass, _, lu, vecs = oracle._shifted_solve(mesh, starts)
    best, total_iters, converged = math.inf, 0, False
    for v in vecs.T:
        with np.errstate(over="ignore", invalid="ignore"):
            v = project_constraint(mesh, v, p)
            norm = integrate_abs_power(mesh, v, p)
        if not 0.0 < norm < math.inf:
            raise oracle.SolveError(f"general-p oracle at p = {p:g}: int |f|^p leaves float range")
        v /= norm ** (1.0 / p)
        step, history, direction, stopped = 0.5, [], None, False
        value, grad = _rayleigh_gradient(mesh, v, p)
        for _ in range(iterations):
            history.append(value)
            if direction is None:  # recomputed only after an accepted step
                direction = lu.solve(grad)
                direction /= math.sqrt(direction @ (mass @ direction))
                slope = float(grad @ direction) * math.sqrt(v @ (mass @ v))
            window = history[-1 - oracle.STOP_WINDOW] - value if len(history) > oracle.STOP_WINDOW else math.inf
            stopped = not (slope > oracle.STOP_SLOPE * value and window > oracle.STOP_DECREASE * value)
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
            best, converged = value, stopped and constraint_residual(mesh, v, p) <= oracle.FEASIBILITY_TOL
    info = {"iterations": total_iters, "converged": converged, "final_step": step}
    return best, info


class TestCarriedTrialSteps:
    """Trial steps valued from carried midpoint and gradient values, and the
    conjugate direction."""

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    @pytest.mark.parametrize("name", sorted(WARM_START_MESHES))
    def test_trial_value_is_the_projected_quotient(self, name, p):
        spec, h = WARM_START_MESHES[name]
        mesh = mesh_domain(spec, h)
        for _, x, (value, (_, c, den, _)) in carried_trials(mesh, p):
            projected = project_constraint(mesh, x, p)
            assert value == pytest.approx(rayleigh_quotient(mesh, x, p, project=True), rel=1e-12, abs=0)
            assert relative_gap(x - c, projected) <= 1e-12
            assert den == pytest.approx(integrate_abs_power(mesh, projected, p), rel=1e-12, abs=0)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    @pytest.mark.parametrize("name", sorted(WARM_START_MESHES))
    def test_accepted_step_gradient_is_the_fresh_gradient(self, name, p):
        spec, h = WARM_START_MESHES[name]
        mesh = mesh_domain(spec, h)
        for direction, _, (value, trial) in carried_trials(mesh, p):
            v, pv, gv, accepted_value, grad = oracle._normalized(mesh, p, *trial)
            assert integrate_abs_power(mesh, v, p) == pytest.approx(1.0, rel=1e-12, abs=0)
            assert relative_gap(pv, mesh.midpoint_operator @ v) <= 1e-14
            assert relative_gap(gv, mesh.gradient_operator @ v) <= 1e-14
            fresh_value, fresh_grad = _rayleigh_gradient(mesh, v, p)
            assert accepted_value == value
            assert accepted_value == pytest.approx(fresh_value, rel=1e-12, abs=0)
            # the 2x1 rectangle's start is odd about x = 1, so along its Sobolev
            # direction the midpoint values on that line stay at rounding level,
            # where sign(m) |m|^(p-1) has unbounded slope for p < 2: the carried
            # and the fresh values of such an m differ by an ulp of the function's
            # scale, which moves the gradient by up to 1.5e-11 relative
            odd_line = name == "rect21" and direction == "sobolev" and p < 2.0
            assert relative_gap(grad, fresh_grad) <= (1e-10 if odd_line else 1e-12)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    @pytest.mark.parametrize("name", sorted(WARM_START_MESHES))
    def test_value_within_the_stopping_tolerance_of_steepest_descent(self, name, p):
        # both stop on the same test, where the value falls by at most 1e-8
        # (relative) over 10 trials; across the 12 cases they differ by at most 5.4e-9
        spec, h = WARM_START_MESHES[name]
        mesh = mesh_domain(spec, h)
        value, info = minimize_rayleigh_p(mesh, p, return_info=True)
        steepest, steepest_info = reference_steepest_descent(mesh, p)
        assert info["converged"] and steepest_info["converged"]
        assert value == pytest.approx(steepest, rel=2.0 * oracle.STOP_DECREASE, abs=0)

    def test_conjugate_direction_cuts_trials_at_p_1_5(self):
        # on the star, 162 trials with the steepest direction and 113 with the
        # conjugate one (both starts). At p = 3 the count can rise on these
        # small meshes (star: 142 -> 164), so no count is asserted there.
        mesh = mesh_domain(*WARM_START_MESHES["star"])
        _, info = minimize_rayleigh_p(mesh, 1.5, return_info=True)
        _, steepest_info = reference_steepest_descent(mesh, 1.5)
        assert info["iterations"] <= 0.8 * steepest_info["iterations"]


class TestProjectionNearPOne:
    """Floating-point limit of the constraint projection as p approaches 1."""

    def test_projection_residuals(self):
        mesh = mesh_domain({"kind": "star", "delta": 1.0}, 0.1)
        for p, worst_allowed, misses in ((1.1, 1e-4, True), (1.25, 1e-12, False)):
            rng = np.random.default_rng(0)
            residuals = []
            for _ in range(200):
                values = project_constraint(mesh, rng.standard_normal(mesh.node_count), p)
                residuals.append(constraint_residual(mesh, values, p))
            assert max(residuals) <= worst_allowed, p
            assert any(r > 1e-8 for r in residuals) is misses, p

    def test_infeasible_final_iterate_is_not_converged(self, monkeypatch):
        # a window test that always passes stops every start after
        # STOP_WINDOW steps, so only the constraint check decides `converged`;
        # a shift kernel that misses its root by a fixed amount leaves the
        # start projections and every trial, hence every iterate, infeasible
        monkeypatch.setattr(oracle, "STOP_DECREASE", 1.0)
        checked = []
        real = oracle.constraint_residual
        real_shift = oracle._constraint_shift

        def spy(mesh, values, p):
            checked.append(real(mesh, values, p))
            return checked[-1]

        def missed_shift(mids, weights, p, lo, hi, s):
            c = real_shift(mids, weights, p, lo, hi)[0] - s
            return c, mids - c, np.copysign(np.abs(mids - c) ** (p - 1.0), mids - c)

        monkeypatch.setattr(oracle, "constraint_residual", spy)
        for spec, h, shift, feasible in (
            ({"kind": "rectangle", "bounds": [0, 0, 2, 1]}, 0.34, 1e-3, False),
            ({"kind": "star", "delta": 1.0}, 0.25, 0.0, True),
        ):
            monkeypatch.setattr(oracle, "_constraint_shift",
                                lambda *args, s=shift: missed_shift(*args, s))
            checked.clear()
            _, info = minimize_rayleigh_p(mesh_domain(spec, h), 1.1, return_info=True)
            assert (checked[-1] <= 1e-8) is feasible
            assert info["converged"] is feasible


class TestDomination:
    def test_square_margin(self):
        bound = PoincareBound(
            value=math.sqrt(2.0) / math.pi,
            p=2.0,
            form=FORM_DEVIATION,
            terms=(CertTerm("cell", "convex-diameter", 2.0 / math.pi**2),),
        )
        report = check_domination(bound, square_mesh(0.05))
        assert report.passed
        assert report.margin == pytest.approx(0.13185, abs=5e-3)
        assert not report.oracle_is_estimate

    def test_corrupted_bound_fails(self):
        bound = PoincareBound(
            value=0.5 * math.sqrt(2.0) / math.pi,
            p=2.0,
            form=FORM_DEVIATION,
        )
        report = check_domination(bound, square_mesh(0.1))
        assert not report.passed

    def test_eigen_bound_paths(self):
        mesh = square_mesh(0.1)
        good = EigenBound(mu_lower=PI2 / 2.0, p=2.0)
        bad = EigenBound(mu_lower=2.0 * PI2, p=2.0)
        assert check_domination(good, mesh).passed
        assert not check_domination(bad, mesh).passed

    def test_general_p_is_estimate(self):
        bound = PoincareBound(value=10.0, p=3.0, form=FORM_DEVIATION)
        report = check_domination(bound, square_mesh(0.2))
        assert report.oracle_is_estimate
        assert any("estimate" in n for n in report.notes)

    def test_stopping_state_reported(self):
        mesh = square_mesh(0.2)
        exact = check_domination(EigenBound(mu_lower=1.0, p=2.0), mesh)
        assert (exact.iterations, exact.converged) == (0, True)
        descent = check_domination(EigenBound(mu_lower=1.0, p=3.0), mesh)
        assert descent.iterations > 0 and descent.converged is True
        assert {"iterations", "converged"} <= set(descent.to_dict())

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            check_domination(object(), square_mesh(0.3))


def reference_check_domination(bound, mesh, domain_label=None):
    """Copy of the two-branch check_domination it was merged from, plus the
    descent's stopping state (iterations, converged) that reports now carry."""
    notes: list[str] = []
    bound_domain = getattr(bound, "domain", None)
    if bound_domain and domain_label and bound_domain != domain_label:
        notes.append(f"domain mismatch: bound is for {bound_domain!r}, mesh is {domain_label!r}")
    if isinstance(bound, PoincareBound):
        p = bound.p
        if abs(p - 2.0) < 1e-12:
            oracle_value = poincare_constant_p2(mesh)
            estimate = False
            info = {"iterations": 0, "converged": True}
        else:
            mu, info = minimize_rayleigh_p(mesh, p, return_info=True)
            oracle_value = mu ** (-1.0 / p)
            estimate = True
            notes.append("general-p oracle is an estimate, not a certificate")
        margin = float(bound.value - oracle_value)
        return oracle.DominationReport(
            passed=bool(margin >= 0.0),
            kind="poincare",
            claimed=float(bound.value),
            oracle_value=oracle_value,
            margin=margin,
            oracle_is_estimate=estimate,
            iterations=info["iterations"],
            converged=info["converged"],
            notes=tuple(notes),
        )
    if isinstance(bound, EigenBound):
        p = bound.p
        if abs(p - 2.0) < 1e-12:
            oracle_value = neumann_mu2(mesh).mu2
            estimate = False
            info = {"iterations": 0, "converged": True}
        else:
            oracle_value, info = minimize_rayleigh_p(mesh, p, return_info=True)
            estimate = True
            notes.append("general-p oracle is an estimate, not a certificate")
        margin = float(oracle_value - bound.mu_lower)
        return oracle.DominationReport(
            passed=bool(margin >= 0.0),
            kind="eigen",
            claimed=float(bound.mu_lower),
            oracle_value=oracle_value,
            margin=margin,
            oracle_is_estimate=estimate,
            iterations=info["iterations"],
            converged=info["converged"],
            notes=tuple(notes),
        )
    raise TypeError(f"cannot check bounds of type {type(bound).__name__}")


class TestMergedDominationMatchesReference:
    """The one-oracle-call check against the two-branch version, field by field."""

    @pytest.mark.parametrize("p", [2.0, 3.0, 2.0 + 1e-13])
    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    def test_poincare_and_eigen(self, p, scale):
        meshes = [square_mesh(0.25), mesh_domain({"kind": "star", "delta": 0.7}, 0.3)]
        for mesh in meshes:
            if abs(p - 2.0) < 1e-12:
                mu = neumann_mu2(mesh).mu2
            else:
                mu = minimize_rayleigh_p(mesh, p)
            # around the oracle value, so both verdicts occur
            bounds = [
                PoincareBound(value=scale * mu ** (-1.0 / p), p=p, form=FORM_DEVIATION,
                              domain="square"),
                EigenBound(mu_lower=scale * mu, p=p, domain="square"),
            ]
            for bound in bounds:
                got = check_domination(bound, mesh)
                want = reference_check_domination(bound, mesh)
                assert got.to_dict() == want.to_dict()
                for name in ("passed", "kind", "claimed", "oracle_value", "margin",
                             "oracle_is_estimate", "iterations", "converged", "notes"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert type(a) is type(b) and a == b, name
                    if isinstance(a, float):
                        assert math.copysign(1.0, a) == math.copysign(1.0, b), name

    def test_claim_equal_to_oracle_gives_positive_zero_margin(self):
        mesh = square_mesh(0.25)
        mu = neumann_mu2(mesh).mu2
        for bound in (EigenBound(mu_lower=mu, p=2.0),
                      PoincareBound(value=mu**-0.5, p=2.0, form=FORM_DEVIATION)):
            report = check_domination(bound, mesh)
            assert report.passed and report.margin == 0.0
            assert math.copysign(1.0, report.margin) == 1.0
            assert report.to_dict() == reference_check_domination(bound, mesh).to_dict()

    @pytest.mark.parametrize(
        "bound",
        [object(), SimpleNamespace(p=2.0, value=1.0, mu_lower=1.0), SimpleNamespace(p=3.0)],
    )
    def test_non_bound_rejected_before_any_solve(self, bound, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("oracle solve reached")

        for name in ("neumann_mu2", "minimize_rayleigh_p", "p1_matrices", "project_constraint"):
            monkeypatch.setattr(oracle, name, unreachable)
        with pytest.raises(TypeError, match="cannot check bounds"):
            check_domination(bound, square_mesh(0.3))


class TestSubsetComparison:
    """Numeric form of the subset-average comparison inequality."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_random_draws(self, p):
        mesh = square_mesh(0.15)
        rng = np.random.default_rng(12)
        area = mesh.total_area()
        for _ in range(100):
            values = rng.standard_normal(mesh.node_count)
            mask = rng.random(mesh.element_count) < rng.uniform(0.05, 0.9)
            if mesh.areas[mask].sum() < 0.05 * area:
                continue
            c = rng.uniform(-2.0, 2.0)
            f_a = subset_average(mesh, values, mask)
            lhs = integrate_abs_power(mesh, values - f_a, p) ** (1.0 / p)
            ratio = area / mesh.areas[mask].sum()
            rhs = 2.0 * ratio ** (1.0 / p) * integrate_abs_power(mesh, values - c, p) ** (
                1.0 / p
            )
            assert lhs <= rhs + 1e-10


class TestTwoCellInequality:
    """Displayed two-cell integral inequality with exact rectangle constants."""

    def test_random_grid_functions(self):
        rects = [(0.0, 0.0, 1.2, 1.0), (0.8, 0.0, 2.0, 1.0)]
        mesh = mesh_domain({"kind": "rect_union", "rects": [list(r) for r in rects]}, 0.1)
        masks = []
        for r in rects:
            inside = np.all(
                (mesh.nodes[mesh.elements][:, :, 0] >= r[0] - 1e-12)
                & (mesh.nodes[mesh.elements][:, :, 0] <= r[2] + 1e-12)
                & (mesh.nodes[mesh.elements][:, :, 1] >= r[1] - 1e-12)
                & (mesh.nodes[mesh.elements][:, :, 1] <= r[3] + 1e-12),
                axis=1,
            )
            masks.append(inside)
        overlap = (1.2 - 0.8) * 1.0
        constants = [1.2 / math.pi, 1.2 / math.pi]  # long side over pi at p = 2
        volumes = [1.2, 1.2]
        rng = np.random.default_rng(21)
        for _ in range(50):
            values = rng.standard_normal(mesh.node_count)
            mean = subset_average(mesh, values)
            lhs = integrate_abs_power(mesh, values - mean, 2.0)
            rhs = (
                2.0 ** (2 * 2 - 1)
                / overlap
                * sum(
                    volumes[j] * constants[j] ** 2 * gradient_integral(mesh, values, 2.0, masks[j])
                    for j in range(2)
                )
            )
            assert lhs <= rhs + 1e-10


# ---------------------------------------------------------------------------
# reference implementations: the loop versions the vectorized mesher and
# mesh audit replaced, kept verbatim to pin identical results
# ---------------------------------------------------------------------------


def reference_edge_counts(self):
    counts = {}
    for tri in self.elements:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (int(a), int(b)) if a < b else (int(b), int(a))
            counts[key] = counts.get(key, 0) + 1
    return counts


def reference_audit_edges(self):
    counts = reference_edge_counts(self)
    if any(c > 2 for c in counts.values()):
        raise MeshError("an edge is shared by more than two elements")
    boundary = [e for e, c in counts.items() if c == 1]
    if not boundary:
        return
    scale = float(np.ptp(self.nodes, axis=0).max()) or 1.0
    tol = 1e-9 * scale
    for a, b in boundary:
        pa, pb = self.nodes[a], self.nodes[b]
        d = pb - pa
        length2 = float(d @ d)
        rel = self.nodes - pa
        t = (rel @ d) / length2
        off = np.abs(rel[:, 0] * d[1] - rel[:, 1] * d[0]) / math.sqrt(length2)
        inside = (off < tol) & (t > 1e-9) & (t < 1.0 - 1e-9)
        inside[[a, b]] = False
        if np.any(inside):
            raise MeshError("hanging node detected on a boundary edge")


def reference_structured_rectangle(x0, y0, x1, y1, h):
    nx = max(1, math.ceil((x1 - x0) / h))
    ny = max(1, math.ceil((y1 - y0) / h))
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    nodes = np.array([(x, y) for y in ys for x in xs])
    elements = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b = a + 1
            c = a + (nx + 1)
            d = c + 1
            elements.append((a, b, d))
            elements.append((a, d, c))
    return TriangleMesh(nodes, np.array(elements))


def reference_rect_union_mesh(rects, h):
    xs = _cut_lines(
        min(r[0] for r in rects),
        max(r[2] for r in rects),
        [v for r in rects for v in (r[0], r[2])],
        h,
    )
    ys = _cut_lines(
        min(r[1] for r in rects),
        max(r[3] for r in rects),
        [v for r in rects for v in (r[1], r[3])],
        h,
    )

    def covered(cx, cy):
        return any(r[0] <= cx <= r[2] and r[1] <= cy <= r[3] for r in rects)

    node_index = {}
    nodes = []

    def node(i, j):
        key = (i, j)
        if key not in node_index:
            node_index[key] = len(nodes)
            nodes.append((xs[i], ys[j]))
        return node_index[key]

    elements = []
    for j in range(len(ys) - 1):
        for i in range(len(xs) - 1):
            cx = 0.5 * (xs[i] + xs[i + 1])
            cy = 0.5 * (ys[j] + ys[j + 1])
            if not covered(cx, cy):
                continue
            a, b = node(i, j), node(i + 1, j)
            c, d = node(i, j + 1), node(i + 1, j + 1)
            elements.append((a, b, d))
            elements.append((a, d, c))
    if not elements:
        raise MeshError("rectangle union is empty")
    return TriangleMesh(np.array(nodes), np.array(elements))


def reference_star_mesh(delta, h):
    spec = StarDomainSpec(delta=delta, n=2)
    alpha = spec.alpha
    half_width = delta + alpha
    nx = max(2, math.ceil(2.0 * half_width / (0.7 * h)))
    ny = max(2, math.ceil(2.0 * alpha / (0.5 * h)))
    ny += ny % 2
    xi = np.linspace(-1.0, 1.0, nx + 1)
    ys = np.linspace(-alpha, alpha, ny + 1)
    nodes = []
    for y in ys:
        w = delta + abs(y)
        nodes.extend((x * w, y) for x in xi)
    nodes = np.array(nodes)
    elements = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b = a + 1
            c = a + (nx + 1)
            d = c + 1
            elements.append((a, b, d))
            elements.append((a, d, c))
    return TriangleMesh(nodes, np.array(elements))


def reference_disk_mesh(radius, h, center=(0.0, 0.0)):
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


def triangle_set(mesh):
    """The elements as a set of unordered coordinate triples."""
    return {frozenset(map(tuple, tri)) for tri in mesh.nodes[mesh.elements].tolist()}


def random_rect_row(rng, cells):
    rects, x = [], 0.0
    for _ in range(cells):
        width, y0, height = rng.uniform(0.8, 1.5), rng.uniform(-0.3, 0.3), rng.uniform(0.6, 1.4)
        rects.append((x, y0, x + width, y0 + height))
        x += width * rng.uniform(0.5, 0.9)
    return rects


class TestStructuredMeshersMatchReference:
    @pytest.mark.parametrize("h", [0.3, 0.13, 0.07, 0.04])
    def test_rectangles(self, h):
        for bounds in ([0, 0, 1, 1], [0, 0, 2, 1], [-0.3, 0.2, 1.7, 0.9]):
            mesh = mesh_domain({"kind": "rectangle", "bounds": bounds}, h)
            ref = reference_structured_rectangle(*bounds, h)
            assert np.array_equal(mesh.nodes, ref.nodes)
            assert np.array_equal(mesh.elements, ref.elements)

    @pytest.mark.parametrize("h", [0.3, 0.13, 0.07, 0.04])
    def test_stars(self, h):
        for delta in (0.3, 1.0, 2.5):
            mesh = mesh_domain({"kind": "star", "delta": delta}, h)
            ref = reference_star_mesh(delta, h)
            assert np.array_equal(mesh.nodes, ref.nodes)
            assert np.array_equal(mesh.elements, ref.elements)

    @pytest.mark.parametrize("h", [0.3, 0.13, 0.07, 0.04])
    def test_disks(self, h):
        for radius in (0.5, 1.0, 3.0):
            for center in ((0.0, 0.0), (2.0, -0.5)):
                mesh = mesh_domain({"kind": "disk", "radius": radius, "center": list(center)}, h)
                ref = reference_disk_mesh(radius, h, center)
                # the same nodes, bit for bit, and the same triangles; only the numbering differs
                nodes = set(map(tuple, mesh.nodes.tolist()))
                assert len(nodes) == len(mesh.nodes) == len(ref.nodes)
                assert nodes == set(map(tuple, ref.nodes.tolist()))
                triangles = triangle_set(mesh)
                assert len(triangles) == mesh.element_count == ref.element_count
                assert triangles == triangle_set(ref)

    @pytest.mark.parametrize("second", [0, 1])
    def test_quad_grid_mask_keeps_one_triangle_per_cell(self, second):
        x, y = np.meshgrid(np.arange(4.0), np.arange(3.0))
        covered = np.zeros((2, 3, 2), dtype=bool)
        covered[..., second] = True
        mesh = oracle._quad_grid_mesh(np.stack([x, y], axis=-1), covered)
        # cell (j, i) has a = (i, j), b = (i + 1, j), c = (i, j + 1), d = (i + 1, j + 1)
        corners = [[(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)] for j in range(2) for i in range(3)]
        pick = (0, 3, 2) if second else (0, 1, 3)
        expected = [[list(cell[k]) for k in pick] for cell in corners]
        assert mesh.nodes[mesh.elements].tolist() == expected
        # (a, b, d) leaves the top-left grid node unused, (a, d, c) the bottom-right one
        assert mesh.node_count == 11
        assert mesh.total_area() == 3.0

    @pytest.mark.parametrize("h", [0.3, 0.13, 0.07])
    def test_rect_unions(self, h):
        rng = np.random.default_rng(round(h * 1000))
        rows = [random_rect_row(rng, cells) for cells in range(2, 8)]
        rows += [[(0, 0, 3, 1), (1, 1, 2, 3)], [(0, 0, 1, 1), (2, 2, 3, 3), (0.5, 0.5, 2.5, 2.5)]]
        for rects in rows:
            mesh = mesh_domain({"kind": "rect_union", "rects": [list(r) for r in rects]}, h)
            ref = reference_rect_union_mesh(rects, h)
            # the same elements in the same order; the nodes in row-major
            # grid order (y, then x), where the reference numbers them in
            # the order the sweep first touches them
            assert np.array_equal(mesh.nodes[mesh.elements], ref.nodes[ref.elements])
            assert len(mesh.nodes) == len(ref.nodes)
            x, y = mesh.nodes.T
            assert np.all((np.diff(y) > 0.0) | ((np.diff(y) == 0.0) & (np.diff(x) > 0.0)))

    @pytest.mark.parametrize("h", [0.3, 0.13, 0.07])
    def test_rectangle_is_a_one_rectangle_union(self, h):
        for bounds in ([0, 0, 1, 1], [0, 0, 2, 1], [-0.3, 0.2, 1.7, 0.9]):
            mesh = mesh_domain({"kind": "rectangle", "bounds": bounds}, h)
            union = mesh_domain({"kind": "rect_union", "rects": [bounds]}, h)
            assert np.array_equal(mesh.nodes, union.nodes)
            assert np.array_equal(mesh.elements, union.elements)

    def test_empty_rect_union_rejected(self):
        with pytest.raises(MeshError, match="empty"):
            mesh_domain({"kind": "rect_union", "rects": [[0, 0, 0, 1]]}, 0.1)


def audit_verdict(nodes, elements):
    try:
        TriangleMesh(nodes, elements)
    except MeshError as exc:
        return str(exc)
    return "pass"


def long_edges_beside_a_dense_patch(k=20, reach=3.0):
    """A k x k lattice patch of the unit square, and one long triangle left of
    it whose edge x = 0 spans the patch's left side, so the patch's left nodes
    hang on that edge; its two other edges are long boundary edges too."""
    s = np.linspace(0.0, 1.0, k + 1)
    nodes = [(x, y) for y in s for x in s] + [(-reach, 0.5)]
    elements = []
    for j in range(k):
        for i in range(k):
            a = j * (k + 1) + i
            elements += [(a, a + 1, a + k + 2), (a, a + k + 2, a + k + 1)]
    elements.append((0, k * (k + 1), len(nodes) - 1))
    return nodes, elements


def bucket_border_point(nodes, boundary, rng):
    """A point on a boundary edge whose coordinate on one axis lies exactly on
    a cell border of the hanging-node audit's grid once the point joins nodes.

    The grid is the audit's: its origin is the nodes' minimum, and its cell
    side is the median longer side of the boundary edges' boxes grown by
    2 tol, but at least extent / sqrt(N)."""
    scale = float(np.ptp(nodes, axis=0).max())
    tol = 1e-9 * scale
    pa, pb = nodes[[a for a, _ in boundary]], nodes[[b for _, b in boundary]]
    lo, hi = np.minimum(pa, pb) - 2.0 * tol, np.maximum(pa, pb) + 2.0 * tol
    side = max(float(np.median((hi - lo).max(axis=1))), scale / math.sqrt(len(nodes) + 1))
    origin = nodes.min(axis=0)
    first = int(rng.integers(2))
    for axis in (first, 1 - first):
        for a, b in rng.permutation(boundary):
            low, high = sorted((nodes[a, axis], nodes[b, axis]))
            border = origin[axis] + math.floor((high - origin[axis]) / side) * side
            if low < border < high:
                point = nodes[a] + (border - nodes[a, axis]) / (nodes[b, axis] - nodes[a, axis]) * (
                    nodes[b] - nodes[a])
                point[axis] = border
                return point
    raise AssertionError("no boundary edge crosses a cell border")


class TestMeshAuditMatchesReference:
    """The vectorized edge audit gives the loop audit's verdict on every input."""

    REJECT_CASES = [
        ([(0, 0), (1, 0), (0, 1), (0.5, 0), (0.5, -0.5)], [(0, 1, 2), (3, 1, 4)]),
        ([(0, 0), (1, 0), (0, 1), (0, -1), (-1, 0.5)], [(0, 1, 2), (0, 1, 3), (0, 1, 4)]),
        ([(0, 0), (1, 0), (0, 1), (5, 5), (6, 5), (5, 6)], [(0, 1, 2), (3, 4, 5)]),
        ([(0, 0), (1, 0), (2, 0), (0, 1)], [(0, 1, 2), (0, 1, 3)]),
        long_edges_beside_a_dense_patch(),
    ]

    def both_verdicts(self, monkeypatch, nodes, elements):
        new = audit_verdict(nodes, elements)
        with monkeypatch.context() as patch:
            patch.setattr(TriangleMesh, "_audit_edges", reference_audit_edges)
            old = audit_verdict(nodes, elements)
        return new, old

    def test_reject_cases(self, monkeypatch):
        for nodes, elements in self.REJECT_CASES:
            new, old = self.both_verdicts(monkeypatch, nodes, elements)
            assert new == old != "pass"

    @pytest.mark.parametrize(
        "spec, h",
        [
            ({"kind": "rectangle", "bounds": [0, 0, 1, 1]}, 0.2),
            ({"kind": "disk", "radius": 1.0}, 0.25),
            ({"kind": "star", "delta": 0.5}, 0.3),
            ({"kind": "rect_union", "rects": [[0, 0, 1, 1], [0.5, 0.5, 1.5, 1.5]]}, 0.2),
            ({"kind": "polygon", "vertices": [[0, 0], [1, 0], [0.5, 0.8]]}, 0.2),
        ],
    )
    @pytest.mark.parametrize("shift, factor", [(0.0, 1.0), (1e6, 1.0), (-1e6, 1.0), (0.0, 1e-6), (0.0, 1e6)],
                             ids=["in-place", "shifted-up", "shifted-down", "shrunk", "grown"])
    def test_seeded_perturbations(self, monkeypatch, spec, h, shift, factor):
        base = mesh_domain(spec, h)
        boundary = boundary_edges(base)
        assert set(boundary) == {e for e, c in reference_edge_counts(base).items() if c == 1}
        scale = float(np.ptp(base.nodes, axis=0).max())
        # the mutations run on a copy moved shift * scale away, or scaled by factor
        base_nodes = factor * base.nodes + shift * scale
        h, scale = factor * h, factor * scale
        rng = np.random.default_rng(7)
        verdicts = set()
        for trial in range(60):
            nodes, elements = base_nodes.copy(), base.elements.copy()
            kind = trial % 5
            if kind == 0:  # jitter every node
                nodes += rng.normal(scale=rng.choice([1e-3, 0.05, 0.3]) * h, size=nodes.shape)
            elif kind == 1:  # drop elements, exposing new boundary edges
                elements = np.delete(elements, rng.choice(len(elements), 3, replace=False), axis=0)
            elif kind == 4:  # an unreferenced node on a boundary edge and a cell border of the audit
                nodes = np.vstack([nodes, bucket_border_point(nodes, boundary, rng)])
            else:  # an unreferenced node on, next to or beyond a boundary edge
                a, b = boundary[rng.integers(len(boundary))]
                d = nodes[b] - nodes[a]
                normal = np.array([-d[1], d[0]]) / np.linalg.norm(d)
                t = rng.choice([0.5, rng.uniform(0.01, 0.99), 1e-10, -0.01, 1.01])
                off = rng.choice([0.0, 0.5e-9, 2e-9, 1e-6]) * scale
                extra = nodes[a] + t * d + off * normal
                if kind == 3:  # or move an existing node there
                    nodes[rng.integers(len(nodes))] = extra
                else:
                    nodes = np.vstack([nodes, extra])
            new, old = self.both_verdicts(monkeypatch, nodes, elements)
            assert new == old
            verdicts.add(new)
        assert "hanging node detected on a boundary edge" in verdicts
        assert len(verdicts) >= 3


# ---------------------------------------------------------------------------
# reference implementations: the gather/scatter midpoint rule, the stored
# element gradients, the einsum gradient, the element-matrix assembly and the
# brentq projection that the sparse operators and the Newton projection
# replaced, kept verbatim to pin the results
# ---------------------------------------------------------------------------


def reference_grads(mesh):
    """The (E, 3, 2) basis gradients the mesh stored before G held them."""
    coords = mesh.nodes[mesh.elements]
    # constant P1 basis gradients per element
    grads = np.empty((len(mesh.elements), 3, 2))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        grads[:, i, 0] = coords[:, j, 1] - coords[:, k, 1]
        grads[:, i, 1] = coords[:, k, 0] - coords[:, j, 0]
    return grads / (2.0 * mesh.areas)[:, None, None]


def reference_p1_matrices(mesh):
    """Stiffness and consistent mass (exact quadratic quadrature, not lumped).

    Element contributions are emitted in element-index order, so assembly
    is bit-reproducible for a fixed mesh.
    """
    grads = reference_grads(mesh)
    ke = np.einsum("eid,ejd,e->eij", grads, grads, mesh.areas)
    me_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    me = mesh.areas[:, None, None] * me_ref
    rows = np.repeat(mesh.elements, 3, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, 3)).ravel()
    n = mesh.node_count
    stiffness = scipy.sparse.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    mass = scipy.sparse.coo_matrix((me.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return stiffness, mass


def reference_midpoint_values(mesh, values):
    v = values[mesh.elements]
    return 0.5 * (v + np.roll(v, -1, axis=1))


def reference_constraint_value(mesh, values, p):
    mids = reference_midpoint_values(mesh, values)
    g = np.abs(mids) ** (p - 2.0) * mids if p != 2.0 else mids
    return float((mesh.areas / 3.0 * g.sum(axis=1)).sum())


def reference_project_constraint(mesh, values, p):
    lo, hi = float(values.min()), float(values.max())
    if hi - lo <= 0.0:
        raise ValueError("cannot project a constant function")
    shift = brentq(lambda c: reference_constraint_value(mesh, values - c, p), lo, hi, xtol=1e-15)
    return values - shift


def reference_rayleigh_gradient(mesh, values, p):
    grads = reference_grads(mesh)
    grads_vec = np.einsum("eid,ei->ed", grads, values[mesh.elements])
    gmag = np.sqrt((grads_vec**2).sum(axis=1))
    num = float((mesh.areas * gmag**p).sum())
    mids = reference_midpoint_values(mesh, values)
    den = float((mesh.areas / 3.0 * (np.abs(mids) ** p).sum(axis=1)).sum())

    dnum = np.zeros(mesh.node_count)
    weight = mesh.areas * p * np.where(gmag > 0.0, gmag ** (p - 2.0), 0.0)
    contrib = np.einsum("e,eid,ed->ei", weight, grads, grads_vec)
    np.add.at(dnum, mesh.elements, contrib)

    dden = np.zeros(mesh.node_count)
    gmid = np.abs(mids) ** (p - 2.0) * mids if p != 2.0 else mids
    half = mesh.areas[:, None] / 3.0 * p * gmid * 0.5
    np.add.at(dden, mesh.elements, half)
    np.add.at(dden, np.roll(mesh.elements, -1, axis=1), half)

    quotient = num / den
    return quotient, (dnum - quotient * dden) / den


DESCENT_MESHES = [
    ({"kind": "rectangle", "bounds": [0, 0, 2, 1]}, 0.1),
    ({"kind": "star", "delta": 1.0}, 0.12),
    ({"kind": "disk", "radius": 1.0}, 0.12),
    ({"kind": "polygon", "vertices": [[0, 0], [1, 0], [1.2, 0.7], [0.3, 1]]}, 0.1),
]


def relative_gap(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max() / np.abs(b).max())


class TestDescentOperatorsMatchReference:
    @pytest.mark.parametrize("spec, h", DESCENT_MESHES)
    def test_midpoints_and_gradients_bit_identical(self, spec, h):
        mesh = mesh_domain(spec, h)
        values = np.random.default_rng(3).standard_normal(mesh.node_count)
        assert np.array_equal((mesh.midpoint_operator @ values).reshape(-1, 3), reference_midpoint_values(mesh, values))
        assert np.array_equal(
            (mesh.gradient_operator @ values).reshape(-1, 2),
            np.einsum("eid,ei->ed", reference_grads(mesh), values[mesh.elements]),
        )
        # G holds the stored gradients bit for bit, row 2e + d at columns elements[e]
        assert np.array_equal(mesh.gradient_operator.data,
                              reference_grads(mesh).transpose(0, 2, 1).ravel())

    @pytest.mark.parametrize("spec, h", [*((spec, 0.05) for spec in SOLVE_SPECS.values()),
                                         *DESCENT_MESHES])
    def test_operator_products_match_element_assembly(self, spec, h):
        # K = G^T diag(area) G and M = P^T diag(area / 3) P sum the element
        # contributions in another order, so they agree to rounding
        mesh = mesh_domain(spec, h)
        for got, want in zip(p1_matrices(mesh), reference_p1_matrices(mesh)):
            assert got.shape == want.shape
            assert abs(got - want).max() <= 1e-15 * abs(want).max()

    @pytest.mark.parametrize("spec, h", DESCENT_MESHES)
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_rayleigh_gradient_and_projection(self, spec, h, p):
        mesh = mesh_domain(spec, h)
        values = np.random.default_rng(4).standard_normal(mesh.node_count)
        value, grad = _rayleigh_gradient(mesh, values, p)
        ref_value, ref_grad = reference_rayleigh_gradient(mesh, values, p)
        assert value == pytest.approx(ref_value, rel=1e-12)
        assert relative_gap(grad, ref_grad) <= 1e-12
        projected = project_constraint(mesh, values, p)
        assert relative_gap(projected, reference_project_constraint(mesh, values, p)) <= 1e-12

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_gradient_central_difference(self, p):
        mesh = mesh_domain({"kind": "star", "delta": 0.7}, 0.2)
        rng = np.random.default_rng(8)
        values = project_constraint(mesh, rng.standard_normal(mesh.node_count), p)
        _, grad = _rayleigh_gradient(mesh, values, p)
        for _ in range(5):
            direction = rng.standard_normal(mesh.node_count)
            eps = 1e-6
            plus = _rayleigh_gradient(mesh, values + eps * direction, p)[0]
            minus = _rayleigh_gradient(mesh, values - eps * direction, p)[0]
            assert (plus - minus) / (2.0 * eps) == pytest.approx(grad @ direction, rel=1e-6)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0, 6.0])
    def test_projection_stress(self, p):
        mesh = mesh_domain({"kind": "star", "delta": 1.0}, 0.15)
        rng = np.random.default_rng(round(10 * p))
        for trial in range(200):
            values = rng.standard_normal(mesh.node_count)
            if trial % 3 == 0:  # skewed: a few large positive values dominate
                values = np.exp(3.0 * values)
            projected = project_constraint(mesh, values, p)
            assert constraint_residual(mesh, projected, p) <= 1e-12

    def test_projection_rejects_non_finite(self):
        mesh = square_mesh(0.25)
        values = np.linspace(0.0, 1.0, mesh.node_count)
        values[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            project_constraint(mesh, values, 3.0)


# ---------------------------------------------------------------------------
# operators built on first use, and the previous formulas of the gradient pair
# sum and the edge keys, kept verbatim to pin identical bits
# ---------------------------------------------------------------------------

OPERATORS = ("gradient_operator", "midpoint_operator", "midpoint_weights")


def reference_gradient_powers(grads, p):
    gsq = (grads * grads).reshape(-1, 2).sum(axis=1)
    return gsq, gsq ** (0.5 * p)


def reference_edge_keys(elements, n):
    pairs = np.sort(elements[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys, counts = np.unique(pairs[:, 0] * n + pairs[:, 1], return_counts=True)
    return np.stack([keys // n, keys % n], axis=1), counts


def random_delaunay(rng, n):
    """Delaunay mesh of n random points, with the node numbers shuffled and
    about half of the elements given clockwise."""
    points = rng.random((n, 2))
    tri = Delaunay(points).simplices
    flip = rng.random(len(tri)) < 0.5
    tri[flip] = tri[flip][:, [0, 2, 1]]
    perm = rng.permutation(n)  # point i becomes node perm[i]
    nodes = np.empty_like(points)
    nodes[perm] = points
    return nodes, perm[tri]


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestOperatorsOnFirstUse:
    def counted_builds(self, monkeypatch):
        """Count the builds of each operator property of TriangleMesh."""
        counts = dict.fromkeys(OPERATORS, 0)
        for name in OPERATORS:
            build = getattr(TriangleMesh, name).func

            def counted(mesh, name=name, build=build):
                counts[name] += 1
                return build(mesh)

            prop = functools.cached_property(counted)
            prop.__set_name__(TriangleMesh, name)
            monkeypatch.setattr(TriangleMesh, name, prop)
        return counts

    def test_construction_builds_no_operator(self):
        mesh = square_mesh(0.2)
        assert not set(OPERATORS) & set(vars(mesh))
        assert mesh.gradient_operator is mesh.gradient_operator
        assert set(OPERATORS) - set(vars(mesh)) == {"midpoint_operator", "midpoint_weights"}

    def test_p2_check_factorizes_without_the_operators(self, monkeypatch):
        mesh = mesh_domain({"kind": "rectangle", "bounds": [0, 0, 1.3, 0.7]}, 0.05)
        e, n = mesh.element_count, mesh.node_count
        shapes = {(2 * e, n), (3 * e, n), (n, 2 * e), (n, 3 * e)}
        splu, factored = scipy.sparse.linalg.splu, []

        def checked_splu(a, *args, **kwargs):
            # neither the mesh nor anything else still alive holds G, P or a transpose
            assert not set(OPERATORS) & set(vars(mesh))
            assert not [o for o in gc.get_objects() if scipy.sparse.issparse(o) and o.shape in shapes]
            factored.append(a.shape)
            return splu(a, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", checked_splu)
        assert check_domination(EigenBound(mu_lower=1.0, p=2.0), mesh).passed
        assert factored == [(n, n)]

    def test_held_and_built_operators_assemble_the_same_matrices(self):
        spec, h = DESCENT_MESHES[1]
        fresh, held = mesh_domain(spec, h), mesh_domain(spec, h)
        for name in OPERATORS:
            getattr(held, name)
        for a, b in zip(p1_matrices(fresh), p1_matrices(held)):
            assert all(same_bits(getattr(a, k), getattr(b, k)) for k in ("data", "indices", "indptr"))
        assert not set(OPERATORS) & set(vars(fresh))
        assert neumann_mu2(fresh).mu2 == neumann_mu2(held).mu2

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_a_check_builds_each_operator_once(self, monkeypatch, p):
        counts = self.counted_builds(monkeypatch)
        mesh = mesh_domain({"kind": "star", "delta": 1.0}, 0.2)
        check_domination(EigenBound(mu_lower=1.0, p=p), mesh)
        assert counts == dict.fromkeys(OPERATORS, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_pair_sum_and_edge_keys_match_previous_formulas(self, seed):
        rng = np.random.default_rng(seed)
        nodes, elements = random_delaunay(rng, int(rng.integers(20, 400)))
        mesh = TriangleMesh(nodes, elements)
        assert np.any(mesh.elements != elements)  # the constructor turned some elements
        # the edges of the stored elements, and of the elements as given
        for m in (mesh, SimpleNamespace(elements=elements, node_count=len(nodes))):
            got, want = TriangleMesh._edge_counts(m), reference_edge_keys(m.elements, m.node_count)
            assert all(same_bits(g, w) for g, w in zip(got, want))
        scales = 10.0 ** rng.integers(-160, 150, 2 * mesh.element_count)
        wild = rng.standard_normal(2 * mesh.element_count) * scales
        wild[rng.random(len(wild)) < 0.1] = 0.0
        for grads in (mesh.gradient_operator @ rng.standard_normal(mesh.node_count), wild):
            for p in (1.1, 1.5, 2.0, 3.0, 4.0):
                with np.errstate(over="ignore", under="ignore"):
                    got, want = oracle._gradient_powers(grads, p), reference_gradient_powers(grads, p)
                assert all(same_bits(g, w) for g, w in zip(got, want))


class TestExactZeroMidpoints:
    """f = x - 0.5 on the unit square vanishes exactly at some edge midpoints."""

    @pytest.mark.parametrize("p", [1.5, 1.1])
    def test_finite_at_zero_midpoints(self, p):
        mesh = square_mesh(0.1)
        values = mesh.nodes[:, 0] - 0.5
        assert np.any((mesh.midpoint_operator @ values).reshape(-1, 3) == 0.0)
        assert math.isfinite(constraint_residual(mesh, values, p))
        value, grad = _rayleigh_gradient(mesh, values, p)
        assert math.isfinite(value) and np.all(np.isfinite(grad))
        projected = project_constraint(mesh, values, p)
        assert constraint_residual(mesh, projected, p) <= 1e-12
        assert math.isfinite(rayleigh_quotient(mesh, values, p))

    def test_non_finite_constraint_counts_as_violated(self):
        mesh = square_mesh(0.2)
        values = mesh.nodes[:, 0] - 0.5
        values[0] = np.nan
        with pytest.raises(ValueError, match="constraint"):
            rayleigh_quotient(mesh, values, 1.5)
