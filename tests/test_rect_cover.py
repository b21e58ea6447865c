"""Covers are measured in integers: rectangles by RectCover, convex cells on
their exact 2D hulls.

Every measure of a 2D cover must be the float next to the exact rational
value on the side its rule needs: volumes, unions, triple volumes and
diameters above it, overlaps, links and the triple rule's |R2| below it.
The reference here is plain Fraction arithmetic: on the bench's own
rectangle covers, rebuilt by bench/workloads.py (loaded by file path: bench
is no package), and on random convex chains clipped by a Fraction
Sutherland-Hodgman loop.
"""

import importlib.util
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.spatial

from neumann_bounds import cli, geometry
from neumann_bounds.geometry import VOLUME_TOL, CellCover, ConvexCell, RectCover

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def bench_covers():
    """(name, vertex lists) of every cells domain the three workloads write at seeds 11 and 301."""
    workloads = load_workloads()
    covers = []
    for name in workloads.WORKLOADS:
        for seed in (11, 301):
            for path, data in workloads.build(name, seed).files.items():
                spec = json.loads(data)
                if spec.get("type") == "cells":
                    covers.append((f"{name}/{seed}/{path}",
                                   [np.array(c["vertices"], dtype=float) for c in spec["cells"]]))
    return covers


def assert_up(value, exact):
    assert Fraction(math.nextafter(value, 0.0)) < exact <= Fraction(value)


def assert_down(value, exact):
    assert Fraction(value) <= exact < Fraction(math.nextafter(value, math.inf))


def exact_box(verts):
    xs, ys = [Fraction(x) for x, _ in verts.tolist()], [Fraction(y) for _, y in verts.tolist()]
    return min(xs), min(ys), max(xs), max(ys)


def exact_area(box):
    return max(box[2] - box[0], 0) * max(box[3] - box[1], 0)


def exact_meet(a, b):
    return max(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), min(a[3], b[3])


def exact_union(boxes):
    """Area of a union of boxes, summed over the cells of their coordinate grid."""
    xs = sorted({b[k] for b in boxes for k in (0, 2)})
    ys = sorted({b[k] for b in boxes for k in (1, 3)})
    return sum((x1 - x0) * (y1 - y0) for x0, x1 in zip(xs, xs[1:]) for y0, y1 in zip(ys, ys[1:])
               if any(b[0] <= x0 and x1 <= b[2] and b[1] <= y0 and y1 <= b[3] for b in boxes))


COVERS = bench_covers()


def test_bench_covers_are_rectangle_covers():
    # chains of certify-batch and the rows of fem-verify and descent-verify
    assert len(COVERS) >= 60
    assert max(len(cells) for _, cells in COVERS) == 41
    assert all(RectCover.detect(cells) is not None for _, cells in COVERS)


@pytest.mark.parametrize("name, cells", COVERS, ids=[name for name, _ in COVERS])
def test_measures_on_their_side_within_one_ulp(name, cells):
    cover = RectCover.detect(cells)
    boxes = [exact_box(v) for v in cells]
    areas = [exact_area(b) for b in boxes]
    for i, box in enumerate(boxes):
        assert_up(cover.volume(i), areas[i])
        square = (box[2] - box[0]) ** 2 + (box[3] - box[1]) ** 2
        d = cover.diameter(i)
        assert Fraction(math.nextafter(d, 0.0)) ** 2 < square <= Fraction(d) ** 2
    for i in range(len(boxes) - 1):
        assert_down(cover.overlap(i, i + 1), exact_area(exact_meet(boxes[i], boxes[i + 1])))
    if len(boxes) < 3 or len(boxes) % 2 == 0:
        return
    index_triples = [(i, i + 1, i + 2) for i in range(0, len(boxes) - 2, 2)]
    triples = [cover.triple(idx) for idx in index_triples]
    for (i, j, k), t in zip(index_triples, triples):
        o12, o23 = exact_area(exact_meet(boxes[i], boxes[j])), exact_area(exact_meet(boxes[j], boxes[k]))
        m = t.measures()
        assert_up(m.v1, areas[i])
        assert_down(m.v2, areas[j])
        assert_up(m.v3, areas[k])
        assert_up(m.u12, exact_union([boxes[i], boxes[j]]))
        assert_up(m.u32, exact_union([boxes[k], boxes[j]]))
        assert_down(m.o12, o12)
        assert_down(m.o23, o23)
        # the triple volume leaves out |Q1 ∩ Q3|, which the bench's outer cells do not have
        assert_up(t.volume(), areas[i] + areas[j] + areas[k] - o12 - o23)
        assert t.volume() >= exact_union([boxes[i], boxes[j], boxes[k]])
    tol = Fraction(VOLUME_TOL)
    for (a, b), (t1, t2) in zip(zip(index_triples, index_triples[1:]), zip(triples, triples[1:])):
        pieces = [exact_meet(boxes[i], boxes[j]) for i in a for j in b
                  if exact_area(exact_meet(boxes[i], boxes[j])) > tol * min(areas[i], areas[j])]
        assert_down(cover.link(t1, t2), exact_union(pieces))


def cover_measures(cover):
    """Every measure the bound rules read of a cover: volumes, diameters, neighbour overlaps
    and, on an odd row, its triples' measures and volumes and their links."""
    count = len(cover.cells)
    measures = [cover.volume(i) for i in range(count)] + [cover.diameter(i) for i in range(count)]
    measures += [cover.overlap(i, j) for i in range(count) for j in range(i + 1, min(i + 3, count))]
    if count >= 3 and count % 2:
        triples = [cover.triple((i, i + 1, i + 2)) for i in range(0, count - 2, 2)]
        measures += [x for t in triples for x in (*t.measures(), t.volume())]
        measures += [cover.link(a, b) for a, b in zip(triples, triples[1:])]
    return measures


@pytest.mark.parametrize("name, cells", COVERS, ids=[name for name, _ in COVERS])
def test_cell_and_rect_covers_measure_rectangles_alike(name, cells):
    # both kinds round the same exact values once, to the same side
    as_cells = CellCover([ConvexCell(v) for v in cells])
    assert cover_measures(as_cells) == cover_measures(RectCover.detect(cells))


def rect(x0, y0, x1, y1):
    return {"vertices": [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]}


def write_cells(tmp_path, cells, **keys):
    path = tmp_path / "cells.json"
    path.write_text(json.dumps({"type": "cells", "cells": cells, **keys}))
    return str(path)


def row(count, step=0.6):
    return [rect(i * step, 0, i * step + 1, 1 + 0.05 * i) for i in range(count)]


class TestDetection:
    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (2, 0, 3, 1), (3, 2, 1, 0), (1, 3, 0, 2)])
    def test_corners_in_any_order(self, order):
        corners = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]
        cover = RectCover.detect([np.array([corners[i] for i in order])])
        assert cover is not None and cover.cells == [(0.0, 0.0, 2.0, 1.0)]

    @pytest.mark.parametrize("verts", [
        [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]],  # a closed loop repeats a corner
        [[0, 0], [1, 0], [1, 1], [0, 0.5]],  # three distinct y
        [[0, 0], [1, 0], [1, 1], [1, 0]],  # a corner twice, one missing
        [[0, 0], [1, 0], [0.5, 1]],
        [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
    ], ids=["closed-loop", "trapezoid", "repeated-corner", "triangle", "box-3d"])
    def test_other_cells_keep_the_convex_cell_path(self, verts):
        assert RectCover.detect([np.array(rect(0, 0, 1, 1)["vertices"], float),
                                 np.array(verts, float)]) is None

    def test_closed_loop_rectangles_still_verify(self, tmp_path):
        # the convex-cell path recognizes them as rectangles, as before
        cells = [{"vertices": [*c["vertices"], c["vertices"][0]]} for c in row(3)]
        out = tmp_path / "out.json"
        assert cli.main(["bound-cells", "--domain", write_cells(tmp_path, cells), "--h", "0.25",
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text())["checks"][0]["passed"]

    def test_cover_kinds(self):
        assert isinstance(cli._cover_from_spec({"cells": row(5)}), RectCover)
        mixed = row(2) + [{"vertices": [[1.2, 0], [2.2, 0], [1.7, 1]]}]
        assert isinstance(cli._cover_from_spec({"cells": mixed}), CellCover)

    @pytest.mark.parametrize("verts", [
        [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]],  # a closed loop
        [[0, 0], [0.5, 0], [1, 0], [1, 1], [0, 1]],  # a vertex on an edge
        [[1, 1], [0, 0], [1, 0], [0, 1], [1, 0]],  # a corner twice
    ], ids=["closed-loop", "vertex-on-edge", "repeated-corner"])
    def test_exact_rectangle_hulls_make_rect_covers(self, verts):
        cover = cli._cover_from_spec({"cells": [rect(0.5, 0, 1.5, 1), {"vertices": verts}]})
        assert isinstance(cover, RectCover) and cover.cells[1] == (0.0, 0.0, 1.0, 1.0)

    def test_near_rectangle_takes_the_cell_path(self):
        # a corner 2^-40 off the box is no rectangle: no oracle mesh and no exact multiplicity
        near = {"vertices": [[0, 0], [1, 0], [1, 1], [2.0**-40, 1]]}
        spec = {"cells": [near, rect(0.5, 0, 1.5, 1), rect(1.2, 0, 2.2, 1)], "structure": "chain"}
        cover = cli._cover_from_spec(spec)
        assert isinstance(cover, CellCover) and cli._cells_mesh_spec(cover) is None
        with pytest.raises(cli.CliError, match="multiplicity must be given explicitly"):
            cli._cells_bound(spec, 2.0)


def fraction_clip(subject, clipper):
    """Sutherland-Hodgman clip of a loop by a counterclockwise convex loop, in Fractions."""
    output = list(subject)
    for (x1, y1), (x2, y2) in zip(clipper[-1:] + clipper[:-1], clipper):
        inputs, output = output, []
        sides = [(x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) for x, y in inputs]
        for (s, s_side), (e, e_side) in zip(zip(inputs[-1:] + inputs[:-1], sides[-1:] + sides[:-1]),
                                            zip(inputs, sides)):
            if (s_side >= 0) != (e_side >= 0):
                t = s_side / (s_side - e_side)
                output.append((s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1])))
            if e_side >= 0:
                output.append(e)
    return output


def fraction_area(loop):
    return Fraction(abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(loop, loop[1:] + loop[:1])))) / 2


def fraction_union(loops):
    """Area of a union of convex loops by inclusion-exclusion over every subset."""
    total = Fraction(0)
    for mask in range(1, 1 << len(loops)):
        members = [loop for i, loop in enumerate(loops) if mask >> i & 1]
        meet = members[0]
        for loop in members[1:]:
            meet = fraction_clip(meet, loop)
        total += (-1) ** (len(members) + 1) * fraction_area(meet)
    return total


def convex_chain(rng, count):
    """count convex polygons on a 2^-20 grid, each overlapping its neighbours only."""
    cells = []
    for i in range(count):
        # 7-10 corners on a circle of radius 0.45-0.55, no two more than 72 degrees apart:
        # the inradius stays above 0.3, so neighbours 0.6 apart overlap
        m = int(rng.integers(7, 11))
        angles = 2 * np.pi * (np.arange(m) + rng.uniform(0, 0.4, size=m)) / m
        radius = rng.uniform(0.45, 0.55)
        points = np.stack([0.6 * i + radius * np.cos(angles), radius * np.sin(angles)], axis=1)
        cells.append(np.round(points * 2**20) / 2**20)
    return cells


@pytest.mark.parametrize("seed", range(6))
def test_convex_cover_measures_on_their_side_at_every_offset(seed):
    rng = np.random.default_rng(seed)
    count = 23
    polygons = convex_chain(rng, count)
    index_triples = [(i, i + 1, i + 2) for i in range(0, count - 2, 2)]
    seen = []
    for offset in (0.0, 2.0**20, 2.0**30):
        cells = [(p + offset).tolist() for p in polygons]
        cover = cli._cover_from_spec({"cells": [{"vertices": v} for v in cells]})
        assert isinstance(cover, CellCover)
        # the exact reference, each cell as its counterclockwise loop of Fractions
        loops = [[tuple(map(Fraction, v)) for v in cell] for cell in cells]
        areas = [fraction_area(loop) for loop in loops]
        overlaps = {(i, j): fraction_area(fraction_clip(loops[i], loops[j]))
                    for i in range(count) for j in range(count) if abs(i - j) <= 2}
        measures = []
        for i in range(count):
            assert_up(cover.volume(i), areas[i])
            measures.append(cover.volume(i))
        for i in range(count - 1):
            assert overlaps[i, i + 1] > 0
            assert_down(cover.overlap(i, i + 1), overlaps[i, i + 1])
            assert cover.overlap(i + 1, i) == cover.overlap(i, i + 1)
            measures.append(cover.overlap(i, i + 1))
        triples = [cover.triple(idx) for idx in index_triples]
        for (i, j, k), t in zip(index_triples, triples):
            o12, o23 = overlaps[i, j], overlaps[j, k]
            m = t.measures()
            assert_up(m.v1, areas[i])
            assert_down(m.v2, areas[j])
            assert_up(m.v3, areas[k])
            assert_up(m.u12, fraction_union([loops[i], loops[j]]))
            assert_up(m.u32, fraction_union([loops[k], loops[j]]))
            assert_down(m.o12, o12)
            assert_down(m.o23, o23)
            assert overlaps[i, k] == 0
            assert_up(t.volume(), fraction_union([loops[i], loops[j], loops[k]]))
            measures += [*m, t.volume()]
        tol = Fraction(VOLUME_TOL)
        for a, b, t1, t2 in zip(index_triples, index_triples[1:], triples, triples[1:]):
            pieces = [fraction_clip(loops[i], loops[j]) for i in a for j in b
                      if overlaps.get((i, j), 0) > tol * min(areas[i], areas[j])]
            assert_down(cover.link(t1, t2), fraction_union(pieces))
            measures.append(cover.link(t1, t2))
        seen.append(measures)
    assert seen[1] == seen[0] and seen[2] == seen[0]


def refuse_cells(*args, **kwargs):
    raise AssertionError("no convex cell, hull or clip for a rectangle cover")


@pytest.mark.parametrize("count", [1, 2, 3, 5, 9])
@pytest.mark.parametrize("verify", [False, True], ids=["no-verify", "verified"])
def test_rectangle_covers_build_no_cells(tmp_path, monkeypatch, count, verify):
    for name in ("ConvexHull", "HalfspaceIntersection"):
        monkeypatch.setattr(scipy.spatial, name, refuse_cells)
    for name in ("_hull_2d", "_shoelace", "_clip", "_loop_area", "_exact_overlap",
                 "intersection_volume", "triple_link_volume"):
        monkeypatch.setattr(geometry, name, refuse_cells)
    monkeypatch.setattr(ConvexCell, "__init__", refuse_cells)
    out = tmp_path / "out.json"
    flags = ["--h", "0.3"] if verify else ["--no-verify"]
    assert cli.main(["bound-cells", "--domain", write_cells(tmp_path, row(count)), *flags,
                     "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["checks"]) == int(verify)


# one case per refusal of the cell path, each with the message it gives there
REFUSALS = {
    "coordinate": ([rect(0, 0, 1, 1), rect(0.5, 0, 7e153, 1)], {},
                   "vertex coordinate 7e+153 too large: degree-2 products overflow"),
    "subnormal-volume": ([rect(0, 0, 1e-160, 1e-160)], {},
                         "cell volume 9.99989e-321 is below the smallest normal float 2.22507e-308"),
    "degenerate": ([rect(0, 0, 1, 1e-13)], {}, "degenerate cell: volume 1e-13 below tolerance"),
    "outer-cells-overlap": ([rect(0, 0, 1, 1), rect(0.5, 0, 1.5, 1), rect(1 - 1e-8, 0, 2, 1)], {},
                            "outer cells are not disjoint: |Q1 ∩ Q3| = 1e-08 exceeds 1e-09"),
    "pair-apart": ([rect(0, 0, 1, 1), rect(1, 0, 2, 1)], {}, "pair cells do not overlap"),
    "triple-overlap": ([rect(0, 0, 1, 1), rect(1, 0, 2, 1), rect(1.5, 0, 2.5, 1)], {},
                       "triple overlap volumes must be positive"),
    "link": (row(3) + [rect(5 + 0.5 * i, 0, 6 + 0.5 * i, 1) for i in range(3)],
             {"structure": "chain", "triples": [[0, 1, 2], [3, 4, 5]], "multiplicity": 1},
             "all link volumes must be positive"),
    "multiplicity-low": (row(5), {"multiplicity": 1},
                         "chain multiplicity 1 is below the cover multiplicity 2 of the rectangle triples"),
    "multiplicity-high": (row(5), {"multiplicity": 5}, "multiplicity must lie in [1, 2]"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_keep_their_messages(tmp_path, capsys, case):
    cells, keys, message = REFUSALS[case]
    assert cli.main(["bound-cells", "--domain", write_cells(tmp_path, cells, **keys),
                     "--no-verify"]) == 1
    assert capsys.readouterr().err.strip() == f"neumann-bounds: error: {message}"


def test_outer_overlap_below_tolerance_accepted(tmp_path):
    # |Q1 ∩ Q3| = 1e-10 lies below 1e-9 of the smaller outer cell
    cells = [rect(0, 0, 1, 1), rect(0.5, 0, 1.5, 1), rect(1 - 1e-10, 0, 2, 1)]
    assert cli.main(["bound-cells", "--domain", write_cells(tmp_path, cells), "--no-verify",
                     "--out", str(tmp_path / "out.json")]) == 0


def test_thin_rectangle_measured_alike_anywhere(tmp_path):
    # Qhull refused it away from the origin ("initial simplex is flat"); its own extent passes
    bounds = []
    for x in (0.0, 1e6):
        out = tmp_path / f"thin{x:g}.json"
        domain = write_cells(tmp_path, [rect(x, 0, x + 1, 1e-9)])
        assert cli.main(["bound-cells", "--domain", domain, "--no-verify", "--out", str(out)]) == 0
        bounds.append(json.loads(out.read_text())["certificates"][0]["data"]["bound"])
    assert bounds[0] == bounds[1]


@pytest.mark.parametrize("closed", [False, True], ids=["rect-cover", "cell-cover"])
def test_square_at_the_coordinate_bound(tmp_path, capsys, closed):
    # the bound keeps the squared diagonal finite: a square just inside it is measured on
    # both paths (a closed vertex loop takes the convex-cell path), one just outside refused
    inside = geometry.MAX_CELL_COORDINATE[2]
    for m in (inside, math.nextafter(inside, math.inf)):
        square = rect(-m, -m, m, m)
        if closed:
            square["vertices"].append(square["vertices"][0])
        args = ["bound-cells", "--domain", write_cells(tmp_path, [square]), "--no-verify"]
        if m == inside:
            assert cli.main([*args, "--out", str(tmp_path / "out.json")]) == 0
        else:
            assert cli.main(args) == 1
            assert capsys.readouterr().err.strip() == (
                f"neumann-bounds: error: vertex coordinate {m:g} too large: degree-2 products overflow")
