"""Seeded inputs and command schedules of the benchmark workloads.

Everything here is the benchmark's own work: it never imports the package
under test, so the same seed yields byte-identical inputs for every
version of the library. A workload is

- ``files``: the generated input files (relative path -> bytes);
- ``warmup``: tiny commands that exercise each command kind once, so the
  lazy first-call set-up lands in ``setup_s`` and not in the timed phase;
- ``prep``: commands whose reports feed the timed commands (untimed);
- ``probes``: untimed commands that exercise a known library defect; their
  outcome is reported as a fact and does not count as a failure;
- ``schedule``: one pass of timed commands. Every pass repeats the same
  argv lists, so repeated inputs must give byte-identical reports.

Mesh sizes are steered by choosing ``--h`` from the generated geometry so
that each schedule slot lands near a fixed node-count target, which keeps
the command mix (and hence the latency distribution) the same across seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

WORKLOADS = ("fem-verify", "descent-verify", "certify-batch")

# nominal seconds of one schedule pass on the reference machine; the timed
# phase runs round(seconds / PASS_SECONDS) whole passes so that every run
# of a workload executes the same command mix and the same sample count
PASS_SECONDS = {"fem-verify": 16.0, "descent-verify": 9.0, "certify-batch": 1.8}

# criterion-2 reference values: (exact mu2, relative tolerance)
SQUARE_MU2 = (math.pi**2, 0.01)
RECT21_MU2 = (math.pi**2 / 4.0, 0.01)
DISK_MU2 = (3.38994, 0.02)


@dataclass
class Command:
    """One CLI invocation and what its output must satisfy (besides exit 0)."""

    kind: str
    argv: list[str]
    out: str
    expect_mu2: tuple[float, float] | None = None  # (value, relative tolerance)
    report_inputs: list[str] = field(default_factory=list)  # for `report`


@dataclass
class Workload:
    name: str
    files: dict[str, bytes] = field(default_factory=dict)
    warmup: list[Command] = field(default_factory=list)
    prep: list[Command] = field(default_factory=list)
    probes: list[Command] = field(default_factory=list)
    schedule: list[Command] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def add_json(self, path: str, payload) -> str:
        self.files[path] = (json.dumps(payload, sort_keys=True) + "\n").encode()
        return path

    def plan(self) -> dict:
        """Command lists handed to the worker process as JSON."""
        return {
            key: [asdict(c) for c in getattr(self, key)]
            for key in ("warmup", "prep", "probes", "schedule")
        }


def _fmt(x: float) -> str:
    """Round-trip float literal for argv."""
    return repr(float(x))


def _bisect_h(estimate, target: int, lo: float = 1e-4, hi: float = 2.0) -> float:
    """Largest h (to 1e-3 relative) whose estimated node count reaches target."""
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if estimate(mid) >= target:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-3:
            break
    return float(f"{lo:.6g}")


# ---------------------------------------------------------------------------
# geometry generators
# ---------------------------------------------------------------------------


def random_row(rng: np.random.Generator, count: int) -> list[list[float]]:
    """Overlapping rectangle row drawn the way acceptance criterion 5 does."""
    widths = rng.uniform(0.8, 1.4, size=count)
    heights = rng.uniform(0.7, 1.3, size=count)
    overlaps = rng.uniform(0.15, 0.35, size=count - 1)
    x = 0.0
    rects = []
    for i in range(count):
        rects.append([x, 0.0, x + float(widths[i]), float(heights[i])])
        if i < count - 1:
            x += float(widths[i] - overlaps[i])
    return rects


def cells_domain(rects: list[list[float]]) -> dict:
    return {
        "type": "cells",
        "cells": [
            {"vertices": [[r[0], r[1]], [r[2], r[1]], [r[2], r[3]], [r[0], r[3]]]}
            for r in rects
        ],
    }


def _cut_lines(lo: float, hi: float, breaks, h: float) -> np.ndarray:
    pts = sorted({lo, hi, *[b for b in breaks if lo < b < hi]})
    out = []
    for a, b in zip(pts[:-1], pts[1:]):
        out.extend(np.linspace(a, b, max(1, math.ceil((b - a) / h)) + 1)[:-1])
    out.append(pts[-1])
    return np.array(out)


def rect_union_nodes(rects: list[list[float]], h: float) -> int:
    """Nodes of a grid cut at every rectangle edge, kept where a cell is covered."""
    xs = _cut_lines(min(r[0] for r in rects), max(r[2] for r in rects),
                    [v for r in rects for v in (r[0], r[2])], h)
    ys = _cut_lines(min(r[1] for r in rects), max(r[3] for r in rects),
                    [v for r in rects for v in (r[1], r[3])], h)
    cx, cy = 0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:])
    covered = np.zeros((len(cy), len(cx)), dtype=bool)
    for r in rects:
        covered |= ((cy >= r[1]) & (cy <= r[3]))[:, None] & ((cx >= r[0]) & (cx <= r[2]))[None, :]
    used = np.zeros((len(ys), len(xs)), dtype=bool)
    for dj in (0, 1):
        for di in (0, 1):
            used[dj:len(ys) - 1 + dj, di:len(xs) - 1 + di] |= covered
    return int(used.sum())


def rectangle_nodes(w: float, hh: float, h: float) -> float:
    return (max(1, math.ceil(w / h)) + 1) * (max(1, math.ceil(hh / h)) + 1)


def star_alpha(delta: float) -> float:
    return delta * (math.sqrt(3.0) - 1.0) / 2.0


def star_nodes(delta: float, h: float) -> float:
    alpha = star_alpha(delta)
    nx = max(2, math.ceil(2.0 * (delta + alpha) / (0.7 * h)))
    ny = max(2, math.ceil(2.0 * alpha / (0.5 * h)))
    ny += ny % 2
    return (nx + 1) * (ny + 1)


def draw_ellipse(rng: np.random.Generator) -> tuple[float, float, float]:
    """Semi-axes and rotation of a seeded ellipse."""
    return float(rng.uniform(0.8, 1.2)), float(rng.uniform(0.5, 0.9)), float(rng.uniform(0.0, math.pi))


def ellipse_polygon(ellipse: tuple[float, float, float], angles) -> list[list[float]]:
    """Convex polygon with vertices at increasing angles on the ellipse (ccw)."""
    a, b, rot = ellipse
    pts = []
    for t in angles:
        x, y = a * math.cos(t), b * math.sin(t)
        pts.append([x * math.cos(rot) - y * math.sin(rot), x * math.sin(rot) + y * math.cos(rot)])
    return pts


def fine_ellipse_polygon(ellipse: tuple[float, float, float], max_edge: float) -> list[list[float]]:
    """Uniform angles, enough of them that no edge is longer than max_edge."""
    count = math.ceil(2.0 * math.pi * ellipse[0] / max_edge)
    return ellipse_polygon(ellipse, np.arange(count) * 2.0 * math.pi / count)


def coarse_ellipse_polygon(rng: np.random.Generator, count: int) -> list[list[float]]:
    """A seeded ellipse with count vertices at sorted random angles."""
    ellipse = draw_ellipse(rng)
    gaps = rng.uniform(0.5, 1.5, size=count)
    return ellipse_polygon(ellipse, np.cumsum(gaps) / gaps.sum() * 2.0 * math.pi)


def polygon_nodes(verts: list[list[float]], h: float) -> int:
    """Boundary samples plus interior grid points with edge clearance."""
    v = np.asarray(verts, dtype=float)
    edges = np.roll(v, -1, axis=0) - v
    g = 0.72 * h
    count = sum(max(1, math.ceil(float(np.linalg.norm(e)) / g)) for e in edges)
    lo, hi = v.min(axis=0), v.max(axis=0)
    gx, gy = np.arange(lo[0] + g / 2, hi[0], g), np.arange(lo[1] + g / 2, hi[1], g)
    px, py = np.meshgrid(gx, gy)
    idx = np.arange(px.size)
    px = px.ravel() + np.sin(idx * 12.9898) * 0.05 * g
    py = py.ravel() + np.sin(idx * 78.233) * 0.05 * g
    keep = np.ones(px.size, dtype=bool)
    for a, e in zip(v, edges):
        keep &= e[0] * (py - a[1]) - e[1] * (px - a[0]) > 0.45 * g * np.linalg.norm(e)
    return count + int(keep.sum())


def diameter(points) -> float:
    v = np.asarray(points, dtype=float)
    diff = v[:, None, :] - v[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=-1)).max())


def quad_mesh(rng: np.random.Generator, per_side: int) -> tuple[dict, list[list[float]]]:
    """Structured triangulation of a seeded convex quadrilateral.

    Nodes are the bilinear image of a per_side x per_side grid; each image
    quad is convex, so both triangles of its split have positive area.
    """
    corners = np.array(
        [
            [rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)],
            [rng.uniform(1.1, 1.4), rng.uniform(-0.2, 0.1)],
            [rng.uniform(1.0, 1.3), rng.uniform(0.9, 1.2)],
            [rng.uniform(-0.2, 0.1), rng.uniform(0.8, 1.1)],
        ]
    )
    s = np.linspace(0.0, 1.0, per_side)
    u, v = np.meshgrid(s, s)
    u, v = u.ravel(), v.ravel()
    nodes = (
        np.outer((1 - u) * (1 - v), corners[0])
        + np.outer(u * (1 - v), corners[1])
        + np.outer(u * v, corners[2])
        + np.outer((1 - u) * v, corners[3])
    )
    idx = np.arange(per_side * per_side).reshape(per_side, per_side)
    a = idx[:-1, :-1].ravel()
    b = idx[:-1, 1:].ravel()
    c = idx[1:, :-1].ravel()
    d = idx[1:, 1:].ravel()
    elements = np.concatenate([np.stack([a, b, d], 1), np.stack([a, d, c], 1)])
    mesh = {"nodes": nodes.tolist(), "elements": elements.tolist()}
    return mesh, corners.tolist()


def pi_p(p: float) -> float:
    """Half-period constant 2 pi (p-1)^(1/p) / (p sin(pi/p))."""
    return 2.0 * math.pi * (p - 1.0) ** (1.0 / p) / (p * math.sin(math.pi / p))


def diameter_certificate(diam: float, p: float, domain: str) -> dict:
    """Poincare bound diam / pi_p of a convex domain, as a certificate."""
    value = diam / pi_p(p)
    return {
        "bound": value,
        "p": p,
        "form": "deviation-from-mean",
        "terms": [{"label": "cell", "rule": "convex-diameter", "value": value**p}],
        "details": {"diameter": diam, "pi_p": pi_p(p)},
        "domain": domain,
    }


def diameter_eigen_certificate(diam: float, domain: str) -> dict:
    """Eigenvalue lower bound (pi / diam)^2 of a convex domain (p = 2)."""
    mu = (math.pi / diam) ** 2
    return {
        "mu_lower": mu,
        "p": 2.0,
        "provenance": [
            {"rule": "base-eigenvalue-lower-bound", "value": mu, "inputs": {"diameter": diam}}
        ],
        "domain": domain,
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(name)])


def _cmd(kind: str, args: list[str], out: str, **kw) -> Command:
    return Command(kind=kind, argv=[kind, *args, "--out", out], out=out, **kw)


def _warmup_oracle(wl: Workload, p: float) -> None:
    """Tiny oracle commands: one bound-cells, one bound-star, one verify."""
    rects = [[0.0, 0.0, 1.0, 1.0], [0.75, 0.0, 1.75, 1.0]]
    dom = wl.add_json("warm/pair.json", cells_domain(rects))
    sq = wl.add_json("warm/square.json", {"type": "rectangle", "bounds": [0.0, 0.0, 1.0, 1.0]})
    cert = wl.add_json("warm/square_cert.json", diameter_certificate(math.sqrt(2.0), p, "square"))
    pa = ["--p", _fmt(p), "--h", "0.25"]
    wl.warmup += [
        _cmd("bound-cells", ["--domain", dom, *pa], "warm/cells.json"),
        _cmd("bound-star", ["--dim", "2", "--delta", "1.0", *pa], "warm/star.json"),
        _cmd("verify", ["--bound", cert, "--domain", sq, "--h", "0.25"], "warm/verify.json"),
    ]


def build_fem_verify(seed: int) -> Workload:
    wl = Workload("fem-verify")
    rng = _rng(seed, wl.name)
    _warmup_oracle(wl, 2.0)
    p2 = ["--p", "2"]

    # bound-cells on criterion-5 rows: (cells, node target); the dense
    # eigensolver serves meshes up to 5000 nodes, the sparse one above.
    # Targets keep the commands in the middle of the latency distribution
    # (this row, the square) clear of the interpreter-heavy mesh audits,
    # so its median does not jump between them under host load.
    for count, target in ((2, 1800), (3, 2400), (5, 7000), (7, 20000)):
        rects = random_row(rng, count)
        dom = wl.add_json(f"in/row{count}.json", cells_domain(rects))
        h = _bisect_h(lambda hh: rect_union_nodes(rects, hh), target)
        wl.schedule.append(
            _cmd("bound-cells", ["--domain", dom, *p2, "--h", _fmt(h)], f"out/row{count}.json")
        )

    delta = float(rng.uniform(0.8, 1.2))
    h = _bisect_h(lambda hh: star_nodes(delta, hh), 6000)
    wl.schedule.append(
        _cmd("bound-star", ["--dim", "2", "--delta", _fmt(delta), *p2, "--h", _fmt(h)],
             "out/star.json")
    )

    # criterion-2 calibration domains, verified with the convex-diameter
    # eigenvalue bound (pi / diam)^2, so the oracle value is mu2 itself
    for name, spec, diam, h, expect in (
        ("square", {"type": "rectangle", "bounds": [0.0, 0.0, 1.0, 1.0]}, math.sqrt(2.0),
         0.025, SQUARE_MU2),
        ("rect21", {"type": "rectangle", "bounds": [0.0, 0.0, 2.0, 1.0]}, math.sqrt(5.0),
         0.0075, RECT21_MU2),
        ("disk", {"type": "disk", "radius": 1.0}, 2.0, 0.02, DISK_MU2),
    ):
        dom = wl.add_json(f"in/{name}.json", spec)
        cert = wl.add_json(f"in/{name}_cert.json", diameter_eigen_certificate(diam, name))
        wl.schedule.append(
            _cmd("verify", ["--bound", cert, "--domain", dom, "--h", _fmt(h)],
                 f"out/verify_{name}.json", expect_mu2=expect)
        )

    # the polygon mesher emits a zero-area triangle when three boundary
    # samples of one long edge come out collinear (it fails on about a
    # quarter of random 5-9-gons). The timed polygon keeps every edge below
    # the 0.72 h boundary spacing, so edges carry no intermediate samples;
    # coarse 5-9-gons run as untimed probes whose outcome is reported.
    ellipse = draw_ellipse(rng)
    h = _bisect_h(lambda hh: polygon_nodes(fine_ellipse_polygon(ellipse, 0.6 * hh), hh), 2000)
    verts = fine_ellipse_polygon(ellipse, 0.6 * h)
    dom = wl.add_json("in/polygon.json", {"type": "polygon", "vertices": verts})
    cert = wl.add_json("in/polygon_cert.json", diameter_certificate(diameter(verts), 2.0, "polygon"))
    wl.schedule.append(
        _cmd("verify", ["--bound", cert, "--domain", dom, "--h", _fmt(h)], "out/verify_polygon.json")
    )
    for i in range(4):
        coarse = coarse_ellipse_polygon(rng, int(rng.integers(5, 10)))
        dom = wl.add_json(f"probe/polygon{i}.json", {"type": "polygon", "vertices": coarse})
        cert = wl.add_json(f"probe/polygon{i}_cert.json",
                           diameter_certificate(diameter(coarse), 2.0, "polygon"))
        hp = _bisect_h(lambda hh: polygon_nodes(coarse, hh), 400)
        wl.probes.append(
            _cmd("verify", ["--bound", cert, "--domain", dom, "--h", _fmt(hp)],
                 f"probe/verify_polygon{i}.json")
        )

    mesh, corners = quad_mesh(rng, 142)
    dom = wl.add_json("in/quad_mesh.json", mesh)
    cert = wl.add_json("in/quad_cert.json", diameter_certificate(diameter(corners), 2.0, "quad"))
    wl.schedule.append(
        _cmd("verify", ["--bound", cert, "--domain", dom], "out/verify_mesh.json")
    )
    wl.summary = {"row_cells": [2, 3, 5, 7], "raw_mesh_nodes": len(mesh["nodes"])}
    return wl


def build_descent_verify(seed: int) -> Workload:
    wl = Workload("descent-verify")
    rng = _rng(seed, wl.name)
    _warmup_oracle(wl, 3.0)
    square = wl.add_json("in/unit_square.json", cells_domain([[0.0, 0.0, 1.0, 1.0]]))
    ps = (1.5, 3.0, 4.0)
    for p in ps:
        wl.prep.append(_cmd("bound-cells", ["--domain", square, "--p", _fmt(p), "--no-verify"],
                            f"prep/square_p{p:g}.json"))
    # node targets ascend through the slots; each p gets one command of
    # each kind, and each kind a small, a medium and a large mesh. Small
    # meshes keep a pass short, so the timed phase repeats every command
    # three times.
    targets = (300, 330, 370, 420, 480, 560, 700, 1000, 2500)
    rows = []
    for i, target in enumerate(targets):
        p, kind = ps[i % 3], ("row", "star", "verify")[(i + i // 3) % 3]
        tag = f"{i:02d}_p{p:g}"
        pa = ["--p", _fmt(p)]
        if kind == "row":
            rects = random_row(rng, 2 + i // 5)
            rows.append(len(rects))
            dom = wl.add_json(f"in/row_{tag}.json", cells_domain(rects))
            h = _bisect_h(lambda hh: rect_union_nodes(rects, hh), target)
            wl.schedule.append(
                _cmd("bound-cells", ["--domain", dom, *pa, "--h", _fmt(h)], f"out/row_{tag}.json")
            )
        elif kind == "star":
            delta = float(rng.uniform(0.8, 1.2))
            h = _bisect_h(lambda hh: star_nodes(delta, hh), target)
            wl.schedule.append(
                _cmd("bound-star", ["--dim", "2", "--delta", _fmt(delta), *pa, "--h", _fmt(h)],
                     f"out/star_{tag}.json")
            )
        else:
            # eigen transfer of the unit-square bound to the rectangle
            # diag(sx, sy) maps it onto, then verified on that rectangle; the
            # aspect ratio (and so the distortion K = 2) is fixed, the scale varies
            sy = float(rng.uniform(0.7, 0.9))
            sx = 2.0 * sy
            mp = wl.add_json(f"in/map_{tag}.json", {"kind": "linear", "matrix": [[sx, 0.0], [0.0, sy]]})
            transfer = f"prep/transfer_{tag}.json"
            wl.prep.append(
                _cmd("transfer", ["--map", mp, "--base", f"prep/square_p{p:g}.json", "--mode",
                                  "eigen", "--r", _fmt(2.0 * p), *pa], transfer)
            )
            rect = wl.add_json(f"in/rect_{tag}.json", {"type": "rectangle", "bounds": [0.0, 0.0, sx, sy]})
            h = _bisect_h(lambda hh: rectangle_nodes(sx, sy, hh), target)
            wl.schedule.append(
                _cmd("verify", ["--bound", transfer, "--domain", rect, "--h", _fmt(h)],
                     f"out/verify_{tag}.json")
            )
    wl.summary = {"row_cells": rows, "p": list(ps), "node_targets": list(targets)}
    return wl


def _sampled_map(rng: np.random.Generator, samples: int, lipschitz: bool) -> dict:
    """Weighted derivative samples with |D phi|^2 <= K |J| at every sample."""
    k = float(rng.uniform(1.2, 3.0))
    jac = rng.uniform(0.5, 1.5, size=samples)
    dphi = np.sqrt(k * jac) * rng.uniform(0.3, 0.95, size=samples)
    weights = rng.uniform(0.5, 1.5, size=samples)
    weights *= 1.0 / weights.sum()
    return {
        "kind": "sampled",
        "n": 2,
        "K": k,
        "alpha": 8.0,
        "lipschitz": lipschitz,
        "weights": weights.tolist(),
        "dphi": dphi.tolist(),
        "jac": jac.tolist(),
    }


def _linear_map(rng: np.random.Generator) -> dict:
    m = rng.uniform(-0.4, 0.4, size=(2, 2))
    m[np.diag_indices(2)] = rng.uniform(1.0, 2.0, size=2)
    return {"kind": "linear", "matrix": m.tolist(), "domain_volume": float(rng.uniform(0.5, 2.0))}


def build_certify_batch(seed: int) -> Workload:
    wl = Workload("certify-batch")
    rng = _rng(seed, wl.name)
    reports: list[str] = []

    def add(cmd: Command) -> None:
        wl.schedule.append(cmd)
        reports.append(cmd.out)

    warm = wl.add_json("warm/row3.json", cells_domain(random_row(np.random.default_rng(0), 3)))
    wl.warmup += [
        _cmd("bound-cells", ["--domain", warm, "--p", "2", "--no-verify"], "warm/row3_out.json"),
        _cmd("bound-snowflake", ["--depth", "4", "--p", "2"], "warm/snow.json"),
        _cmd("bound-star", ["--dim", "3", "--mgon", "8", "--p", "2"], "warm/star3.json"),
        _cmd("transfer", ["--map", wl.add_json("warm/id.json", {"kind": "linear",
             "matrix": [[1.0, 0.0], [0.0, 1.0]]}), "--base", "warm/row3_out.json", "--p", "2"],
             "warm/transfer.json"),
        _cmd("report", ["warm/row3_out.json", "--format", "csv"], "warm/table.csv",
             report_inputs=["warm/row3_out.json"]),
    ]

    # many sizes per command kind keep the latency distribution smooth, so
    # its median does not jump between two distant command kinds
    chain_counts = tuple(range(3, 42, 2))
    chains = {}
    for i, count in enumerate(chain_counts):
        p = (2.0, 1.5, 3.0, 2.5, 4.0)[i % 5]
        dom = wl.add_json(f"in/chain{count}.json", cells_domain(random_row(rng, count)))
        out = f"out/chain{count}.json"
        add(_cmd("bound-cells", ["--domain", dom, "--p", _fmt(p), "--no-verify"], out))
        chains[count] = (out, p)

    depths = (4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 50, 62)
    for i, depth in enumerate(depths):
        p_lo = 1.2 + 4.3 * i / len(depths)  # p rises from 1.2 towards 6 with depth
        args = ["--depth", str(depth), "--p", _fmt(rng.uniform(p_lo, p_lo + 0.5)),
                "--a", _fmt(rng.uniform(0.5, 2.0)),
                "--overlap-fraction", _fmt(rng.uniform(0.15, 0.35))]
        add(_cmd("bound-snowflake", args, f"out/snow{depth}.json"))

    mgons = (8, 16, 32, 64, 128, 256)
    for mgon, p in zip(mgons, (2.0, 3.0, 2.0, 4.0, 2.0, 3.0)):
        args = ["--dim", "3", "--mgon", str(mgon), "--delta", _fmt(rng.uniform(0.5, 2.0)),
                "--p", _fmt(p)]
        add(_cmd("bound-star", args, f"out/star3d_m{mgon}.json"))

    # transfers: (name, map, mode, base chain); eigen mode needs r > p
    samples = {}
    transfer_plan = [
        ("lin_eigen", wl.add_json("in/map_lin_a.json", _linear_map(rng)), "eigen", 3),
        ("lin_lip", wl.add_json("in/map_lin_b.json", _linear_map(rng)), "lipschitz", 5),
    ]
    # sampled eigen transfers stay at p = n: for p != n the q-grid exponent
    # (p - n) q / (p - q) grows without bound and the sample integral
    # overflows or underflows
    for n, mode, count in ((1000, "eigen", 13), (10_000, "lipschitz", 7), (100_000, "eigen", 33)):
        path = wl.add_json(f"in/map_s{n}.json", _sampled_map(rng, n, mode == "lipschitz"))
        samples[path] = n
        transfer_plan.append((f"s{n}_{mode}", path, mode, count))
    for name, mp, mode, count in transfer_plan:
        base, p = chains[count]
        args = ["--map", mp, "--base", base, "--mode", mode, "--p", _fmt(p)]
        if mode == "eigen":
            args += ["--r", _fmt(2.0 * p)]
        add(_cmd("transfer", args, f"out/transfer_{name}.json"))
    # a lipschitz transfer of an eigenvalue bound (chained transfers)
    add(_cmd("transfer", ["--map", "in/map_lin_b.json", "--base", "out/transfer_lin_eigen.json",
                          "--mode", "lipschitz", "--p", _fmt(chains[3][1])],
             "out/transfer_chained.json"))

    tables = list(reports)
    wl.schedule.append(
        _cmd("report", [*tables, "--format", "csv"], "out/table.csv", report_inputs=tables)
    )
    wl.schedule.append(
        _cmd("report", [*tables[-6:], "--format", "json"], "out/table.json",
             report_inputs=tables[-6:])
    )
    wl.summary = {"chain_cells": list(chain_counts), "snowflake_depths": list(depths),
                  "star3d_mgons": list(mgons), "map_samples": sorted(samples.values())}
    return wl


GENERATORS = {
    "fem-verify": build_fem_verify,
    "descent-verify": build_descent_verify,
    "certify-batch": build_certify_batch,
}


def build(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)
