"""Batch front end: bound pipelines, oracle checks, certificates, tables.

Reads domain and map specifications from JSON, runs the requested bound
pipeline, verifies the result against the oracle where a mesh is
available, and writes a report whose every number traces to a certificate
term. Reports are deterministic for a fixed config and seed: floats
serialize round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .geometry import (
    ConvexCell,
    FractalTreeSpec,
    GeometryError,
    StarDomainSpec,
    WhitneyChain,
    WhitneyTriple,
    build_snowflake_tree,
    build_star_domain,
    cell_volume,
    intersection_volume,
    star_discretization_error,
)
from .oracle import MeshError, SolveError, TriangleMesh, check_domination, mesh_domain
from .poincare import (
    PoincareBound,
    SeriesError,
    SpectralParams,
    _diameter_rule,
    chain_constant,
    convex_cell_constant,
    pair_constant,
    read_entry,
    read_field,
    snowflake_bound,
    snowflake_level_bounds,
    snowflake_tail,
    tree_constant,
    triple_constant,
)
from .qc_transfer import (
    EigenBound,
    QCMapData,
    SampledDerivative,
    TransferError,
    eigen_transfer,
    eigen_transfer_lipschitz,
    poincare_transfer,
    whitney_qc_bound,
)

TOOL_NAME = "neumann-bounds"


@dataclass
class RunConfig:
    """Everything one pipeline invocation depends on."""

    command: str
    domain: str | None = None
    map_path: str | None = None
    base: str | None = None
    bound: str | None = None
    inputs: list[str] = field(default_factory=list)
    p: float = 2.0
    r: float | None = None
    depth: int = 12
    h: float = 0.05
    seed: int = 0
    delta: float = 1.0
    a: float = 1.0
    dim: int = 2
    mgon: int = 64
    overlap_fraction: float = 0.25
    mode: str = "auto"
    fmt: str = "json"
    out: str | None = None
    verify: bool = True

    def public_dict(self) -> dict:
        """Every field but the output path."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"}


class CliError(ValueError):
    """Bad input: missing file, malformed JSON, unusable specification."""


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"input file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise CliError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise CliError(f"{path}: JSON nested too deeply to read") from None
    if not isinstance(data, dict):
        raise CliError(f"{path}: top-level JSON value must be an object, not {type(data).__name__}")
    return data


def _certificate(label: str, kind: str, data: dict) -> dict:
    return {"label": label, "kind": kind, "data": data}


# certificate kind -> bound class, for the kinds the oracle can check
_BOUND_TYPES = {"poincare": PoincareBound, "eigen": EigenBound}


def load_bound(data: dict):
    """Reconstruct a bound object from a certificate payload or report."""
    if not isinstance(data, dict):
        raise CliError(f"a certificate must be a JSON object, not {type(data).__name__}")
    if "certificates" in data:
        entries = data["certificates"]
        if not isinstance(entries, list) or not entries:
            raise CliError("report contains no certificates")
        return load_bound(entries[0])
    if "data" in data and "kind" in data:
        kind, payload = data["kind"], data["data"]
    elif "mu_lower" in data:
        kind, payload = "eigen", data
    elif "bound" in data and "p" in data:
        kind, payload = "poincare", data
    else:
        raise CliError("unrecognized bound certificate layout")
    if not isinstance(kind, str) or kind not in _BOUND_TYPES:
        raise CliError(f"cannot verify certificates of kind {kind!r}")
    if not isinstance(payload, dict):
        raise CliError(f"{kind} certificate data must be a JSON object, not {type(payload).__name__}")
    return _BOUND_TYPES[kind].from_dict(payload)


# ---------------------------------------------------------------------------
# domain handling
# ---------------------------------------------------------------------------


def _cells_from_spec(spec: dict) -> list[ConvexCell]:
    vertex_lists = read_field(spec, "cells", lambda es: [read_entry(e, "vertices", "array") for e in es],
                              [], what="cells domain", error=CliError)
    if not vertex_lists:
        raise CliError('cells domain needs "cells": [{"vertices": [[x, y], ...]}, ...]')
    return [ConvexCell(vertices) for vertices in vertex_lists]


def _axis_aligned_rect(cell: ConvexCell) -> tuple[float, float, float, float] | None:
    """Bounding rectangle if the cell is exactly an axis-aligned rectangle."""
    if cell.n != 2:
        return None
    poly = cell.hull_polygon()
    if len(poly) != 4:
        return None
    lo, hi = cell.bounding_box()
    box_area = float((hi[0] - lo[0]) * (hi[1] - lo[1]))
    if abs(box_area - cell_volume(cell)) > 1e-12 * box_area:
        return None
    return (float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))


def rect_cover_multiplicity(triples: list[WhitneyTriple]) -> int:
    """Exact cover multiplicity for triples of axis-aligned rectangles.

    Evaluates coverage on the rectangle arrangement, where membership is
    constant per arrangement cell: at each cell midpoint, count the triples
    with a rectangle strictly containing it. Inclusion-exclusion over each triple's 7
    sub-intersections S gives all counts as one product: signed [x in S] times [y in S].
    """
    rects = []
    for t in triples:
        for cell in t.cells:
            r = _axis_aligned_rect(cell)
            if r is None:
                raise CliError("multiplicity must be given explicitly for non-rectangle cells")
            rects.append(r)
    rects = np.array(rects).reshape(len(triples), 1, 3, 4)  # (T, 1, 3, [x0, y0, x1, y1])
    xs = np.unique(rects[..., [0, 2]])
    ys = np.unique(rects[..., [1, 3]])
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])
    member = np.array([[i >> k & 1 for k in range(3)] for i in range(1, 8)], bool)[..., None]
    lo = np.where(member, rects[..., :2], -np.inf).max(axis=2).reshape(-1, 2)  # (7T, [x, y])
    hi = np.where(member, rects[..., 2:], np.inf).min(axis=2).reshape(-1, 2)
    sign = np.tile(member.sum(axis=(1, 2)) % 2 * 2.0 - 1.0, len(triples))
    in_y = ((lo[:, 1] < cy[:, None]) & (cy[:, None] < hi[:, 1])).astype(float)  # (Y, 7T)
    best = 0
    # x strips in blocks keep the work arrays O(Y T), like the y-strip matrix
    step = max(len(cy), 64)
    for x in (cx[start:start + step, None] for start in range(0, len(cx), step)):
        in_x = ((lo[:, 0] < x) & (x < hi[:, 0])) * sign
        best = max(best, int((in_x @ in_y.T).max(initial=0)))
    return max(best, 1)


def _cells_bound(spec: dict, p: float) -> tuple[PoincareBound, list[ConvexCell], str]:
    cells = _cells_from_spec(spec)
    params = SpectralParams(p=p, n=cells[0].n)
    per_cell = [convex_cell_constant(c, params) for c in cells]
    structure = read_field(spec, "structure", "string", "auto", what="cells domain", error=CliError)
    if structure == "auto":
        structure = {1: "single", 2: "pair", 3: "triple"}.get(len(cells), "chain")
    if structure == "single":
        if len(cells) != 1:
            raise CliError("single structure needs exactly one cell")
        return per_cell[0], cells, "single"
    if structure == "pair":
        if len(cells) != 2:
            raise CliError("pair structure needs exactly two cells")
        overlap = intersection_volume(cells[0], cells[1])
        if overlap <= 0.0:
            raise CliError("pair cells do not overlap")
        return pair_constant(*map(cell_volume, cells), overlap, *per_cell, p), cells, "pair"
    if structure == "triple":
        if len(cells) != 3:
            raise CliError("triple structure needs exactly three cells")
        t = WhitneyTriple.from_cells(*cells)
        return triple_constant(t, *per_cell, p), cells, "triple"
    if structure == "chain":
        index_triples = spec.get("triples")
        if index_triples is None:
            if len(cells) < 3 or len(cells) % 2 == 0:
                raise CliError("default chain grouping needs an odd cell count >= 3")
            index_triples = [[i, i + 1, i + 2] for i in range(0, len(cells) - 2, 2)]
        elif not isinstance(index_triples, list) or not all(
            isinstance(idx, list) and len(idx) == 3
            and all(type(i) is int and 0 <= i < len(cells) for i in idx)
            for idx in index_triples
        ):
            raise CliError(f'chain "triples" must be a list of [i, j, k] cell indices, '
                           f"each an integer in [0, {len(cells)})")
        left_out = sorted(set(range(len(cells))) - {i for idx in index_triples for i in idx})
        if left_out:
            raise CliError(f"chain triples leave out cell {left_out[0]}; a chain bound covers "
                           "only the cells of its triples")
        triples = [WhitneyTriple.from_cells(*(cells[i] for i in idx)) for idx in index_triples]
        multiplicity = read_field(spec, "multiplicity", "integer", None,
                                  what="cells domain", error=CliError)
        if multiplicity is None:
            multiplicity = rect_cover_multiplicity(triples)
        elif all(_axis_aligned_rect(c) is not None for c in cells):
            exact = rect_cover_multiplicity(triples)
            if multiplicity < exact:
                raise CliError(f"chain multiplicity {multiplicity} is below the cover multiplicity "
                               f"{exact} of the rectangle triples")
        chain = WhitneyChain.from_triples(triples, multiplicity)
        bounds = [triple_constant(t, *(per_cell[i] for i in idx), p)
                  for t, idx in zip(triples, index_triples)]
        return chain_constant(chain, bounds, p), cells, "chain"
    raise CliError(f"unknown cells structure {structure!r}")


def _cells_mesh_spec(cells: list[ConvexCell]) -> dict | None:
    """Oracle mesh description of a cover by axis-aligned rectangles."""
    rects = [_axis_aligned_rect(cell) for cell in cells]
    if None in rects:
        return None
    return {"kind": "rect_union", "rects": [list(r) for r in rects]}


def _mesh_spec_for_domain(spec: dict) -> dict | None:
    """Translate a domain description into an oracle mesh description."""
    kind = spec.get("type") or spec.get("kind")
    if kind == "cells":
        return _cells_mesh_spec(_cells_from_spec(spec))
    if kind == "star" and read_field(spec, "dim", "integer", 2, what="star domain", error=CliError) != 2:
        return None
    if kind in ("rectangle", "rect_union", "polygon", "star", "disk"):
        out = dict(spec)
        out["kind"] = kind
        out.pop("type", None)
        return out
    return None


def _append_check(report: dict, bound, mesh: TriangleMesh, label: str) -> dict:
    entry = check_domination(bound, mesh).to_dict()
    entry["label"] = label
    entry["mesh_dof"] = mesh.node_count
    report["checks"].append(entry)
    return entry


def _maybe_verify(report: dict, bound, mesh_spec: dict | None, config: RunConfig, label: str) -> None:
    if not config.verify:
        return
    if mesh_spec is None:
        report["notes"].append(f"{label}: no oracle available for this domain kind")
        return
    _append_check(report, bound, mesh_domain(mesh_spec, config.h), label)


# ---------------------------------------------------------------------------
# subcommand pipelines
# ---------------------------------------------------------------------------


def _new_report(config: RunConfig) -> dict:
    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "command": config.command,
        "config": config.public_dict(),
        "certificates": [],
        "checks": [],
        "notes": [],
    }


def _run_bound_cells(config: RunConfig) -> dict:
    if not config.domain:
        raise CliError("bound-cells needs --domain")
    spec = _load_json(config.domain)
    if spec.get("type") != "cells":
        raise CliError('bound-cells expects a domain of type "cells"')
    bound, cells, structure = _cells_bound(spec, config.p)
    report = _new_report(config)
    report["certificates"].append(_certificate(f"cells-{structure}", "poincare", bound.to_dict()))
    _maybe_verify(report, bound, _cells_mesh_spec(cells), config, f"cells-{structure}")
    return report


def _run_bound_star(config: RunConfig) -> dict:
    spec = StarDomainSpec(delta=config.delta, n=config.dim, mgon=config.mgon)
    volume, overlap, diameter = build_star_domain(spec)
    piece = _diameter_rule(diameter, config.p, "cell")  # the two pieces are congruent
    bound = pair_constant(volume, volume, overlap, piece, piece, config.p)
    notes = ["overlap volume is the literal set intersection of the two pieces "
             "(the shared slab is not attributed to either piece alone)"]
    details = list(bound.details)
    if config.dim == 3:
        details.append(("cross-section-volume-deficit", star_discretization_error(config.mgon)))
        notes.append(f"3D pieces use an inscribed {config.mgon}-gon cross-section; volumes carry "
                     "the recorded relative deficit bound")
    bound = replace(bound, details=tuple(details), notes=tuple(notes), domain=f"star{config.dim}d")
    report = _new_report(config)
    report["certificates"].append(_certificate("star-union", "poincare", bound.to_dict()))
    mesh_spec = {"kind": "star", "delta": config.delta} if config.dim == 2 else None
    _maybe_verify(report, bound, mesh_spec, config, "star-union")
    return report


def _run_bound_snowflake(config: RunConfig) -> dict:
    spec = FractalTreeSpec(a=config.a, depth=config.depth, overlap_fraction=config.overlap_fraction)
    tree = build_snowflake_tree(spec)
    level_bounds = snowflake_level_bounds(tree, config.p)
    finite = tree_constant(tree, level_bounds, config.p)
    full = snowflake_bound(tree, config.p, level_bounds)
    tail = snowflake_tail(spec, config.p, start_level=config.depth + 1)
    report = _new_report(config)
    report["certificates"].append(_certificate("snowflake-finite-tree", "poincare", finite.to_dict()))
    report["certificates"].append(_certificate("snowflake-infinite", "poincare", full.to_dict()))
    # term sums (B^p before the root) subtracted exactly
    increment = math.fsum([t.value for t in full.terms] + [-t.value for t in finite.terms])
    tail_data = {"start_level": config.depth + 1, "tail_bound": tail, "p": config.p,
                 "tail_relative_increment": increment / math.fsum(t.value for t in finite.terms)}
    report["certificates"].append(_certificate("snowflake-tail", "series-tail", tail_data))
    report["notes"].append("no oracle available for the fractal domain; certificates only")
    return report


def _map_from_spec(spec: dict) -> QCMapData:
    kind = spec.get("kind")
    read = functools.partial(read_field, spec, what=f"{kind} map description", error=CliError)
    if kind == "linear":
        volume = read("domain_volume", "number", 1.0)
        data = QCMapData.from_linear(read("matrix", "array"), volume)
        return replace(data, K=read("K", "number")) if "K" in spec else data
    if kind == "sampled":
        field_data = SampledDerivative(*(read(name, "array") for name in ("weights", "dphi", "jac")))
        alpha = read("alpha", "number", None)
        return QCMapData(
            n=read("n", "integer", 2),
            K=read("K", "number"),
            derivative_field=field_data,
            alpha=math.inf if alpha is None else alpha,
            lipschitz=read("lipschitz", "flag", False),
        )
    raise CliError(f"unknown map kind {kind!r}")


def _run_transfer(config: RunConfig) -> dict:
    if not config.map_path or not config.base:
        raise CliError("transfer needs --map and --base")
    map_data = _map_from_spec(_load_json(config.map_path))
    base = load_bound(_load_json(config.base))
    mode = config.mode
    if mode == "auto":
        mode = "lipschitz" if map_data.lipschitz else "eigen"
    report = _new_report(config)
    if mode == "lipschitz":
        if isinstance(base, PoincareBound):
            result = whitney_qc_bound(base, map_data, config.p)
        else:
            result = eigen_transfer_lipschitz(map_data, base, config.p)
        report["certificates"].append(_certificate("transfer-lipschitz", "eigen", result.to_dict()))
    elif mode == "eigen":
        if not isinstance(base, PoincareBound):
            raise CliError("eigen transfer needs a Poincare base certificate")
        if config.r is not None:
            base = replace(base, r=config.r)
        result = eigen_transfer(map_data, base, config.p)
        report["certificates"].append(_certificate("transfer-eigen", "eigen", result.to_dict()))
    elif mode == "poincare":
        if not isinstance(base, PoincareBound):
            raise CliError("poincare transfer needs a Poincare base certificate")
        result = poincare_transfer(map_data, base, config.p)
        report["certificates"].append(_certificate("transfer-poincare", "transfer", result.to_dict()))
    else:
        raise CliError(f"unknown transfer mode {mode!r}")
    return report


def _run_verify(config: RunConfig) -> dict:
    if not config.bound or not config.domain:
        raise CliError("verify needs --bound and --domain")
    bound = load_bound(_load_json(config.bound))
    spec = _load_json(config.domain)
    if "nodes" in spec and "elements" in spec:
        mesh = TriangleMesh.from_dict(spec)
    else:
        mesh_spec = _mesh_spec_for_domain(spec)
        if mesh_spec is None:
            raise CliError("domain kind has no oracle mesh")
        mesh = mesh_domain(mesh_spec, config.h)
    report = _new_report(config)
    entry = _append_check(report, bound, mesh, "verified-bound")
    report["certificates"].append(_certificate("verified-bound", entry["kind"], bound.to_dict()))
    return report


# certificate kind -> (value key, key of the rule list, joiner of the rule names);
# other kinds (the snowflake series tail) tabulate their tail bound
_TABLE_KINDS = {
    "poincare": ("bound", "terms", "+"),
    "eigen": ("mu_lower", "provenance", "*"),
    "transfer": ("bound", "chain", "*"),
}


def _table_rows(reports: list[dict]) -> list[dict]:
    rows = []
    for report in reports:
        checks_by_label = {c.get("label"): c for c in report.get("checks", [])}
        for cert in report.get("certificates", []):
            data = cert["data"]
            if cert["kind"] in _TABLE_KINDS:
                value_key, rules_key, joiner = _TABLE_KINDS[cert["kind"]]
                value = data[value_key]
                chain = joiner.join(f["rule"] for f in data.get(rules_key, []))
            else:
                value = data.get("tail_bound", float("nan"))
                chain = "tail-ratio-test"
            check = checks_by_label.get(cert["label"])
            rows.append(
                {
                    "domain": data.get("domain") or cert["label"],
                    "p": data.get("p", report["config"].get("p")),
                    "bound": value,
                    "oracle_value": check["oracle_value"] if check else "",
                    "margin": check["margin"] if check else "",
                    "formula_chain": chain,
                }
            )
    return rows


def emit_table(reports: list[dict], fmt: str = "csv") -> str:
    """Render reports as a delimited table (stable column and row order)."""
    if not reports:
        raise CliError("no reports to tabulate")
    try:
        rows = _table_rows(reports)
    except (KeyError, TypeError, AttributeError) as exc:
        detail = f"needs key {exc.args[0]!r}" if isinstance(exc, KeyError) else f"wrong type: {exc}"
        raise CliError(f"malformed report: {detail}") from None
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    columns = ["domain", "p", "bound", "oracle_value", "margin", "formula_chain"]
    writer.writerow(columns)
    for row in rows:
        writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c] for c in columns])
    return buf.getvalue()


def _run_report(config: RunConfig) -> str:
    return emit_table([_load_json(path) for path in config.inputs], config.fmt)


_PIPELINES = {
    "bound-cells": _run_bound_cells,
    "bound-star": _run_bound_star,
    "bound-snowflake": _run_bound_snowflake,
    "transfer": _run_transfer,
    "verify": _run_verify,
    "report": _run_report,
}


def run(config: RunConfig) -> tuple[dict | str, int]:
    """Execute one pipeline; returns (report payload, exit code)."""
    if config.command not in _PIPELINES:
        raise CliError(f"unknown command {config.command!r}")
    try:
        report = _PIPELINES[config.command](config)
    except OverflowError:
        raise CliError(f"{config.command} at p = {config.p:g}: a value exceeds float range") from None
    if isinstance(report, str):  # a rendered table
        return report, 0
    failed = any(not c["passed"] for c in report["checks"])
    return report, 2 if failed else 0


def render_report(report: dict | str, fmt: str) -> str:
    if isinstance(report, str):
        return report
    if fmt == "csv":
        return emit_table([report], "csv")
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors exit 1 with one line; 2 is reserved for FAILs
        self.exit(1, f"{self.prog}: error: {message}\n")


# allowed values of the RunConfig fields whose flags take choices
_CHOICES = {
    "fmt": ("json", "csv"),
    "dim": (2, 3),
    "mode": ("auto", "lipschitz", "eigen", "poincare"),
}

# flags that only the subcommands reading them accept
_OPTIONAL_FLAGS = {
    "--p": {"type": float, "help": "integrability exponent"},
    "--h": {"type": float, "help": "oracle mesh target edge length"},
    "--no-verify": {"dest": "verify", "action": "store_false"},
}


@functools.cache  # parse_args returns a fresh Namespace, so calls share no state
def _build_parser() -> _Parser:
    parser = _Parser(prog=TOOL_NAME, description=__doc__)
    # no prefix matching, so that a flag a command lacks (--h) is not read as --help
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=functools.partial(_Parser, allow_abbrev=False))

    def common(sp, *flags):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--format", dest="fmt", choices=_CHOICES["fmt"], default=None)
        sp.add_argument("--out", default=None, help="output path (stdout if omitted)")
        for flag in flags:
            sp.add_argument(flag, default=None, **_OPTIONAL_FLAGS[flag])

    sp = sub.add_parser("bound-cells", help="aggregate constants over a cell complex")
    sp.add_argument("--domain", help="cells domain JSON")
    common(sp, "--p", "--h", "--no-verify")

    sp = sub.add_parser("bound-star", help="bound for the two-piece star domain")
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--dim", type=int, choices=_CHOICES["dim"], default=None)
    sp.add_argument("--mgon", type=int, default=None)
    common(sp, "--p", "--h", "--no-verify")

    sp = sub.add_parser("bound-snowflake", help="bound for the snowflake tree")
    sp.add_argument("--a", type=float, default=None, help="root side length")
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--overlap-fraction", dest="overlap_fraction", type=float, default=None)
    common(sp, "--p")

    sp = sub.add_parser("transfer", help="push a bound through a quasiconformal map")
    sp.add_argument("--map", dest="map_path", help="map specification JSON")
    sp.add_argument("--base", help="base certificate or report JSON")
    sp.add_argument("--mode", choices=_CHOICES["mode"], default=None)
    sp.add_argument("--r", type=float, default=None, help="base deviation exponent override")
    common(sp, "--p")

    sp = sub.add_parser("verify", help="check a certificate against the oracle")
    sp.add_argument("--bound", help="certificate or report JSON")
    sp.add_argument("--domain", help="domain JSON (or a mesh file)")
    common(sp, "--h")

    sp = sub.add_parser("report", help="tabulate one or more reports")
    sp.add_argument("inputs", nargs="*", help="report JSON files")
    common(sp)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    for attr in vars(config):
        if hasattr(args, attr) and getattr(args, attr) is not None:
            setattr(config, attr, getattr(args, attr))
    for name in ("p", "h", "delta", "a", "r"):  # flags may give nan or inf
        value = getattr(config, name)
        if value is not None and not math.isfinite(value):
            raise CliError(f"{name} must be a finite number, got {value!r}")
    if config.p <= 1.0:
        raise CliError("exponent p must exceed 1")
    return config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        payload, code = run(config)
        text = render_report(payload, config.fmt)
    except (CliError, GeometryError, MeshError, TransferError, SeriesError,
            SolveError, ValueError, OSError) as exc:
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return 1
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
