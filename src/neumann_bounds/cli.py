"""Batch front end: bound pipelines, oracle checks, certificates, tables.

Reads domain and map specifications from JSON, runs the requested bound
pipeline, verifies the result against the oracle where a mesh is
available, and writes a report whose every number traces to a certificate
term. Reports are deterministic for fixed flags and inputs: floats
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
from dataclasses import replace

import numpy as np

from . import __version__
from .geometry import (
    CellCover,
    ConvexCell,
    FractalTreeSpec,
    GeometryError,
    RectCover,
    StarDomainSpec,
    build_snowflake_tree,
    build_star_domain,
    star_discretization_error,
)
from .oracle import MeshError, SolveError, TriangleMesh, check_domination, mesh_domain
from .poincare import (
    PoincareBound,
    SeriesError,
    _diameter_rule,
    chain_constant,
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


def _cover_from_spec(spec: dict) -> RectCover | CellCover:
    vertex_lists = read_field(spec, "cells", lambda es: [read_entry(e, "vertices", "array") for e in es],
                              [], what="cells domain", error=CliError)
    if not vertex_lists:
        raise CliError('cells domain needs "cells": [{"vertices": [[x, y], ...]}, ...]')
    cover = RectCover.detect(vertex_lists)
    if cover is None:  # cells whose exact hulls are axis-aligned rectangles make a RectCover too
        cells = list(map(ConvexCell, vertex_lists))
        cover = RectCover.detect([cell._hull_vertices for cell in cells]) or CellCover(cells)
    return cover


def rect_cover_multiplicity(triples) -> int:
    """Exact cover multiplicity of triples of axis-aligned rectangles (x0, y0, x1, y1).

    Evaluates coverage on the rectangle arrangement, where membership is
    constant per arrangement cell: count the triples with a rectangle
    containing the open cell, which holds when it contains both end points of
    the cell's x and y strips. End points are read as floats, so a strip one
    ulp wide counts too (its midpoint would round onto an end). Inclusion-exclusion
    over each triple's 7 sub-intersections S gives all counts as one product:
    signed [x in S] times [y in S].
    """
    rects = np.array(triples, dtype=float).reshape(len(triples), 1, 3, 4)  # (T, 1, 3, [x0, y0, x1, y1])
    # the distinct strip ends in order (the first np.unique of a process imports numpy.ma)
    xs, ys = (np.array(sorted(set(rects[..., [d, d + 2]].ravel().tolist()))) for d in (0, 1))
    member = np.array([[i >> k & 1 for k in range(3)] for i in range(1, 8)], bool)[..., None]
    lo = np.where(member, rects[..., :2], -np.inf).max(axis=2).reshape(-1, 2)  # (7T, [x, y])
    hi = np.where(member, rects[..., 2:], np.inf).min(axis=2).reshape(-1, 2)
    sign = np.tile(member.sum(axis=(1, 2)) % 2 * 2.0 - 1.0, len(triples))
    in_y = ((lo[:, 1] <= ys[:-1, None]) & (ys[1:, None] <= hi[:, 1])).astype(float)  # (Y, 7T)
    best = 0
    # x strips in blocks keep the work arrays O(Y T), like the y-strip matrix
    step = max(len(ys) - 1, 64)
    for start in range(0, len(xs) - 1, step):
        x = xs[start:start + step + 1, None]  # the end points of up to step x strips
        in_x = ((lo[:, 0] <= x[:-1]) & (x[1:] <= hi[:, 0])) * sign
        best = max(best, int((in_x @ in_y.T).max(initial=0)))
    return max(best, 1)


def _cells_bound(spec: dict, p: float) -> tuple[PoincareBound, RectCover | CellCover, str]:
    """The bound of a cells domain. Both kinds of cover take their measures from one shared
    layer, each exact and rounded outward once, and hand them to the same rules."""
    cover = _cover_from_spec(spec)
    per_cell = [_diameter_rule(cover.diameter(i), p, "cell") for i in range(len(cover.cells))]
    count = len(per_cell)
    structure = read_field(spec, "structure", "string", "auto", what="cells domain", error=CliError)
    if structure == "auto":
        structure = {1: "single", 2: "pair", 3: "triple"}.get(count, "chain")
    if structure == "single":
        if count != 1:
            raise CliError("single structure needs exactly one cell")
        return per_cell[0], cover, "single"
    if structure == "pair":
        if count != 2:
            raise CliError("pair structure needs exactly two cells")
        overlap = cover.overlap(0, 1)
        if overlap <= 0.0:
            raise CliError("pair cells do not overlap")
        return pair_constant(cover.volume(0), cover.volume(1), overlap, *per_cell, p), cover, "pair"
    if structure == "triple":
        if count != 3:
            raise CliError("triple structure needs exactly three cells")
        return triple_constant(cover.triple((0, 1, 2)).measures(), *per_cell, p), cover, "triple"
    if structure == "chain":
        index_triples = spec.get("triples")
        if index_triples is None:
            if count < 3 or count % 2 == 0:
                raise CliError("default chain grouping needs an odd cell count >= 3")
            index_triples = [[i, i + 1, i + 2] for i in range(0, count - 2, 2)]
        elif not isinstance(index_triples, list) or not all(
            isinstance(idx, list) and len(idx) == 3
            and all(type(i) is int and 0 <= i < count for i in idx)
            for idx in index_triples
        ):
            raise CliError(f'chain "triples" must be a list of [i, j, k] cell indices, '
                           f"each an integer in [0, {count})")
        left_out = sorted(set(range(count)) - {i for idx in index_triples for i in idx})
        if left_out:
            raise CliError(f"chain triples leave out cell {left_out[0]}; a chain bound covers "
                           "only the cells of its triples")
        triples = [cover.triple(idx) for idx in index_triples]
        multiplicity = read_field(spec, "multiplicity", "integer", None,
                                  what="cells domain", error=CliError)
        if isinstance(cover, RectCover):
            exact = rect_cover_multiplicity([t.cells for t in triples])
            if multiplicity is None:
                multiplicity = exact
            elif multiplicity < exact:
                raise CliError(f"chain multiplicity {multiplicity} is below the cover multiplicity "
                               f"{exact} of the rectangle triples")
        elif multiplicity is None:
            raise CliError("multiplicity must be given explicitly for non-rectangle cells")
        links = [cover.link(a, b) for a, b in zip(triples, triples[1:])]
        bounds = [triple_constant(t.measures(), *(per_cell[i] for i in idx), p)
                  for t, idx in zip(triples, index_triples)]
        return chain_constant([t.volume() for t in triples], links, multiplicity, bounds, p), cover, "chain"
    raise CliError(f"unknown cells structure {structure!r}")


def _cells_mesh_spec(cover: RectCover | CellCover) -> dict | None:
    """Oracle mesh description of a cover by axis-aligned rectangles."""
    return ({"kind": "rect_union", "rects": [list(r) for r in cover.cells]}
            if isinstance(cover, RectCover) else None)


def _mesh_spec_for_domain(spec: dict) -> dict | None:
    """Translate a domain description into an oracle mesh description."""
    kind = spec.get("type") or spec.get("kind")
    if kind == "cells":
        return _cells_mesh_spec(_cover_from_spec(spec))
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


def _maybe_verify(report: dict, bound, mesh_spec: dict | None, args: argparse.Namespace,
                  label: str) -> None:
    if not args.verify:
        return
    if mesh_spec is None:
        report["notes"].append(f"{label}: no oracle available for this domain kind")
        return
    _append_check(report, bound, mesh_domain(mesh_spec, args.h), label)


# ---------------------------------------------------------------------------
# subcommand pipelines
# ---------------------------------------------------------------------------


def _new_report(args: argparse.Namespace) -> dict:
    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k not in ("out", "pipeline")},
        "certificates": [],
        "checks": [],
        "notes": [],
    }


def _run_bound_cells(args: argparse.Namespace) -> dict:
    if not args.domain:
        raise CliError("bound-cells needs --domain")
    spec = _load_json(args.domain)
    if spec.get("type") != "cells":
        raise CliError('bound-cells expects a domain of type "cells"')
    bound, cover, structure = _cells_bound(spec, args.p)
    report = _new_report(args)
    report["certificates"].append(_certificate(f"cells-{structure}", "poincare", bound.to_dict()))
    mesh_spec = _cells_mesh_spec(cover) if args.verify else None
    _maybe_verify(report, bound, mesh_spec, args, f"cells-{structure}")
    return report


def _run_bound_star(args: argparse.Namespace) -> dict:
    spec = StarDomainSpec(delta=args.delta, n=args.dim, mgon=args.mgon)
    volume, overlap, diameter = build_star_domain(spec)
    piece = _diameter_rule(diameter, args.p, "cell")  # the two pieces are congruent
    bound = pair_constant(volume, volume, overlap, piece, piece, args.p)
    notes = ["overlap volume is the literal set intersection of the two pieces "
             "(the shared slab is not attributed to either piece alone)"]
    details = list(bound.details)
    if args.dim == 3:
        details.append(("cross-section-volume-deficit", star_discretization_error(args.mgon)))
        notes.append(f"3D pieces use an inscribed {args.mgon}-gon cross-section; volumes carry "
                     "the recorded relative deficit bound")
    bound = replace(bound, details=tuple(details), notes=tuple(notes), domain=f"star{args.dim}d")
    report = _new_report(args)
    report["certificates"].append(_certificate("star-union", "poincare", bound.to_dict()))
    mesh_spec = {"kind": "star", "delta": args.delta} if args.dim == 2 else None
    _maybe_verify(report, bound, mesh_spec, args, "star-union")
    return report


def _run_bound_snowflake(args: argparse.Namespace) -> dict:
    spec = FractalTreeSpec(a=args.a, depth=args.depth, overlap_fraction=args.overlap_fraction)
    tree = build_snowflake_tree(spec)
    level_bounds = snowflake_level_bounds(tree, args.p)
    finite = tree_constant(tree, level_bounds, args.p)
    full = snowflake_bound(tree, args.p, level_bounds)
    tail = snowflake_tail(spec, args.p, start_level=args.depth + 1)
    report = _new_report(args)
    report["certificates"].append(_certificate("snowflake-finite-tree", "poincare", finite.to_dict()))
    report["certificates"].append(_certificate("snowflake-infinite", "poincare", full.to_dict()))
    # term sums (B^p before the root) subtracted exactly
    increment = math.fsum([t.value for t in full.terms] + [-t.value for t in finite.terms])
    tail_data = {"start_level": args.depth + 1, "tail_bound": tail, "p": args.p,
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


def _run_transfer(args: argparse.Namespace) -> dict:
    if not args.map_path or not args.base:
        raise CliError("transfer needs --map and --base")
    map_data = _map_from_spec(_load_json(args.map_path))
    base = load_bound(_load_json(args.base))
    mode = args.mode
    if mode == "auto":
        mode = "lipschitz" if map_data.lipschitz else "eigen"
    if args.r is not None and mode != "eigen":
        raise CliError(f"--r is read only by an eigen transfer; this one runs in {mode} mode")
    report = _new_report(args)
    if mode == "lipschitz":
        if isinstance(base, PoincareBound):
            result = whitney_qc_bound(base, map_data, args.p)
        else:
            result = eigen_transfer_lipschitz(map_data, base, args.p)
        report["certificates"].append(_certificate("transfer-lipschitz", "eigen", result.to_dict()))
    elif mode == "eigen":
        if not isinstance(base, PoincareBound):
            raise CliError("eigen transfer needs a Poincare base certificate")
        if args.r is not None:
            base = replace(base, r=args.r)
        result = eigen_transfer(map_data, base, args.p)
        report["certificates"].append(_certificate("transfer-eigen", "eigen", result.to_dict()))
    elif mode == "poincare":
        if not isinstance(base, PoincareBound):
            raise CliError("poincare transfer needs a Poincare base certificate")
        result = poincare_transfer(map_data, base, args.p)
        report["certificates"].append(_certificate("transfer-poincare", "transfer", result.to_dict()))
    return report


def _run_verify(args: argparse.Namespace) -> dict:
    if not args.bound or not args.domain:
        raise CliError("verify needs --bound and --domain")
    bound = load_bound(_load_json(args.bound))
    spec = _load_json(args.domain)
    if "nodes" in spec and "elements" in spec:
        mesh = TriangleMesh.from_dict(spec)
    else:
        mesh_spec = _mesh_spec_for_domain(spec)
        if mesh_spec is None:
            raise CliError("domain kind has no oracle mesh")
        mesh = mesh_domain(mesh_spec, args.h)
    report = _new_report(args)
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


def _run_report(args: argparse.Namespace) -> str:
    return emit_table([_load_json(path) for path in args.inputs], args.fmt)


def run(args: argparse.Namespace) -> tuple[dict | str, int]:
    """Execute the pipeline of a parsed command line; returns (report payload, exit code)."""
    try:
        report = args.pipeline(args)
    except OverflowError:
        at_p = f" at p = {args.p:g}" if "p" in args else ""
        raise CliError(f"{args.command}{at_p}: a value exceeds float range") from None
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


# flags that only the subcommands reading them accept
_SHARED_FLAGS = {
    "--p": {"type": float, "default": 2.0, "help": "integrability exponent"},
    "--h": {"type": float, "default": 0.05, "help": "oracle mesh target edge length"},
    "--no-verify": {"dest": "verify", "action": "store_false"},
}


@functools.cache  # parse_args returns a fresh Namespace, so calls share no state
def _build_parser() -> _Parser:
    """The one declaration of every run parameter: a command's flags, with their
    defaults, are its configuration, and set_defaults names its pipeline."""
    parser = _Parser(prog=TOOL_NAME, description=__doc__)
    # no prefix matching, so that a flag a command lacks (--h) is not read as --help
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=functools.partial(_Parser, allow_abbrev=False))

    def common(sp, pipeline, *flags):
        sp.set_defaults(pipeline=pipeline)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        sp.add_argument("--out", help="output path (stdout if omitted)")
        for flag in flags:
            sp.add_argument(flag, **_SHARED_FLAGS[flag])

    sp = sub.add_parser("bound-cells", help="aggregate constants over a cell complex")
    sp.add_argument("--domain", help="cells domain JSON")
    common(sp, _run_bound_cells, "--p", "--h", "--no-verify")

    sp = sub.add_parser("bound-star", help="bound for the two-piece star domain")
    sp.add_argument("--delta", type=float, default=1.0)
    sp.add_argument("--dim", type=int, choices=(2, 3), default=2)
    sp.add_argument("--mgon", type=int, default=64)
    common(sp, _run_bound_star, "--p", "--h", "--no-verify")

    sp = sub.add_parser("bound-snowflake", help="bound for the snowflake tree")
    sp.add_argument("--a", type=float, default=1.0, help="root side length")
    sp.add_argument("--depth", type=int, default=12)
    sp.add_argument("--overlap-fraction", dest="overlap_fraction", type=float, default=0.25)
    common(sp, _run_bound_snowflake, "--p")

    sp = sub.add_parser("transfer", help="push a bound through a quasiconformal map")
    sp.add_argument("--map", dest="map_path", help="map specification JSON")
    sp.add_argument("--base", help="base certificate or report JSON")
    sp.add_argument("--mode", choices=("auto", "lipschitz", "eigen", "poincare"), default="auto")
    sp.add_argument("--r", type=float, help="base deviation exponent override")
    common(sp, _run_transfer, "--p")

    sp = sub.add_parser("verify", help="check a certificate against the oracle")
    sp.add_argument("--bound", help="certificate or report JSON")
    sp.add_argument("--domain", help="domain JSON (or a mesh file)")
    common(sp, _run_verify, "--h")

    sp = sub.add_parser("report", help="tabulate one or more reports")
    sp.add_argument("inputs", nargs="*", help="report JSON files")
    common(sp, _run_report)

    return parser


def _check_args(args: argparse.Namespace) -> None:
    """The refusals a flag's type cannot express: finite numbers and p > 1."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):  # flags may give nan or inf
            raise CliError(f"{name} must be a finite number, got {value!r}")
    if "p" in args and args.p <= 1.0:
        raise CliError("exponent p must exceed 1")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_args(args)
        payload, code = run(args)
        text = render_report(payload, args.fmt)
    except (CliError, GeometryError, MeshError, TransferError, SeriesError,
            SolveError, ValueError, OSError) as exc:
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
