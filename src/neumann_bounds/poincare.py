"""Poincare-constant evaluation and aggregation over overlapping cell covers.

The module produces upper bounds B on the (p,p)-Poincare constant of a
target set, always as a certificate: a term-by-term breakdown whose sum
recovers B^p, so an auditor can recompute every emitted number. Per-cell
constants come from the diameter rule for convex cells; unions are handled
by the two-cell, triple, chain, and tree combination rules; the snowflake
family gets a rigorous ratio-test tail in place of truncation.

Every combination rule emits its bound through _rule_bound, the one
float-range policy: a term or B^p that is not a normal float has lost its
relative accuracy, so the rule is refused naming it and p (the tree and
snowflake rules name the root side). B is never below the exact (B^p)^(1/p).
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .geometry import (
    ConvexCell,
    FractalTree,
    FractalTreeSpec,
    TripleMeasures,
    cell_diameter,
    snowflake_level,
)

SERIES_CAP = 10_000  # last index a ratio-test series tail may reach
_ROOT_SIDE_REFUSAL = ("snowflake root side a = {:g} at p = {:g} puts a certified number "
                      "outside the normal float range")

FORM_DEVIATION = "deviation-from-mean"
FORM_INF = "inf-over-constants"


class SeriesError(ValueError):
    """A series tail could not be certified (no ratio below 1 within the cap)."""


def _is_number(value) -> bool:
    # JSON integers are unbounded; float() overflows on one beyond float range
    return isinstance(value, float) or (type(value) is int and abs(value) <= sys.float_info.max)


def _finite_array(value) -> np.ndarray | None:
    try:
        array = np.asarray(value) if isinstance(value, (list, tuple)) else None
    except ValueError:  # ragged nesting
        return None
    if array is None or array.dtype.kind not in "iuf" or not np.isfinite(array).all():
        return None
    return array.astype(float, copy=False)


# value kind -> (description, conversion that returns None for a refused
# value); a bool is never a number, and an integer refuses 2.0
_VALUE_KINDS = {
    "number": ("a number", lambda v: float(v) if _is_number(v) else None),
    "finite number": ("a finite number",
                      lambda v: float(v) if _is_number(v) and math.isfinite(v) else None),
    "integer": ("an integer", lambda v: v if type(v) is int else None),
    "string": ("a string", lambda v: v if isinstance(v, str) else None),
    "flag": ("true or false", lambda v: v if isinstance(v, bool) else None),
    "strings": ("a list of strings",
                lambda v: v if isinstance(v, list) and all(isinstance(s, str) for s in v) else None),
    "array": ("an array of finite numbers", _finite_array),
}


def _convert(kind: str, value, name: str, error):
    description, convert = _VALUE_KINDS[kind]
    converted = convert(value)
    if converted is None:
        raise error(f"{name} must be {description}, got {reprlib.repr(value)}")
    return converted


def read_field(data: dict, key: str, kind, *default, what: str = "certificate", error=ValueError):
    """data[key] of an outside JSON object as a value of the given kind, or the
    default if one is given and the key is absent (null is taken where the default
    is None); error names the key of a missing or refused value. A callable kind
    converts a list or map of entries (see read_entry); a failure there is malformed."""
    if key not in data:
        if not default:
            raise error(f"{what} needs key {key!r}")
        return default[0]
    value = data[key]
    if value is None and default == (None,):
        return None
    if not callable(kind):
        return _convert(kind, value, f"{what} key {key!r}", error)
    try:
        return kind(value)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        detail = f"an entry lacks {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
        raise error(f"{what} key {key!r} is malformed: {detail}") from None


def read_entry(entry: dict, key: str, kind: str):
    """entry[key] of a nested entry as a value of the given kind."""
    return _convert(kind, entry[key], f"entry {key!r}", TypeError)


def check_exponent(p: float) -> None:
    """Every exponent p, given or read from a certificate, is a finite number above 1."""
    if not 1.0 < p < math.inf:
        raise ValueError(f"exponent p must be a finite number above 1, got {p!r}")


@dataclass(frozen=True)
class SpectralParams:
    """Integrability exponent and ambient dimension."""

    p: float
    n: int

    def __post_init__(self) -> None:
        check_exponent(self.p)
        if self.n not in (2, 3):
            raise ValueError("dimension must be 2 or 3")


@dataclass(frozen=True)
class CertTerm:
    """One additive contribution to B^p, tagged with the rule that produced it."""

    label: str
    rule: str
    value: float

    def to_dict(self) -> dict:
        return {"label": self.label, "rule": self.rule, "value": self.value}


@dataclass(frozen=True)
class PoincareBound:
    """An upper bound for a Poincare constant together with its certificate.

    value bounds B_{r,p} of the target set (r defaults to p, the plain
    (p,p) case); the certificate terms sum to value^p.
    """

    value: float
    p: float
    form: str
    terms: tuple[CertTerm, ...] = ()
    r: float | None = None
    multiplicity: int = 1
    details: tuple[tuple[str, float], ...] = ()
    notes: tuple[str, ...] = ()
    domain: str | None = None

    def __post_init__(self) -> None:
        if not self.value > 0.0:
            raise ValueError("bound value must be positive")
        check_exponent(self.p)
        if self.form not in (FORM_DEVIATION, FORM_INF):
            raise ValueError(f"unknown bound form {self.form!r}")
        if self.terms:
            total = math.fsum(t.value for t in self.terms)
            try:
                power = self.value**self.p
            except OverflowError:
                raise ValueError(f"bound {self.value!r} to the power p = {self.p:g} overflows") from None
            if not math.isfinite(power) or abs(total - power) > 1e-9 * max(power, total):
                raise ValueError("certificate terms do not sum to value**p")

    @property
    def r_exponent(self) -> float:
        return self.p if self.r is None else self.r

    def bound_power(self) -> float:
        return self.value**self.p

    def to_dict(self) -> dict:
        return {
            "bound": self.value,
            "p": self.p,
            "r": self.r_exponent,
            "form": self.form,
            "terms": [t.to_dict() for t in self.terms],
            "multiplicity": self.multiplicity,
            "details": {k: v for k, v in self.details},
            "notes": list(self.notes),
            "domain": self.domain,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PoincareBound":
        """Inverse of to_dict; a malformed payload raises ValueError naming the key."""

        def term(t: dict) -> CertTerm:
            return CertTerm(*(read_entry(t, k, "string") for k in ("label", "rule")),
                            read_entry(t, "value", "number"))

        return cls(
            value=read_field(data, "bound", "number"),
            p=read_field(data, "p", "number"),
            form=read_field(data, "form", "string", FORM_DEVIATION),
            terms=read_field(data, "terms", lambda ts: tuple(map(term, ts)), ()),
            r=read_field(data, "r", "number", None),
            multiplicity=read_field(data, "multiplicity", "integer", 1),
            details=read_field(data, "details",
                               lambda d: tuple((k, read_entry(d, k, "number")) for k in d.keys()), ()),
            notes=tuple(read_field(data, "notes", "strings", ())),
            domain=read_field(data, "domain", "string", None),
        )


def _check_float_range(values, message: str) -> None:
    """ValueError(message) unless every value is a normal float: a subnormal
    or zero one has lost the relative accuracy a certificate claims."""
    if not all(sys.float_info.min <= v <= sys.float_info.max for v in values):
        raise ValueError(message)


def pi_p(p: float) -> float:
    """The generalized half-period constant 2*pi*(p-1)^(1/p) / (p*sin(pi/p)).

    Reduces to pi at p = 2; enters the sharp convex-cell eigenvalue lower
    bound (pi_p / diam)^p.
    """
    check_exponent(p)
    return 2.0 * math.pi * (p - 1.0) ** (1.0 / p) / (p * math.sin(math.pi / p))


def pi_p_quadrature(p: float) -> float:
    """Independent evaluation of pi_p from its integral definition.

    Adaptive quadrature of 2 * int_0^{(p-1)^{1/p}} (1 - t^p/(p-1))^{-1/p} dt;
    the integrable endpoint singularity is flagged to the quadrature rule.
    """
    from scipy.integrate import quad  # imported on use: it costs the CLI's start-up
    check_exponent(p)
    upper = (p - 1.0) ** (1.0 / p)

    def integrand(t: float) -> float:
        return (1.0 - t**p / (p - 1.0)) ** (-1.0 / p)

    value, _ = quad(integrand, 0.0, upper, points=[upper], limit=200)
    return 2.0 * value


def _diameter_rule(diam: float, p: float, label: str) -> PoincareBound:
    """B_{p,p} <= diam / pi_p for a convex set, raised as a rule's root is so
    that B^p is not below its one term; the certificate records the diameter
    and pi_p so the value can be recomputed from them."""
    pip = pi_p(p)
    term = (diam / pip) ** p
    return PoincareBound(_raised_root(diam / pip, term, p), p, FORM_DEVIATION,
                         (CertTerm(label, "convex-diameter", term),),
                         details=(("diameter", diam), ("pi_p", pip)))


def convex_cell_constant(cell: ConvexCell, params: SpectralParams) -> PoincareBound:
    """Diameter-scaled per-cell constant: B_{p,p}(cell) <= diam(cell) / pi_p.

    Sharp for balls.
    """
    if cell.n != params.n:
        raise ValueError(f"cell dimension {cell.n} does not match params.n {params.n}")
    return _diameter_rule(cell_diameter(cell), params.p, "cell")


def _require_deviation_form(bounds, p: float) -> None:
    for b in bounds:
        if b.form != FORM_DEVIATION:
            raise ValueError("combination rules need deviation-from-mean inputs")
        if abs(b.p - p) > 1e-12:
            raise ValueError(f"input bound has exponent {b.p}, expected {p}")


def _raised_root(value: float, power: float, p: float) -> float:
    """Raise value until B**p (pow errs < 1 ulp) is 2 ulp above power: B^p >= power exactly.
    OverflowError near the largest float; a subnormal power (deep snowflake levels) stays."""
    floor = math.nextafter(math.nextafter(power, math.inf), math.inf)
    while power >= sys.float_info.min and value**p < floor:
        value = math.nextafter(value, math.inf)
    return value


def _rule_bound(terms, power: float, p: float, form: str, details=(), notes=(),
                multiplicity: int = 1, refusal: str | None = None) -> PoincareBound:
    """The bound B >= power^(1/p) of a combination rule whose certificate terms
    sum to B^p = power. A term or B^p outside the normal floats is refused with
    the given message, or with one naming the first term's rule and p."""
    message = refusal or (f"{terms[0].rule} rule at p = {p:g} puts a certificate term or B^p "
                          "outside the normal float range")
    _check_float_range([t.value for t in terms] + [power], message)
    # the rounded exponent fl(1/p) moves the plain root by up to 2^-53 |ln power| / p;
    # one Newton step brings it within a few ulp before it is raised
    try:
        value = power ** (1.0 / p)
        value = _raised_root(value * (1.0 + (power / value**p - 1.0) / p), power, p)
    except OverflowError:  # power within a few ulp of the largest float
        raise ValueError(message) from None
    return PoincareBound(value, p, form, tuple(terms), multiplicity=multiplicity,
                         details=tuple(details), notes=tuple(notes))


def pair_constant(v1: float, v2: float, overlap: float, b1: PoincareBound, b2: PoincareBound,
                  p: float) -> PoincareBound:
    """Two-cell union rule: B^p = (2^(2p-1)/|Q1 ∩ Q2|) * sum v_j B^p(Q_j), v_j = |Q_j|."""
    if overlap <= 0.0:
        raise ValueError("overlap volume must be positive")
    _require_deviation_form((b1, b2), p)
    pref = 2.0 ** (2.0 * p - 1.0) / overlap
    t1 = pref * v1 * b1.bound_power()
    t2 = pref * v2 * b2.bound_power()
    terms = (CertTerm("cell-1", "two-cell-union", t1), CertTerm("cell-2", "two-cell-union", t2))
    details = (("overlap", overlap), ("volume-1", v1), ("volume-2", v2))
    return _rule_bound(terms, t1 + t2, p, FORM_DEVIATION, details)


def triple_constant(m: TripleMeasures, b1: PoincareBound, b2: PoincareBound, b3: PoincareBound,
                    p: float) -> PoincareBound:
    """Whitney-triple rule for A = Q1 ∪ R2 ∪ Q3, from the measures of the triple.

    B^p(A) <= 2^(4p-1) [ (|Q1∪R2|/|R2|)(|Q1|/|Q1∩R2|) B^p(Q1)
                        + (|Q1∪R2|/|Q1∩R2| + |Q3∪R2|/|Q3∩R2|) B^p(R2)
                        + (|Q3∪R2|/|R2|)(|Q3|/|Q3∩R2|) B^p(Q3) ].
    """
    _require_deviation_form((b1, b2, b3), p)
    pref = 2.0 ** (4.0 * p - 1.0)
    t_q1 = pref * (m.u12 / m.v2) * (m.v1 / m.o12) * b1.bound_power()
    t_r2 = pref * (m.u12 / m.o12 + m.u32 / m.o23) * b2.bound_power()
    t_q3 = pref * (m.u32 / m.v2) * (m.v3 / m.o23) * b3.bound_power()
    terms = tuple(CertTerm(label, "triple-union", v)
                  for label, v in (("q1", t_q1), ("r2", t_r2), ("q3", t_q3)))
    details = (("union-q1r2", m.u12), ("union-r2q3", m.u32),
               ("overlap-q1r2", m.o12), ("overlap-r2q3", m.o23))
    return _rule_bound(terms, t_q1 + t_r2 + t_q3, p, FORM_DEVIATION, details)


def _max_weight_bound(coeffs, parts, m: int, p: float, details, notes=(),
                      refusal: str | None = None) -> PoincareBound:
    """B^p = m * max_i C_i for the chain, tree and snowflake rules.

    coeffs[i] is candidate i's weight C_i and parts[i] its (label, rule,
    value) split; the first largest weight wins, and its parts scaled by m
    are the certificate terms, a zero part after the first dropped.
    """
    best = max(range(len(coeffs)), key=lambda i: coeffs[i])
    terms = [CertTerm(label, rule, m * v) for k, (label, rule, v) in enumerate(parts[best])
             if k == 0 or v > 0.0]
    return _rule_bound(terms, m * coeffs[best], p, FORM_INF, details, notes, m, refusal)


def _chain_coefficients(
    volumes: list[float], links: list[float], bounds_pow: list[float], p: float
) -> tuple[list[float], list[tuple[float, float]]]:
    """Per-cell weights C_i of the chain rule, split into their two parts.

    C_i = 2^(p-1) B^p(A_i)
        + 2^(2p) * (sum_{k>=i} k^(p-1) |A_k|) * B^p(A_i) / |A_i ∩ A_{i+1}|;
    the final cell reuses its trailing link, and a single-triple chain has
    no link term at all.
    """
    j_count = len(volumes)
    first_factor = 2.0 ** (p - 1.0)
    if j_count == 1:
        part = first_factor * bounds_pow[0]
        return [part], [(part, 0.0)]
    second_factor = 2.0 ** (2.0 * p)
    # suffix[i] = sum_{k>=i} (k+1)^(p-1) |A_k|, accumulated from the last cell
    suffix = list(accumulate((k + 1) ** (p - 1.0) * volumes[k] for k in reversed(range(j_count))))
    parts = [(first_factor * bp, second_factor * s * bp / link)
             for bp, s, link in zip(bounds_pow, suffix[::-1], links + links[-1:])]
    return [first + second for first, second in parts], parts


def chain_constant(volumes, links, multiplicity: int, triple_bounds: list[PoincareBound],
                   p: float) -> PoincareBound:
    """Chain rule over Whitney triples A_1..A_J, from their volumes |A_i|, the
    J - 1 positive links |A_i ∩ A_{i+1}| and the cover multiplicity m in [1, J],
    the most triples that contain any one point.

    The weighted-gradient estimate is collapsed to a single constant with
    m: B^p(W) = m * max_i C_i, valid against the choice c = f_{A_1}
    (inf-over-constants form).
    """
    j = len(volumes)
    if j == 0:
        raise ValueError("chain must contain at least one triple")
    if len(links) != j - 1:
        raise ValueError(f"expected {j - 1} link volumes, got {len(links)}")
    if any(v <= 0.0 for v in links):
        raise ValueError("all link volumes must be positive")
    if not (1 <= multiplicity <= j):
        raise ValueError(f"multiplicity must lie in [1, {j}]")
    if len(triple_bounds) != j:
        raise ValueError("need one triple bound per chain element")
    _require_deviation_form(triple_bounds, p)
    bounds_pow = [b.bound_power() for b in triple_bounds]
    coeffs, splits = _chain_coefficients(list(volumes), list(links), bounds_pow, p)
    notes = ("final cell reuses its trailing link; single-triple chains drop the link term",)
    parts = [((f"cell-{i + 1}-own", "chain-aggregation", first),
              (f"cell-{i + 1}-links", "chain-aggregation", second))
             for i, (first, second) in enumerate(splits)]
    details = ((f"C_{i + 1}", c) for i, c in enumerate(coeffs))
    return _max_weight_bound(coeffs, parts, multiplicity, p, details, notes)


def _downstream_ratios(tree: FractalTree, p: float) -> list[float]:
    """r_j = S_j / |Δ_j*|, S_j = sum_{i>=j} i^(p-1) (#level-i descendants of a
    level-j cell) |Δ_i*|: a cell has two children of 1/9 its area, the root
    three of (1+c)/9, so r_j = j^(p-1) + (2/9) r_{j+1} and r_0 = (1+c) r_1 / 3."""
    r = [0.0] * (tree.depth + 2)
    for j in range(tree.depth, 0, -1):
        r[j] = j ** (p - 1.0) + (2.0 / 9.0) * r[j + 1]
    r[0] = (1.0 + tree.spec.overlap_fraction) * r[1] / 3.0
    return r[:-1]


def tree_constant(
    tree: FractalTree, cell_bounds: list[PoincareBound], p: float
) -> PoincareBound:
    """Tree rule over the stored depth of a fractal tree.

    Per-level weight (extended cells, all cells of a level being congruent):
    C_j = 2^(p-1) B^p(Δ_j*) (1 + r_j), with r_j the scale-free downstream
    ratio of _downstream_ratios; B^p(tree) = m * max_j C_j.
    """
    if not tree.levels:
        raise ValueError("tree has no cells")
    if len(cell_bounds) != len(tree.levels):
        raise ValueError("need one bound per tree level")
    _require_deviation_form(cell_bounds, p)
    coeffs, parts = [], []
    pref = 2.0 ** (p - 1.0)
    for j, r in enumerate(_downstream_ratios(tree, p)):
        own = pref * cell_bounds[j].bound_power()
        coeffs.append(own * (1.0 + r))
        parts.append(((f"level-{j}-own", "tree-aggregation", own),
                      (f"level-{j}-downstream", "tree-aggregation", own * r)))
    details = ((f"C_level_{j}", c) for j, c in enumerate(coeffs))
    return _max_weight_bound(coeffs, parts, tree.multiplicity, p, details,
                             refusal=_ROOT_SIDE_REFUSAL.format(tree.spec.a, p))


def ratio_test_tail(term, ratio, start: int) -> tuple[float, int, float]:
    """Certified bound for a positive series tail sum_{k>=start} t_k.

    ratio(k) must upper-bound t_{k+1}/t_k and be nonincreasing in k. Terms
    are accumulated until the ratio drops below 1, after which the rest is
    dominated by the geometric series t_k * r / (1 - r). Returns
    (explicit sum including t_k at the stopping index, stopping index,
    geometric remainder).
    """
    if start > SERIES_CAP:
        raise SeriesError(f"series not summable: start level {start} beyond cap {SERIES_CAP}")
    explicit = 0.0
    for k in range(start, SERIES_CAP + 1):
        r = ratio(k)
        explicit += term(k)
        if r < 1.0:
            return explicit, k, term(k) * r / (1.0 - r)
    raise SeriesError(f"series not summable: ratio never fell below 1 up to level {SERIES_CAP}")


def _power_series_tail(p: float, x: float, start: int) -> float:
    """Certified upper bound for sum_{k>=start} k^(p-1) x^k, 0 < x < 1, start >= 1;
    refused when x^k at the stopping index, the least power summed, is not normal."""
    explicit, k, rem = ratio_test_tail(
        lambda k: k ** (p - 1.0) * x**k, lambda k: ((k + 1) / k) ** (p - 1.0) * x, start
    )
    _check_float_range((x**k,), f"series tail at p = {p:g} from start level {start} "
                                "leaves the normal float range")
    return explicit + rem


def _envelope_base(spec: FractalTreeSpec, p: float) -> float:
    """(3/2) Z(p) (extended side of the root cell / pi_p)^p: the level-j envelope
    e_j = base * j^(p-1) (2/3^p)^j, with Z(p) a certified polynomial-geometric
    constant, dominates the number of level-j cells times their per-cell
    downstream weight."""
    z = 4.5 * _power_series_tail(p, 2.0 / 9.0, 1)
    return 1.5 * z * (math.sqrt(1.0 + spec.overlap_fraction) * spec.a / pi_p(p)) ** p


def snowflake_tail(spec: FractalTreeSpec, p: float, start_level: int) -> float:
    """Rigorous upper bound for the discarded per-level weight series.

    Bounds sum_{j>=start_level} e_j of the level envelopes by the ratio
    test, which certifies it whenever the series is summable. This makes the
    convergence of the snowflake series a computable certificate instead
    of a limiting argument; a tail outside the normal floats is refused.
    """
    check_exponent(p)
    if start_level < 1:
        raise ValueError("start_level must be >= 1")
    tail = _envelope_base(spec, p) * _power_series_tail(p, 2.0 / 3.0**p, start_level)
    _check_float_range((tail,), f"snowflake series tail from start level {start_level} at "
                                f"a = {spec.a:g}, p = {p:g} leaves the normal float range")
    return tail


def snowflake_level_bounds(tree: FractalTree, p: float) -> list[PoincareBound]:
    """Per-level cell constants from the diameter rule on the extended cells."""
    try:
        return [_diameter_rule(level.star_side, p, f"level-{level.level}") for level in tree.levels]
    except OverflowError:
        raise ValueError(_ROOT_SIDE_REFUSAL.format(tree.spec.a, p)) from None


def snowflake_bound(
    tree: FractalTree, p: float, cell_bounds: list[PoincareBound] | None = None
) -> PoincareBound:
    """Bound for the infinite snowflake, not just the stored depth.

    Extends every per-level weight C_j with a certified tail for the
    downstream levels beyond the stored depth, and dominates the weights of
    all unstored levels by a strictly decreasing envelope evaluated at
    depth+1. The certificate separates the finite part from the tail terms.
    """
    spec = tree.spec
    if cell_bounds is None:
        cell_bounds = snowflake_level_bounds(tree, p)
    if len(cell_bounds) != len(tree.levels):
        raise ValueError("need one bound per tree level")
    j_next = tree.depth + 1
    c = spec.overlap_fraction
    pref = 2.0 ** (p - 1.0)

    # T = sum_{i>depth} i^(p-1) 2^i |Δ_i*| = (1+c) |Δ_0| sigma reaches a level-j
    # cell as the share 2^-j (3/2 at the root) of T, i.e. u_j |Δ_j*|
    sigma = _power_series_tail(p, 2.0 / 9.0, j_next)
    coeffs, parts = [], []
    for j, r in enumerate(_downstream_ratios(tree, p)):
        u = 1.5 * (1.0 + c) * sigma if j == 0 else 4.5**j * sigma
        own = pref * cell_bounds[j].bound_power()
        coeffs.append(own * (1.0 + r) + own * u)
        # the tree rule's two terms, then the tail: the terms exceed the tree's by the tail
        parts.append(((f"level-{j}-own", "tree-aggregation", own),
                      (f"level-{j}-downstream", "tree-aggregation", own * r),
                      (f"level-{j}-tail", "tail-ratio-test", own * u)))

    # envelope for the weights of levels beyond the stored depth:
    # E(j) = 2^(p-1) B^p(Δ_j*) (1 + j^(p-1) Z), decreasing by a factor
    # <= 2^(p-1)/3^p < 1 per level
    z = 4.5 * _power_series_tail(p, 2.0 / 9.0, 1)
    envelope = (pref * (snowflake_level(spec, j_next).star_side / pi_p(p)) ** p
                * (1.0 + j_next ** (p - 1.0) * z))
    coeffs.append(envelope)
    parts.append(((f"level-{j_next}-envelope", "tail-ratio-test", envelope),))

    details = (
        ("finite-depth-bound", tree_constant(tree, cell_bounds, p).value),
        ("downstream-tail-weight", (1.0 + c) * tree.levels[0].area * sigma),
        ("beyond-depth-envelope", envelope),
    )
    notes = ("covers the infinite tree: stored levels carry certified downstream tails, "
             "deeper levels are dominated by a decreasing envelope",)
    # m = 2: the infinite tree always has extended cells overlapping parents
    bound = _max_weight_bound(coeffs, parts, 2, p, details, notes,
                              _ROOT_SIDE_REFUSAL.format(spec.a, p))
    # the winner's tail term (its last), or 0 where a zero tail was dropped
    tail_power = sum(t.value for t in bound.terms if t.rule == "tail-ratio-test")
    return replace(bound, details=bound.details + (("tail-increment-power", tail_power),))
