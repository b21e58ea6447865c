"""Output checks, recomputed from the reports without the library.

Every command's output is checked here: the exit code, that the report
parses, that each Poincare certificate's terms sum to bound^p, that each
eigenvalue provenance multiplies out to mu_lower, that each series tail is
a positive finite bound, that each domination
check passed with a consistent margin, the criterion-2 calibration values
where a command carries them, and the row content of ``report`` tables.
The worker checks byte identity of repeated commands itself.
"""

from __future__ import annotations

import csv
import io
import json
import math

# floating-point slack for recomputed sums and products; a 1e-6 relative
# perturbation of any certificate term must stay far outside it
REL_TOL = 1e-11

# eigenvalue provenance rules whose factor multiplies mu_lower; every
# other known rule divides it (the library records the denominator
# factors of mu_lower = base / (K * ...) and mu_lower = 1 / (K * ...))
NUMERATOR_RULES = {"base-eigenvalue-lower-bound"}
DENOMINATOR_RULES = {
    "distortion-coefficient",
    "min-q-composition-power",
    "base-constant-power",
    "sup-derivative-power",
}


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def check_poincare(data: dict) -> list[str]:
    value, p = float(data["bound"]), float(data["p"])
    terms = [float(t["value"]) for t in data.get("terms", [])]
    if not terms:
        return ["poincare certificate has no terms"]
    total, power = math.fsum(terms), value**p
    if not (math.isfinite(power) and _close(total, power)):
        return [f"terms sum {total!r} != bound^p {power!r}"]
    return []


def check_eigen(data: dict) -> list[str]:
    mu = float(data["mu_lower"])
    num, den = 1.0, 1.0
    for factor in data.get("provenance", []):
        if factor["rule"] in NUMERATOR_RULES:
            num *= float(factor["value"])
        elif factor["rule"] in DENOMINATOR_RULES:
            den *= float(factor["value"])
        else:
            return [f"unknown eigen provenance rule {factor['rule']!r}"]
    if not data.get("provenance"):
        return ["eigen certificate has no provenance"]
    if not (mu > 0.0 and _close(num / den, mu)):
        return [f"provenance gives {num / den!r}, mu_lower is {mu!r}"]
    return []


def check_series_tail(data: dict) -> list[str]:
    tail = float(data["tail_bound"])
    if not (math.isfinite(tail) and tail > 0.0 and data["tail_relative_increment"] >= 0.0):
        return [f"series tail {tail!r} is not a positive finite bound"]
    return []


CERTIFICATE_CHECKS = {
    "poincare": check_poincare,
    "eigen": check_eigen,
    "series-tail": check_series_tail,
}


VALUE_KEY = {"poincare": "bound", "eigen": "mu_lower", "series-tail": "tail_bound"}


def certificate_value(cert: dict) -> float:
    return float(cert["data"][VALUE_KEY[cert["kind"]]])


def check_domination(entry: dict, certs_by_label: dict) -> tuple[list[str], float | None]:
    """Consistency of one oracle check; returns (problems, tightness)."""
    claimed, oracle = float(entry["claimed"]), float(entry["oracle_value"])
    if entry["kind"] == "poincare":
        margin, tightness = claimed - oracle, claimed / oracle
    elif entry["kind"] == "eigen":
        margin, tightness = oracle - claimed, oracle / claimed
    else:
        return [f"unknown check kind {entry['kind']!r}"], None
    problems = []
    if not entry["passed"] or margin < 0.0:
        problems.append(f"domination check {entry.get('label')!r} failed: margin {margin!r}")
    if margin != float(entry["margin"]):
        problems.append(f"check margin {entry['margin']!r} != recomputed {margin!r}")
    cert = certs_by_label.get(entry.get("label"))
    if cert is None or certificate_value(cert) != claimed:
        problems.append(f"check {entry.get('label')!r} does not match its certificate")
    return problems, tightness


def check_report(text: str, expect_mu2=None) -> tuple[list[str], list[float], list[int]]:
    """Checks one JSON report; returns (problems, tightness values, mesh sizes)."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report does not parse: {exc}"], [], []
    problems, tightness, dofs = [], [], []
    certs = report.get("certificates", [])
    if not certs:
        problems.append("report has no certificates")
    for cert in certs:
        check = CERTIFICATE_CHECKS.get(cert["kind"])
        if check is None:
            problems.append(f"unknown certificate kind {cert['kind']!r}")
            continue
        problems += check(cert["data"])
    by_label = {c["label"]: c for c in certs}
    for entry in report.get("checks", []):
        found, tight = check_domination(entry, by_label)
        problems += found
        if tight is not None:
            tightness.append(tight)
        dofs.append(int(entry["mesh_dof"]))
    if expect_mu2 is not None:
        ref, tol = expect_mu2
        checks = report.get("checks", [])
        if len(checks) != 1:
            problems.append("calibration command must carry exactly one check")
        else:
            oracle = float(checks[0]["oracle_value"])
            mu2 = oracle if checks[0]["kind"] == "eigen" else oracle**-2.0
            if abs(mu2 - ref) > tol * ref:
                problems.append(f"mu2 {mu2!r} misses {ref!r} by more than {tol:.0%}")
    return problems, tightness, dofs


def check_table(text: str, fmt: str, inputs: dict[str, str]) -> list[str]:
    """A `report` table has one row per input certificate, with its value."""
    expected = []
    for path, body in inputs.items():
        try:
            expected += [certificate_value(c) for c in json.loads(body)["certificates"]]
        except (json.JSONDecodeError, KeyError) as exc:
            return [f"table input {path} unreadable: {exc}"]
    try:
        if fmt == "json":
            rows = json.loads(text)
            got = [float(r["bound"]) for r in rows]
        else:
            rows = list(csv.DictReader(io.StringIO(text)))
            got = [float(r["bound"]) for r in rows]
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        return [f"table does not parse: {exc}"]
    if got != expected:
        return [f"table rows {len(got)} do not match the {len(expected)} input certificates"]
    return []
