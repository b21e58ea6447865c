"""Composition-operator norms and eigenvalue transfer under quasiconformal maps.

Given the analytic data of a K-quasiconformal homeomorphism (distortion
coefficient, quadrature samples of |D phi| and |J|, integrability
exponent), these operations push Poincare constants and Neumann eigenvalue
bounds from a base domain to its image. Every transfer returns its full
factor chain so the product can be recomputed by an auditor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poincare import PoincareBound, _check_float_range, check_exponent, pi_p, read_entry, read_field

Q_GRID_SIZE = 64
# relative slack of the pointwise distortion check |D phi|^n <= K |J| (1 + QC_SLACK):
# scale-free, and absorbs the few-ulp rounding of K |J| for a map's own K
QC_SLACK = 1e-12


class TransferError(ValueError):
    """Invalid transfer input (exponent ranges, missing derivative data, ...)."""


@dataclass(frozen=True)
class QCMapData:
    """All analytic data of a quasiconformal map needed by the transfers.

    weights, dphi and jac are quadrature samples of |D phi| and |J| over the
    base domain. The weights sum to the domain volume; a map with a constant
    derivative is one sample weighted by the whole volume.
    """

    n: int
    K: float
    weights: np.ndarray
    dphi: np.ndarray
    jac: np.ndarray
    alpha: float = math.inf
    lipschitz: bool = True

    def __post_init__(self) -> None:
        w, d, j = (np.asarray(a, dtype=float) for a in (self.weights, self.dphi, self.jac))
        if not (w.ndim == d.ndim == j.ndim == 1 and len(w) == len(d) == len(j) > 0):
            raise TransferError("sampled derivative arrays must be lists that share a positive length")
        # negated comparisons also refuse NaN samples
        if not np.all(w > 0.0):
            raise TransferError("quadrature weights (a constant map's domain volume) must be positive")
        if not np.all(j > 0.0):
            raise TransferError("Jacobian samples must be positive (orientation fixed)")
        if not np.all((d >= 0.0) & (d < math.inf)):
            raise TransferError("derivative-norm samples must be nonnegative and finite")
        for name, samples in zip(("weights", "dphi", "jac"), (w, d, j)):
            object.__setattr__(self, name, samples)
        if self.n not in (2, 3):
            raise TransferError("map dimension must be 2 or 3")
        if not self.K >= 1.0:
            raise TransferError("distortion coefficient K must be >= 1")
        with np.errstate(over="ignore"):
            if not math.isfinite(w.sum()):  # then no scaled sum of _power_sum can overflow
                raise TransferError("quadrature weights must sum to a finite domain volume")
            if np.any(d**self.n > self.K * j * (1.0 + QC_SLACK)):
                raise TransferError("a sample violates |D phi|^n <= K |J|")

    @classmethod
    def from_linear(cls, matrix, domain_volume: float) -> "QCMapData":
        """Map data of a linear map: L is the spectral norm, J = |det|, and
        the constant derivative is one sample weighted by the domain volume."""
        m = np.asarray(matrix, dtype=float)
        if m.shape not in ((2, 2), (3, 3)):
            raise TransferError("linear map matrix must be 2x2 or 3x3")
        if not np.isfinite(m).all():
            raise TransferError(f"linear map matrix {m.tolist()} must have finite entries")
        op_norm = float(np.linalg.norm(m, 2))
        jac = float(abs(np.linalg.det(m)))
        if jac <= 0.0:
            raise TransferError("linear map must be invertible")
        n = m.shape[0]
        try:
            K = op_norm**n / jac
        except OverflowError:
            K = math.inf
        if not math.isfinite(K):
            raise TransferError(f"linear map {m.tolist()}: distortion |A|^n / |det A| overflows")
        return cls(n=n, K=K, weights=[domain_volume], dphi=[op_norm], jac=[jac])

    def ess_sup_dphi(self) -> float:
        return float(self.dphi.max())

    def dphi_integral_norm(self, alpha: float) -> float:
        """L_alpha norm D S^(1/alpha) of |D phi|, with (S, D) = _power_sum(self, alpha);
        the alpha = inf convention drops the volume factor and returns the essential
        supremum."""
        if math.isinf(alpha):
            return self.ess_sup_dphi()
        total, scale = _power_sum(self, alpha)
        return scale * total ** (1.0 / alpha)


def _power_sum(map_data: QCMapData, a: float) -> tuple[float, float]:
    """(S, D) with int |D phi|^a = D^a S over the supplied quadrature.

    D is the largest sample for a > 0 and the smallest for a < 0, so each term
    of S = sum w (|D phi| / D)^a is a base in [0, 1] raised to |a|: S is
    positive and at most the weight sum, which the map checked is finite. At
    a = 0, S is the weight sum and D = 1.
    """
    if a == 0.0:
        return float(map_data.weights.sum()), 1.0
    scale = float(map_data.dphi.max() if a > 0.0 else map_data.dphi.min())
    if scale == 0.0:
        raise TransferError("distortion integral diverges at a zero |D phi| sample" if a < 0.0
                            else "distortion integral vanishes: every |D phi| sample is zero")
    base = map_data.dphi / scale if a > 0.0 else scale / map_data.dphi  # one temporary, raised in place
    return float(map_data.weights @ np.power(base, abs(a), out=base)), scale


@dataclass(frozen=True)
class ChainFactor:
    """One multiplicative factor of a transfer certificate."""

    rule: str
    value: float
    inputs: tuple[tuple[str, float], ...] = ()

    def to_dict(self) -> dict:
        return {"rule": self.rule, "value": self.value, "inputs": {k: v for k, v in self.inputs}}


@dataclass(frozen=True)
class TransferResult:
    """A transferred Poincare constant; bound is the product of the chain."""

    bound: float
    q_star: float
    chain: tuple[ChainFactor, ...]
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        product = math.prod(f.value for f in self.chain)
        if abs(product - self.bound) > 1e-12 * max(abs(product), abs(self.bound)):
            raise TransferError("transfer chain does not multiply to the bound")

    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "q_star": self.q_star,
            "chain": [f.to_dict() for f in self.chain],
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class EigenBound:
    """A certified lower bound for the first nontrivial Neumann eigenvalue."""

    mu_lower: float
    p: float
    provenance: tuple[ChainFactor, ...] = ()
    notes: tuple[str, ...] = ()
    domain: str | None = None

    def __post_init__(self) -> None:
        if not self.mu_lower > 0.0:
            raise TransferError("eigenvalue lower bound must be positive")
        check_exponent(self.p)

    def to_dict(self) -> dict:
        return {
            "mu_lower": self.mu_lower,
            "p": self.p,
            "provenance": [f.to_dict() for f in self.provenance],
            "notes": list(self.notes),
            "domain": self.domain,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EigenBound":
        """Inverse of to_dict; a malformed payload raises ValueError naming the key."""

        def factor(f: dict) -> ChainFactor:
            inputs = f.get("inputs", {})
            return ChainFactor(read_entry(f, "rule", "string"), read_entry(f, "value", "number"),
                               tuple((k, read_entry(inputs, k, "number")) for k in inputs.keys()))

        return cls(
            mu_lower=read_field(data, "mu_lower", "number"),
            p=read_field(data, "p", "number"),
            provenance=read_field(data, "provenance", lambda fs: tuple(map(factor, fs)), ()),
            notes=tuple(read_field(data, "notes", "strings", ())),
            domain=read_field(data, "domain", "string", None),
        )


def q_grid(p: float) -> np.ndarray:
    """Geometric scan grid for the exponent minimization over q in [1, p)."""
    top = p - 1e-6
    if top <= 1.0:
        raise TransferError("empty q-grid: p is too close to 1")
    return np.geomspace(1.0, top, Q_GRID_SIZE)


def q_pq_norm(map_data: QCMapData, p: float, q: float) -> float:
    """Distortion integral norm (int |D phi|^((p-n)q/(p-q)))^((p-q)/(pq)).

    With (S, D) = _power_sum at the inner exponent, the result is
    S^((p-q)/(pq)) D^((p-n)/p), which stays finite as q approaches p. At
    p = n the integrand is identically one and the result is the domain
    volume (the weight sum) to the outer power.
    """
    if not 1.0 <= q < p:
        raise TransferError(f"need 1 <= q < p, got q={q}, p={p}")
    total, scale = _power_sum(map_data, (p - map_data.n) * q / (p - q))
    return total ** ((p - q) / (p * q)) * scale ** ((p - map_data.n) / p)


def _best_q(map_data: QCMapData, p: float, power: float, norm: float) -> tuple[float, float]:
    """(q_star, factor): the grid point minimizing factor = Q_{p,q}^power * norm."""
    grid = q_grid(p)
    factors = np.array([q_pq_norm(map_data, p, q) ** power for q in grid]) * norm
    best = int(np.argmin(factors))
    return float(grid[best]), float(factors[best])


def _check_transfer_range(transfer: str, p: float, *values: float) -> None:
    _check_float_range(values, f"{transfer} at p = {p:g} puts a factor product or its bound "
                               "outside the normal float range")


def poincare_transfer(map_data: QCMapData, base: PoincareBound, p: float) -> TransferResult:
    """Push a base (r, q) Poincare constant to the image domain.

    Produces a valid (s, p) constant with s = (alpha - n) r / alpha; the
    composition factor is minimized over a geometric q-grid in [1, p), so
    the result is a valid (possibly suboptimal) certificate regardless of
    grid density.
    """
    n = map_data.n
    alpha = map_data.alpha
    if alpha <= n:
        raise TransferError("alpha too small: need integrability exponent above the dimension")
    r = base.r_exponent
    if not p < r:
        raise TransferError(f"need p < r, got p={p}, r={r}")
    s = r if math.isinf(alpha) else (alpha - n) * r / alpha
    if s < 1.0:
        raise TransferError("alpha too small: the image exponent s drops below 1")
    q_star, factor = _best_q(map_data, p, 1.0, map_data.dphi_integral_norm(alpha) ** (n / s))
    k_factor = map_data.K ** (1.0 / p)
    bound = k_factor * factor * base.value
    _check_transfer_range("Poincare transfer", p, factor, bound)
    notes = ()
    if math.isinf(alpha):
        notes = ("alpha = inf: derivative norm taken as the essential supremum, volume factor dropped",)
    return TransferResult(
        bound=bound,
        q_star=q_star,
        chain=(
            ChainFactor("distortion-coefficient-root", k_factor, (("K", map_data.K), ("p", p))),
            ChainFactor("min-q-composition-factor", factor,
                        (("q_star", q_star), ("s", s), ("alpha", alpha))),
            ChainFactor("base-constant", base.value, (("r", r), ("q", base.p))),
        ),
        notes=notes,
    )


def eigen_transfer(map_data: QCMapData, base: PoincareBound, p: float) -> EigenBound:
    """Eigenvalue lower bound on the image from a base (r, q) constant.

    Uses the integrability exponent alpha = n r / (r - p) (so the image
    inequality lands at exponent p) and returns
    mu_lower = 1 / (K * min_q(Q^p * ||D phi||_alpha^n) * B^p).
    """
    n = map_data.n
    r = base.r_exponent
    if not math.isfinite(r):
        raise TransferError(f"base exponent r must be a finite number, got {r!r}")
    if r <= p:
        raise TransferError(f"need r > p, got r={r}, p={p}")
    alpha_req = n * r / (r - p)
    if map_data.alpha + 1e-12 < alpha_req:
        raise TransferError(
            f"map integrability alpha={map_data.alpha} below the required {alpha_req}"
        )
    q_star, factor = _best_q(map_data, p, p, map_data.dphi_integral_norm(alpha_req) ** n)
    denom = map_data.K * factor * base.bound_power()
    _check_transfer_range("eigen transfer", p, factor, denom)
    mu = 1.0 / denom
    _check_transfer_range("eigen transfer", p, mu)
    return EigenBound(
        mu_lower=mu,
        p=p,
        provenance=(
            ChainFactor("distortion-coefficient", map_data.K),
            ChainFactor("min-q-composition-power", factor, (("q_star", q_star), ("alpha", alpha_req))),
            ChainFactor("base-constant-power", base.bound_power(), (("r", r),)),
        ),
        notes=("lower bound is the reciprocal of the recorded factor product",),
    )


def eigen_transfer_lipschitz(map_data: QCMapData, base_mu: EigenBound, p: float) -> EigenBound:
    """Eigenvalue lower bound on the image of a Lipschitz quasiconformal map.

    mu_lower(image) = mu_lower(base) / (K * Q_p^p * L^n); the identity
    Q_p^p * L^n = L^p for L the essential supremum of |D phi| is asserted
    and recorded in the certificate.
    """
    if not map_data.lipschitz:
        raise TransferError("Lipschitz transfer needs a Lipschitz map")
    sup = map_data.ess_sup_dphi()
    product = (sup ** ((p - map_data.n) / p)) ** p * sup**map_data.n
    direct = sup**p
    if abs(product - direct) > 1e-12 * max(product, direct):
        raise TransferError("internal identity Q_p^p * L^n = L^p violated")
    denom = map_data.K * product
    _check_transfer_range("Lipschitz transfer", p, product, denom)
    mu = base_mu.mu_lower / denom
    _check_transfer_range("Lipschitz transfer", p, mu)
    return EigenBound(
        mu_lower=mu,
        p=p,
        provenance=(
            ChainFactor("base-eigenvalue-lower-bound", base_mu.mu_lower),
            ChainFactor("distortion-coefficient", map_data.K),
            ChainFactor(
                "sup-derivative-power",
                product,
                (("ess_sup", sup), ("identity_check", product - direct)),
            ),
        ),
        notes=("sup-derivative power verified equal to L^p to 1e-12",),
    )


def ball_lower_bound(n: int, p: float) -> EigenBound:
    """Lower bound for the first nontrivial Neumann eigenvalue of the unit ball.

    The ball is convex with diameter 2, so every p >= 2 and every dimension
    n takes the convex-domain bound (pi_p / 2)^p. No bound is available for
    p < 2.
    """
    if p < 2.0:
        raise TransferError("no ball lower bound implemented for p < 2")
    value = (pi_p(p) / 2.0) ** p
    return EigenBound(
        mu_lower=value,
        p=p,
        provenance=(ChainFactor("convex-half-period-power", value, (("pi_p", pi_p(p)),)),),
        notes=("convex-domain bound (pi_p / 2)^p",),
    )


def example_c(delta: float, p: float, base_mu: EigenBound) -> EigenBound:
    """Eigenvalue lower bound for the two-cone star domain as a ball image.

    Uses the published distortion and derivative bounds of the radial
    quasiconformal map taking the unit 3D ball onto the star domain:
    K^2 <= 2 sqrt(4 + sqrt6 + sqrt2) / (4 - sqrt6 - sqrt2) and
    L <= 2 delta (sqrt(4 + sqrt6 - sqrt2) + sqrt(4 - sqrt6 + sqrt2)) / (sqrt6 - sqrt2),
    composed through the Lipschitz transfer. Valid for p > 3.
    """
    if p <= 3.0:
        raise TransferError("the star-domain transfer needs p > 3")
    if delta <= 0.0:
        raise TransferError("delta must be positive")
    s6, s2 = math.sqrt(6.0), math.sqrt(2.0)
    k_squared = 2.0 * math.sqrt(4.0 + s6 + s2) / (4.0 - s6 - s2)
    k_bound = math.sqrt(k_squared)
    l_bound = 2.0 * delta * (math.sqrt(4.0 + s6 - s2) + math.sqrt(4.0 - s6 + s2)) / (s6 - s2)
    map_data = QCMapData(n=3, K=k_bound, weights=[4.0 * math.pi / 3.0], dphi=[l_bound],
                         jac=[l_bound**3 / k_bound])
    result = eigen_transfer_lipschitz(map_data, base_mu, p)
    return EigenBound(
        mu_lower=result.mu_lower,
        p=p,
        provenance=result.provenance
        + (
            ChainFactor("star-distortion-bound", k_bound, (("K_squared", k_squared),)),
            ChainFactor("star-derivative-bound", l_bound, (("delta", delta),)),
        ),
        notes=result.notes
        + (
            "an alternative printed closed form for this bound differs in two radical "
            "signs and in the delta exponent; this certificate follows the factored "
            "route through the Lipschitz transfer and records both factors",
        ),
        domain="star3d",
    )


def whitney_qc_bound(chain_bound: PoincareBound, map_data: QCMapData, p: float) -> EigenBound:
    """Eigenvalue lower bound for the image of an aggregated cell complex.

    Converts the aggregated Poincare bound B into mu_p >= B^-p on the base
    complex, then applies the Lipschitz transfer to the image.
    """
    if abs(chain_bound.p - p) > 1e-12:
        raise TransferError("chain bound exponent does not match the transfer exponent")
    power = chain_bound.value ** (-p)
    _check_transfer_range("Lipschitz transfer", p, power)
    base_mu = EigenBound(mu_lower=power, p=p, provenance=(
        ChainFactor("constant-to-eigenvalue", power, (("poincare_bound", chain_bound.value),)),))
    return eigen_transfer_lipschitz(map_data, base_mu, p)
