"""Prime-sum statistics of families: symmetry constants and 1-level density.

The explicit formula turns averaged zero statistics into weighted prime
sums of the family's local coefficients.  Two weighted averages carry the
structure: the first-moment sum over b(p) detects the family rank, and the
second-moment sum over b(p^2) detects the symmetry constant: it is near +1
for symplectic-type families, -1 for orthogonal, 0 for unitary.

``family_constants`` reads c, r and the 1-level density off one moment
table per family, all from one ``moment_tables`` pass: every statistic is a
masked contraction of that table against phi_hat(nu log p / log R),
evaluated once per harmonic nu over the table's primes.  Bad primes are
excluded member-by-member, and the excluded mass is reported so its
negligibility can be checked rather than assumed.  The density's weighted
sums follow the explicit-formula normalization exactly; the *estimates* of
the rank and symmetry constant are self-calibrated: they divide by the
same truncated prime-sum weight that multiplies the target, which removes
the O(1/log R) truncation bias of the raw normalization (the dominant
error at desk scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arith import sieve_primes
from .families import Family, FamilyError, MomentTable, moment_tables
from .rmt import TestFunction

__all__ = [
    "FamilyConstant",
    "DensityReport",
    "ConstantConfig",
    "pnt_prime_sum",
    "family_constant",
    "family_constants",
    "predicted_density",
]


MIN_MEMBERS = 2  # a singleton cannot average: see family_constant


def _support_bound(sigma: float, log_r: float, nu: int, P: int) -> int:
    """Largest prime that can contribute: phi_hat(nu log p / log R) != 0."""
    # capped before exp: past log P the bound is P, and exp could overflow
    edge = math.exp(min(sigma * log_r / nu, math.log(P)))
    return min(P, int(edge) + 1)


def _first_weights(phi: TestFunction, log_r: float, P: int) -> tuple[int, np.ndarray]:
    """The last prime p <= P with a nonzero weight phi_hat(log p / log R),
    1 if there is none, and the weights of the primes through it."""
    table = sieve_primes(max(_support_bound(phi.sigma, log_r, 1, P), 2))
    w1 = np.asarray(phi.phi_hat(table.log_p / log_r), dtype=float)
    n = int(np.flatnonzero(w1)[-1]) + 1 if w1.any() else 0
    return (int(table.primes[n - 1]) if n else 1), w1[:n]


def _first_moment(t: MomentTable, w1: np.ndarray, log_r: float) -> tuple[float, float]:
    """The first-moment prime sum and its calibration weight total.

    Both run over the primes with w1 != 0 where some member is good; the
    weight total is sum (log p)/(p log R) w1.
    """
    live = (w1 != 0) & (t.good > 0)
    p, lp, w = t.primes[live], t.log_p[live], w1[live]
    avg = t.sums[live, 0].real / t.good[live]
    acc = np.sum((lp / log_r) * w * avg / np.sqrt(p))
    return -2.0 * float(acc), float(np.sum((lp / (p * log_r)) * w))


def _second_moment(
    t: MomentTable, w2: np.ndarray, log_r: float, size: float
) -> tuple[float, float]:
    """The calibrated symmetry-constant estimate and its bad mass.

    Both run over the primes with w2 != 0 where some member is good.  The
    estimate divides the weighted average of avg_f b_f(p^2) by the weight
    total sum (log p)/(p log R) w2 itself, so the prime-number-theorem
    truncation error of the raw sum cancels.  The bad mass is the sum of
    p^{-1/2} times the bad fraction of the family.
    """
    live = (w2 != 0) & (t.good > 0)
    p, lp, good = t.primes[live], t.log_p[live], t.good[live]
    weight = (lp / (p * log_r)) * w2[live]
    num = float(np.sum(weight * (t.sums[live, 1].real / good)))
    den = float(np.sum(weight))
    c_estimate = num / den if den > 0 else float("nan")
    return c_estimate, float(np.sum((size - good) / size / np.sqrt(p)))


def pnt_prime_sum(Fhat: TestFunction, nu: int, R: float, P: int) -> float:
    """sum_{p <= P} Fhat(nu log p / log R) (log p)/(p log R).

    Converges to F(0)/(2 nu) as R grows, with an O(1/log R) error whose
    constant is the Mertens constant of sum log p / p.

    Raises:
        ValueError: If R <= e or nu < 1.
    """
    if R <= math.e:
        raise ValueError("R must exceed e")
    if nu < 1:
        raise ValueError("nu must be a positive integer")
    log_r = math.log(R)
    bound = max(_support_bound(Fhat.sigma, log_r, nu, P), 2)
    table = sieve_primes(bound)
    u = nu * table.log_p / log_r
    w = np.asarray(Fhat.phi_hat(u), dtype=float)
    return float(np.sum(w * table.log_p / (table.primes * log_r)))


@dataclass(frozen=True)
class DensityReport:
    """Empirical 1-level density, its per-harmonic breakdown and its prediction.

    The empirical value equals ``phi_hat0 + sum(breakdown.values())``
    exactly; ``breakdown`` has keys 1, 2 and "tail" (all harmonics nu >= 3).
    ``predicted`` is ``predicted_density`` at the family's class (its c
    estimate when indeterminate) and rank estimate.
    """

    empirical: float
    phi_hat0: float
    breakdown: dict
    log_r: float
    size: float
    bad_prime_mass: float
    prime_cutoff: int
    predicted: float


def _density_breakdown(
    t: MomentTable, hats: list[np.ndarray], log_r: float, size: float
) -> tuple[dict, float]:
    """Per-harmonic prime side of the averaged explicit formula.

    D1 = phi_hat(0) - (2/|F|) sum_members sum_{nu <= nu_max} sum_{good p <= P}
         b(p^nu) (log p) / (p^{nu/2} log R) phi_hat(nu log p / log R),

    one term per weight array in hats, with the archimedean term
    approximated by phi_hat(0) (conductors essentially constant).  The
    division is by the full family size; bad (member, prime) pairs
    contribute zero, and their weight over |F| is returned with the
    breakdown.
    """
    on = hats[0] != 0
    bad_mass = float(np.sum((size - t.good[on]) / np.sqrt(t.primes[on])))
    # a prime leaves every harmonic from the first one whose weight vanishes
    # there on (the hats in the library decay monotonically in |u|)
    live = on & (t.good > 0)
    terms = {}
    for nu, w in enumerate(hats, start=1):
        live &= w != 0
        p, lp = t.primes[live], t.log_p[live]
        b = t.sums[live, nu - 1].real
        # a huge log R overflows the denominator to inf, the term's limit 0
        with np.errstate(over="ignore"):
            terms[nu] = float(np.sum(b * lp / (p ** (nu / 2.0) * log_r) * w[live]))
    scaled = {nu: -2.0 * v / size for nu, v in terms.items()}
    breakdown = {
        1: scaled.get(1, 0.0),
        2: scaled.get(2, 0.0),
        "tail": sum(v for nu, v in scaled.items() if nu >= 3),
    }
    return breakdown, bad_mass / size


def predicted_density(c: float, rank: float, phi: TestFunction) -> float:
    """Prediction phi_hat(0) - c * phi(0)/2 + rank * phi(0)."""
    return phi.phi_hat0 - c * 0.5 * phi.phi0 + rank * phi.phi0


# ---------------------------------------------------------------------------
# Family-constant estimation


@dataclass(frozen=True)
class ConstantConfig:
    """Estimation parameters for the family constant and its density report.

    ``nu_max`` is the number of harmonics in the 1-level density; the
    moment table has ``max(2, nu_max)`` rows, since c reads b(p^2).
    """

    phi: TestFunction
    prime_cutoff: int
    tolerance: float = 0.2
    log_r: Optional[float] = None
    nu_max: int = 2


@dataclass(frozen=True)
class FamilyConstant:
    """Estimated (c, epsilon, r) triple with the classification metadata.

    ``c_class`` is -1, 0, +1 or None (indeterminate); ``epsilon`` is 0 for
    a confident unitary or symplectic class and None (unknown) otherwise:
    no family supplies the root numbers that would split an orthogonal one.
    ``density`` is the 1-level density read off the same moment table.
    """

    c_estimate: float
    c_class: Optional[int]
    epsilon: Optional[int]
    rank_estimate: float
    tolerance: float
    sigma: float
    prime_cutoff: int
    log_r: float
    bad_mass: float
    density: DensityReport
    family_id: str = ""

    @property
    def indeterminate(self) -> bool:
        return self.c_class is None


def _classify(estimate: float, tol: float) -> Optional[int]:
    candidates = (-1, 0, 1)
    dists = [abs(estimate - c) for c in candidates]
    order = sorted(range(3), key=lambda i: dists[i])
    nearest, runner_up = order[0], order[1]
    if dists[nearest] < tol and dists[runner_up] > 2.0 * tol:
        return candidates[nearest]
    return None


def family_constant(f: Family, config: ConstantConfig) -> FamilyConstant:
    """``family_constants`` of the one family f."""
    return family_constants([f], config)[0]


def family_constants(
    families: list[Family], config: ConstantConfig, threads: int = 1
) -> list[FamilyConstant]:
    """Estimate and classify the family constant (c, epsilon, r) of each
    family and report its 1-level density.

    c comes from the calibrated second-moment average and is classified
    against {-1, 0, +1}: the estimate must fall within the tolerance of one
    candidate with both others at least twice the tolerance away.  Families
    smaller than ``MIN_MEMBERS`` are never confidently classified (a
    singleton cannot average).  epsilon is 0 whenever the classification is
    unitary or symplectic and unknown otherwise; r is the calibrated
    first-moment estimate.  The density sums ``config.nu_max`` harmonics
    and is predicted from the class (c when indeterminate) and r.  Every
    statistic of a family reads its one moment table, and one
    ``moment_tables`` pass over ``threads`` threads builds them all.

    log R is each family's average log-conductor unless the config fixes it.

    Raises:
        ValueError: If phi(0) = 0 or nu_max < 1.
        FamilyError: If a family's log R is not positive, the family has no
            members or its rows fail (see ``moment_tables``).
    """
    phi = config.phi
    P = config.prime_cutoff
    if config.nu_max < 1:
        raise ValueError(f"nu_max must be at least 1, got {config.nu_max}")
    if phi.phi0 == 0:
        raise ValueError("degenerate test function: phi(0) = 0")
    setups = []
    for f in families:
        try:
            log_r = f.average_log_conductor() if config.log_r is None else config.log_r
            if log_r <= 0:
                raise ValueError("log R must be positive")
            size = f.size()
            if size == 0:  # a convolution that excludes every pair (delta x delta)
                raise ValueError(f"{f.family_id} has no members")
        except ValueError as exc:
            raise FamilyError(f, str(exc)) from exc
        setups.append((f, log_r, size, *_first_weights(phi, log_r, P)))
    nu_max = max(2, config.nu_max)
    tables = moment_tables({s[0]: s[3] for s in setups}, nu_max, threads)
    return [
        _estimate(f, config, tables[f], log_r, size, w1)
        for f, log_r, size, _, w1 in setups
    ]


def _estimate(
    f: Family,
    config: ConstantConfig,
    t: MomentTable,
    log_r: float,
    size: float,
    w1: np.ndarray,
) -> FamilyConstant:
    """f's constants from its table t and the weights phi_hat(log p / log R)
    of t's primes, w1."""
    phi = config.phi
    P = config.prime_cutoff
    hats = [w1] + [
        np.asarray(phi.phi_hat(nu * t.log_p / log_r))
        for nu in range(2, max(2, config.nu_max) + 1)
    ]
    c_est, bad_mass = _second_moment(t, hats[1], log_r, size)

    # calibrated rank: divide the first-moment sum by twice its own weight
    # total, against which a rank-r family's main term is exactly r.
    ps, w1_total = _first_moment(t, hats[0], log_r)
    rank = ps / (2.0 * w1_total) if w1_total > 0 else float("nan")

    c_class = _classify(c_est, config.tolerance) if size >= MIN_MEMBERS else None
    breakdown, bad_prime_mass = _density_breakdown(
        t, hats[: config.nu_max], log_r, size
    )
    density = DensityReport(
        empirical=phi.phi_hat0 + breakdown[1] + breakdown[2] + breakdown["tail"],
        phi_hat0=phi.phi_hat0,
        breakdown=breakdown,
        log_r=log_r,
        size=size,
        bad_prime_mass=bad_prime_mass,
        prime_cutoff=P,
        predicted=predicted_density(c_est if c_class is None else c_class, rank, phi),
    )
    return FamilyConstant(
        c_estimate=c_est,
        c_class=c_class,
        epsilon=0 if c_class in (0, 1) else None,
        rank_estimate=rank,
        tolerance=config.tolerance,
        sigma=phi.sigma,
        prime_cutoff=P,
        log_r=log_r,
        bad_mass=bad_mass,
        density=density,
        family_id=f.family_id,
    )
