"""Closed-form random-matrix density predictions and test functions.

One- and two-level densities of the classical compact groups (unitary,
symplectic, and the three orthogonal flavors), their Fourier transforms, and
a small library of admissible test functions: even Schwartz functions whose
Fourier transform has compact support.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SymmetryGroup",
    "TestFunction",
    "fejer_test_function",
    "fejer_squared_test_function",
    "zero_test_function",
    "fourier_density",
    "one_level_prediction",
    "two_level_prediction",
    "density_one_point",
    "density_quadrature",
    "fourier_side_integral",
    "composite_gauss",
]


class SymmetryGroup(enum.Enum):
    U = "U"
    SP = "Sp"
    O = "O"
    SO_EVEN = "SOeven"
    SO_ODD = "SOodd"

    @property
    def is_orthogonal(self) -> bool:
        return self in (SymmetryGroup.O, SymmetryGroup.SO_EVEN, SymmetryGroup.SO_ODD)

    @property
    def sign(self) -> float:
        """0, 1/2, 1 for SO(even), O, SO(odd); defined only for those."""
        if self is SymmetryGroup.SO_EVEN:
            return 0.0
        if self is SymmetryGroup.O:
            return 0.5
        if self is SymmetryGroup.SO_ODD:
            return 1.0
        raise ValueError(f"sign undefined for {self}")


@dataclass(frozen=True)
class TestFunction:
    """An even Schwartz test function with band-limited Fourier transform.

    Attributes:
        sigma: Support radius of the Fourier transform, finite and positive.
        phi: Evaluator for phi(x); accepts real/complex scalars and arrays.
        phi_hat: Evaluator for the Fourier transform, zero outside (-sigma, sigma).
        phi0: phi(0), exact.
        phi_hat0: phi_hat(0), exact.
        hat_knots: Nonnegative breakpoints where phi_hat is not smooth
            (quadrature splits there).
        label: Short name for reports.
    """

    sigma: float
    phi: Callable[[np.ndarray], np.ndarray]
    phi_hat: Callable[[np.ndarray], np.ndarray]
    phi0: float
    phi_hat0: float
    hat_knots: tuple[float, ...] = ()
    label: str = "testfn"

    def __post_init__(self) -> None:
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")


def _sinc(z):
    # sin(pi z) / (pi z); np.sinc handles arrays, complex input and z = 0
    return np.sinc(z)


def fejer_test_function(sigma: float) -> TestFunction:
    """The Fejer pair: phi_hat(u) = (1 - |u|/sigma)+, phi(x) = sigma*sinc(sigma x)^2.

    phi(0) = sigma and phi_hat(0) = 1.
    """

    def phi(x):
        return sigma * _sinc(sigma * np.asarray(x)) ** 2

    def phi_hat(u):
        return np.maximum(0.0, 1.0 - np.abs(np.asarray(u, dtype=float)) / sigma)

    return TestFunction(
        sigma=sigma,
        phi=phi,
        phi_hat=phi_hat,
        phi0=sigma,
        phi_hat0=1.0,
        hat_knots=(0.0, sigma),
        label=f"fejer({sigma:g})",
    )


def fejer_squared_test_function(sigma: float) -> TestFunction:
    """Pointwise square of the Fejer function; phi_hat is the triangle's
    self-convolution, so the support radius doubles to 2*sigma.

    phi(0) = sigma^2, phi_hat(0) = 2*sigma/3, and phi_hat is C^1 (piecewise
    cubic with knots at sigma and 2*sigma).
    """

    def phi(x):
        return (sigma * _sinc(sigma * np.asarray(x)) ** 2) ** 2

    def phi_hat(u):
        t = np.abs(np.asarray(u, dtype=float)) / sigma
        inner = sigma * (0.5 * t**3 - t**2 + 2.0 / 3.0)
        outer = sigma * (2.0 - t) ** 3 / 6.0
        return np.where(t <= 1.0, inner, np.where(t <= 2.0, outer, 0.0))

    return TestFunction(
        sigma=2.0 * sigma,
        phi=phi,
        phi_hat=phi_hat,
        phi0=sigma**2,
        phi_hat0=2.0 * sigma / 3.0,
        hat_knots=(0.0, sigma, 2.0 * sigma),
        label=f"fejer2({sigma:g})",
    )


def zero_test_function(sigma: float = 0.5) -> TestFunction:
    """The identically-zero test function (degenerate; for edge-case tests)."""

    def zero(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return TestFunction(
        sigma=sigma, phi=zero, phi_hat=zero, phi0=0.0, phi_hat0=0.0, label="zero"
    )


# ---------------------------------------------------------------------------
# Densities


def _eta(u: float) -> float:
    au = abs(u)
    if au < 1.0:
        return 1.0
    if au == 1.0:
        return 0.5
    return 0.0


def fourier_density(group: SymmetryGroup, u: float) -> tuple[float, float]:
    """Fourier transform of the 1-level density at u.

    Returns (delta_coeff, regular_part): the distribution is
    delta_coeff * delta(u) + regular_part.
    """
    e = _eta(u)
    if group is SymmetryGroup.U:
        return (1.0, 0.0)
    if group is SymmetryGroup.SP:
        return (1.0, -0.5 * e)
    if group is SymmetryGroup.O:
        return (1.0, 0.5)
    if group is SymmetryGroup.SO_EVEN:
        return (1.0, 0.5 * e)
    return (1.0, 1.0 - 0.5 * e)  # SO_ODD


def one_level_prediction(
    group: SymmetryGroup, phi: TestFunction, rank: float = 0.0
) -> float:
    """Closed-form integral of phi against the group's 1-level density.

    Requires sigma < 1, in which range the three orthogonal flavors agree:
    orthogonal -> phi_hat(0) + phi(0)/2, symplectic -> phi_hat(0) - phi(0)/2,
    unitary -> phi_hat(0).  A family of rank r contributes r*phi(0) more
    (r forced eigenvalues at the center).

    Raises:
        ValueError: If the support radius is not below 1 or the rank is not
            finite.
    """
    if not phi.sigma < 1.0:
        raise ValueError("one-level prediction requires support radius < 1")
    if not math.isfinite(rank):
        raise ValueError(f"rank must be finite, got {rank}")
    base = phi.phi_hat0 + rank * phi.phi0
    if group.is_orthogonal:
        return base + 0.5 * phi.phi0
    if group is SymmetryGroup.SP:
        return base - 0.5 * phi.phi0
    return base


def two_level_prediction(
    group: SymmetryGroup, f1: TestFunction, f2: TestFunction
) -> float:
    """Two-level density integral for an orthogonal-flavor group.

    Evaluates
        [f1hat(0) + f1(0)/2][f2hat(0) + f2(0)/2] + 2*int |u| f1hat f2hat du
        - 2*int f1 f2 dx - f1(0) f2(0) + sign(G) f1(0) f2(0),
    valid for supp f1hat + supp f2hat inside |u1| + |u2| < 1.  The last term
    is what separates the three orthogonal groups.

    Raises:
        ValueError: If the group is not orthogonal or supports are too large.
    """
    if not group.is_orthogonal:
        raise ValueError("two-level discriminator is for orthogonal groups")
    if not f1.sigma + f2.sigma < 1.0:
        raise ValueError("support violation: need sigma1 + sigma2 < 1")
    s = min(f1.sigma, f2.sigma)
    knots = sorted(set(k for k in f1.hat_knots + f2.hat_knots if 0 < k < s) | {s})
    u_int = 0.0
    a = 0.0
    for b in knots:
        u_int += composite_gauss(
            lambda u: u * f1.phi_hat(u) * f2.phi_hat(u), a, b, 32
        )
        a = b
    cross = _integral_product(f1, f2)
    term = (f1.phi_hat0 + 0.5 * f1.phi0) * (f2.phi_hat0 + 0.5 * f2.phi0)
    term += 2.0 * (2.0 * u_int)  # integrand is even in u
    term -= 2.0 * cross
    term -= f1.phi0 * f2.phi0
    term += group.sign * f1.phi0 * f2.phi0
    return term


def density_one_point(group: SymmetryGroup, x: float) -> tuple[float, float]:
    """Pointwise 1-level density: (delta_coeff, regular value at x).

    From the sine kernel K(y) = sin(pi y)/(pi y): SO(even) is 1 + K(2x),
    Sp is 1 - K(2x), SO(odd) is 1 - K(2x) plus a unit atom at 0, U is 1,
    O is the average of the SO flavors.
    """
    k2 = float(_sinc(2.0 * x))
    if group is SymmetryGroup.U:
        return (0.0, 1.0)
    if group is SymmetryGroup.SP:
        return (0.0, 1.0 - k2)
    if group is SymmetryGroup.SO_EVEN:
        return (0.0, 1.0 + k2)
    if group is SymmetryGroup.SO_ODD:
        return (1.0, 1.0 - k2)
    return (0.5, 1.0)  # O: average of the two SO flavors


# ---------------------------------------------------------------------------
# Quadrature


def composite_gauss(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    n_intervals: int,
    order: int = 10,
) -> float:
    """Composite Gauss-Legendre quadrature of f over [a, b], vectorized."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, n_intervals + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return float(np.dot(w, np.asarray(f(x), dtype=float)))


def _integral_product(f1: TestFunction, f2: TestFunction, cutoff: float = 800.0) -> float:
    """int f1(x) f2(x) dx over R; the integrand decays like x^-4 so the
    truncation error at the default cutoff is far below 1e-9."""
    n = int(cutoff * 8)
    val = composite_gauss(lambda x: f1.phi(x) * f2.phi(x), 0.0, cutoff, n)
    return 2.0 * val


def density_quadrature(
    group: SymmetryGroup,
    phi: TestFunction,
    cutoff: float = 1000.0,
    intervals_per_unit: int = 4,
) -> float:
    """Numerical integral of phi against the group's 1-level density.

    Independent of the closed forms: integrates the sine-kernel density on
    [-cutoff, cutoff], adds the center atom, and corrects the slowly decaying
    part of phi with the analytic tail of sigma*sinc(sigma x)^2 integrals.
    Only Fejer-type test functions (phi ~ C/x^2 tails) need the correction;
    it is computed from the test function's own parameters.
    """
    delta, _ = density_one_point(group, 0.0)
    eps = {
        SymmetryGroup.SO_EVEN: 1.0,
        SymmetryGroup.SP: -1.0,
        SymmetryGroup.SO_ODD: -1.0,
        SymmetryGroup.U: 0.0,
        SymmetryGroup.O: 0.0,
    }[group]

    def integrand(x):
        return phi.phi(x) * (1.0 + eps * _sinc(2.0 * x))

    n = int(cutoff * intervals_per_unit)
    main = 2.0 * composite_gauss(integrand, 0.0, cutoff, n)
    # Tail of int phi(x) dx beyond the cutoff, from phi(x) =
    # (1 - cos(2 pi sigma_eff x)) * (phi-amplitude) / x^2 asymptotics.
    main += 2.0 * _phi_tail(phi, cutoff)
    return float(delta * phi.phi0 + main)


def _phi_tail(phi: TestFunction, X: float) -> float:
    """Analytic estimate of int_X^inf phi(x) dx for the library test functions."""
    if phi.label.startswith("fejer2"):
        # phi = [s sinc(s x)^2]^2 <= C / x^4: tail below 1e-10 at X >= 500
        return 0.0
    if phi.label.startswith("fejer"):
        s = phi.sigma
        a = 2.0 * math.pi * s
        return 1.0 / (2.0 * math.pi**2 * s * X) + math.sin(a * X) / (
            2.0 * math.pi * s * a * X**2
        )
    return 0.0


def fourier_side_integral(group: SymmetryGroup, phi: TestFunction) -> float:
    """int phi_hat(u) * W_hat(u) du, by quadrature on the Fourier side.

    The delta atom contributes phi_hat(0); the regular part is piecewise
    constant-times-eta, integrated with splits at the test function's knots
    and at |u| = 1.
    """
    sig = phi.sigma
    knots = sorted(set(k for k in phi.hat_knots if 0 < k < sig) | {sig} | ({1.0} if sig > 1 else set()))
    total = 0.0
    a = 0.0
    for b in knots:
        mid = 0.5 * (a + b)
        _, reg = fourier_density(group, mid)
        total += reg * composite_gauss(phi.phi_hat, a, b, 64)
        a = b
    return phi.phi_hat0 + 2.0 * total
