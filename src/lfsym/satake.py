"""Local coefficient engine: power sums of Satake parameters.

The coefficient sequence b(p), b(p^2), ... of an Euler factor is the sequence
of power sums of its Satake parameters; it is what the explicit formula
consumes.  This module computes them for many members at once: the array
forms take a vector of normalized traces and return a matrix with rows
nu = 1..nu_max and one column per trace.  Its one recursion is the degree-2
Hecke recursion for b(p^n) = alpha^n + alpha^-n (``hecke_b_array``).  A
symmetric power regroups its power sums: the sym^M spectrum to the nu-th
power is {alpha^(nu (M - 2j)) : j = 0..M}, so B(p^nu) = b(p^(M nu)) +
b(p^((M - 2) nu)) + ..., plus 1 when M is even (``sym_power_sums``, which
regroups a family's summed rows as well as a member matrix).  A
Rankin-Selberg product needs no routine of its own: its power sums factor,
b_{fxg}(p^nu) = b_f(p^nu) * b_g(p^nu), so its matrix is the entrywise
product of its factors' matrices.  ``SatakeSpectrum`` holds the parameters
themselves and is the oracle the array forms are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SatakeSpectrum",
    "hecke_b_array",
    "sym_power_spectrum",
    "sym_power_sums",
]


@dataclass(frozen=True)
class SatakeSpectrum:
    """Multiset of Satake parameters at p; the verification oracle."""

    p: int
    alphas: np.ndarray

    @property
    def degree(self) -> int:
        return len(self.alphas)

    def power_sums(self, nu_max: int) -> np.ndarray:
        """b(p^nu) = sum_j alpha_j^nu computed directly, nu = 1..nu_max; real
        when every imaginary part is below 1e-12."""
        b = np.array(
            [np.sum(self.alphas**nu) for nu in range(1, nu_max + 1)],
            dtype=np.complex128,
        )
        if np.max(np.abs(b.imag)) < 1e-12:
            b = b.real
        return b


def spectrum_from_trace(p: int, a_p: float) -> SatakeSpectrum:
    """The degree-2 pair {alpha, 1/alpha} with alpha + 1/alpha = a_p."""
    disc = complex(a_p) ** 2 - 4
    alpha = (a_p + np.sqrt(complex(disc))) / 2
    return SatakeSpectrum(p=p, alphas=np.array([alpha, 1 / alpha]))


def hecke_b_array(a_p: np.ndarray, nu_max: int) -> np.ndarray:
    """Power sums b(p^nu) of the pairs {alpha, 1/alpha} with alpha + 1/alpha = a_p.

    Rows nu = 1..nu_max, columns follow a_p.
    """
    a_p = np.asarray(a_p, dtype=float)
    out = np.empty((nu_max,) + a_p.shape)
    prev = np.full(a_p.shape, 2.0)
    cur = a_p.copy()
    for nu in range(nu_max):
        out[nu] = cur
        prev, cur = cur, a_p * cur - prev
    return out


def sym_power_spectrum(spec: SatakeSpectrum, M: int) -> SatakeSpectrum:
    """Satake parameters of the M-th symmetric power of a degree-2 factor.

    {alpha, 1/alpha} lifts to {alpha^M, alpha^{M-2}, ..., alpha^{-M}}.

    Raises:
        ValueError: If the input spectrum is not degree 2 or M < 1.
    """
    if spec.degree != 2:
        raise ValueError("symmetric-power lift requires a degree-2 spectrum")
    if M < 1:
        raise ValueError("M must be positive")
    alpha = spec.alphas[np.argmax(np.abs(spec.alphas))]
    if abs(alpha) < 1e-300:
        raise ValueError("degenerate Satake parameter")
    exps = np.arange(M, -M - 1, -2)
    return SatakeSpectrum(p=spec.p, alphas=alpha ** exps.astype(complex))


def sym_power_sums(b: np.ndarray, zero, M: int) -> np.ndarray:
    """Power sums of sym^M regrouped from the Hecke power sums b, whose
    first axis is nu = 1..M nu_max: B(p^nu) = [M even] zero +
    b(p^(M nu)) + b(p^((M - 2) nu)) + ..., added in that order.

    zero is what the parameter alpha^0 = 1 of an even M adds: 1 for a good
    member, 0 for a bad one (whose b is 0), or a row's good weight.  Row nu
    reads only b's rows m nu, so its bits do not depend on nu_max.
    """
    nu = np.arange(1, len(b) // M + 1)
    out = np.zeros((len(nu),) + b.shape[1:], dtype=b.dtype)
    out += zero * (M % 2 == 0)
    for m in range(M, 0, -2):
        out += b[m * nu - 1]
    return out
