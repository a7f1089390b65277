"""Correctness checks for benchmark runs; none of them runs inside a timed region.

``gate_command`` checks the CSV of one ``constants`` or ``density`` command
against the workload's predictions.  ``oracle_spot_check`` compares the fast
paths with their exact oracles on a few seeded primes.
"""

from __future__ import annotations

import csv
import io
import math
import random

# Columns that ``constants`` and ``density`` both print and must agree on.
SHARED_COLUMNS = ("family_id", "sigma", "P", "c_est", "c_class", "r_est", "eps")
# Largest |c_conv - c_left * c_right| and |r_conv| the gate accepts.
PRODUCT_TOLERANCE = 0.2
RANK_TOLERANCE = 0.2


def parse_csv(text: str) -> dict[str, dict[str, str]]:
    """Rows of a command's CSV keyed by family id."""
    return {row["family_id"]: row for row in csv.DictReader(io.StringIO(text))}


def gate_command(workload, exit_code: int, text: str) -> list[str]:
    """Problems with one command's output; an empty list means it passed."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    rows = parse_csv(text)
    if set(rows) != {f["id"] for f in workload.config["families"]}:
        return problems + [f"families in output: {sorted(rows)}"]
    for ident, row in rows.items():
        for col, value in row.items():
            if value.lower() in ("nan", "-nan"):
                problems.append(f"{ident}.{col} is NaN")
    for ident in workload.gated:
        want = str(workload.predicted[ident])
        if rows[ident]["c_class"] != want:
            problems.append(f"{ident}: class {rows[ident]['c_class']}, want {want}")
    for conv, left, right in workload.products:
        c = float(rows[conv]["c_est"])
        c_prod = float(rows[left]["c_est"]) * float(rows[right]["c_est"])
        if not abs(c - c_prod) <= PRODUCT_TOLERANCE:
            problems.append(f"{conv}: |c - c_l c_r| = {abs(c - c_prod):.3g}")
        r = float(rows[conv]["r_est"])
        if not abs(r) <= RANK_TOLERANCE:
            problems.append(f"{conv}: |r| = {abs(r):.3g}")
    return problems


def shared_columns(text: str) -> list[tuple[str, ...]]:
    return [
        tuple(row[c] for c in SHARED_COLUMNS) for row in parse_csv(text).values()
    ]


def c_error_max(workload, text: str) -> float:
    """Largest |c_est - predicted class| over the families with a prediction."""
    rows = parse_csv(text)
    return max(
        abs(float(rows[ident]["c_est"]) - want)
        for ident, want in workload.predicted.items()
    )


def oracle_spot_check(workload, families: dict, seed: int) -> tuple[int, list[str]]:
    """Exact-oracle checks on a few seeded primes.

    For every elliptic family, rows of ``ap_residue_table`` must match
    ``trace_of_frobenius`` at sampled members and every entry must satisfy
    the Hasse bound a^2 <= 4p.  For every family, sampled ``prime_moments``
    must have good_weight <= total_weight.  For quadratic families,
    ``legendre_table`` must match ``kronecker_symbol`` at sampled members.

    Returns:
        (number of checks made, descriptions of the failed ones).
    """
    from lfsym import ecgeom
    from lfsym.arith import kronecker_symbol, legendre_table, sieve_primes

    rng = random.Random(f"oracle/{workload.name}/{seed}")
    cutoff = int(workload.config["run"]["primes"])
    primes = [int(p) for p in sieve_primes(cutoff).primes if p >= 5]
    sample = sorted(rng.sample(primes, 3)) + [primes[-1]]
    checks = 0
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        nonlocal checks
        checks += 1
        if not ok:
            failures.append(what)

    for ident, fam in families.items():
        kind = type(fam).__name__
        if kind == "EllipticFamily":
            spec = fam.spec
            members = rng.sample(fam.members_list, 4)
            for p in sample:
                table = ecgeom.ap_residue_table(spec, p)
                expect(
                    bool(((table * table) <= 4 * p).all()),
                    f"{ident}: Hasse bound fails at p={p}",
                )
                for t in members:
                    exact = ecgeom.trace_of_frobenius(spec.A(t), spec.B(t), p)
                    expect(
                        int(table[t % p]) == exact,
                        f"{ident}: a_{t}({p}) table {table[t % p]} != oracle {exact}",
                    )
        if kind == "QuadraticFamily":
            ds = rng.sample(fam.discriminants.tolist(), 4)
            for p in sample:
                chi = legendre_table(p)
                for d in ds:
                    expect(
                        int(chi[d % p]) == kronecker_symbol(d, p),
                        f"{ident}: legendre_table({p})[{d % p}] != ({d}|{p})",
                    )
        for p in sample:
            mom = fam.prime_moments(p, 2)
            expect(
                mom.good_weight <= mom.total_weight
                and all(math.isfinite(abs(s)) for s in mom.sums),
                f"{ident}: prime_moments({p}) good {mom.good_weight} "
                f"> total {mom.total_weight} or non-finite sums",
            )
    return checks, failures
