"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Runs every criterion at its stated tolerance.  Three sub-checks are
mathematically unattainable as stated (see tests marked strict-xfail and
the analysis in their docstrings); they are implemented faithfully, print
FAIL, and are expected to fail.  Everything else must pass.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from lfsym.arith import is_prime, sieve_primes
from lfsym.ecgeom import (
    EllipticFamilySpec,
    ap_residue_table,
    avg_log_conductor,
    michel_moment,
    nagao_sum,
)
from lfsym.families import (
    character_twist,
    convolve,
    dirichlet_family,
    elliptic_family,
    kronecker_twist,
    quadratic_family,
    twist_by_fixed,
)
from lfsym.rmt import (
    SymmetryGroup,
    density_quadrature,
    fejer_test_function,
    one_level_prediction,
    two_level_prediction,
)
from lfsym.stats import (
    ConstantConfig,
    family_constant,
    pnt_prime_sum,
)
from lfsym.weil import (
    convolution_root_number,
    disc,
    epsilon_factor,
    irr_character,
    minus,
    plus,
    rep_character,
    sym_power,
    sym_power_character,
    tensor,
    wedge2,
    wedge2_character,
)


def report(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance {criterion}] {status}  {detail}")


# shared desk-scale families (module scope: moment caches are reused)
EC_SPEC_1 = EllipticFamilySpec((0, 1), (1,), 2000, 4000)  # y^2 = x^3 + Tx + 1
EC_SPEC_2 = EllipticFamilySpec((0, 1), (2,), 2000, 4000)  # y^2 = x^3 + Sx + 2
SIGMA_EC = 1.0
P_EC = 2000


@pytest.fixture(scope="module")
def ec_families():
    return elliptic_family(EC_SPEC_1), elliptic_family(EC_SPEC_2)


@pytest.fixture(scope="module")
def ec_constants(ec_families):
    f, g = ec_families
    cfg = ConstantConfig(
        phi=fejer_test_function(SIGMA_EC), prime_cutoff=P_EC, tolerance=0.15
    )
    return family_constant(f, cfg), family_constant(g, cfg)


# ---------------------------------------------------------------------------
# Criterion 1: archimedean algebra soundness via the character oracle


def test_criterion_1_weil_character_oracle():
    rng = np.random.default_rng(20240817)
    points = [
        (float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 2 * np.pi)))
        for _ in range(50)
    ]
    twists = [Fraction(0), Fraction(1, 2), Fraction(-1, 3)]

    def tw(i):
        return twists[i % len(twists)]

    checks: list[tuple] = []  # (lhs callable, rhs rep)
    for i, k in enumerate(range(2, 31)):
        x = disc(k, tw(i))
        checks.append(
            (lambda r, th, c, x=x: wedge2_character(x, r, th, c), wedge2(x))
        )
        for m in range(1, 7):
            checks.append(
                (
                    lambda r, th, c, x=x, m=m: sym_power_character(x, m, r, th, c),
                    sym_power(x, m),
                )
            )
    for m in range(1, 7):
        for one in (plus(tw(m)), minus(tw(m))):
            checks.append(
                (
                    lambda r, th, c, x=one, m=m: sym_power_character(
                        x, m, r, th, c
                    ),
                    sym_power(one, m),
                )
            )
    sign_atoms = [plus(Fraction(1, 2)), minus(Fraction(-1, 3))]
    for x in sign_atoms:
        for y in sign_atoms:
            checks.append(
                (
                    lambda r, th, c, x=x, y=y: irr_character(x, r, th, c)
                    * irr_character(y, r, th, c),
                    tensor(x, y),
                )
            )
        for i, k in enumerate(range(2, 31)):
            d = disc(k, tw(i + 1))
            checks.append(
                (
                    lambda r, th, c, x=x, d=d: irr_character(x, r, th, c)
                    * irr_character(d, r, th, c),
                    tensor(x, d),
                )
            )
    for k in range(2, 31):
        for kp in range(2, k + 1):
            x, y = disc(k, tw(k)), disc(kp, tw(kp + 1))
            checks.append(
                (
                    lambda r, th, c, x=x, y=y: irr_character(x, r, th, c)
                    * irr_character(y, r, th, c),
                    tensor(x, y),
                )
            )

    start = time.perf_counter()
    worst = 0.0
    for lhs, rhs in checks:
        for r, theta in points:
            for coset in (False, True):
                dev = abs(lhs(r, theta, coset) - rep_character(rhs, r, theta, coset))
                if dev > worst:
                    worst = dev
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    report(
        "1 weil-oracle",
        ok,
        f"{len(checks)} identities x 100 points, max dev {worst:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert worst < 1e-9
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# Criterion 2: root-number closed forms, exact


def test_criterion_2_root_numbers_exact():
    failures = 0
    for k in range(2, 27, 2):
        for m in range(5):
            got = epsilon_factor(sym_power(disc(k), 2 * m + 1))
            table = {0: 1j**k, 1: -1, 2: -(1j**k), 3: 1}[m % 4]
            failures += got != table
            for n in range(5):
                if (
                    convolution_root_number(m, n, ("odd", "odd"), k) != 1
                    or convolution_root_number(m, n, ("even", "even"), k) != 1
                ):
                    failures += 1
                closed = convolution_root_number(m, n, ("odd", "even"), k)
                if n >= 1:
                    symbolic = epsilon_factor(
                        tensor(
                            sym_power(disc(k), 2 * m + 1), sym_power(disc(k), 2 * n)
                        )
                    )
                    failures += closed != symbolic
                if m >= 1 and n >= 1:
                    lhs = epsilon_factor(
                        tensor(sym_power(disc(k), 2 * m), sym_power(disc(k), 2 * n))
                    )
                    failures += lhs != 1
                ll = epsilon_factor(
                    tensor(
                        sym_power(disc(k), 2 * m + 1), sym_power(disc(k), 2 * n + 1)
                    )
                )
                failures += ll != 1
    report("2 root-numbers", failures == 0, f"exhaustive m,n<=4, even k<=26; {failures} mismatches")
    assert failures == 0


# ---------------------------------------------------------------------------
# Criterion 3: symmetry constants of the base families


def test_criterion_3_quadratic_symplectic():
    fam = quadratic_family((10**4, 2 * 10**4))
    cfg = ConstantConfig(
        phi=fejer_test_function(0.5), prime_cutoff=10**5, tolerance=0.05
    )
    fc = family_constant(fam, cfg)
    ok = abs(fc.c_estimate - 1.0) < 0.05
    report(
        "3 quadratic",
        ok,
        f"c = {fc.c_estimate:.6f} (target +1, tol 0.05), class {fc.c_class}",
    )
    assert ok
    assert fc.c_class == 1


def test_criterion_3_dirichlet_unitary():
    fam = dirichlet_family(1009)
    cfg = ConstantConfig(
        phi=fejer_test_function(0.5), prime_cutoff=10**5, tolerance=0.05
    )
    fc = family_constant(fam, cfg)
    ok = abs(fc.c_estimate) < 0.05
    report(
        "3 dirichlet",
        ok,
        f"|c| = {abs(fc.c_estimate):.6f} (target 0, tol 0.05), class {fc.c_class}",
    )
    assert ok
    assert fc.c_class == 0


def test_criterion_3_elliptic_orthogonal(ec_constants):
    fc1, fc2 = ec_constants
    ok1 = abs(fc1.c_estimate + 1.0) < 0.15
    ok2 = abs(fc2.c_estimate + 1.0) < 0.15
    report(
        "3 elliptic",
        ok1 and ok2,
        f"c(Tx+1) = {fc1.c_estimate:.4f}, c(Sx+2) = {fc2.c_estimate:.4f} "
        f"(target -1, tol 0.15)",
    )
    assert ok1 and ok2
    assert fc1.c_class == -1 and fc2.c_class == -1


# ---------------------------------------------------------------------------
# Criterion 4: the flagship convolution check c(FxG) = c(F) c(G)


def test_criterion_4_convolution_multiplies(ec_families, ec_constants):
    f, g = ec_families
    conv = convolve(f, g)
    assert conv.excluded == []  # these two families never share a curve
    cfg = ConstantConfig(
        phi=fejer_test_function(SIGMA_EC), prime_cutoff=P_EC, tolerance=0.2
    )
    fc = family_constant(conv, cfg)
    fc1, fc2 = ec_constants
    ok_c = abs(fc.c_estimate - 1.0) < 0.2
    ok_r = abs(fc.rank_estimate) < 0.2
    report(
        "4 convolution",
        ok_c and ok_r,
        f"c = {fc.c_estimate:.4f} vs product {fc1.c_estimate * fc2.c_estimate:.4f} "
        f"(target (-1)(-1) = +1, tol 0.2); rank = {fc.rank_estimate:.4f} (tol 0.2)",
    )
    assert ok_c and ok_r
    assert fc.c_class == 1


# ---------------------------------------------------------------------------
# Criterion 5: fixed twists


def test_criterion_5_quadratic_twist_preserves(ec_families):
    f, _ = ec_families
    twisted = twist_by_fixed(kronecker_twist(5), f)
    cfg = ConstantConfig(
        phi=fejer_test_function(SIGMA_EC), prime_cutoff=P_EC, tolerance=0.2
    )
    fc = family_constant(twisted, cfg)
    ok = abs(fc.c_estimate + 1.0) < 0.2
    report(
        "5 quadratic-twist",
        ok,
        f"c = {fc.c_estimate:.4f} (target -1, tol 0.2)",
    )
    assert ok


def test_criterion_5_sextic_twist_unitarizes(ec_families):
    f, _ = ec_families
    tw = character_twist(7, 1)
    assert tw.char.order == 6
    twisted = twist_by_fixed(tw, f)
    cfg = ConstantConfig(
        phi=fejer_test_function(SIGMA_EC), prime_cutoff=P_EC, tolerance=0.2
    )
    fc = family_constant(twisted, cfg)
    ok = abs(fc.c_estimate) < 0.2
    report(
        "5 sextic-twist",
        ok,
        f"|c| = {abs(fc.c_estimate):.4f} (target 0, tol 0.2)",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: rank detection by the Nagao sum


def test_criterion_6_rank_one_section():
    est = nagao_sum(EllipticFamilySpec((0, 1), (0, -1), 0, 1), 3000)
    ok = abs(est - 1.0) < 0.3
    report("6 nagao-rank1", ok, f"y^2=x^3+Tx-T: estimate {est:.4f} (target 1, tol 0.3)")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: y^2 = x^3 + Tx + 1 carries the everywhere "
        "section (0, 1), so the fiber sums satisfy sum_t a_t(p) = -p exactly "
        "and the surface has rank 1, not 0; the stated target of 0 is "
        "contradicted by the exact identity (see the control test below, "
        "where the genuinely generic family x^3 + Tx + 2 does estimate 0)"
    ),
)
def test_criterion_6_stated_generic_family():
    est = nagao_sum(EllipticFamilySpec((0, 1), (1,), 0, 1), 3000)
    ok = abs(est) < 0.3
    report("6 nagao-rank0", ok, f"y^2=x^3+Tx+1: estimate {est:.4f} (stated target 0, tol 0.3)")
    assert ok


def test_criterion_6_rank_zero_control():
    # control for the xfail above: a family without a forced section
    est = nagao_sum(EllipticFamilySpec((0, 1), (2,), 0, 1), 3000)
    ok = abs(est) < 0.3
    report("6 nagao-rank0-control", ok, f"y^2=x^3+Tx+2: estimate {est:.4f} (target 0, tol 0.3)")
    assert ok
    # and the stated family sits at rank 1, matching its visible section
    est1 = nagao_sum(EllipticFamilySpec((0, 1), (1,), 0, 1), 3000)
    assert abs(est1 - 1.0) < 0.3


def test_criterion_6_torsion_family_exact_zero():
    spec = EllipticFamilySpec((0, 1), (0,), 0, 1)  # y^2 = x^3 + Tx
    values = [float(nagao_sum(spec, X)) for X in (100, 500, 1500, 3000)]
    ok = all(v == 0.0 for v in values)
    report(
        "6 nagao-exact-zero",
        ok,
        f"y^2=x^3+Tx: estimates {[abs(v) for v in values]} (exactly 0)",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: second-moment bound


def test_criterion_7_michel_moment():
    spec = EllipticFamilySpec((0, 1), (1,), 0, 1)
    start = time.perf_counter()
    worst = 0.0
    for p in [int(q) for q in sieve_primes(500).primes if q >= 5]:
        moment = michel_moment(spec, p)
        ratio = abs(moment - p * p) / p**1.5
        worst = max(worst, ratio)
    elapsed = time.perf_counter() - start
    ok = worst <= 4.0 and elapsed < 60.0
    report(
        "7 michel",
        ok,
        f"max |sum - p^2| / p^1.5 = {worst:.3f} (bound 4) over 5 <= p <= 500, "
        f"{elapsed:.1f}s",
    )
    assert worst <= 4.0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 8: independence identity, exact


def test_criterion_8_independence_identity():
    spec = EllipticFamilySpec((0, 1), (1,), 0, 1)
    primes = [int(q) for q in sieve_primes(50).primes if q >= 5]
    tables = {p: ap_residue_table(spec, p) for p in primes}
    checked = 0
    for i, p1 in enumerate(primes):
        for p2 in primes[i + 1 :]:
            t1, t2 = tables[p1], tables[p2]
            for r1 in (1, 2):
                for r2 in (1, 2):
                    joint = sum(
                        int(t1[t % p1]) ** r1 * int(t2[t % p2]) ** r2
                        for t in range(p1 * p2)
                    )
                    split = int((t1**r1).sum()) * int((t2**r2).sum())
                    assert joint == split, (p1, p2, r1, r2)
                    checked += 1
    report("8 independence", True, f"{checked} exact factorization identities")


# ---------------------------------------------------------------------------
# Criterion 9: prime-sum limit of the prime number theorem


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: at R = 1e6 the truncation bias of "
        "sum_p (log p)/p is the Mertens constant 1.33/log R = 0.096, which "
        "exceeds the stated 0.05 tolerance for both harmonics (measured "
        "0.083 and 0.070); reaching 0.05 needs log R ~ 27, i.e. sieving "
        "to ~5e11, far beyond the stated P = 1e7"
    ),
)
def test_criterion_9_pnt_prime_sum_stated():
    phi = fejer_test_function(1.0)
    s1 = pnt_prime_sum(phi, 1, 1e6, 10**7)
    s2 = pnt_prime_sum(phi, 2, 1e6, 10**7)
    ok = (
        abs(s1 - 0.5) < 0.05
        and abs(s2 - 0.25) < 0.05
        and abs(s2 - s1 / 2) < 0.02
    )
    report(
        "9 pnt",
        ok,
        f"nu=1: {s1:.4f} (target 0.5), nu=2: {s2:.4f} (target 0.25), "
        f"halving gap {abs(s2 - s1 / 2):.4f} (stated tols 0.05/0.05/0.02)",
    )
    assert abs(s1 - 0.5) < 0.05
    assert abs(s2 - 0.25) < 0.05
    assert abs(s2 - s1 / 2) < 0.02


def test_criterion_9_pnt_convergence_control():
    # control: the error is Mertens-constant-sized and shrinks with R
    phi = fejer_test_function(1.0)
    errs = []
    for R in (1e4, 1e6):
        s1 = pnt_prime_sum(phi, 1, R, 10**7)
        errs.append(abs(s1 - 0.5))
        assert errs[-1] < 1.6 * 1.333 / math.log(R)
    ok = errs[1] < errs[0]
    report(
        "9 pnt-control",
        ok,
        f"|S - 1/2| = {errs[0]:.4f} at R=1e4 -> {errs[1]:.4f} at R=1e6 "
        f"(Mertens-scale, decreasing)",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 10: random-matrix quadrature consistency


def test_criterion_10_rmt_consistency():
    phi = fejer_test_function(0.8)
    worst = 0.0
    for group in SymmetryGroup:
        quad = density_quadrature(group, phi)
        closed = one_level_prediction(group, phi)
        worst = max(worst, abs(quad - closed))
    f = fejer_test_function(0.45)
    gap = two_level_prediction(SymmetryGroup.SO_ODD, f, f) - two_level_prediction(
        SymmetryGroup.SO_EVEN, f, f
    )
    two_level_err = abs(gap - f.phi0 * f.phi0)
    ok = worst < 1e-6 and two_level_err < 1e-9
    report(
        "10 rmt",
        ok,
        f"max |quadrature - closed form| = {worst:.2e} (tol 1e-6); "
        f"2-level SOodd-SOeven error = {two_level_err:.2e} (tol 1e-9)",
    )
    assert worst < 1e-6
    assert two_level_err < 1e-9


# ---------------------------------------------------------------------------
# Criterion 11: end-to-end 1-level density of the quadratic family


# Stride-subsampled fundamental discriminants: the stride is a prime larger
# than every prime in the support window, so subsampled residues stay
# equidistributed and character cancellation survives.
QUAD_LO, QUAD_HI, QUAD_STRIDE = 10**8, 2 * 10**8, 15013
QUAD_P = 10**5


@pytest.fixture(scope="module")
def quadratic_density_report():
    assert is_prime(QUAD_STRIDE)
    fam = quadratic_family((QUAD_LO, QUAD_HI), stride=QUAD_STRIDE)
    phi = fejer_test_function(0.5)
    assert math.exp(0.5 * fam.average_log_conductor()) < QUAD_STRIDE
    return family_constant(fam, ConstantConfig(phi, QUAD_P, nu_max=10)).density


def test_criterion_11_density_value(quadratic_density_report):
    rep = quadratic_density_report
    target = 1.0 - 0.5 * 0.5  # phi_hat(0) - phi(0)/2 at sigma = 1/2
    ok = abs(rep.empirical - target) < 0.1
    report(
        "11 one-level",
        ok,
        f"D1 = {rep.empirical:.4f} vs {target} (tol 0.1) at log R = "
        f"{rep.log_r:.1f}, {rep.size:.0f} members",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: the nu >= 3 tail of a quadratic-character "
        "family is dominated by the deterministic even harmonics "
        "chi(p)^4 = chi(p)^6 = 1, whose weighted sum is ~2.9/log R for "
        "support 1/2 test functions in the feasible range (about 0.02-0.04 "
        "for any log R between 10 and 100); pushing it below 0.01 needs "
        "log R > 150, i.e. discriminants near e^150"
    ),
)
def test_criterion_11_tail_bound(quadratic_density_report):
    rep = quadratic_density_report
    tail = abs(rep.breakdown["tail"])
    ok = tail < 0.01
    report("11 tail", ok, f"|nu>=3 tail| = {tail:.4f} (stated tol 0.01)")
    assert ok


def test_criterion_11_tail_reported_and_small(quadratic_density_report):
    # control: the tail is reported, well below the main harmonics, and of
    # the predicted 1/log R scale
    rep = quadratic_density_report
    tail = abs(rep.breakdown["tail"])
    ok = tail < abs(rep.breakdown[2]) / 3 and tail < 6.0 / rep.log_r
    report(
        "11 tail-control",
        ok,
        f"|tail| = {tail:.4f} < nu=2 term {abs(rep.breakdown[2]):.4f} / 3",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 12: conductor growth trend


@pytest.fixture(scope="module")
def conductor_trend():
    pairs = {}
    for N in (200, 2000):
        f = EllipticFamilySpec((0, 1), (1,), N, 2 * N)
        g = EllipticFamilySpec((0, 1), (2,), N, 2 * N)
        pairs[N] = avg_log_conductor(f, g)
    return pairs


def test_criterion_12_growth(conductor_trend):
    ok = conductor_trend[2000] > conductor_trend[200]
    report(
        "12 conductor-growth",
        ok,
        f"avg log Q: {conductor_trend[200]:.2f} at (200,200) -> "
        f"{conductor_trend[2000]:.2f} at (2000,2000)",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: for cubic-discriminant families the "
        "convolution log-conductor is 2(log C1 + log C2) - 2.5 log gcd "
        "with log C ~ 3 log N + O(1), so the ratio to log(NM) sits near "
        "(4*3*log N)/(2 log N) = 6 (measured ~6.5-7.5 at these sizes); no "
        "one-parameter family with nonconstant j can push it into [0.2, 4] "
        "since deg Delta >= 2 forces the ratio above 4"
    ),
)
def test_criterion_12_ratio_window(conductor_trend):
    ratios = {
        N: conductor_trend[N] / math.log(N * N) for N in (200, 2000)
    }
    ok = all(0.2 <= r <= 4.0 for r in ratios.values())
    report(
        "12 conductor-ratio",
        ok,
        f"log R / log(NM) = {ratios[200]:.2f}, {ratios[2000]:.2f} "
        f"(stated window [0.2, 4])",
    )
    assert ok
