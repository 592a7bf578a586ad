"""The full verification suite: every headline behavior with its tolerance.

Each criterion is a function returning a CriterionResult; run_all executes
them in order, times each, and never stops early.  Every criterion reads
its tolerances from the one table DEFAULT_TOLERANCES.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import abel, counting, dynamics, eigen, orbits, presets, properties, selfmap
from .geometry import julia_quotient, pseudo_hyperbolic

DEFAULT_TOLERANCES = {
    "dw_location": 1e-6,
    "boundary_derivative": 1e-6,
    "step_closed_form": 1e-12,
    "step_zero_threshold": 1e-3,
    "step_constancy": 1e-12,
    "orbit_contains": 1e-9,
    "orbit_recurrence": 1e-10,
    "tau_gap": 0.1,
    "b_real": 1e-10,
    "square_trick_factor": 2.0,
    "u_theta_residual": 1e-10,
    "abel_residual_200": 1e-2,
    "abel_anchor": 1e-14,
    "merging_threshold": 1e-3,
    "schwarz_pick": 1e-12,
    "preimage_back_eval": 1e-10,
    "boundary_modulus": 1e-10,
    "mobius_invariance": 1e-12,
    "julia_ratio_slack": 1e-9,
    "nevanlinna_point": 1e-9,
    "nevanlinna_closed_form": 1e-12,
    "comparability_band": (0.8, 0.9),
}


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0  # wall seconds, set by run_all


def _result(index, name, passed, detail):
    return CriterionResult(index, name, bool(passed), detail)


def criterion_1_classify_hyperbolic(tol):
    cls = dynamics.classify(presets.example61(0.6))
    ok = (
        cls.kind == dynamics.HYPERBOLIC
        and abs(cls.dw_point - 1.0) < tol["dw_location"]
        and abs(cls.angular_derivative - 0.5) < tol["boundary_derivative"]
    )
    detail = (
        f"kind={cls.kind} dw={cls.dw_point:.9g} a={cls.angular_derivative:.9g} "
        f"(target hyperbolic, 1, 0.5)"
    )
    return _result(1, "classification of the alpha=0.6 squared-factor map", ok, detail)


def criterion_2_classify_parabolic(tol):
    cls = dynamics.classify(presets.example62())
    ok = (
        cls.kind == dynamics.PARABOLIC
        and abs(cls.angular_derivative - 1.0) < tol["boundary_derivative"]
    )
    detail = f"kind={cls.kind} a={cls.angular_derivative:.9g} (target parabolic, 1)"
    return _result(2, "classification of the alpha=1/3 squared-factor map", ok, detail)


def _parabolic_closed_form(x: float) -> float:
    return (1.0 - x) ** 2 / (9.0 * x * x + 14.0 * x + 9.0)


def criterion_3_step_closed_form(tol):
    f = presets.example62()
    z = 0.0 + 0.0j
    gaps = []
    for _ in range(101):
        z1 = selfmap.evaluate(f, z)
        direct = pseudo_hyperbolic(z, z1)
        gaps.append(abs(direct - _parabolic_closed_form(z.real)))
        z = z1
    worst = abel.worst_residual(gaps)
    ok = worst < tol["step_closed_form"]
    return _result(3, "parabolic orbit distances match the closed form", ok,
                   f"worst |direct - closed| = {worst:.3e} over n <= 100")


def _tail_fits_verdict(rep) -> bool:
    """The two-scale tail rule reads the same verdict: zero needs s_N < 1e-4
    decaying (s_N < 0.75 s_{N/2}), positive s_N > 1e-3 stalled (s_N > 0.99 s_{N/2})."""
    s_end, s_half = rep.limit_estimate, rep.sequence[(len(rep.sequence) - 1) // 2]
    if rep.verdict == "zero":
        return s_end == 0.0 or (s_end < 1e-4 and s_end < 0.75 * s_half)
    return s_end > 1e-3 and s_end > 0.99 * s_half


def criterion_4_step_verdicts(tol):
    r62 = dynamics.hyperbolic_step(presets.example62(), 0.0, 10000)
    r61 = dynamics.hyperbolic_step(presets.example61(0.6), 0.0, 10000)
    rtr = dynamics.hyperbolic_step(presets.translation(), 0.0, 10000)
    spread = float(rtr.sequence.max() - rtr.sequence.min())
    ok = (
        r62.verdict == "zero"
        and r62.limit_estimate < tol["step_zero_threshold"]
        and r61.verdict == "positive"
        and rtr.verdict == "positive"
        and spread < tol["step_constancy"]
        and all(_tail_fits_verdict(r) for r in (r62, r61, rtr))
    )
    detail = (
        f"zero-step: {r62.verdict} (s={r62.limit_estimate:.3e}); "
        f"hyperbolic: {r61.verdict} (s={r61.limit_estimate:.6f}); "
        f"translation: {rtr.verdict} spread={spread:.3e}"
    )
    return _result(4, "step verdicts for the three presets", ok, detail)


def criterion_5_grand_orbit(tol):
    f = presets.example61(0.5)
    tr = orbits.grand_orbit(f, 0.0, forward_n=12, backward_depth=6)
    re, im = tr.points.real, tr.points.imag

    has_zeta0 = bool(np.hypot(re + 0.8, im).min() < tol["orbit_contains"])

    # closed-form recurrence for the second fiber points
    zeta0 = -0.8
    zm = 0.0
    gaps = []
    all_negative = True
    for _ in range(12):
        zeta = (zeta0 - zm) / (1.0 - zeta0 * zm)
        all_negative &= zeta < 0
        gaps.append(float(np.hypot(re - zeta, im).min()))
        zm = selfmap.evaluate(f, zm).real
    worst = abel.worst_residual(gaps)

    interval_clear = not ((np.abs(im) < 1e-12) & (1e-12 < re) & (re < 0.25 - 1e-12)).any()

    # the backward preimages of the base point leave the horodisks at 1
    a = 2.0 / 3.0
    rows = (tr.forward_indices == 0) & (tr.backward_depths >= 1)
    escalation = not any(
        julia_quotient(p, 1.0) <= a ** (-d) * (1.0 - 1e-9)
        for p, d in zip(tr.points[rows].tolist(), tr.backward_depths[rows].tolist())
    )

    ok = has_zeta0 and worst < tol["orbit_recurrence"] and all_negative \
        and interval_clear and escalation
    detail = (
        f"zeta0 found={has_zeta0}, recurrence worst={worst:.2e}, "
        f"negatives={all_negative}, gap (0,0.25) clear={interval_clear}, "
        f"horodisk escalation={escalation}"
    )
    return _result(5, "grand orbit structure at alpha = 1/2", ok, detail)


def criterion_6_eigenpair(tol):
    f = presets.example61(0.5)
    samples = eigen.ring_samples(0.4, 16)
    deepest = orbits.grand_orbit(f, 0.0, forward_n=12, backward_depth=8)
    prefixes = eigen.prefix_samples(deepest, (4, 6, 8), f, samples)
    residuals = [eigen.eigen_residual(b, f, -1.0, samples, values)
                 for b, values, _ in prefixes]
    last, values, kept = prefixes[-1]
    est = eigen.estimate_tau(last, f, samples, values, kept)
    tau_ok = abs(est.tau - (-1.0)) < tol["tau_gap"]
    decreasing = residuals[0] > residuals[1] > residuals[2]
    b0 = abs(last(0.0))
    real_ok = abel.worst_residual(
        abs(last(complex(x)).imag) for x in np.linspace(-0.9, 0.9, 25)
    ) < tol["b_real"]
    sq = eigen.square_trick_check(last, f, samples, values)
    sq_ok = sq <= tol["square_trick_factor"] * residuals[2]
    ok = tau_ok and decreasing and b0 == 0.0 and real_ok and sq_ok
    detail = (
        f"tau={est.tau:.6f} (gap {abs(est.tau + 1):.4f}), residuals "
        f"{[f'{r:.2e}' for r in residuals]} decreasing={decreasing}, "
        f"B(0)={b0}, real-axis ok={real_ok}, square residual {sq:.2e}"
    )
    return _result(6, "truncated eigenfunction approaches the sign-flip pair", ok, detail)


def _square_samples(rng, count: int, radius: float) -> list[complex]:
    """The first count points z = complex(x, y) with |z| < radius, of x and
    y uniform in (-1, 1), drawn in rows of values in the order of a
    uniform(-1, 1) call per part; drawing past the last point only moves
    the generator on."""
    pts = []
    while len(pts) < count:
        pts += [z for z in map(complex, *rng.uniform(-1, 1, (1024, 2)).T.tolist())
                if abs(z) < radius]
    return pts[:count]


def criterion_7_u_theta(tol):
    t = presets.translation()
    handle = eigen.translation_abel_disk
    pts = _square_samples(np.random.default_rng(20240817), 1000, 0.97)
    ok = True
    details = []
    for theta in (math.pi / 3.0, 1.0, 2.0 * math.pi - 0.1):
        u = eigen.SingularEigenfunction(theta, handle)
        res = eigen.eigen_residual(u, t, cmath.exp(1j * theta), pts[:200])
        bounded = abel.worst_residual(abs(u(z)) for z in pts) <= 1.0 + 1e-15
        ok &= res < tol["u_theta_residual"] and bounded
        details.append(f"theta={theta:.4f}: res={res:.1e} bounded={bounded}")
    return _result(7, "exponential eigenfunctions on the translation preset", ok,
                   "; ".join(details))


def criterion_8_baker_pommerenke(tol):
    hm = abel.HalfPlaneMap(presets.example62())
    rows = abel.residual_table(hm, "baker_pommerenke_h", (50, 100, 200, 400), abel.PROBES)
    res = {n: abel.worst_residual(r for m, _, r, _ in rows if m == n)
           for n in (50, 100, 200, 400)}
    nonincreasing = res[50] >= res[100] >= res[200] >= res[400]
    anchors = abel.worst_residual(
        defect for n in (50, 100, 200, 400)
        for defect in (abs(abel.baker_pommerenke_h(hm, 1.0, n)),
                       abs(abel.baker_pommerenke_h(hm, hm.orbit_point(1), n) - 1.0))
    )
    ok = res[200] < tol["abel_residual_200"] and nonincreasing \
        and anchors <= tol["abel_anchor"]
    detail = (
        f"residuals {[f'{res[n]:.2e}' for n in (50, 100, 200, 400)]} "
        f"nonincreasing={nonincreasing}, anchor defect={anchors:.1e}"
    )
    return _result(8, "step-normalized linearizer residuals on the parabolic preset",
                   ok, detail)


def criterion_9_orbit_merging(tol):
    seq = dynamics.orbit_merging(presets.example62(), 0.0, 0.5j, n_max=100000)
    nonincreasing = bool(np.all(np.diff(seq) <= 1e-12))
    below = float(seq.min()) < tol["merging_threshold"]
    first = int(np.argmax(seq < tol["merging_threshold"])) if below else -1
    ok = nonincreasing and below
    return _result(9, "orbit merging for the zero-step preset", ok,
                   f"nonincreasing={nonincreasing}, below 1e-3 from n={first}")


def criterion_10_property_suites(tol):
    return _result(10, "randomized property suites", *properties._property_suites(tol))


def criterion_11_julia_containment(tol):
    rep = dynamics.julia_containment_check(presets.example61(0.5), 1.0,
                                           samples=1000, seed=0)
    ok = rep.max_ratio <= 1.0 + tol["julia_ratio_slack"]
    detail = (
        f"max quotient {rep.max_quotient:.6f} vs bound {rep.bound:.6f} "
        f"(ratio {rep.max_ratio:.9f})"
    )
    return _result(11, "horodisk containment under the alpha=1/2 map", ok, detail)


def criterion_12_nevanlinna(tol):
    f = presets.example61(0.5)
    point_val = counting.nevanlinna(f, 0.25).value
    point_ok = abs(point_val - 1.2) < tol["nevanlinna_point"]

    ident = selfmap.identity_map()
    z2 = presets.power_map(2)
    gaps = []
    for w in (0.1, 0.37, 0.5 + 0.3j, -0.62, 0.05j):
        gaps.append(abs(counting.nevanlinna(ident, w).value - (1.0 - abs(w))))
        gaps.append(abs(counting.nevanlinna(z2, w).value - 2.0 * (1.0 - math.sqrt(abs(w)))))
    worst = abel.worst_residual(gaps)
    closed_ok = worst < tol["nevanlinna_closed_form"]

    lo, hi = tol["comparability_band"]
    radii = counting.dyadic_radii(math.log2(10.0), math.log2(1000.0), 25)
    scan = counting.inner_comparability_scan(f, radii)
    band_ok = lo <= scan.ratio_min and scan.ratio_max <= hi

    ok = point_ok and closed_ok and band_ok
    detail = (
        f"N(1/4)={point_val!r}, closed-form worst={worst:.2e}, "
        f"band=[{scan.ratio_min:.4f},{scan.ratio_max:.4f}] in [{lo},{hi}]={band_ok}"
    )
    return _result(12, "preimage counting values and comparability band", ok, detail)


CRITERIA = [
    criterion_1_classify_hyperbolic,
    criterion_2_classify_parabolic,
    criterion_3_step_closed_form,
    criterion_4_step_verdicts,
    criterion_5_grand_orbit,
    criterion_6_eigenpair,
    criterion_7_u_theta,
    criterion_8_baker_pommerenke,
    criterion_9_orbit_merging,
    criterion_10_property_suites,
    criterion_11_julia_containment,
    criterion_12_nevanlinna,
]


def run_all() -> list[CriterionResult]:
    results = []
    for criterion in CRITERIA:
        t0 = time.perf_counter()
        result = criterion(DEFAULT_TOLERANCES)
        results.append(replace(result, elapsed=time.perf_counter() - t0))
    return results
