"""Acceptance gate: one test per numbered criterion, at the stated tolerance.

Run with -v to get one pass/fail line per criterion.
"""

import math
import time

import numpy as np

from helpers import random_mixed
from tricoh import adiabatic, coherence, models, perturbation, qmat, states


def test_01_zz_ground_state_fidelity():
    start = time.perf_counter()
    h = models.hamiltonian("zz", 2.0)
    _, g, _ = qmat.ground_states(h)
    f = qmat.root_fidelity(states.density(g), states.density(states.make_state("W001")))
    elapsed = time.perf_counter() - start
    assert abs(f - 0.9978) <= 5e-4
    assert elapsed < 1.0


def test_02_zzz_ground_state_fidelity():
    start = time.perf_counter()
    h = models.hamiltonian("zzz", 5.0)
    _, g, _ = qmat.ground_states(h)
    f = qmat.root_fidelity(states.density(g), states.density(states.make_state("G")))
    elapsed = time.perf_counter() - start
    assert abs(f - 0.9996) <= 5e-4
    assert elapsed < 1.0


def test_03_local_global_crossovers(zz_sweep, zzz_sweep, zz_reports, zzz_reports):
    for sweep, reports, target in ((zz_sweep, zz_reports, 1.0), (zzz_sweep, zzz_reports, 0.25)):
        j = np.asarray(sweep.j_values)
        cl = np.array([r.c_local for r in reports])
        cg = np.array([r.c_global for r in reports])
        crossing = adiabatic.find_crossing(j, cl, cg)
        assert crossing is not None
        lo, hi, _ = crossing
        step = j[1] - j[0]
        assert min(abs(lo - target), abs(hi - target)) <= step + 1e-9


def test_04_trade_off_slacks(zz_reports, zzz_reports):
    for reports in (zz_reports, zzz_reports):
        for rep in reports:
            assert rep.slack_eq7 >= -1e-8
            assert rep.slack_eq10a >= -1e-8
            assert rep.slack_eq10b >= -1e-8
            assert rep.slack_eq11 >= -1e-8


def test_05_monogamy_positive_beyond_start(zz_sweep, zzz_sweep, zz_reports, zzz_reports):
    for sweep, reports in ((zz_sweep, zz_reports), (zzz_sweep, zzz_reports)):
        for j, rep in zip(sweep.j_values, reports):
            if j == 0.0:
                assert rep.monogamy_m <= 1e-6
            else:
                assert rep.monogamy_m > 0.0


def test_06_ratio_constancy(zz_sweep, zz_reports):
    band = [
        rep.c_2_3 / rep.c_1_23
        for j, rep in zip(zz_sweep.j_values, zz_reports)
        if j >= 0.2
    ]
    assert max(band) - min(band) < 0.05


def test_07_trotter_fidelity_threshold():
    for tag in models.MODEL_TAGS:
        sch = adiabatic.linear_schedule(tag, models.model(tag).steps, models.model(tag).tau)
        worst = 1.0
        for j in sch.values:
            u_ide, u_exp = adiabatic.trotter_pair(tag, j, sch.tau)
            worst = min(worst, qmat.unitary_fidelity(u_ide, u_exp))
        assert worst > 0.999


def test_08_trotter_error_order():
    ratio = adiabatic.trotter_error_scaling("zz", 1.0, 0.1)
    assert 6.0 <= ratio <= 10.0


def test_09_bipartite_distance_identity():
    rng = np.random.default_rng(90)
    for _ in range(100):
        rho = random_mixed(rng, 3)
        r23 = qmat.partial_trace(rho, 3, [2, 3])
        r2 = qmat.partial_trace(rho, 3, [2])
        r3 = qmat.partial_trace(rho, 3, [3])
        c_2_3 = coherence.dist(r23, qmat.kron(r2, r3))
        direct = coherence.dist(states.split_1_23(rho), states.pi_product(rho))
        assert abs(direct - c_2_3) <= 1e-9


def test_10_metric_property_suite():
    rng = np.random.default_rng(91)
    for i in range(1000):
        n = 1 + (i % 3)
        a, b, c = (random_mixed(rng, n) for _ in range(3))
        slack = coherence.dist(a, b) + coherence.dist(b, c) - coherence.dist(a, c)
        assert slack >= -1e-8
    for _ in range(100):
        rho = random_mixed(rng, 1)
        s1 = random_mixed(rng, 2)
        s2 = random_mixed(rng, 2)
        lhs = coherence.qjsd(qmat.kron(rho, s1), qmat.kron(rho, s2))
        assert abs(lhs - coherence.qjsd(s1, s2)) <= 1e-9


def test_11_perturbation_consistency():
    zz = perturbation.zz_fidelity_formula(0.1, -2.0, 2.0)
    by_hand_zz = 1.0 / (1.0 + (0.1 / 2.0) ** 2 + (math.sqrt(3) / 2 * 0.1 / 2.0) ** 2)
    assert abs(zz - by_hand_zz) <= 1e-12
    assert abs(zz - 0.995644) <= 1e-6
    zzz = perturbation.zzz_fidelity_formula(0.1, 5.0)
    by_hand_zzz = 1.0 / (1.0 + (3.0 * 0.1 / 10.0) ** 2)
    assert abs(zzz - by_hand_zzz) <= 1e-12
    assert abs(zzz - 0.999101) <= 1e-6
    result = perturbation.secular_solve(perturbation.zzz_split(models.ModelParams(j3=5.0)))
    coeffs = np.asarray(result.coefficients)
    assert abs(coeffs[0] - math.sqrt(3) / 2) <= 1e-9
    assert abs(coeffs[1] - 0.5) <= 1e-9


def test_12_curve_shape_properties(zz_reports, zzz_reports):
    # absolute amplitudes of the published curves are not reproducible
    # (normalization and log base unstated); shapes are
    assert any(rep.c_global > rep.c_total for rep in zz_reports)
    ca = [rep.c_absolute for rep in zzz_reports]
    assert max(ca) - min(ca) < 0.01
    assert zzz_reports[-1].c_local < 0.05 < zzz_reports[0].c_local
    assert zzz_reports[-1].c_global > 0.5
