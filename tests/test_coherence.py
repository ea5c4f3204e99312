import inspect
import math
import pickle
import re
import threading
import warnings

import numpy as np
import pytest

from helpers import random_mixed, random_unitary, same_bits, traced_peak
from tricoh import adiabatic, cli, coherence, models, qmat, states


def test_entropy_pure_state():
    assert coherence.von_neumann_entropy(states.density(states.make_state("W001"))) < 1e-10


def test_entropy_maximally_mixed_qubit():
    assert abs(coherence.von_neumann_entropy(np.eye(2) / 2) - 1.0) < 1e-12


def test_entropy_shannon_value():
    got = coherence.von_neumann_entropy(np.diag([0.75, 0.25]))
    want = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert abs(got - want) < 1e-12
    assert abs(got - 0.811278) < 1e-6


def test_entropy_additivity():
    rng = np.random.default_rng(51)
    a = random_mixed(rng, 1)
    b = random_mixed(rng, 2)
    lhs = coherence.von_neumann_entropy(qmat.kron(a, b))
    rhs = coherence.von_neumann_entropy(a) + coherence.von_neumann_entropy(b)
    assert abs(lhs - rhs) < 1e-9


def test_relative_entropy_self():
    rng = np.random.default_rng(52)
    rho = random_mixed(rng, 2)
    assert abs(coherence.relative_entropy(rho, rho)) < 1e-10


def test_relative_entropy_disjoint_support():
    zero = states.density(states.basis_state("0"))
    one = states.density(states.basis_state("1"))
    assert math.isinf(coherence.relative_entropy(zero, one))


def test_relative_entropy_pure_vs_mixed():
    zero = states.density(states.basis_state("0"))
    assert abs(coherence.relative_entropy(zero, np.eye(2) / 2) - 1.0) < 1e-12


def test_relative_entropy_dimension_mismatch():
    with pytest.raises(ValueError):
        coherence.relative_entropy(np.eye(2) / 2, np.eye(4) / 4)


def test_qjsd_self_and_orthogonal():
    rng = np.random.default_rng(53)
    rho = random_mixed(rng, 3)
    assert abs(coherence.qjsd(rho, rho)) < 1e-10
    zero = states.density(states.basis_state("0"))
    one = states.density(states.basis_state("1"))
    assert abs(coherence.qjsd(zero, one) - 1.0) < 1e-12


def test_qjsd_restricted_additivity():
    rng = np.random.default_rng(54)
    for _ in range(10):
        rho = random_mixed(rng, 1)
        s1 = random_mixed(rng, 2)
        s2 = random_mixed(rng, 2)
        lhs = coherence.qjsd(qmat.kron(rho, s1), qmat.kron(rho, s2))
        assert abs(lhs - coherence.qjsd(s1, s2)) < 1e-9


def test_qjsd_unitary_invariance():
    rng = np.random.default_rng(55)
    rho = random_mixed(rng, 3)
    sigma = random_mixed(rng, 3)
    u = random_unitary(rng, 8)
    lhs = coherence.qjsd(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
    assert abs(lhs - coherence.qjsd(rho, sigma)) < 1e-9


def test_qjsd_bounds_random():
    rng = np.random.default_rng(56)
    for _ in range(50):
        j = coherence.qjsd(random_mixed(rng, 2), random_mixed(rng, 2))
        assert 0.0 <= j <= 1.0 + 1e-12


def test_qjsd_log_base_scaling():
    rng = np.random.default_rng(57)
    rho = random_mixed(rng, 2)
    sigma = random_mixed(rng, 2)
    j2 = coherence.qjsd(rho, sigma, base=2.0)
    je = coherence.qjsd(rho, sigma, base=math.e)
    assert abs(je - j2 * math.log(2.0)) < 1e-12


def test_dist_metric_basics():
    rng = np.random.default_rng(58)
    rho = random_mixed(rng, 3)
    sigma = random_mixed(rng, 3)
    assert coherence.dist(rho, rho) < 1e-8
    assert abs(coherence.dist(rho, sigma) - coherence.dist(sigma, rho)) < 1e-12
    zero = states.density(states.basis_state("0"))
    one = states.density(states.basis_state("1"))
    assert abs(coherence.dist(zero, one) - 1.0) < 1e-12


def test_dist_triangle_small_batch():
    rng = np.random.default_rng(59)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        a, b, c = (random_mixed(rng, n) for _ in range(3))
        slack = coherence.dist(a, b) + coherence.dist(b, c) - coherence.dist(a, c)
        assert slack >= -1e-8


def test_report_incoherent_product_state():
    rep = coherence.coherence_report(states.density(states.basis_state("000")))
    for value in list(rep):
        assert abs(value) < 1e-7


def test_report_minus_product_state():
    rep = coherence.coherence_report(states.density(states.sign_product_state("---")))
    assert rep.c_global < 1e-7
    assert rep.c_local > 0.5
    assert abs(rep.c_local - rep.c_absolute) < 1e-9


def test_report_w_state():
    rep = coherence.coherence_report(states.density(states.make_state("W001")))
    assert rep.c_local < 1e-6
    assert rep.c_global > 0.5
    assert rep.monogamy_m > 0.1


def test_report_bipartite_identity_random():
    rng = np.random.default_rng(60)
    for _ in range(10):
        rho = random_mixed(rng, 3)
        rep = coherence.coherence_report(rho)
        direct = coherence.dist(states.split_1_23(rho), states.pi_product(rho))
        assert abs(direct - rep.c_2_3) < 1e-9


def test_report_slacks_nonnegative_random():
    rng = np.random.default_rng(61)
    for _ in range(20):
        rep = coherence.coherence_report(random_mixed(rng, 3))
        assert rep.slack_eq7 >= -1e-8
        assert rep.slack_eq10a >= -1e-8
        assert rep.slack_eq10b >= -1e-8
        assert rep.slack_eq11 >= -1e-8


def seeded_states(rng, count):
    # pure, rank 2, rank 3 and full-rank mixed states in turn
    rhos = []
    for k in range(count):
        rank = (1, 2, 3, 8)[k % 4]
        a = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
        rho = a @ a.conj().T
        rhos.append(rho / np.trace(rho).real)
    return rhos


def report_bits(report):
    return np.array(list(report)).view(np.int64)


def test_reports_match_single_reports_bitwise():
    rhos = seeded_states(np.random.default_rng(63), 2 * coherence.REPORT_CHUNK + 5)
    batch = coherence.coherence_reports(np.array(rhos))
    assert len(batch) == len(rhos)
    for rho, rep in zip(rhos, batch):
        np.testing.assert_array_equal(report_bits(rep), report_bits(coherence.coherence_report(rho)))


@pytest.mark.kernel_rounding
def test_reports_pinned_rounding_noise(zz_reports, zzz_reports):
    # J = 0 rows: the distances are square roots of ~1e-16 rounding noise, so
    # they change with any change to the float operations on each matrix
    zzz = dict(zip(coherence.REPORT_COLUMNS, list(zzz_reports[0])))
    assert f"{zzz['C_G']:.9g}" == "2.53117621e-08"
    assert f"{zzz['C_1_3']:.9g}" == f"{zzz['C_2_3']:.9g}" == "1.55002254e-08"
    assert f"{zzz['slack11']:.9g}" == "-9.81153669e-09"
    assert f"{zz_reports[0].slack_eq7:.9g}" == "-1.38777878e-17"


def test_zzz_sweep_absolute_coherence_has_its_exact_value(zzz_sweep, zzz_reports):
    # every zzz ground state has single-qubit marginals of diagonal (1/2, 1/2), so its dephased
    # pi(rho) is I/8 and the mixture (rho + I/8)/2 has eigenvalues 9/16 once and 1/16 seven times
    want = math.sqrt(2.5 - 9 / 8 * math.log2(3))
    assert abs(want - 0.8467096236) < 1e-10
    assert np.abs(np.array([rep.c_absolute for rep in zzz_reports]) - want).max() <= 16 * np.finfo(float).eps
    base_e = coherence.coherence_reports(states.density(zzz_sweep.ground_states), base=math.e)
    want = math.sqrt(math.log(2)) * want
    assert abs(want - 0.704932001) < 1e-9
    assert np.abs(np.array([rep.c_absolute for rep in base_e]) - want).max() <= 16 * np.finfo(float).eps


def test_reports_properties_random_ranks():
    rhos = np.array(seeded_states(np.random.default_rng(64), 24))
    # swap qubits 2 and 3: basis index bits (b1 b2 b3) -> (b1 b3 b2)
    perm = [(k & 4) | ((k & 1) << 1) | ((k & 2) >> 1) for k in range(8)]
    swapped = rhos[:, perm][:, :, perm]
    # local diagonal unitary: a product of seeded single-qubit phase gates
    phases = np.exp(1j * np.random.default_rng(66).uniform(0.0, 2.0 * np.pi, size=3))
    u = np.diag(qmat.kron_all([np.diag([1.0, phase]) for phase in phases]))
    rotated = u[:, None] * rhos * u.conj()[None, :]
    for rep, twin, turned in zip(
        coherence.coherence_reports(rhos), coherence.coherence_reports(swapped), coherence.coherence_reports(rotated)
    ):
        for slack in (rep.slack_eq7, rep.slack_eq10a, rep.slack_eq10b, rep.slack_eq11):
            assert slack >= -1e-8
        for value in list(rep)[:9]:
            assert 0.0 <= value <= 1.0
        mirrored = dict(twin._asdict(), c_1_2=twin.c_1_3, c_1_3=twin.c_1_2)
        for name, value in rep._asdict().items():
            assert abs(value - mirrored[name]) < 1e-9, name
            assert abs(value - getattr(turned, name)) < 1e-10, name


def test_cross_check_failure_raises(monkeypatch):
    monkeypatch.setattr(coherence, "CROSS_CHECK_TOL", -1.0)
    rho = seeded_states(np.random.default_rng(65), 1)[0]
    with pytest.raises(ArithmeticError):
        coherence.coherence_reports([rho])
    with pytest.raises(ArithmeticError):
        coherence.qjsd(rho, np.eye(8) / 8)


def test_cross_check_error_names_the_state_index(state_failing_cross_check):
    rhos = seeded_states(np.random.default_rng(66), coherence.REPORT_CHUNK + 3)
    rhos[coherence.REPORT_CHUNK + 1] = state_failing_cross_check
    with pytest.raises(coherence.CrossCheckError, match="^qjsd cross-check failed: defining form ") as exc:
        coherence.coherence_reports(rhos)
    assert isinstance(exc.value, ArithmeticError)
    assert exc.value.index == coherence.REPORT_CHUNK + 1


@pytest.mark.parametrize("helper", ["_qubit_spectra", "_diagonal_entropies"])
def test_cross_check_catches_a_wrong_closed_form(monkeypatch, helper):
    rho = seeded_states(np.random.default_rng(65), 1)[0]
    coherence.coherence_reports([rho])
    exact = getattr(coherence, helper)
    monkeypatch.setattr(coherence, helper, lambda *args: exact(*args) + 1e-6)
    with pytest.raises(ArithmeticError):
        coherence.coherence_reports([rho])


def test_qjsd_runs_without_eigvalsh(monkeypatch):
    rhos = np.array(seeded_states(np.random.default_rng(67), 2 * coherence.REPORT_CHUNK + 3))
    reports = coherence.coherence_reports(rhos)
    divergence = coherence.qjsd(rhos[0], rhos[1])

    def forbidden(*args, **kwargs):
        raise AssertionError("the QJSD routes diagonalize each matrix once, with eigh")

    monkeypatch.setattr(coherence.np.linalg, "eigvalsh", forbidden)
    assert coherence.coherence_reports(rhos) == reports
    assert coherence.qjsd(rhos[0], rhos[1]) == divergence


def test_report_kernel_builds_no_intermediate_through_the_checked_api(monkeypatch):
    rhos = np.array(seeded_states(np.random.default_rng(69), 2 * coherence.REPORT_CHUNK + 5))
    reports = coherence.coherence_reports(rhos)
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("the report kernel builds its stacks without the checked public helpers")

    monkeypatch.setattr(coherence.np.linalg, "eigh", counted)
    monkeypatch.setattr(coherence.np.linalg, "eigvalsh", forbidden)
    for module in (qmat, states, coherence):
        for name in ("partial_trace", "marginals", "dephase"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert coherence.coherence_reports(rhos) == reports
    # one 4x4 and one 8x8 eigh per chunk, of REPORT_CHUNK, REPORT_CHUNK and 5 states
    chunks = (coherence.REPORT_CHUNK, coherence.REPORT_CHUNK, 5)
    assert calls == [(9, n, 4, 4) if k % 2 == 0 else (11, n, 8, 8) for n in chunks for k in range(2)]


@pytest.mark.parametrize("source", ["zz", "zzz", "mixed"])
def test_report_stacks_match_the_public_builders_bitwise(source, zz_sweep, zzz_sweep):
    sweeps = {"zz": zz_sweep, "zzz": zzz_sweep}
    if source == "mixed":
        rhos = np.array(seeded_states(np.random.default_rng(71), 50))
    else:
        rhos = states.density(sweeps[source].ground_states)
    m1, m2, m3 = states.marginals(rhos)
    rho_23 = qmat.partial_trace(rhos, 3, {2, 3})
    pi = qmat.kron(qmat.kron(m1, m2), m3)
    small = [
        rho_23, qmat.kron(m2, m3),
        qmat.partial_trace(rhos, 3, {1, 2}), qmat.kron(m1, m2),
        qmat.partial_trace(rhos, 3, {1, 3}), qmat.kron(m1, m3),
    ]
    big = [rhos, qmat.dephase(rhos), pi, qmat.dephase(pi), qmat.kron(m1, rho_23)]
    # all five 8x8 inputs, as coherence_reports builds them, and the four that ratios reads
    for inputs, room in (([0, 1, 2, 3, 4], 6), ([0, 2, 3, 4], 4)):
        got_small, got_big, got_marginals = coherence._report_stacks(rhos, inputs, room)
        # the inputs fill the first slots; the rest is room for the mixtures that _qjsd_stack writes
        assert got_small.shape == (9, len(rhos), 4, 4) and got_big.shape == (len(inputs) + room, len(rhos), 8, 8)
        assert same_bits(got_small[:6], np.stack(small))
        assert same_bits(got_big[:len(inputs)], np.stack([big[i] for i in inputs]))
        assert same_bits(got_marginals, np.stack([m1, m2, m3]))


def test_reports_of_states_within_tomo_tolerance_match_qjsd(states_within_tomo_tolerance):
    rhos = states_within_tomo_tolerance
    for rho in rhos:
        _, checks = qmat.validate_density(rho, tol=1e-6)
        assert checks["herm_dev"] > 5e-8 or checks["min_eig"] < -5e-12
    for kept in ({1}, {2, 3}):
        assert np.linalg.eigvalsh(qmat.partial_trace(rhos[1], 3, kept))[0] < 0
    for rho, rep in zip(rhos, coherence.coherence_reports(rhos)):
        m1, m2, m3 = states.marginals(rho)
        rho_23 = qmat.partial_trace(rho, 3, {2, 3})
        pi, split = qmat.kron(qmat.kron(m1, m2), m3), qmat.kron(m1, rho_23)
        pairs = [
            (rho, qmat.dephase(rho)), (rho, pi), (pi, qmat.dephase(pi)), (rho, qmat.dephase(pi)),
            (rho, split), (rho_23, qmat.kron(m2, m3)), (split, qmat.dephase(pi)),
            (qmat.partial_trace(rho, 3, {1, 2}), qmat.kron(m1, m2)),
            (qmat.partial_trace(rho, 3, {1, 3}), qmat.kron(m1, m3)),
        ]
        for value, (a, b) in zip(rep[:9], pairs):
            assert abs(value - coherence.dist(a, b)) < 1e-12


def test_closed_form_entropies_match_eigvalsh(monkeypatch, zz_sweep, states_within_tomo_tolerance):
    seen = {}
    stacks = {}
    qjsd_stack, qjsd_pairs = coherence._qjsd_stack, coherence._qjsd_pairs

    def stack_spy(mats, pairs):
        # the symmetrized stack, whose input k is _sym(mats[k]); the calls below are one chunk each
        stacks[mats.shape[-1]] = qjsd_stack(mats, pairs)
        return stacks[mats.shape[-1]]

    def spy(w, v, pairs, closed, scale):
        mats = stacks[w.shape[-1]]
        for k, entropies in closed.items():
            want = coherence._entropies(np.linalg.eigvalsh(mats[k]), scale)
            seen[mats.shape[-1], k] = max(seen.get((mats.shape[-1], k), 0.0), np.abs(entropies - want).max())
        return qjsd_pairs(w, v, pairs, closed, scale)

    monkeypatch.setattr(coherence, "_qjsd_stack", stack_spy)
    monkeypatch.setattr(coherence, "_qjsd_pairs", spy)
    rng = np.random.default_rng(68)
    mixed = []
    for rank in range(1, 9):
        a = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
        mixed.append(a @ a.conj().T / np.trace(a @ a.conj().T).real)
    assert abs(zz_sweep.j_values[1] - 0.00667) < 1e-5
    for base in (2.0, math.e):
        coherence.coherence_reports(mixed + states_within_tomo_tolerance, base)
        coherence.coherence_reports(states.density(zz_sweep.ground_states[1:2]), base)
    # 4x4: rho_2 x rho_3, rho_1 x rho_2, rho_1 x rho_3; 8x8: dephased rho,
    # pi(rho), dephased pi(rho), rho_1 x rho_23
    assert sorted(seen) == [(4, 1), (4, 3), (4, 5), (8, 1), (8, 2), (8, 3), (8, 4)]
    for key, gap in seen.items():
        assert gap < 1e-12, key


def chunk_by_chunk(rhos, base):
    return [rep for k in range(0, len(rhos), coherence.REPORT_CHUNK)
            for rep in coherence.coherence_reports(rhos[k:k + coherence.REPORT_CHUNK], base)]


@pytest.fixture
def stacks_over_many_chunks(zz_sweep, zzz_sweep):
    # the linear and adaptive default sweeps of both models, then 200 seeded mixed states
    stacks = [states.density(sweep.ground_states) for sweep in (zz_sweep, zzz_sweep)]
    for name in ("zz", "zzz"):
        schedule = adiabatic.gap_adaptive_schedule(name, models.model(name).steps, models.model(name).tau)
        stacks.append(states.density(adiabatic.ground_sweep(schedule).ground_states))
    stacks.append(np.array(seeded_states(np.random.default_rng(72), 200)))
    return stacks


def concatenated_route_eigh_input(inputs, pairs):
    # the mixtures as one expression on fancy-index copies, appended by concatenation
    left, right = np.array(pairs).T
    return qmat._sym(np.concatenate([inputs, (inputs[left] + inputs[right]) / 2]))


def concatenated_route_entropies(w, scale):
    w = np.where(w > coherence.EIG_FLOOR, w, 1.0)
    return -(w * np.log(w)).sum(-1) / scale


def concatenated_route_relative_entropies(w, v, pairs, scale):
    # each side's p log p and the mixtures' log q with floor tests and logarithms of their own
    sides = np.array(pairs).T
    n_in = len(w) - len(pairs)
    w = np.clip(w, 0.0, None)
    p, u, q, v = w[sides], v[sides], w[n_in:], v[n_in:]
    overlap = np.abs(u.conj().swapaxes(-1, -2) @ v) ** 2
    weight = (p[..., None, :] @ overlap)[..., 0, :]
    support = q > coherence.EIG_FLOOR
    mismatch = np.any(~support & (weight > coherence.SUPPORT_WEIGHT_TOL), axis=-1)
    plogp = (p * np.log(np.where(p > coherence.EIG_FLOOR, p, 1.0))).sum(-1)
    wlogq = (weight * np.log(np.where(support, q, 1.0))).sum(-1)
    s = (plogp - wlogq) / scale
    return np.where(mismatch, math.inf, np.where(s < 0.0, 0.0, s))


@pytest.mark.parametrize("base", [2.0, math.e])
def test_report_kernel_matches_the_concatenated_route_bitwise(
    monkeypatch, base, stacks_over_many_chunks, states_within_tomo_tolerance
):
    # each chunk's eigh inputs and scores against the route that concatenated a mixture stack onto
    # the inputs and took each side's and each mixture's logarithms apart from the entropic form's
    report_stacks, qjsd_pairs, relative_entropies = (
        coherence._report_stacks, coherence._qjsd_pairs, coherence._relative_entropies
    )
    eigh, entropies = qmat._eigh, coherence._entropies
    expected, compared = {}, {"eigh": 0, "closed": 0, "relative": 0, "pairs": 0}

    def stacks(rho, built, room):
        # coherence_reports builds all five 8x8 inputs, so its 8x8 pairs are those of _PAIRS_8
        assert built == (0, 1, 2, 3, 4)
        small, big, marg = report_stacks(rho, built, room)
        for mats, inputs, pairs in ((small, 6, coherence._PAIRS_4), (big, 5, coherence._PAIRS_8)):
            expected[mats.shape[-1]] = concatenated_route_eigh_input(mats[:inputs].copy(), [*pairs.values()])
        return small, big, marg

    def checked_eigh(a, vectors=True):
        assert same_bits(a, expected.pop(a.shape[-1]))
        compared["eigh"] += 1
        return eigh(a, vectors)

    def closed(w, scale):
        # the closed forms: three product spectra and the two dephased diagonals per chunk
        got = entropies(w, scale)
        assert same_bits(got, concatenated_route_entropies(w, scale))
        compared["closed"] += 1
        return got

    def relative(w, v, sides, mixed, scale):
        pairs = [tuple(pair) for pair in sides.T.tolist()]
        rel, wlogw = relative_entropies(w, v, sides, mixed, scale)
        assert same_bits(rel, concatenated_route_relative_entropies(w, v, pairs, scale))
        assert same_bits(-wlogw / scale, concatenated_route_entropies(w, scale))
        compared["relative"] += 1
        return rel, wlogw

    def pairs_checked(w, v, pairs, closed, scale):
        got = qjsd_pairs(w, v, pairs, closed, scale)
        rel = concatenated_route_relative_entropies(w, v, pairs, scale)
        assert same_bits(got, 0.5 * (rel[0] + rel[1]))
        compared["pairs"] += 1
        return got

    monkeypatch.setattr(coherence, "_report_stacks", stacks)
    monkeypatch.setattr(qmat, "_eigh", checked_eigh)
    monkeypatch.setattr(coherence, "_entropies", closed)
    monkeypatch.setattr(coherence, "_relative_entropies", relative)
    monkeypatch.setattr(coherence, "_qjsd_pairs", pairs_checked)
    chunks = 0
    for rhos in stacks_over_many_chunks + [np.array(states_within_tomo_tolerance)]:
        coherence.coherence_reports(rhos, base)
        chunks += math.ceil(len(rhos) / coherence.REPORT_CHUNK)
    assert compared == {"eigh": 2 * chunks, "closed": 3 * chunks, "relative": 2 * chunks, "pairs": 2 * chunks}
    assert not expected


def test_report_kernel_chunk_peaks_below_950_kb_under_tracemalloc(zz_sweep):
    # one 32-state chunk of the default zz sweep peaked at 1311 KB while it held both raw stacks, both
    # symmetrized stacks and both eigenpair sets through the 8x8 eigh and took both sides' overlaps at
    # once; freeing each stack as soon as it is used and taking the overlaps one side at a time reads
    # 912 KB. The eigh inputs and outputs alone take about 22 KB per state, so 32 states is the largest
    # chunk under the bound, which fails the old layout by 360 KB
    rho = states.density(zz_sweep.ground_states[:coherence.REPORT_CHUNK])
    assert len(rho) == 32
    assert traced_peak(coherence._chunk_rows, 0, rho, 1.0, frozenset(coherence._DISTANCES)) <= 950 * 1024


# the distances ``tricoh ratios`` scores: those of its ratio columns and the three terms of M
RATIO_FIELDS = {"c_global", "c_local", "c_2_3", "c_1_23", "c_abs_1_23", "c_1_2", "c_1_3"}
RATIO_ROW = [coherence.CoherenceReport._fields.index(field) for field in (*sorted(RATIO_FIELDS), "monogamy_m")]


@pytest.mark.parametrize("base", [2.0, math.e])
def test_subset_kernel_matches_the_full_reports_bitwise(base, stacks_over_many_chunks):
    # the seven distances and M, and the two slacks that read only them, have the bits of the full
    # report; C_T, C_A and the two slacks that read C_A are nan
    left_out = [coherence.REPORT_COLUMNS.index(name) for name in ("C_T", "C_A", "slack7", "slack10a")]
    for rhos in stacks_over_many_chunks:
        full = np.array(coherence.coherence_reports(rhos, base))
        got = np.array(coherence._reports(rhos, base, RATIO_FIELDS))
        assert same_bits(np.delete(got, left_out, axis=1), np.delete(full, left_out, axis=1))
        assert np.isnan(got[:, left_out]).all() and not np.isnan(full).any()


def test_subset_kernel_scores_each_8x8_distance_alone_bitwise(zzz_sweep, states_within_tomo_tolerance):
    # one 8x8 pair alone builds only its two inputs and the input that a dephased one dephases: C_A builds
    # dephased pi(rho) from pi(rho), which the stack holds too
    rhos = np.concatenate([states.density(zzz_sweep.ground_states[:20]), seeded_states(np.random.default_rng(81), 20),
                           states_within_tomo_tolerance])
    full = np.array(coherence.coherence_reports(rhos, math.e))
    for field in coherence._PAIRS_8:
        got = np.array(coherence._reports(rhos, math.e, {field}))
        kept = [coherence.CoherenceReport._fields.index(name) for name in (field, *coherence._PAIRS_4)]
        assert same_bits(got[:, kept], full[:, kept]), field
        assert np.isnan(got[:, [k for k in range(9) if k not in kept]]).all(), field


def test_subset_kernel_diagonalizes_eight_8x8_matrices_per_ratios_state(monkeypatch, tmp_path):
    # rho, pi(rho), dephased pi(rho), rho_1 x rho_23 and their four mixtures for ratios; sweep adds
    # dephased rho and the mixtures of C_T and C_A; 2 * REPORT_CHUNK + 8 steps give 2 * REPORT_CHUNK + 9
    # states, report chunks of REPORT_CHUNK, REPORT_CHUNK and 9
    eigh, reports = qmat._eigh, coherence._reports
    stacks, requests = [], []

    def spy(a, vectors=True):
        if a.ndim == 4 and a.shape[-1] == 8:
            stacks.append(a.shape)
        return eigh(a, vectors)

    def requested(rhos, base, fields):
        requests.append(set(fields))
        return reports(rhos, base, fields)

    monkeypatch.setattr(qmat, "_eigh", spy)
    monkeypatch.setattr(coherence, "_reports", requested)
    chunks = (coherence.REPORT_CHUNK, coherence.REPORT_CHUNK, 9)
    out = ["--model", "zz", "--steps", str(2 * coherence.REPORT_CHUNK + 8), "--out", str(tmp_path)]
    assert cli.main(["ratios", *out]) == 0
    assert (stacks, requests) == ([(8, n, 8, 8) for n in chunks], [RATIO_FIELDS])
    stacks.clear()
    assert cli.main(["sweep", *out]) == 0
    assert (stacks, requests[1:]) == ([(11, n, 8, 8) for n in chunks], [set(coherence._DISTANCES)])


def test_subset_kernel_keeps_the_whole_stack_index_of_a_failed_cross_check(state_failing_cross_check):
    # in the third chunk, the state fails the scored pair (rho, pi(rho)), and (rho, dephased rho) before it in
    # the full report
    rhos = np.array(seeded_states(np.random.default_rng(79), 3 * coherence.REPORT_CHUNK))
    rhos[2 * coherence.REPORT_CHUNK + 3] = state_failing_cross_check
    for fields in (RATIO_FIELDS, coherence._DISTANCES):
        with pytest.raises(coherence.CrossCheckError) as exc:
            coherence._reports(rhos, 2.0, fields)
        assert exc.value.index == 2 * coherence.REPORT_CHUNK + 3


@pytest.mark.parametrize("chunk", [1, 16, 32])
def test_report_chunk_size_moves_no_bit(monkeypatch, chunk, zz_sweep, zzz_sweep, state_failing_cross_check):
    # REPORT_CHUNK is a performance choice: every report value, and the index of a failed cross-check, is
    # the same at any chunk size
    mixed = np.array(seeded_states(np.random.default_rng(82), 70))
    stacks = [states.density(zz_sweep.ground_states), states.density(zzz_sweep.ground_states), mixed]
    kernels = (coherence.coherence_reports, lambda rhos, base: coherence._reports(rhos, base, RATIO_FIELDS))

    def all_reports():
        return [np.array(kernel(rhos, base)) for rhos in stacks for base in (2.0, math.e) for kernel in kernels]

    want = all_reports()
    monkeypatch.setattr(coherence, "REPORT_CHUNK", chunk)
    got = all_reports()
    assert len(got) == 12 and all(same_bits(a, b) for a, b in zip(got, want))
    # in the third 32-state chunk; the state fails the pair (rho, pi(rho)), which both kernels score
    mixed[67] = state_failing_cross_check
    for kernel in kernels:
        with pytest.raises(coherence.CrossCheckError) as exc:
            kernel(mixed, 2.0)
        assert exc.value.index == 67


def test_subset_kernel_skips_the_cross_check_of_a_distance_left_out(monkeypatch):
    # a dephased rho with a -5e-7 eigenvalue fails only C_T's cross-check, which ratios neither scores nor checks
    rhos = np.array(seeded_states(np.random.default_rng(80), coherence.REPORT_CHUNK + 5))
    want = np.array(coherence.coherence_reports(rhos))[:, RATIO_ROW]
    dephased = coherence._dephased
    planted = rhos[coherence.REPORT_CHUNK + 2]

    def plant(m):
        got = dephased(m)
        got.reshape(-1, 8, 8)[(m.reshape(-1, 8, 8) == planted).all(axis=(1, 2)), 0, 0] = -5e-7
        return got

    monkeypatch.setattr(coherence, "_dephased", plant)
    with pytest.raises(coherence.CrossCheckError, match="qjsd cross-check failed") as exc:
        coherence.coherence_reports(rhos)
    assert exc.value.index == coherence.REPORT_CHUNK + 2
    assert same_bits(np.array(coherence._reports(rhos, 2.0, RATIO_FIELDS))[:, RATIO_ROW], want)


# the test_chunked_reports_* tests score stacks of more than one chunk, each chunk through its
# four stages (stacks, 4x4 eigh, 8x8 eigh, scores) in the order coherence_reports states


@pytest.mark.parametrize("base", [2.0, math.e])
def test_chunked_reports_match_chunk_by_chunk_bitwise(base, no_thread, stacks_over_many_chunks):
    for rhos in stacks_over_many_chunks:
        got = coherence.coherence_reports(rhos, base)
        want = chunk_by_chunk(rhos, base)
        assert same_bits(np.array(got), np.array(want))


def test_chunked_reports_raise_no_numpy_warning_or_error(no_thread, stacks_over_many_chunks):
    # every floating-point event in the stacks and the scores would raise
    for rhos in stacks_over_many_chunks:
        want = coherence.coherence_reports(rhos)
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            got = coherence.coherence_reports(rhos)
        assert same_bits(np.array(got), np.array(want))


@pytest.mark.parametrize("half", ["small", "large"])
def test_chunked_reports_raise_the_first_failure_in_serial_order(monkeypatch, state_failing_cross_check, half):
    # chunk 1 fails its cross-check, in its patched 4x4 pairs or in its 8x8 pairs, and chunk 2's stacks would raise
    rhos = np.array(seeded_states(np.random.default_rng(73), 6 * coherence.REPORT_CHUNK))
    report_stacks, qjsd_pairs = coherence._report_stacks, coherence._qjsd_pairs
    fail = {"stacks": True, "scores": True}
    # _report_stacks runs once per chunk; scored holds (chunk, matrix size) of each _qjsd_pairs call
    prepared, scored = [], []

    def stacks(rho, *args):
        prepared.append(len(prepared))
        if fail["stacks"] and len(prepared) == 3:
            raise ValueError("chunk 2's stacks")
        return report_stacks(rho, *args)

    def pairs(w, *args):
        scored.append((prepared[-1], w.shape[-1]))
        if fail["scores"] and half == "small" and scored[-1] == (1, 4):
            raise coherence.CrossCheckError("chunk 1's 4x4 pairs", 5)
        return qjsd_pairs(w, *args)

    if half == "large":
        rhos[coherence.REPORT_CHUNK + 5] = state_failing_cross_check
    monkeypatch.setattr(coherence, "_report_stacks", stacks)
    monkeypatch.setattr(coherence, "_qjsd_pairs", pairs)
    until_failure = [(0, 4), (0, 8), (1, 4)] + ([(1, 8)] if half == "large" else [])
    with pytest.raises(coherence.CrossCheckError) as exc:
        coherence.coherence_reports(rhos)
    # the index is shifted once, and no stacks after the failing chunk's were built
    assert exc.value.index == coherence.REPORT_CHUNK + 5
    assert (prepared, scored) == ([0, 1], until_failure)
    fail["stacks"] = False
    prepared.clear()
    scored.clear()
    with pytest.raises(coherence.CrossCheckError) as exc:
        coherence.coherence_reports(rhos)
    assert exc.value.index == coherence.REPORT_CHUNK + 5
    assert (prepared, scored) == ([0, 1], until_failure)
    # with chunk 1 sound, chunk 2's stacks fail before its eigh or scores
    fail.update(stacks=True, scores=False)
    rhos[coherence.REPORT_CHUNK + 5] = rhos[4]
    prepared.clear()
    scored.clear()
    with pytest.raises(ValueError, match="^chunk 2's stacks$"):
        coherence.coherence_reports(rhos)
    assert (prepared, scored) == ([0, 1, 2], [(0, 4), (0, 8), (1, 4), (1, 8)])


def test_chunked_reports_raise_a_failed_eigh_after_the_steps_before_it(monkeypatch, state_failing_cross_check):
    # the 6th eigh, chunk 2's 8x8 stack, fails
    rhos = np.array(seeded_states(np.random.default_rng(78), 5 * coherence.REPORT_CHUNK))
    eigh, report_stacks, qjsd_pairs = qmat._eigh, coherence._report_stacks, coherence._qjsd_pairs
    # _report_stacks runs once per chunk; scored holds (chunk, matrix size) of each _qjsd_pairs call
    calls, prepared, scored = [], [], []

    def failing(a, vectors=True):
        calls.append(len(calls))
        if len(calls) == 6:
            raise np.linalg.LinAlgError("chunk 2's 8x8 eigh")
        return eigh(a, vectors)

    def stacks(rho, *args):
        prepared.append(len(prepared))
        return report_stacks(rho, *args)

    def pairs(w, *args):
        scored.append((prepared[-1], w.shape[-1]))
        return qjsd_pairs(w, *args)

    monkeypatch.setattr(qmat, "_eigh", failing)
    monkeypatch.setattr(coherence, "_report_stacks", stacks)
    monkeypatch.setattr(coherence, "_qjsd_pairs", pairs)
    with pytest.raises(np.linalg.LinAlgError, match="^chunk 2's 8x8 eigh$"):
        coherence.coherence_reports(rhos)
    # chunks 0 and 1 were scored before it; chunk 2 was never scored, and chunk 3's stacks never built
    assert (prepared, scored) == ([0, 1, 2], [(0, 4), (0, 8), (1, 4), (1, 8)])
    # an earlier failure, chunk 1's cross-check, wins: chunk 2's eigh never runs, and no exception is chained
    rhos[coherence.REPORT_CHUNK + 5] = state_failing_cross_check
    calls.clear()
    with pytest.raises(coherence.CrossCheckError) as exc:
        coherence.coherence_reports(rhos)
    assert exc.value.index == coherence.REPORT_CHUNK + 5
    assert exc.value.__context__ is None
    assert calls == [0, 1, 2, 3]


def test_chunked_reports_raise_the_huge_state_failure_of_the_state_alone():
    # at 1e110 the 4x4 stack is finite and would fail its cross-check, but pi(rho) overflows and the
    # 8x8 eigh fails to converge first: a chunk runs both eigh calls before its scores
    huge = np.full((8, 8), 1e110)
    rhos = np.array(seeded_states(np.random.default_rng(74), coherence.REPORT_CHUNK + 3))
    rhos[coherence.REPORT_CHUNK + 1] = huge
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(np.linalg.LinAlgError) as alone:
            coherence.coherence_reports(huge[None])
        with pytest.raises(np.linalg.LinAlgError) as among:
            coherence.coherence_reports(rhos)
    assert type(among.value) is type(alone.value)
    assert str(among.value) == str(alone.value) == "Eigenvalues did not converge"


def test_chunked_reports_keep_the_callers_numpy_and_warning_settings(no_thread):
    huge = np.full((8, 8), 1e160)
    rhos = np.array(seeded_states(np.random.default_rng(75), coherence.REPORT_CHUNK + 3))
    rhos[coherence.REPORT_CHUNK + 1] = huge
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError) as alone:
            coherence.coherence_reports(huge[None])
        with pytest.raises(FloatingPointError) as among:
            coherence.coherence_reports(rhos)
    assert str(among.value) == str(alone.value) == "overflow encountered in multiply"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning) as alone:
            coherence.coherence_reports(huge[None])
        with pytest.raises(RuntimeWarning) as among:
            coherence.coherence_reports(rhos)
    assert str(among.value) == str(alone.value) == "overflow encountered in multiply"


def test_chunked_reports_leave_no_thread_and_run_every_eigh_on_the_calling_thread(
    monkeypatch, no_thread, state_failing_cross_check
):
    rhos = np.array(seeded_states(np.random.default_rng(76), 2 * coherence.REPORT_CHUNK + 5))
    threads = threading.active_count()
    reports = coherence.coherence_reports(rhos)
    assert threading.active_count() == threads
    idents = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        idents.append(threading.get_ident())
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(coherence.np.linalg, "eigh", recorded)
    assert coherence.coherence_reports(rhos) == reports
    # the eigh calls per chunk are counted in test_report_kernel_builds_no_intermediate_through_the_checked_api
    assert set(idents) == {threading.get_ident()}
    rhos[coherence.REPORT_CHUNK + 2] = state_failing_cross_check
    with pytest.raises(coherence.CrossCheckError):
        coherence.coherence_reports(rhos)
    assert threading.active_count() == threads


def test_reports_reject_bad_stacks():
    with pytest.raises(ValueError):
        coherence.coherence_reports(np.full((2, 8, 8), np.nan))
    with pytest.raises(ValueError):
        coherence.coherence_reports(np.zeros((2, 4, 4)))
    with pytest.raises(ValueError):
        coherence.coherence_reports(np.eye(8) / 8)


REPORT_LAYOUT = [
    ("c_total", "C_T"), ("c_global", "C_G"), ("c_local", "C_L"), ("c_absolute", "C_A"),
    ("c_1_23", "C_1_23"), ("c_2_3", "C_2_3"), ("c_abs_1_23", "C_A_1_23"), ("c_1_2", "C_1_2"),
    ("c_1_3", "C_1_3"), ("monogamy_m", "M"), ("slack_eq7", "slack7"), ("slack_eq10a", "slack10a"),
    ("slack_eq10b", "slack10b"), ("slack_eq11", "slack11"),
]


def test_report_row_column_order():
    report_type = coherence.CoherenceReport
    fields, columns = zip(*REPORT_LAYOUT)
    assert (report_type._fields, coherence.REPORT_COLUMNS) == (fields, columns)
    rep = coherence.coherence_report(states.density(states.make_state("G")))
    assert list(rep) == [getattr(rep, field) for field, _ in REPORT_LAYOUT]
    assert (report_type.__name__, report_type.__module__) == ("CoherenceReport", "tricoh.coherence")
    assert inspect.getdoc(report_type) == (
        "All coherence quantities of one three-qubit state (log-base units).\n\n"
        "Fields are in ``REPORT_COLUMNS`` order, so a report is its output row.")
    back = pickle.loads(pickle.dumps(rep))
    assert type(back) is report_type and back == rep


def test_report_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        coherence.coherence_report(np.eye(4) / 4)


def test_report_log_base_scaling():
    rng = np.random.default_rng(62)
    rho = random_mixed(rng, 3)
    r2 = coherence.coherence_report(rho, base=2.0)
    re = coherence.coherence_report(rho, base=math.e)
    scale = math.sqrt(math.log(2.0))
    assert abs(re.c_total - r2.c_total * scale) < 1e-9
    assert abs(re.c_global - r2.c_global * scale) < 1e-9


def test_cg_exceeds_ct_at_large_coupling(zz_reports):
    diffs = [r.c_global - r.c_total for r in zz_reports]
    assert max(diffs) > 0.01


def test_embed_all_zero_report():
    rep = coherence.coherence_report(states.density(states.basis_state("000")))
    *points, residual = coherence.embed_tetrahedron(rep)
    assert [np.shape(point) for point in points] == [(3,)] * 4
    for point in points:
        assert np.abs(np.asarray(point)).max() < 1e-6
    assert residual < 1e-6


def test_embed_collinear_boundary():
    rep = coherence.CoherenceReport(
        c_total=0.5, c_global=0.2, c_local=0.5, c_absolute=0.3,
        c_1_23=0.0, c_2_3=0.2, c_abs_1_23=0.3, c_1_2=0.1, c_1_3=0.1,
        monogamy_m=0.2, slack_eq7=0.4, slack_eq10a=0.0, slack_eq10b=0.4, slack_eq11=0.0,
    )
    tet = coherence.embed_tetrahedron(rep)
    # law-of-cosines boundary: pi lands on the negative x-axis
    assert abs(tet.pi_product[0] - (-0.2)) < 1e-9
    assert abs(tet.pi_product[1]) < 1e-9
    assert tet.residual <= 1e-9


def test_embed_zero_absolute_coherence_places_pi_on_x_axis():
    # with c_absolute = 0 the rho-pid axis has no direction, so pi(rho) and the
    # 1|23 split are placed along +x at their distances from rho
    rep = coherence.CoherenceReport(
        c_total=0.5, c_global=0.5, c_local=0.5, c_absolute=0.0,
        c_1_23=0.2, c_2_3=0.3, c_abs_1_23=0.2, c_1_2=0.0, c_1_3=0.0,
        monogamy_m=0.0, slack_eq7=0.0, slack_eq10a=0.0, slack_eq10b=0.0, slack_eq11=0.0,
    )
    tet = coherence.embed_tetrahedron(rep)
    assert np.array_equal(tet.rho, np.zeros(3)) and np.array_equal(tet.pi_product_dephased, np.zeros(3))
    assert np.array_equal(tet.pi_product, [0.5, 0.0, 0.0])
    assert np.array_equal(tet.split_1_23, [0.2, 0.0, 0.0])
    assert tet.residual <= 1e-15


def test_embed_places_pi_at_a_global_coherence_just_above_the_embedding_floor():
    # c_global = 1.5e-9 clears EMBED_EPS, so pi(rho) lies at that distance from rho, at a right angle to the
    # rho-pid axis (C_A = C_L = 1), rather than collapsing onto rho at the origin
    rep = coherence.CoherenceReport(
        c_total=1.0, c_global=1.5e-9, c_local=1.0, c_absolute=1.0,
        c_1_23=0.0, c_2_3=0.0, c_abs_1_23=1.0, c_1_2=0.0, c_1_3=0.0,
        monogamy_m=0.0, slack_eq7=0.0, slack_eq10a=0.0, slack_eq10b=0.0, slack_eq11=0.0,
    )
    tet = coherence.embed_tetrahedron(rep)
    assert tet.pi_product.tolist() == [0.0, 1.5e-9, 0.0]
    assert np.linalg.norm(tet.pi_product - tet.rho) == 1.5e-9


EMBED_DISTANCES = [
    ("rho", "pi_product_dephased", "c_absolute"),
    ("rho", "pi_product", "c_global"),
    ("pi_product", "pi_product_dephased", "c_local"),
    ("rho", "split_1_23", "c_1_23"),
    ("split_1_23", "pi_product_dephased", "c_abs_1_23"),
    ("split_1_23", "pi_product", "c_2_3"),
]


def embedding_errors(rep):
    """The embedding of ``rep`` and the mismatch of each of its six point distances with its coherence."""
    tet = coherence.embed_tetrahedron(rep)
    errors = [abs(np.linalg.norm(getattr(tet, a) - getattr(tet, b)) - getattr(rep, c)) for a, b, c in EMBED_DISTANCES]
    return tet, errors


def test_embed_g_state_distances():
    tet, errors = embedding_errors(coherence.coherence_report(states.density(states.make_state("G"))))
    assert max(errors) < 1e-6
    assert tet.residual < 1e-6


def test_embed_reproduces_all_six_distances_off_the_plane():
    # the default geometry couplings past 0 and a seeded mixed state all place the 1|23 split point off
    # the plane of the other three (z > 0); at J = 0 that point is rho itself, and the zzz report there
    # is rounding noise about exact zeros, which no embedding reproduces to 1e-12
    reps = []
    for tag in models.MODEL_TAGS:
        js = [j for j in models.model(tag).geometry_j if j > 0]
        reps += coherence.coherence_reports(states.density(qmat.ground_states(models.hamiltonian(tag, js))[1]))
    reps.append(coherence.coherence_report(random_mixed(np.random.default_rng(73), 3)))
    for rep in reps:
        tet, errors = embedding_errors(rep)
        assert tet.split_1_23[2] > 1e-3
        assert max(errors) < 1e-12 and tet.residual < 1e-12


def test_embed_product_state_collapses_to_x_axis():
    rep = coherence.coherence_report(states.density(states.sign_product_state("---")))
    tet = coherence.embed_tetrahedron(rep)
    for point in (tet.rho, tet.pi_product_dephased, tet.pi_product, tet.split_1_23):
        assert abs(point[1]) < 1e-6 and abs(point[2]) < 1e-6
    assert abs(tet.pi_product_dephased[0] - rep.c_absolute) < 1e-9


@pytest.mark.parametrize("base", [math.nan, math.inf, 1.0, 0.5])
@pytest.mark.parametrize("name", ["qjsd", "von_neumann_entropy", "relative_entropy", "coherence_reports"])
def test_log_base_must_be_finite_and_exceed_1(name, base):
    rho = states.density(states.make_state("W001"))
    args = {"qjsd": (rho, np.eye(8) / 8), "von_neumann_entropy": (rho,),
            "relative_entropy": (rho, np.eye(8) / 8), "coherence_reports": (rho[None],)}[name]
    with pytest.raises(ValueError, match="^" + re.escape(f"log base must lie in (1, inf), got {base}") + "$"):
        getattr(coherence, name)(*args, base=base)
