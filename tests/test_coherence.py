import math

import numpy as np
import pytest

from tricoh import coherence, qmat, states


def random_mixed(rng, n_qubits):
    # partial trace of a doubled-system pure state gives a full-rank mixed state
    dim = 2 ** n_qubits
    psi = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
    psi = psi / np.linalg.norm(psi)
    rho = psi.reshape(dim, dim)
    return rho @ rho.conj().T


def random_unitary(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


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
    for value in coherence.report_values(rep):
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
    return np.array(coherence.report_values(report)).view(np.int64)


def test_reports_match_single_reports_bitwise():
    rhos = seeded_states(np.random.default_rng(63), 37)
    assert len(rhos) > 2 * coherence.REPORT_CHUNK
    batch = coherence.coherence_reports(np.array(rhos))
    assert len(batch) == len(rhos)
    for rho, rep in zip(rhos, batch):
        np.testing.assert_array_equal(report_bits(rep), report_bits(coherence.coherence_report(rho)))


def test_reports_pinned_rounding_noise(zz_reports, zzz_reports):
    # J = 0 rows: the distances are square roots of ~1e-16 rounding noise, so
    # they change with any change to the float operations on each matrix
    zzz = dict(zip(coherence.REPORT_COLUMNS, coherence.report_values(zzz_reports[0])))
    assert f"{zzz['C_G']:.9g}" == "2.53117621e-08"
    assert f"{zzz['C_1_3']:.9g}" == f"{zzz['C_2_3']:.9g}" == "1.55002254e-08"
    assert f"{zzz['slack11']:.9g}" == "-9.81153669e-09"
    assert f"{zz_reports[0].slack_eq7:.9g}" == "-1.38777878e-17"


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
        for value in coherence.report_values(rep)[:9]:
            assert 0.0 <= value <= 1.0
        mirrored = dict(vars(twin), c_1_2=twin.c_1_3, c_1_3=twin.c_1_2)
        for name, value in vars(rep).items():
            assert abs(value - mirrored[name]) < 1e-9, name
            assert abs(value - getattr(turned, name)) < 1e-10, name


def test_cross_check_failure_raises(monkeypatch):
    monkeypatch.setattr(coherence, "CROSS_CHECK_TOL", -1.0)
    rho = seeded_states(np.random.default_rng(65), 1)[0]
    with pytest.raises(ArithmeticError):
        coherence.coherence_reports([rho])
    with pytest.raises(ArithmeticError):
        coherence.qjsd(rho, np.eye(8) / 8)


def test_reports_reject_bad_stacks():
    with pytest.raises(ValueError):
        coherence.coherence_reports(np.full((2, 8, 8), np.nan))
    with pytest.raises(ValueError):
        coherence.coherence_reports(np.zeros((2, 4, 4)))
    with pytest.raises(ValueError):
        coherence.coherence_reports(np.eye(8) / 8)


def test_report_values_column_order():
    rep = coherence.coherence_report(states.density(states.make_state("G")))
    vals = coherence.report_values(rep)
    assert len(vals) == len(coherence.REPORT_COLUMNS)
    by_name = dict(zip(coherence.REPORT_COLUMNS, vals))
    assert by_name["C_T"] == rep.c_total
    assert by_name["C_A_1_23"] == rep.c_abs_1_23
    assert by_name["M"] == rep.monogamy_m
    assert by_name["slack10b"] == rep.slack_eq10b


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
    tet = coherence.embed_tetrahedron(rep)
    for point in (tet.rho, tet.pi_product_dephased, tet.pi_product, tet.split_1_23):
        assert np.abs(np.asarray(point)).max() < 1e-6
    assert tet.residual < 1e-6


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


def test_embed_g_state_distances():
    rep = coherence.coherence_report(states.density(states.make_state("G")))
    tet = coherence.embed_tetrahedron(rep)
    points = {name: np.asarray(p) for name, p in (
        ("rho", tet.rho),
        ("pid", tet.pi_product_dephased),
        ("pi", tet.pi_product),
        ("split", tet.split_1_23),
    )}
    expected = {
        ("rho", "pid"): rep.c_absolute,
        ("rho", "pi"): rep.c_global,
        ("pi", "pid"): rep.c_local,
        ("rho", "split"): rep.c_1_23,
        ("split", "pid"): rep.c_abs_1_23,
        ("split", "pi"): rep.c_2_3,
    }
    for (a, b), want in expected.items():
        got = np.linalg.norm(points[a] - points[b])
        assert abs(got - want) < 1e-6
    assert tet.residual < 1e-6


def test_embed_product_state_collapses_to_x_axis():
    rep = coherence.coherence_report(states.density(states.sign_product_state("---")))
    tet = coherence.embed_tetrahedron(rep)
    for point in (tet.rho, tet.pi_product_dephased, tet.pi_product, tet.split_1_23):
        assert abs(point[1]) < 1e-6 and abs(point[2]) < 1e-6
    assert abs(tet.pi_product_dephased[0] - rep.c_absolute) < 1e-9
