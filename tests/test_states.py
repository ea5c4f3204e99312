import math

import numpy as np
import pytest

from tricoh import qmat, states


def test_basis_state():
    psi = states.basis_state("101")
    assert psi[5] == 1.0
    assert np.count_nonzero(psi) == 1


def test_w001_amplitudes():
    psi = states.make_state("W001")
    on = 1 / math.sqrt(3)
    for idx in range(8):
        want = on if idx in (1, 2, 4) else 0.0
        assert abs(psi[idx] - want) < 1e-12


def test_w110_amplitudes():
    psi = states.make_state("W110")
    on = 1 / math.sqrt(3)
    for idx in range(8):
        want = on if idx in (3, 5, 6) else 0.0
        assert abs(psi[idx] - want) < 1e-12


def test_g_amplitudes():
    psi = states.make_state("G")
    for idx in range(8):
        want = 0.5 if idx in (1, 2, 4, 7) else 0.0
        assert abs(psi[idx] - want) < 1e-12


def test_g_is_hadamard_of_ghz_minus():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    h3 = qmat.kron_all([h, h, h])
    ghz = states.make_state("GHZ-")
    overlap = np.vdot(states.make_state("G"), h3 @ ghz)
    assert abs(overlap - 1.0) < 1e-12


def test_sign_product_state():
    psi = states.sign_product_state("+-")
    want = qmat.kron_all([np.array([[1], [1]]) / math.sqrt(2), np.array([[1], [-1]]) / math.sqrt(2)])[:, 0]
    np.testing.assert_allclose(psi, want, atol=1e-12)


def test_make_state_norm_and_phase():
    for label in ("000", "W001", "W110", "GHZ-", "G", "---", "+++"):
        psi = states.make_state(label)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        top = psi[np.abs(psi).argmax()]
        assert abs(top.imag) < 1e-12 and top.real >= 0


def test_make_state_unknown_label():
    with pytest.raises(ValueError):
        states.make_state("W010x")


@pytest.mark.parametrize("call, message", [
    (lambda: states.basis_state("012"), "^invalid bit string '012'$"),
    (lambda: states.basis_state(""), "^invalid bit string ''$"),
    (lambda: states.sign_product_state("+x-"), "^invalid sign pattern '\\+x-'$"),
    (lambda: states.sign_product_state(""), "^invalid sign pattern ''$"),
], ids=["bad_bit", "empty_bits", "bad_sign", "empty_signs"])
def test_basis_and_sign_states_reject_bad_labels(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_make_pps_limits():
    psi = states.make_state("W001")
    np.testing.assert_allclose(states.make_pps(psi, 1.0), states.density(psi), atol=1e-15)
    np.testing.assert_allclose(states.make_pps(psi, 0.0), np.eye(8) / 8, atol=1e-15)


def test_make_pps_small_mu():
    mu = 1e-5
    rho = states.make_pps(states.basis_state("000"), mu)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert abs(np.linalg.eigvalsh(rho)[0] - (1 - mu) / 8) < 1e-15


def test_make_pps_rejects_bad_mu():
    psi = states.basis_state("0")
    with pytest.raises(ValueError):
        states.make_pps(psi, -0.1)
    with pytest.raises(ValueError):
        states.make_pps(psi, 1.1)


def test_marginals_product():
    rho = states.density(states.basis_state("000"))
    for m in states.marginals(rho):
        np.testing.assert_allclose(m, np.diag([1.0, 0.0]), atol=1e-12)


def test_marginals_w_state():
    rho = states.density(states.make_state("W001"))
    for m in states.marginals(rho):
        np.testing.assert_allclose(m, np.diag([2 / 3, 1 / 3]), atol=1e-12)


def test_marginals_maximally_mixed():
    for m in states.marginals(np.eye(8) / 8):
        np.testing.assert_allclose(m, np.eye(2) / 2, atol=1e-12)


def test_pi_product_fixed_point_on_products():
    rho1 = states.density(states.basis_state("0"))
    rho2 = np.diag([0.7, 0.3]).astype(complex)
    rho3 = states.density(states.sign_product_state("+"))
    rho = qmat.kron_all([rho1, rho2, rho3])
    np.testing.assert_allclose(states.pi_product(rho), rho, atol=1e-12)


def test_pi_product_w_eigenvalues():
    pi = states.pi_product(states.density(states.make_state("W001")))
    got = np.sort(np.linalg.eigvalsh(pi))
    want = np.sort([(2 / 3) ** a * (1 / 3) ** (3 - a) for a in (0, 1, 1, 1, 2, 2, 2, 3)])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_pi_product_trace_and_idempotence():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho).real
    pi = states.pi_product(rho)
    assert abs(np.trace(pi).real - 1.0) < 1e-12
    np.testing.assert_allclose(states.pi_product(pi), pi, atol=1e-12)


def test_split_1_23_fixed_point_across_cut():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    rho = qmat.kron(states.density(states.basis_state("0")), states.density(bell))
    np.testing.assert_allclose(states.split_1_23(rho), rho, atol=1e-12)


def test_split_1_23_w_marginal():
    split = states.split_1_23(states.density(states.make_state("W001")))
    rho1 = qmat.partial_trace(split, 3, [1])
    np.testing.assert_allclose(rho1, np.diag([2 / 3, 1 / 3]), atol=1e-12)
    assert abs(np.trace(split).real - 1.0) < 1e-12


def test_split_agrees_with_pi_product_on_full_products():
    rho = qmat.kron_all([np.diag([0.2, 0.8]), np.diag([0.9, 0.1]), np.diag([0.6, 0.4])]).astype(complex)
    np.testing.assert_allclose(states.split_1_23(rho), states.pi_product(rho), atol=1e-12)


def test_density_of_stack_matches_outer_bitwise():
    rng = np.random.default_rng(32)
    psis = rng.standard_normal((40, 8)) + 1j * rng.standard_normal((40, 8))
    rhos = states.density(psis)
    assert rhos.shape == (40, 8, 8)
    for psi, rho in zip(psis, rhos):
        assert rho.tobytes() == np.outer(psi, psi.conj()).tobytes()
        assert rho.tobytes() == states.density(psi).tobytes()
    assert states.density(psis.reshape(5, 8, 8)).shape == (5, 8, 8, 8)
