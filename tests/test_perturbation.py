import math

import numpy as np
import pytest

from tricoh import models, perturbation, qmat, states

EPS = np.finfo(float).eps


def exact_ground_fidelity(tag, params, target):
    h = models.hamiltonian(tag, getattr(params, models.model(tag).coupling), params)
    _, g, _ = qmat.ground_states(h)
    return qmat.state_fidelity(states.density(g), states.density(target))


def test_split_sums_to_full_hamiltonian():
    p = models.ModelParams(j3=3.1)
    split = perturbation.zzz_split(p)
    assert np.abs(split.h0 + split.v - models.hamiltonian("zzz", p.j3, p)).max() < 1e-12


def test_zz_ground_zeroth_order_limit():
    psi = perturbation.zz_first_order_ground(1e-12, -2.0, 2.0)
    overlap = abs(np.vdot(states.make_state("W001"), psi))
    assert abs(overlap - 1.0) < 1e-10


def test_zz_ground_close_to_exact():
    psi = perturbation.zz_first_order_ground(0.1, -2.0, 2.0)
    f = exact_ground_fidelity("zz", models.ModelParams(j2=2.0), psi)
    assert f >= 0.999


def test_zz_ground_w110_amplitude():
    psi = perturbation.zz_first_order_ground(0.1, -2.0, 2.0)
    a_main = np.vdot(states.make_state("W001"), psi)
    a_w110 = np.vdot(states.make_state("W110"), psi)
    # unnormalized expansion coefficient omega_x / omega_z
    assert abs(a_w110 / a_main - (-0.05)) < 1e-12


def test_zz_ground_resonance_error():
    with pytest.raises(ValueError):
        perturbation.zz_first_order_ground(0.1, -2.0, 1.0)
    with pytest.raises(ValueError):
        perturbation.zz_fidelity_formula(0.1, -2.0, 1.0)


def test_zz_formula_values():
    got = perturbation.zz_fidelity_formula(0.1, -2.0, 2.0)
    want = 1.0 / (1.0 + 0.05 ** 2 + 0.75 * 0.05 ** 2)
    assert abs(got - want) < 1e-12
    assert abs(got - 0.995644) < 1e-6
    assert perturbation.zz_fidelity_formula(0.0, -2.0, 2.0) == 1.0
    large = perturbation.zz_fidelity_formula(0.1, -2.0, 1e9)
    assert abs(large - 1.0 / (1.0 + 0.05 ** 2)) < 1e-9


def test_zz_formula_error_budget():
    # first-order error bound against exact diagonalization
    for omega_x in (0.04, 0.1):
        for j2 in (1.5, 1.75, 2.0):
            p = models.ModelParams(omega_x=omega_x, j2=j2)
            exact = exact_ground_fidelity("zz", p, states.make_state("W001"))
            formula = perturbation.zz_fidelity_formula(omega_x, -2.0, j2)
            assert abs(formula - exact) <= 5.0 * (omega_x / 2.0) ** 2


def test_zzz_ground_zeroth_order_limit():
    psi = perturbation.zzz_first_order_ground(1e-12, 5.0)
    overlap = abs(np.vdot(states.make_state("G"), psi))
    assert abs(overlap - 1.0) < 1e-10


def test_zzz_ground_close_to_exact():
    psi = perturbation.zzz_first_order_ground(0.1, 5.0)
    f = exact_ground_fidelity("zzz", models.ModelParams(j3=5.0), psi)
    assert f >= 0.9995


def test_zzz_ground_000_amplitude():
    psi = perturbation.zzz_first_order_ground(0.1, 5.0)
    a_main = np.vdot(states.make_state("G"), psi)
    a_000 = np.vdot(states.basis_state("000"), psi)
    assert abs(a_000 / a_main - (-0.015)) < 1e-12


def test_zzz_ground_rejects_zero_coupling():
    with pytest.raises(ValueError):
        perturbation.zzz_first_order_ground(0.1, 0.0)
    with pytest.raises(ValueError):
        perturbation.zzz_fidelity_formula(0.1, 0.0)


def test_zzz_formula_values():
    got = perturbation.zzz_fidelity_formula(0.1, 5.0)
    assert abs(got - 1.0 / (1.0 + 0.03 ** 2)) < 1e-12
    assert abs(got - 0.999101) < 1e-6
    assert perturbation.zzz_fidelity_formula(0.0, 5.0) == 1.0


@pytest.mark.parametrize("omega_x", [0.05, 0.3, -0.2])
def test_fidelity_formulas_are_overlaps_of_the_first_order_grounds(omega_x):
    # the closed forms already divide by the norm of the unnormalized expansion
    w001, g = states.make_state("W001"), states.make_state("G")
    for omega_z in (-1.0, -1.7, 0.8):
        for j in (0.1, 1.0, 2.5):
            psi = perturbation.zz_first_order_ground(omega_x, omega_z, j)
            want = abs(np.vdot(w001, psi)) ** 2
            assert abs(perturbation.zz_fidelity_formula(omega_x, omega_z, j) - want) < 1e-14
    for j in (0.2, 1.0, 3.0):
        psi = perturbation.zzz_first_order_ground(omega_x, j)
        assert abs(perturbation.zzz_fidelity_formula(omega_x, j) - abs(np.vdot(g, psi)) ** 2) < 1e-14


def test_zzz_formula_monotone_in_coupling():
    values = [perturbation.zzz_fidelity_formula(0.1, j3) for j3 in np.linspace(1.0, 5.0, 9)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_zzz_ground_fidelity_improves_with_coupling():
    # improvement saturates at float precision near J3=3, so allow epsilon slack
    fids = []
    for j3 in np.linspace(1.0, 5.0, 9):
        psi = perturbation.zzz_first_order_ground(0.1, j3)
        fids.append(exact_ground_fidelity("zzz", models.ModelParams(j3=j3), psi))
    assert all(b >= a - 1e-12 for a, b in zip(fids, fids[1:]))
    assert fids[-1] > fids[0]


def test_secular_recovers_g_state():
    split = perturbation.zzz_split(models.ModelParams(j3=5.0))
    result = perturbation.secular_solve(split)
    coeffs = np.asarray(result.coefficients)
    assert abs(coeffs[0] - math.sqrt(3) / 2) < 1e-9
    assert abs(coeffs[1] - 0.5) < 1e-9
    assert abs(np.sum(np.abs(coeffs) ** 2) - 1.0) < 1e-12
    # reconstructed subspace state is |G>
    psi = coeffs[0] * states.make_state("W001") + coeffs[1] * states.basis_state("111")
    assert abs(abs(np.vdot(states.make_state("G"), psi)) - 1.0) < 1e-9
    assert abs(result.energy_shift - (-2.25 * 0.1 ** 2 / 5.0)) < 1e-12
    assert not result.degenerate


def test_secular_solution_is_g_exactly():
    # the coefficients on (W001, 111) are those of G = (sqrt(3)|W001> + |111>)/2, the J -> infinity
    # limit of the zzz ground state cos(t/2) G - sin(t/2) e_+ with tan t = 3 omega_x / J
    split = perturbation.zzz_split(models.ModelParams(j3=5.0))
    coefficients = perturbation.secular_solve(split).coefficients
    assert np.abs(coefficients - [math.sqrt(3) / 2, 0.5]).max() <= 2 * EPS
    assert np.abs(np.column_stack(split.degenerate_subspace) @ coefficients - states.make_state("G")).max() <= 2 * EPS


def fourth_order_coefficients(tag, j, target, formula):
    """(exact - formula) / omega_x^4 as omega_x halves from 0.1, exact being the squared overlap |<target|g>|^2."""
    out = []
    for omega_x in (0.1, 0.05, 0.025, 0.0125):
        params = models.ModelParams(omega_x=omega_x, **{models.model(tag).coupling: j})
        _, g, _ = qmat.ground_states(models.hamiltonian(tag, j, params))
        out.append((abs(np.vdot(states.make_state(target), g)) ** 2 - formula(omega_x)) / omega_x ** 4)
    return np.array(out)


@pytest.mark.parametrize(("tag", "j", "limit"), [
    # the omega_x^4 term of the zzz block's closed form is (81/8) (omega_x / J)^4
    ("zzz", 5.0, 81 / 8 / 5.0 ** 4),
    # from 60-digit mpmath at omega_x = 1e-7: 1691/784 and 365/1024 to 11 digits
    ("zz", 1.5, 1691 / 784),
    ("zz", 2.0, 365 / 1024),
], ids=["zzz-5", "zz-1.5", "zz-2"])
def test_fidelity_formulas_are_squared_overlaps_to_fourth_order(tag, j, limit):
    # an amplitude would already be off at order omega_x^2, and these ratios would diverge
    if tag == "zz":
        got = fourth_order_coefficients(tag, j, "W001", lambda omega_x: perturbation.zz_fidelity_formula(omega_x, -2.0, j))
    else:
        got = fourth_order_coefficients(tag, j, "G", lambda omega_x: perturbation.zzz_fidelity_formula(omega_x, j))
    gaps = np.abs(got - limit)
    # the next term is of relative order omega_x^2, so each halving cuts the gap about fourfold
    assert np.all(gaps[1:] <= gaps[:-1] / 3)
    assert gaps[-1] <= 1e-3 * limit


def test_secular_zero_perturbation():
    split = perturbation.zzz_split(models.ModelParams(j3=5.0))
    zeroed = perturbation.PerturbationSplit(
        h0=split.h0, v=np.zeros_like(split.v), degenerate_subspace=split.degenerate_subspace
    )
    result = perturbation.secular_solve(zeroed)
    assert abs(result.energy_shift) < 1e-15
    assert result.degenerate


def test_secular_two_level_toy():
    # nondegenerate "subspace" of size 1: shift is the textbook -|V01|^2 / gap
    delta = 0.8
    g = 0.13
    h0 = np.diag([0.0, delta]).astype(complex)
    v = np.array([[0.0, g], [g, 0.0]], dtype=complex)
    split = perturbation.PerturbationSplit(h0=h0, v=v, degenerate_subspace=[np.array([1.0, 0.0], dtype=complex)])
    result = perturbation.secular_solve(split)
    assert abs(result.energy_shift - (-g * g / delta)) < 1e-12


def test_secular_rejects_bad_subspace():
    h0 = np.diag([0.0, 1.0]).astype(complex)
    v = np.zeros((2, 2), dtype=complex)
    not_eigen = [np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)]
    with pytest.raises(ValueError):
        perturbation.secular_solve(perturbation.PerturbationSplit(h0=h0, v=v, degenerate_subspace=not_eigen))
    with pytest.raises(ValueError):
        perturbation.secular_solve(perturbation.PerturbationSplit(h0=h0, v=v, degenerate_subspace=[]))
    # |1> shares the subspace's energy, lies outside it, and V couples the two
    h0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    v = np.array([[0.0, 0.2, 0.0], [0.2, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    e0 = [np.array([1.0, 0.0, 0.0], dtype=complex)]
    with pytest.raises(ValueError, match=r"^vanishing denominator: V couples the subspace to degenerate states "
                                         r"outside it \(max coupling 2.000e-01\)$"):
        perturbation.secular_solve(perturbation.PerturbationSplit(h0=h0, v=v, degenerate_subspace=e0))
    # a split always names its subspace
    with pytest.raises(TypeError, match="degenerate_subspace"):
        perturbation.PerturbationSplit(h0=h0, v=v)


def test_secular_accepts_a_perturbation_that_couples_states_inside_the_subspace():
    # h0 has the two-fold level 0 and the levels 1 and 2.5, in a seeded random eigenbasis u; V couples the two
    # subspace states to each other as well as to the states outside the shell, which the secular matrix ignores
    rng = np.random.default_rng(11)
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    h0 = u @ np.diag([0.0, 0.0, 1.0, 2.5]) @ u.conj().T
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v = 0.1 * (a + a.conj().T)
    sub, out = u[:, :2], u[:, 2:]
    assert abs(sub[:, 0].conj() @ v @ sub[:, 1]) > 0.01
    result = perturbation.secular_solve(perturbation.PerturbationSplit(h0=h0, v=v, degenerate_subspace=list(sub.T)))
    b = out.conj().T @ v @ sub
    want_w, want_c = np.linalg.eigh(b.conj().T @ np.diag(1.0 / (0.0 - np.array([1.0, 2.5]))) @ b)
    assert abs(result.energy_shift - want_w[0]) <= 1e-12
    assert abs(abs(np.vdot(want_c[:, 0], result.coefficients)) - 1.0) <= 1e-12
    assert not result.degenerate


def loop_secular(split):
    """Lowest eigenpair of A_mn = sum_k <m|V|k><k|V|n> / (E_g - E_k), summed state by state."""
    w, v = qmat.eig_hermitian(split.h0)
    sub = split.degenerate_subspace
    e_g = float(np.real(np.vdot(sub[0], split.h0 @ sub[0])))
    a = np.zeros((len(sub), len(sub)), dtype=complex)
    for k in np.flatnonzero(np.abs(w - e_g) > perturbation.SECULAR_ENERGY_TOL):
        vk = v[:, k]
        amps = np.array([np.vdot(vk, split.v @ s) for s in sub])
        a += np.outer(amps.conj(), amps) / (e_g - w[k])
    return qmat.eig_hermitian(a)


@pytest.mark.parametrize("omega_x", [0.05, 0.1, 0.3])
def test_secular_matches_state_by_state_sum(omega_x):
    # the matrix form sums in another order, so it may move the last bits
    tol = 4 * np.finfo(float).eps
    for j3 in np.linspace(0.5, 5.0, 10):
        split = perturbation.zzz_split(models.ModelParams(omega_x=omega_x, j3=j3))
        got, want = perturbation.secular_solve(split), loop_secular(split)
        want_w, want_v = want
        assert abs(got.energy_shift - want_w[0]) <= tol * max(1.0, abs(want_w[0]))
        np.testing.assert_allclose(got.coefficients, want_v[:, 0], rtol=0.0, atol=tol)
        assert np.all(got.coefficients.imag == 0.0)


W001, KET111 = states.make_state("W001"), states.basis_state("111")
NOT_ORTHONORMAL = {
    "scaled": [W001, 2 * KET111],
    "non_orthogonal": [W001, (W001 + KET111) / math.sqrt(2)],
    "repeated": [W001, W001],
}


def test_secular_takes_an_array_subspace():
    split = perturbation.zzz_split(models.ModelParams(j3=5.0))
    want = perturbation.secular_solve(split)
    as_array = perturbation.PerturbationSplit(h0=split.h0, v=split.v,
                                              degenerate_subspace=np.array(split.degenerate_subspace))
    got = perturbation.secular_solve(as_array)
    assert got.energy_shift == want.energy_shift and got.degenerate == want.degenerate
    assert got.coefficients.tobytes() == want.coefficients.tobytes()
    empty = perturbation.PerturbationSplit(h0=split.h0, v=split.v, degenerate_subspace=np.empty((0, 8)))
    with pytest.raises(ValueError, match="^secular_solve requires a nonempty degenerate subspace$"):
        perturbation.secular_solve(empty)


def test_secular_checks_the_eigenstate_residual_of_each_subspace_state():
    # both states leak sin(theta) into |2>, so each one's residual is about theta, while their two residuals
    # together reach sqrt(2) theta in that one component: the tolerance bounds each state's residual
    h0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    v = 0.1 * np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]], dtype=complex)

    def leaky(theta):
        c, s = math.cos(theta), math.sin(theta)
        sub = [np.array([c, 0.0, s], dtype=complex), np.array([0.0, c, s], dtype=complex)]
        return perturbation.PerturbationSplit(h0=h0, v=v, degenerate_subspace=sub)

    result = perturbation.secular_solve(leaky(0.8 * perturbation.SECULAR_ENERGY_TOL))
    assert abs(result.energy_shift - (-0.02)) < 1e-12
    with pytest.raises(ValueError, match=r"not an h0 eigenstate at energy .* \(residual 1.200e-08\)$"):
        perturbation.secular_solve(leaky(1.2 * perturbation.SECULAR_ENERGY_TOL))


@pytest.mark.parametrize("name", NOT_ORTHONORMAL)
def test_secular_rejects_non_orthonormal_basis(name):
    # without the Gram check these gave shifts -0.00843, -0.00758 and -0.0070 where the true one is -0.0045
    split = perturbation.zzz_split(models.ModelParams(j3=5.0))
    bad = perturbation.PerturbationSplit(h0=split.h0, v=split.v, degenerate_subspace=NOT_ORTHONORMAL[name])
    with pytest.raises(ValueError, match="not orthonormal"):
        perturbation.secular_solve(bad)


def test_secular_accepts_a_rotated_orthonormal_basis():
    split = perturbation.zzz_split(models.ModelParams(j3=5.0))
    rotated = [(W001 + KET111) / math.sqrt(2), (W001 - KET111) / math.sqrt(2)]
    result = perturbation.secular_solve(
        perturbation.PerturbationSplit(h0=split.h0, v=split.v, degenerate_subspace=rotated)
    )
    assert abs(result.energy_shift - (-2.25 * 0.1 ** 2 / 5.0)) < 1e-12


@pytest.mark.parametrize("call, message", [
    (lambda: perturbation.zz_fidelity_formula(0.1, 0.0, 1.0), "omega_z must be nonzero"),
    (lambda: perturbation.zz_first_order_ground(0.1, 0.0, 1.0), "omega_z must be nonzero"),
    (lambda: perturbation.zz_fidelity_formula(0.1, -2.0, math.nan), "j2 must be finite, got nan"),
    (lambda: perturbation.zz_first_order_ground(math.inf, -2.0, 1.0), "omega_x must be finite, got inf"),
    (lambda: perturbation.zzz_fidelity_formula(0.1, math.nan), r"j3 must lie in \(0, inf\), got nan"),
    (lambda: perturbation.zzz_fidelity_formula(0.1, math.inf), r"j3 must lie in \(0, inf\), got inf"),
    (lambda: perturbation.zzz_first_order_ground(math.nan, 1.0), "omega_x must be finite, got nan"),
    (lambda: perturbation.zz_fidelity_formula(0.1, 1e-200, 1.0), r"omega_x/omega_z = 1e\+199 and .* overflow"),
    (lambda: perturbation.zz_first_order_ground(0.1, 1e-200, 1.0), r"omega_x/omega_z = 1e\+199 and .* overflow"),
    (lambda: perturbation.zzz_fidelity_formula(0.1, 1e-308), r"3\*omega_x/\(2\*j3\) = 1.5e\+307 overflows"),
    (lambda: perturbation.zzz_first_order_ground(0.1, 1e-308), r"3\*omega_x/\(2\*j3\) = 1.5e\+307 overflows"),
    (lambda: perturbation.zz_fidelity_formula("a", -2.0, 1.0), "^omega_x must be a real number, got 'a'$"),
    (lambda: perturbation.zzz_fidelity_formula(0.1, None), "^j3 must be a real number, got None$"),
], ids=["zz_fidelity_omega_z_0", "zz_ground_omega_z_0", "zz_fidelity_nan_j2", "zz_ground_inf_omega_x",
        "zzz_fidelity_nan_j3", "zzz_fidelity_inf_j3", "zzz_ground_nan_omega_x", "zz_fidelity_ratio_overflow",
        "zz_ground_ratio_overflow", "zzz_fidelity_ratio_overflow", "zzz_ground_ratio_overflow",
        "zz_fidelity_text_omega_x", "zzz_fidelity_none_j3"])
def test_closed_forms_reject_bad_arguments_by_name(recwarn, call, message):
    with pytest.raises(ValueError, match=message):
        call()
    assert len(recwarn) == 0
