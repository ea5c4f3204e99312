import json
import math
import re
import sys

import numpy as np
import pytest
import scipy.linalg

from helpers import random_unitary, same_bits
from tricoh import adiabatic, cli, coherence, models, perturbation, qmat, states

SZ = np.diag([0.5, -0.5]).astype(complex)
SX = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
PAULI_X = np.array([[0, 1.0], [1.0, 0]], dtype=complex)


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def random_density(rng, dim, rank=None):
    rank = rank or dim
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_kron_identity():
    np.testing.assert_allclose(qmat.kron(np.eye(2), np.eye(2)), np.eye(4), atol=1e-15)


def test_kron_basis_bookkeeping():
    got = qmat.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    np.testing.assert_allclose(got, np.diag([0.0, 1.0, 0.0, 0.0]), atol=1e-15)


def test_kron_tensor_factor_spectrum():
    w = np.linalg.eigvalsh(qmat.kron(SZ, np.eye(2)))
    np.testing.assert_allclose(w, [-0.5, -0.5, 0.5, 0.5], atol=1e-12)


def test_kron_all():
    np.testing.assert_allclose(qmat.kron_all([SZ, np.eye(2)]), qmat.kron(SZ, np.eye(2)), atol=1e-15)


def test_partial_trace_product_state():
    rho = states.density(states.basis_state("00"))
    np.testing.assert_allclose(qmat.partial_trace(rho, 2, [1]), np.diag([1.0, 0.0]), atol=1e-12)


def test_partial_trace_bell_marginal():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    rho = states.density(bell)
    np.testing.assert_allclose(qmat.partial_trace(rho, 2, [1]), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_w_marginal():
    rho = states.density(states.make_state("W001"))
    np.testing.assert_allclose(qmat.partial_trace(rho, 3, [1]), np.diag([2 / 3, 1 / 3]), atol=1e-12)


def test_partial_trace_retrace_commutes():
    rng = np.random.default_rng(11)
    rho = random_density(rng, 8)
    via_two = qmat.partial_trace(qmat.partial_trace(rho, 3, [1, 2]), 2, [1])
    direct = qmat.partial_trace(rho, 3, [1])
    np.testing.assert_allclose(via_two, direct, atol=1e-12)


def test_partial_trace_kron_adjointness():
    rng = np.random.default_rng(12)
    a = random_density(rng, 4)
    b = random_density(rng, 2)
    got = qmat.partial_trace(qmat.kron(a, b), 3, [1, 2])
    np.testing.assert_allclose(got, a * np.trace(b), atol=1e-12)


def test_partial_trace_errors():
    rho = np.eye(8) / 8
    with pytest.raises(ValueError):
        qmat.partial_trace(rho, 2, [1])
    with pytest.raises(ValueError):
        qmat.partial_trace(rho, 3, [])
    with pytest.raises(ValueError):
        qmat.partial_trace(rho, 3, [4])


def test_dephase_diagonal_fixed_point():
    rho = np.diag([0.4, 0.6]).astype(complex)
    np.testing.assert_allclose(qmat.dephase(rho), rho, atol=1e-15)


def test_dephase_plus_state():
    plus = states.density(states.sign_product_state("+"))
    np.testing.assert_allclose(qmat.dephase(plus), np.eye(2) / 2, atol=1e-12)


def test_dephase_idempotent():
    rng = np.random.default_rng(13)
    rho = random_density(rng, 8)
    once = qmat.dephase(rho)
    np.testing.assert_allclose(qmat.dephase(once), once, atol=1e-15)


@pytest.mark.parametrize("dtype", [float, complex])
def test_hermitian_part_has_the_bits_of_the_sum_and_leaves_its_input_alone(dtype):
    m = np.random.default_rng(5).standard_normal((3, 4, 4, 2)) @ [1, 1j]
    m = m.real.astype(dtype) if dtype is float else m
    # signed zeros and an entry whose conjugate pair sums to -0.0
    m[0, 1, 2], m[0, 2, 1] = -0.0, complex(-0.0, 0.0) if dtype is complex else -0.0
    before = m.copy()
    h = qmat._sym(m)
    assert same_bits(m, before)
    assert same_bits(h, (m + m.conj().swapaxes(-1, -2)) / 2)


def test_eig_identity():
    w, v = qmat.eig_hermitian(np.eye(2, dtype=complex))
    np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(v, np.eye(2), atol=1e-12)


def test_eig_pauli_x():
    w, v = qmat.eig_hermitian(PAULI_X)
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    np.testing.assert_allclose(v[:, 0], minus, atol=1e-12)
    np.testing.assert_allclose(v[:, 1], plus, atol=1e-12)


def test_eig_diagonal_ising_ground_energy():
    h = models.hamiltonian("zz", 0.0, models.ModelParams(omega_x=0.0))
    w, _ = qmat.eig_hermitian(h)
    assert abs(w[0] - (-3.0)) < 1e-12


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(14)
    for dim in (2, 4, 8):
        h = random_hermitian(rng, dim)
        w, v = qmat.eig_hermitian(h)
        recon = v @ np.diag(w) @ v.conj().T
        assert np.abs(recon - h).max() <= 1e-9 * max(1.0, np.abs(h).max())
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-10
        assert np.all(np.diff(w) >= -1e-14)


def test_eig_deterministic_and_degenerate_basis():
    # repeated calls agree bit for bit, and a fully degenerate block
    # comes back in the canonical computational basis
    rng = np.random.default_rng(15)
    h = random_hermitian(rng, 8)
    wa, va = qmat.eig_hermitian(h)
    wb, vb = qmat.eig_hermitian(h)
    assert np.array_equal(wa, wb)
    assert np.array_equal(va, vb)
    _, v = qmat.eig_hermitian(np.eye(4, dtype=complex))
    np.testing.assert_allclose(v, np.eye(4), atol=1e-12)


def eig_clusters(h):
    """The degenerate eigenvector blocks ``eig_hermitian`` rebuilds for ``h``."""
    w, v = np.linalg.eigh(h)
    return [v[:, start:stop] for start, stop in qmat._clusters(w) if stop - start > 1]


def test_clusters_split_a_gap_of_exactly_the_degeneracy_tolerance():
    # a gap below DEGENERACY_TOL joins a cluster; a gap equal to it does not
    w = np.array([0.0, qmat.DEGENERACY_TOL, 1.0])
    assert list(qmat._clusters(w)) == [(0, 1), (1, 2), (2, 3)]
    assert list(qmat._clusters(np.array([0.0, qmat.DEGENERACY_TOL / 2, 1.0]))) == [(0, 2), (2, 3)]


def cluster_blocks():
    rng = np.random.default_rng(29)
    for dim in (2, 4, 8):
        for k in range(1, dim + 1):
            yield pytest.param(random_unitary(rng, dim)[:, :k], id=f"random-{dim}-{k}")
            # a span whose pivots all sit at the end of the index order
            yield pytest.param(np.eye(dim, dtype=complex)[:, dim - k:], id=f"tail-{dim}-{k}")
    for i, block in enumerate(eig_clusters(np.eye(4, dtype=complex))):
        yield pytest.param(block, id=f"identity4-{i}")
    zzz = models.hamiltonian("zzz", np.linspace(0.0, 5.0, 6), models.ModelParams(omega_x=0.0))
    for j, h in enumerate(zzz):
        for i, block in enumerate(eig_clusters(h)):
            yield pytest.param(block, id=f"zzz-no-transverse-{j}-{i}")


@pytest.mark.parametrize("block", list(cluster_blocks()))
def test_canonical_cluster_basis_spans_the_block(block):
    # the pivoting finds as many orthonormal columns as the block has, with
    # the block's projector, so eig_hermitian never needs the backend basis
    basis = qmat._canonical_cluster_basis(block)
    k = block.shape[1]
    assert basis.shape == block.shape
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(k), rtol=0, atol=1e-12)
    np.testing.assert_allclose(basis @ basis.conj().T, block @ block.conj().T, rtol=0, atol=1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        qmat.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_ground_state_diagonal_ising():
    h = models.hamiltonian("zz", 0.0, models.ModelParams(omega_x=0.0))
    w, g, degenerate = qmat.ground_states(h)
    assert abs(w[0] - (-3.0)) < 1e-12
    np.testing.assert_allclose(g, states.basis_state("000"), atol=1e-12)
    assert not degenerate


def test_ground_state_transverse_start():
    h = models.hamiltonian("zzz", 0.0)
    _, g, _ = qmat.ground_states(h)
    target = states.sign_product_state("---")
    assert abs(abs(np.vdot(target, g)) - 1.0) < 1e-12


def test_ground_state_single_qubit():
    w, g, _ = qmat.ground_states(-PAULI_Z)
    assert abs(w[0] - (-1.0)) < 1e-12
    np.testing.assert_allclose(g, [1.0, 0.0], atol=1e-12)


def test_ground_state_degenerate_flag():
    assert qmat.ground_states(np.eye(2, dtype=complex))[2] is True


def test_ground_states_of_one_matrix_is_row_0_of_its_stack():
    rng = np.random.default_rng(23)
    for h in (random_hermitian(rng, 8), models.hamiltonian("zzz", 1.3), np.eye(4, dtype=complex)):
        w, g, degenerate = qmat.ground_states(h)
        ws, gs, flags = qmat.ground_states(h[None])
        assert (w.shape, g.shape, flags.shape) == ((len(h),), (len(h),), (1,))
        assert w.tobytes() == ws[0].tobytes() and g.tobytes() == gs[0].tobytes()
        assert degenerate is bool(flags[0])


@pytest.mark.parametrize("h, message", [
    (np.ones((2, 3)), r"h must be square, got shape \(2, 3\)"),
    (np.ones(4), r"h must be square, got shape \(4,\)"),
    (np.array([[0.0, math.nan], [math.nan, 0.0]]), "h contains non-finite entries"),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), "h is not Hermitian: max deviation 1.000e[+]00 exceeds 1.0e-10"),
    (np.zeros((2, 0, 0)), r"^h must have a nonzero dimension, got shape \(2, 0, 0\)$"),
], ids=["non_square", "vector", "nan", "non_hermitian", "empty"])
def test_ground_states_rejects_bad_matrix(h, message):
    with pytest.raises(ValueError, match=message):
        qmat.ground_states(h)


def test_expm_zero_time():
    rng = np.random.default_rng(16)
    h = random_hermitian(rng, 4)
    np.testing.assert_allclose(qmat.expm_hermitian(h, 0.0), np.eye(4), atol=1e-12)


def test_expm_diagonal_closed_form():
    # exp(-i sigma_z t) = diag(e^{-it}, e^{it})
    np.testing.assert_allclose(qmat.expm_hermitian(PAULI_Z, math.pi / 2), np.diag([-1j, 1j]), atol=1e-12)
    np.testing.assert_allclose(qmat.expm_hermitian(PAULI_Z, math.pi), -np.eye(2), atol=1e-12)


def test_expm_unitary_and_group_property():
    rng = np.random.default_rng(17)
    h = random_hermitian(rng, 8)
    u = qmat.expm_hermitian(h, 0.37)
    assert np.abs(u.conj().T @ u - np.eye(8)).max() <= 1e-9
    prod = qmat.expm_hermitian(h, 0.37) @ qmat.expm_hermitian(h, 1.21)
    np.testing.assert_allclose(prod, qmat.expm_hermitian(h, 1.58), atol=1e-9)


def test_state_fidelity_examples():
    rng = np.random.default_rng(18)
    rho = random_density(rng, 4)
    assert abs(qmat.state_fidelity(rho, rho) - 1.0) < 1e-10
    zero = states.density(states.basis_state("0"))
    one = states.density(states.basis_state("1"))
    assert qmat.state_fidelity(zero, one) < 1e-12
    assert abs(qmat.state_fidelity(zero, np.eye(2) / 2) - 0.5) < 1e-12


def test_state_fidelity_pure_reduces_to_overlap():
    rng = np.random.default_rng(19)
    psi = states.make_state("W001")
    b = random_density(rng, 8)
    expected = np.vdot(psi, b @ psi).real
    assert abs(qmat.state_fidelity(states.density(psi), b) - expected) < 1e-8


def test_state_fidelity_symmetric():
    rng = np.random.default_rng(20)
    a = random_density(rng, 8)
    b = random_density(rng, 8)
    assert abs(qmat.state_fidelity(a, b) - qmat.state_fidelity(b, a)) < 1e-10


def test_root_fidelity_squares_to_state_fidelity():
    rng = np.random.default_rng(21)
    a = random_density(rng, 8)
    b = random_density(rng, 8)
    assert abs(qmat.root_fidelity(a, b) ** 2 - qmat.state_fidelity(a, b)) < 1e-10


def test_fidelity_bounds_random_batch():
    rng = np.random.default_rng(22)
    for _ in range(250):
        dim = int(rng.choice([2, 4, 8]))
        f = qmat.state_fidelity(random_density(rng, dim), random_density(rng, dim))
        assert 0.0 <= f <= 1.0
    for _ in range(250):
        dim = int(rng.choice([2, 4, 8]))
        f = qmat.unitary_fidelity(random_unitary(rng, dim), random_unitary(rng, dim))
        assert 0.0 <= f <= 1.0


def test_unitary_fidelity_examples():
    rng = np.random.default_rng(23)
    u = random_unitary(rng, 4)
    assert abs(qmat.unitary_fidelity(u, u) - 1.0) < 1e-12
    assert qmat.unitary_fidelity(np.eye(2), PAULI_X) < 1e-12
    phase = np.exp(0.73j) * np.eye(2)
    assert abs(qmat.unitary_fidelity(np.eye(2), phase) - 1.0) < 1e-12


def test_unitary_fidelity_rejects_non_unitary():
    with pytest.raises(ValueError):
        qmat.unitary_fidelity(np.eye(2) * 2.0, np.eye(2))


def test_unitary_fidelity_stack_matches_pairs_bitwise():
    rng = np.random.default_rng(24)
    for dim in (2, 4, 8):
        u1 = np.array([random_unitary(rng, dim) for _ in range(200)])
        # near pairs, as the Trotter audit compares, and unrelated ones
        u2 = np.concatenate([u1[:100] @ qmat.expm_hermitian(1e-3 * random_hermitian(rng, dim), 1.0),
                             [random_unitary(rng, dim) for _ in range(100)]])
        stacked = qmat.unitary_fidelity(u1, u2)
        assert stacked.shape == (200,)
        pairs = [qmat.unitary_fidelity(a, b) for a, b in zip(u1, u2)]
        assert all(type(f) is float for f in pairs)
        assert stacked.tolist() == pairs
    bad = u1.copy()
    bad[3] *= 1.01
    with pytest.raises(ValueError, match="u2 is not unitary"):
        qmat.unitary_fidelity(u1, bad)
    with pytest.raises(ValueError, match="dimension mismatch"):
        qmat.unitary_fidelity(u1, u2[:10])


def test_validate_density_accepts_valid():
    out, _ = qmat.validate_density(np.eye(4) / 4, tol=1e-10)
    np.testing.assert_allclose(out, np.eye(4) / 4, atol=1e-15)


def test_validate_density_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="negative eigenvalue"):
        qmat.validate_density(np.diag([1.5, -0.5]), tol=0.3)


def test_validate_density_rejects_bad_trace_and_hermiticity():
    with pytest.raises(ValueError, match="trace"):
        qmat.validate_density(np.eye(2), tol=1e-10)
    bad = np.array([[1.0, 0.1], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        qmat.validate_density(bad, tol=1e-6)


def test_validate_density_repair_matches_clipping_oracle():
    rng = np.random.default_rng(24)
    rho = random_density(rng, 8)
    w, v = np.linalg.eigh(rho)
    w = w + rng.uniform(-1e-4, 1e-4, size=8)
    dirty = (v * w) @ v.conj().T
    repaired, _ = qmat.validate_density(dirty, tol=1e-3, repair=True)
    clipped = np.clip(w, 0.0, None)
    oracle = (v * (clipped / clipped.sum())) @ v.conj().T
    np.testing.assert_allclose(repaired, oracle, atol=1e-12)
    assert abs(np.trace(repaired).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(repaired)[0] >= -1e-12


def test_density_file_round_trip(tmp_path):
    rng = np.random.default_rng(25)
    rho = random_density(rng, 8)
    path = tmp_path / "rho.json"
    qmat.save_density(path, rho)
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["dim"] == 8
    back = qmat.load_density(path)
    assert np.array_equal(back, rho)


@pytest.mark.parametrize("payload, message", [
    ({"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]]}, r"malformed density-matrix file \('im'\)"),
    ([[1.0, 0.0], [0.0, 0.0]], "malformed density-matrix file"),
    ({"dim": 4, "re": np.eye(2).tolist(), "im": np.zeros((2, 2)).tolist()}, "arrays do not match dim=4"),
    ({"dim": 2, "re": np.eye(2).tolist(), "im": np.zeros((2, 3)).tolist()}, "arrays do not match dim=2"),
], ids=["missing_im", "not_an_object", "dim_too_large", "im_shape"])
def test_load_density_rejects_malformed_files(tmp_path, payload, message):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        qmat.load_density(path)


def test_normalize_phase_convention():
    psi = np.array([0.3, -0.9539392014169456j], dtype=complex)
    out = qmat.normalize_phase(psi)
    # largest-magnitude amplitude becomes real and nonnegative
    assert out[1].imag == pytest.approx(0.0, abs=1e-15)
    assert out[1].real > 0


def test_normalize_phase_takes_a_pivot_only_within_1e_12_of_the_largest_modulus():
    # normalized, the first modulus is 1.06e-12 below the second, just past the tie margin, so the
    # second amplitude is the pivot; a margin of 2e-12 would take the first
    vec = np.zeros(8, dtype=complex)
    vec[:2] = (1 - 1.5e-12) * np.exp(0.3j), np.exp(1.1j)
    got = qmat.normalize_phase(vec)
    np.testing.assert_allclose(got[:2], [math.sqrt(0.5) * np.exp(-0.8j), math.sqrt(0.5)], rtol=0.0, atol=1e-11)
    assert np.round(got[:2], 4).tolist() == [0.4926 - 0.5072j, 0.7071]
    assert not got[2:].any()


def normalize_phase_norm_and_scalar_abs(vec):
    # the one-vector form: np.linalg.norm and the scalar abs of the pivot
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    mags = np.abs(v)
    pivot = v[int(np.argmax(mags > mags.max() - 1e-12))]
    return v * (pivot.conjugate() / abs(pivot))


def random_complex_rows(rng, n, dim, scale):
    return scale * (rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim)))


@pytest.mark.parametrize("dim", [2, 4, 8, 64])
def test_normalize_phase_stack_matches_rows_bitwise(dim):
    rng = np.random.default_rng(31 + dim)
    for scale in (1.0, 1e-3, 1e5):
        vecs = random_complex_rows(rng, 500, dim, scale)
        stacked = qmat.normalize_phase(vecs)
        assert all(same_bits(row, qmat.normalize_phase(v)) for row, v in zip(stacked, vecs))
        # strided rows (the columns of a C-ordered matrix) and a 3-D stack
        assert same_bits(qmat.normalize_phase(np.ascontiguousarray(vecs.T).T), stacked)
        assert same_bits(qmat.normalize_phase(vecs.reshape(5, 100, dim)), stacked.reshape(5, 100, dim))


@pytest.mark.parametrize("dim", [2, 4, 8, 64])
def test_normalize_phase_matches_norm_and_scalar_abs_form_bitwise(dim):
    rng = np.random.default_rng(41 + dim)
    for scale in (1.0, 1e-3, 1e5):
        for v in random_complex_rows(rng, 300, dim, scale):
            assert same_bits(qmat.normalize_phase(v), normalize_phase_norm_and_scalar_abs(v))
    # real vectors with tied magnitudes, as the ground vectors of real H have
    for v in (np.array([0.5, -0.5, 0.5, -0.5]), np.array([0.0, -1.0, 1.0, 0.0]) / math.sqrt(2)):
        assert same_bits(qmat.normalize_phase(v), normalize_phase_norm_and_scalar_abs(v))


def test_normalize_phase_rejects_zero_row():
    vecs = np.ones((3, 4), dtype=complex)
    vecs[1] = 0.0
    with pytest.raises(ValueError, match="zero vector"):
        qmat.normalize_phase(vecs)
    with pytest.raises(ValueError, match="zero vector"):
        qmat.normalize_phase(np.zeros(4))


@pytest.mark.parametrize("vec, want", [
    ([1e200, 1.0], [1.0, 1e-200]),
    ([1e-200, 0.0], [1.0, 0.0]),
    ([3e307, -4e307j], [0.6j, 0.8]),
    ([5e-324, 0.0], [1.0, 0.0]),
    ([-3e-170, 4e-170], [-0.6, 0.8]),
], ids=["squared_norm_overflows", "squared_norm_underflows", "huge_complex", "subnormal", "below_normal_range"])
def test_normalize_phase_scales_rows_out_of_range(vec, want):
    # the squared norm overflows or leaves the normal range, so the row is scaled by a power of two first
    np.testing.assert_allclose(qmat.normalize_phase(vec), want, rtol=1e-15, atol=0.0)
    rows = np.array([[1.0, 2.0], vec, [0.0, 3.0j]], dtype=complex)
    given = rows.copy()
    assert all(same_bits(row, qmat.normalize_phase(v)) for row, v in zip(qmat.normalize_phase(rows), rows))
    assert same_bits(rows, given)  # the scaling works on a copy


def normalize_phase_unscaled(vecs):
    # the form without the power-of-two scaling, which in-range rows must match bit for bit
    re, im = vecs.real[..., None, :], vecs.imag[..., None, :]
    v = vecs / np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]
    mags = np.abs(v)
    idx = np.argmax(mags > mags.max(axis=-1, keepdims=True) - 1e-12, axis=-1)
    pivot = np.take_along_axis(v, idx[..., None], axis=-1)
    return v * (pivot.conj() / np.hypot(pivot.real, pivot.imag))


def test_normalize_phase_keeps_the_bits_of_rows_in_range():
    rng = np.random.default_rng(57)
    rows = random_complex_rows(rng, 200, 8, 1.0) * 10.0 ** rng.integers(-150, 150, size=(200, 1))
    assert same_bits(qmat.normalize_phase(rows), normalize_phase_unscaled(rows))
    # the raw ground vectors of the default sweeps
    for tag in models.MODEL_TAGS:
        m = models.model(tag)
        grounds = np.linalg.eigh(models.hamiltonian(tag, np.linspace(*m.j_range, m.steps + 1)))[1][:, :, 0]
        assert same_bits(qmat.normalize_phase(grounds), normalize_phase_unscaled(grounds))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)], ids=["nan", "inf", "imag_inf"])
def test_normalize_phase_rejects_non_finite_entries(bad):
    rows = np.ones((3, 2), dtype=complex)
    rows[1, 0] = bad
    for vec in ([bad, 1.0], rows):
        with pytest.raises(ValueError, match="^cannot normalize a vector with non-finite entries$"):
            qmat.normalize_phase(vec)


@pytest.mark.parametrize("n_qubits, keep, message", [
    (3, [1.7], "^keep index must be an integer, got 1.7$"),
    (3, [2, True], "^keep index must be an integer, got True$"),
    (3, [np.float64(1.0)], r"^keep index must be an integer, got np.float64\(1.0\)$"),
    (3.0, [1], "^n_qubits must be an integer, got 3.0$"),
    (True, [1], "^n_qubits must be an integer, got True$"),
], ids=["float_index", "bool_index", "numpy_float_index", "float_n_qubits", "bool_n_qubits"])
def test_partial_trace_rejects_non_integer_qubits(n_qubits, keep, message):
    with pytest.raises(ValueError, match=message):
        qmat.partial_trace(np.eye(2 ** int(n_qubits)) / 2 ** int(n_qubits), n_qubits, keep)


@pytest.mark.parametrize("n_qubits, keep, message", [
    (3, [0], r"keep index must lie in \[1, 3\], got 0"),
    (3, [1, 4], r"keep index must lie in \[1, 3\], got 4"),
    (3, [2, -1], r"keep index must lie in \[1, 3\], got -1"),
    (0, [1], r"n_qubits must lie in \[1, inf\), got 0"),
], ids=["index_0", "index_past_n", "negative_index", "zero_qubits"])
def test_partial_trace_names_a_qubit_count_or_index_out_of_range(n_qubits, keep, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        qmat.partial_trace(np.eye(2 ** n_qubits) / 2 ** n_qubits, n_qubits, keep)


def test_each_interval_is_parsed_once():
    rho = np.eye(8) / 8
    qmat.partial_trace(rho, 3, [1, 3])
    before = qmat._parse_interval.cache_info()
    for keep in ([1], [2, 3], [1, 2, 3]):
        qmat.partial_trace(rho, 3, keep)
    after = qmat._parse_interval.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 3 + 6
    with pytest.raises(ValueError, match=r"^keep index must lie in \[1, 3\], got 4$"):
        qmat.partial_trace(rho, 3, [4])


def test_partial_trace_accepts_numpy_integers():
    rho = states.density(states.make_state("W001"))
    want = qmat.partial_trace(rho, 3, [1, 3])
    assert same_bits(qmat.partial_trace(rho, np.int64(3), np.array([1, 3])), want)


def test_stacked_primitives_match_per_matrix_bitwise():
    rng = np.random.default_rng(7)
    rhos = np.array([random_density(rng, 8, rank) for rank in (1, 2, 3, 5, 8)])
    hs = np.array([random_hermitian(rng, 8) for _ in range(5)])
    others = np.array([random_density(rng, 2) for _ in range(5)])
    for keep in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}):
        stacked = qmat.partial_trace(rhos, 3, keep)
        assert np.array_equal(stacked, [qmat.partial_trace(r, 3, keep) for r in rhos])
    assert np.array_equal(qmat.dephase(rhos), [qmat.dephase(r) for r in rhos])
    assert np.array_equal(qmat.kron(rhos, others), [qmat.kron(r, o) for r, o in zip(rhos, others)])
    assert np.array_equal(qmat.kron(others, rhos), [qmat.kron(o, r) for r, o in zip(rhos, others)])
    assert np.array_equal(qmat.expm_hermitian(hs, 0.7), [qmat.expm_hermitian(h, 0.7) for h in hs])


EMPTY_STACK = np.zeros((0, 8, 8), dtype=complex)
EMPTY_ROWS = np.zeros((0, 8), dtype=complex)


@pytest.mark.parametrize("call", [
    lambda: qmat.ground_states(EMPTY_STACK),
    lambda: qmat.expm_hermitian(EMPTY_STACK, 0.7),
    lambda: qmat.unitary_fidelity(EMPTY_STACK, EMPTY_STACK),
    lambda: adiabatic.trotter_pair("zz", np.zeros(0), 0.7),
    lambda: adiabatic.trotter_error_scaling("zz", np.zeros(0), 0.7),
    lambda: coherence.coherence_reports(EMPTY_STACK),
    lambda: qmat.validate_density(EMPTY_STACK),
    lambda: qmat.root_fidelity(EMPTY_STACK, EMPTY_STACK),
    lambda: qmat.state_fidelity(EMPTY_STACK, EMPTY_STACK),
    lambda: qmat.normalize_phase(EMPTY_ROWS),
    lambda: qmat.kron(np.zeros((0, 2, 2)), np.zeros((0, 4, 4))),
    lambda: qmat.partial_trace(EMPTY_STACK, 3, [1]),
    lambda: qmat.dephase(EMPTY_STACK),
    lambda: states.density(EMPTY_ROWS),
], ids=["ground_states", "expm_hermitian", "unitary_fidelity", "trotter_pair", "trotter_error_scaling",
        "coherence_reports", "validate_density", "root_fidelity", "state_fidelity", "normalize_phase", "kron",
        "partial_trace", "dephase", "density"])
def test_empty_stacks_give_empty_results(call):
    # every array or list of the result, and of a dict in it, is empty along its leading axis
    result = call()
    for part in result if isinstance(result, tuple) else (result,):
        for leaf in part.values() if isinstance(part, dict) else (part,):
            assert len(leaf) == 0


def test_stacked_states_factories_match_per_matrix():
    rng = np.random.default_rng(8)
    rhos = np.array([random_density(rng, 8) for _ in range(4)])
    assert np.array_equal(states.marginals(rhos), np.array([states.marginals(r) for r in rhos]).swapaxes(0, 1))
    assert np.array_equal(states.pi_product(rhos), [states.pi_product(r) for r in rhos])
    assert np.array_equal(states.split_1_23(rhos), [states.split_1_23(r) for r in rhos])


def test_kron_into_writes_through_any_strides():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    b = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    outs = [
        np.full((3, 8, 8), np.nan, dtype=complex),
        np.full((3, 8, 8), np.nan, dtype=complex, order="F"),
        np.full((6, 8, 8), np.nan, dtype=complex)[::2],
        np.full((3, 8, 8), np.nan, dtype=complex).swapaxes(-1, -2),
        np.full((3, 8, 16), np.nan, dtype=complex)[::-1, ::-1, ::2],
    ]
    for out in outs:
        assert qmat._kron_into(out, a, b) is out
        assert same_bits(np.ascontiguousarray(out), qmat.kron(a, b))


def test_kron_matches_numpy_kron():
    rng = np.random.default_rng(9)
    for shape_a, shape_b in (((2, 2), (4, 4)), ((2, 3), (3, 1)), ((1, 4), (2, 2)), ((3,), (2,)), ((4,), (1,))):
        a = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
        b = rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b)
        assert np.array_equal(qmat.kron(a, b), np.kron(a, b))


def test_stacked_inputs_rejected():
    rng = np.random.default_rng(10)
    rhos = np.array([random_density(rng, 8) for _ in range(3)])
    with pytest.raises(ValueError, match="square"):
        qmat.partial_trace(rhos[:, :, :4], 3, {1})
    with pytest.raises(ValueError, match="square"):
        qmat.dephase(rhos[:, :4, :])
    bad = rhos.copy()
    bad[1, 2, 3] = np.nan
    for call in (lambda: qmat.partial_trace(bad, 3, {1}), lambda: qmat.dephase(bad),
                 lambda: qmat.expm_hermitian(bad, 1.0)):
        with pytest.raises(ValueError, match="non-finite"):
            call()
    hs = np.array([random_hermitian(rng, 8) for _ in range(3)])
    hs[2, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        qmat.expm_hermitian(hs, 1.0)
    # the single-matrix primitives take no stack
    with pytest.raises(ValueError, match=r"^h must be square, got shape \(3, 8, 8\)$"):
        qmat.eig_hermitian(rhos)


def validate_density_one_matrix_form(m, tol, repair):
    # the one-matrix form: np.trace, the scalar abs, and separate eigvalsh and eigh calls
    herm_dev = float(np.abs(m - m.conj().T).max())
    trace_dev = float(abs(np.trace(m) - 1.0))
    sym = (m + m.conj().T) / 2
    checks = {"herm_dev": herm_dev, "trace_dev": trace_dev, "min_eig": float(np.linalg.eigvalsh(sym)[0])}
    if not repair:
        return m, checks
    w, v = np.linalg.eigh(sym)
    w = np.clip(w, 0.0, None)
    return (v * (w / w.sum())) @ v.conj().T, checks


def root_fidelity_one_pair_form(a, b):
    w, v = np.linalg.eigh(a)
    sa = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    f = float(np.sqrt(np.clip(np.linalg.eigvalsh(sa @ b @ sa), 0.0, None)).sum())
    return min(max(f, 0.0), 1.0)


def tomography_like_states(seed, dim=8):
    # full-rank, low-rank and noisy states: the noisy ones are slightly
    # non-Hermitian, off unit trace and have a negative eigenvalue
    rng = np.random.default_rng(seed)
    out = [random_density(rng, dim) for _ in range(3)]
    out += [random_density(rng, dim, rank) for rank in (1, 2, 3)]
    for _ in range(3):
        e = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        out.append(random_density(rng, dim, 1) + 1e-3 * (e + e.conj().T) / 2 + 1e-5 * e)
    return np.array(out)


@pytest.mark.parametrize("seed", [51, 52, 53])
@pytest.mark.parametrize("repair", [False, True])
def test_validate_density_stack_matches_single_bitwise(seed, repair):
    rhos = tomography_like_states(seed)
    tol = 1.0  # loose enough that no state fails without repair
    stacked, checks = qmat.validate_density(rhos, tol=tol, repair=repair)
    assert stacked.shape == rhos.shape and set(checks) == {"herm_dev", "trace_dev", "min_eig"}
    assert all(isinstance(x, np.ndarray) and x.shape == (len(rhos),) for x in checks.values())
    for i, m in enumerate(rhos):
        single, single_checks = qmat.validate_density(m, tol=tol, repair=repair)
        oracle, oracle_checks = validate_density_one_matrix_form(m, tol, repair)
        assert same_bits(stacked[i], single) and same_bits(single, oracle)
        assert single_checks == oracle_checks and all(type(x) is float for x in single_checks.values())
        assert {name: x[i] for name, x in checks.items()} == single_checks
        one, one_checks = qmat.validate_density(m[None], tol=tol, repair=repair)
        assert same_bits(one[0], single)
        assert {name: x[0] for name, x in one_checks.items()} == single_checks


@pytest.mark.parametrize("seed", [61, 62])
def test_root_and_state_fidelity_stack_match_single_bitwise(seed):
    rhos = tomography_like_states(seed)
    rhos = qmat.validate_density(rhos, tol=1.0, repair=True)[0]
    target = states.density(qmat.ground_states(models.hamiltonian("zz", 2.0))[1])
    others = tomography_like_states(seed + 100)
    for b in (target, others):
        root, sq = qmat.root_fidelity(rhos, b), qmat.state_fidelity(rhos, b)
        assert root.shape == sq.shape == (len(rhos),)
        for i, a in enumerate(rhos):
            bi = b if b.ndim == 2 else b[i]
            single = qmat.root_fidelity(a, bi)
            assert type(single) is float and single == root[i] == root_fidelity_one_pair_form(a, bi)
            f = root_fidelity_one_pair_form(a, bi)
            assert qmat.state_fidelity(a, bi) == sq[i] == f * f
            assert qmat.root_fidelity(a[None], bi)[0] == single
    with pytest.raises(ValueError, match=r"dimension mismatch: \(9, 8, 8\) vs \(3, 8, 8\)"):
        qmat.root_fidelity(rhos, others[:3])


OVERFLOW_MESSAGE = "density matrix entries too large: its trace, Hermitian part or spectrum overflows"


def test_validate_density_stack_blames_its_first_failing_matrix():
    rng = np.random.default_rng(71)
    rhos = np.array([random_density(rng, 4) for _ in range(5)])
    skew, nan, trace = rhos.copy(), rhos.copy(), rhos.copy()
    skew[3, 0, 1] += 1e-3
    skew[4] *= 2  # a later failure, of another check
    nan[1, 2, 2] = np.nan
    nan[2, 0, 1] += 1e-3  # a later failure
    trace[2] *= 1.5
    # huge finite entries overflow the Hermitian part, and an off-diagonal 8e307 the
    # repaired spectrum (3 * 8e307), with no numpy warning
    huge_nan, nan_huge, spectrum = rhos.copy(), rhos.copy(), rhos.copy()
    huge_nan[1], huge_nan[2, 0, 0] = 1e308, np.nan
    nan_huge[1, 0, 0], nan_huge[2] = np.nan, 1e308
    spectrum[2] = 8e307 * (1.0 - np.eye(4))
    cases = [
        (skew, False, 3, "not Hermitian: max deviation 1.000e-03 exceeds tolerance 1.0e-06"),
        (nan, False, 1, "density matrix contains non-finite entries"),
        (nan, True, 1, "density matrix contains non-finite entries"),
        (trace, False, 2, "trace differs from 1 by 5.000e-01, exceeds tolerance 1.0e-06"),
        (huge_nan, False, 1, OVERFLOW_MESSAGE),
        (huge_nan, True, 1, OVERFLOW_MESSAGE),
        (nan_huge, False, 1, "density matrix contains non-finite entries"),
        (nan_huge, True, 1, "density matrix contains non-finite entries"),
        (spectrum, False, 2, "trace differs from 1 by 1.000e+00, exceeds tolerance 1.0e-06"),
        (spectrum, True, 2, OVERFLOW_MESSAGE),
    ]
    for stack, repair, index, message in cases:
        with pytest.raises(qmat.DensityError) as info:
            qmat.validate_density(stack, tol=1e-6, repair=repair)
        assert info.value.index == index and str(info.value) == message
        with pytest.raises(qmat.DensityError) as alone:
            qmat.validate_density(stack[index], tol=1e-6, repair=repair)
        assert alone.value.index == 0 and str(alone.value) == message
    # an earlier failure wins over a later non-finite matrix
    nan[0, 1, 1] = 0.5
    with pytest.raises(qmat.DensityError, match="trace differs") as info:
        qmat.validate_density(nan, tol=1e-6)
    assert info.value.index == 0
    negative = rhos.copy()
    negative[1] = -rhos[1]
    with pytest.raises(qmat.DensityError, match="all eigenvalues nonpositive") as info:
        qmat.validate_density(negative, repair=True)
    assert info.value.index == 1
    assert issubclass(qmat.DensityError, ValueError)
    with pytest.raises(ValueError, match="must be square"):
        qmat.validate_density(rhos[None])
    for repair in (False, True):
        empty, checks = qmat.validate_density(np.empty((0, 4, 4)), repair=repair)
        assert empty.shape == (0, 4, 4) and all(x.shape == (0,) for x in checks.values())


def test_state_fidelity_squares_each_item_as_for_one_pair(monkeypatch):
    # a stack and a single pair both square with one multiply; a scalar pow
    # differs from that multiply in the last bit for about 1 in 1000 values
    roots = np.random.default_rng(72).uniform(0.0, 1.0, 5000)
    monkeypatch.setattr(qmat, "root_fidelity", lambda a, b: roots if a.ndim == 3 else float(roots[a[0, 0]]))
    stacked = qmat.state_fidelity(np.zeros((5000, 1, 1)), None)
    assert same_bits(stacked, np.square(roots))
    assert all(stacked[i] == qmat.state_fidelity(np.full((1, 1), i), None) for i in range(len(roots)))


@pytest.mark.parametrize("call, name", [
    (qmat.eig_hermitian, "h"),
    (lambda e: qmat.root_fidelity(e, e), "a"),
    (lambda e: qmat.unitary_fidelity(e, e), "u1"),
    (lambda e: coherence.qjsd(e, e), "rho"),
    (qmat.validate_density, "density matrix"),
], ids=["eig_hermitian", "root_fidelity", "unitary_fidelity", "qjsd", "validate_density"])
def test_empty_matrices_are_rejected_by_name(call, name):
    with pytest.raises(ValueError, match=rf"^{name} must have a nonzero dimension, got shape \(0, 0\)$"):
        call(np.zeros((0, 0)))


@pytest.mark.parametrize("call, message", [
    (lambda: adiabatic.linear_schedule("zz", 3, "0.7"), "tau must be a real number, got '0.7'"),
    (lambda: adiabatic.linear_schedule("zz", 3, True), "tau must be a real number, got True"),
    (lambda: adiabatic.linear_schedule("zz", 3, np.array(0.7)), r"tau must be a real number, got array\(0.7\)"),
    (lambda: coherence.qjsd(np.eye(2) / 2, np.eye(2) / 2, base="2"), "log base must be a real number, got '2'"),
    (lambda: qmat.check_tolerance("x"), "tolerance must be a real number, got 'x'"),
    (lambda: qmat.validate_density(np.eye(2) / 2, tol=None), "tolerance must be a real number, got None"),
    (lambda: adiabatic.evolve(adiabatic.linear_schedule("zz", 3, 0.7), mu="0.5"),
     "mu must be a real number, got '0.5'"),
    (lambda: states.make_pps(states.make_state("W001"), None), "mu must be a real number, got None"),
    (lambda: adiabatic.min_steps_search("zz", "0.9", 0.7), "target must be a real number, got '0.9'"),
    (lambda: models.ModelParams(omega_x=True), "omega_x must be a real number, got True"),
    (lambda: perturbation.zzz_fidelity_formula(True, 5.0), "omega_x must be a real number, got True"),
], ids=["tau_text", "tau_bool", "tau_0d_array", "log_base_text", "tolerance_text", "tolerance_none", "mu_text",
        "pps_mu_none", "target_text", "omega_x_bool", "closed_form_bool"])
def test_scalar_arguments_reject_text_none_bools_and_arrays_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_numpy_eigensolvers_are_called_only_by_the_seam(monkeypatch, tmp_path, fresh_density_tables):
    # a sector problem whose Newton start is the first excited level, so every row takes the eigh fallback.
    # hx_s is built by hand: adiabatic._prepare_sector would build the zz density table here, before the spy,
    # and the schedule run below would then find it cached and call no eigensolver
    hx_s = adiabatic._SECTOR_BASIS.real.T @ models.parts("zz", 0.0)[0].real @ adiabatic._SECTOR_BASIS.real
    hz_s = models.parts("zz", np.linspace(0.0, 2.0, 9))[1][:, [0, 1, 3, 7]]
    excited = np.linalg.eigvalsh(hx_s + hz_s[:, :, None] * np.eye(4))[:, 1]
    qmat.save_density(tmp_path / "rho.json", random_density(np.random.default_rng(29), 8, rank=3))
    seam = qmat._eigh.__code__
    calls, strays = [], []
    for name in ("eigh", "eigvalsh"):
        def owned(a, *args, _kernel=getattr(np.linalg, name), _name=name, **kwargs):
            caller = sys._getframe(1).f_code
            if caller is not seam:
                strays.append(f"{_name} from {caller.co_filename}:{caller.co_name}")
                raise AssertionError(strays[-1])
            calls.append(_name)
            return _kernel(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, owned)
    out = ["--out", str(tmp_path)]
    runs = {
        "sweep": lambda: cli.main(["sweep", "--model", "zz", "--steps", str(2 * coherence.REPORT_CHUNK)] + out),
        "ratios": lambda: cli.main(["ratios", "--model", "zzz", "--steps", "5"] + out),
        "geometry": lambda: cli.main(["geometry", "--model", "zz", "--j-values", "0,2"] + out),
        "trotter-audit": lambda: cli.main(["trotter-audit", "--model", "zz", "--steps", "5"] + out),
        "schedule": lambda: cli.main(["schedule", "--model", "zz", "--schedule", "adaptive", "--steps", "5"] + out),
        "tomo": lambda: cli.main(["tomo", str(tmp_path / "rho.json"), "--repair"] + out),
        "qjsd": lambda: coherence.qjsd(np.eye(4) / 4, np.diag([1.0, 0, 0, 0])),
        "relative_entropy": lambda: coherence.relative_entropy(np.eye(4) / 4, np.eye(4) / 4),
        "von_neumann_entropy": lambda: coherence.von_neumann_entropy(np.eye(4) / 4),
        "eig_hermitian": lambda: qmat.eig_hermitian(np.diag([1.0, 1.0, 2.0])),
        "secular_solve": lambda: perturbation.secular_solve(perturbation.zzz_split(models.ModelParams(j3=5.0))),
        "min_steps_search": lambda: adiabatic.min_steps_search("zz", 0.99, 0.7),
        "sector fallback": lambda: adiabatic._sector_ground_pairs(hx_s, hz_s, excited),
    }
    for name, run in runs.items():
        before = len(calls)
        run()
        assert strays == [] and len(calls) > before, name
    assert {"eigh", "eigvalsh"} <= set(calls)



def test_step_searches_hold_with_another_eigensolver(monkeypatch, fresh_density_tables):
    sizes = []

    def evr(a, vectors=True):
        # scipy's eigh takes one matrix, so a stack is diagonalized matrix by matrix
        flat = a.reshape((-1,) + a.shape[-2:])
        sizes.append(len(flat))
        if not vectors:
            return np.array([scipy.linalg.eigh(m, eigvals_only=True, driver="evr") for m in flat]).reshape(a.shape[:-1])
        pairs = [scipy.linalg.eigh(m, driver="evr") for m in flat]
        return np.array([w for w, _ in pairs]).reshape(a.shape[:-1]), np.array([v for _, v in pairs]).reshape(a.shape)

    monkeypatch.setattr(qmat, "_eigh", evr)
    got = [adiabatic.min_steps_search(tag, x, models.model(tag).tau) for tag in ("zz", "zzz") for x in (0.9, 0.99, 0.999)]
    assert got == [36, 126, 412, 19, 60, 266]
    # both density tables came from the swapped solver too
    assert sizes.count(adiabatic.DENSITY_GRID + 1) == 2
