import json
import math

import numpy as np
import pytest

from tricoh import models, qmat, states

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


def random_unitary(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


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


def test_eig_identity():
    spec = qmat.eig_hermitian(np.eye(2, dtype=complex))
    np.testing.assert_allclose(spec.eigenvalues, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(spec.eigenvectors, np.eye(2), atol=1e-12)


def test_eig_pauli_x():
    spec = qmat.eig_hermitian(PAULI_X)
    np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-12)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    np.testing.assert_allclose(spec.eigenvectors[:, 0], minus, atol=1e-12)
    np.testing.assert_allclose(spec.eigenvectors[:, 1], plus, atol=1e-12)


def test_eig_diagonal_ising_ground_energy():
    h = models.hamiltonian("zz", 0.0, models.ModelParams(omega_x=0.0))
    spec = qmat.eig_hermitian(h)
    assert abs(spec.eigenvalues[0] - (-3.0)) < 1e-12


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(14)
    for dim in (2, 4, 8):
        h = random_hermitian(rng, dim)
        spec = qmat.eig_hermitian(h)
        v = spec.eigenvectors
        recon = v @ np.diag(spec.eigenvalues) @ v.conj().T
        assert np.abs(recon - h).max() <= 1e-9 * max(1.0, np.abs(h).max())
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-10
        assert np.all(np.diff(spec.eigenvalues) >= -1e-14)


def test_eig_deterministic_and_degenerate_basis():
    # repeated calls agree bit for bit, and a fully degenerate block
    # comes back in the canonical computational basis
    rng = np.random.default_rng(15)
    h = random_hermitian(rng, 8)
    a = qmat.eig_hermitian(h)
    b = qmat.eig_hermitian(h)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    spec = qmat.eig_hermitian(np.eye(4, dtype=complex))
    np.testing.assert_allclose(spec.eigenvectors, np.eye(4), atol=1e-12)


def eig_clusters(h):
    """The degenerate eigenvector blocks ``eig_hermitian`` rebuilds for ``h``."""
    w, v = np.linalg.eigh(h)
    return [v[:, start:stop] for start, stop in qmat._clusters(w) if stop - start > 1]


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
    g = qmat.ground_state(h)
    assert abs(g.energy - (-3.0)) < 1e-12
    np.testing.assert_allclose(g.state, states.basis_state("000"), atol=1e-12)
    assert not g.degenerate


def test_ground_state_transverse_start():
    h = models.hamiltonian("zzz", 0.0)
    g = qmat.ground_state(h)
    target = states.sign_product_state("---")
    assert abs(abs(np.vdot(target, g.state)) - 1.0) < 1e-12


def test_ground_state_single_qubit():
    g = qmat.ground_state(-PAULI_Z)
    assert abs(g.energy - (-1.0)) < 1e-12
    np.testing.assert_allclose(g.state, [1.0, 0.0], atol=1e-12)


def test_ground_state_degenerate_flag():
    assert qmat.ground_state(np.eye(2, dtype=complex)).degenerate


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


def test_normalize_phase_convention():
    psi = np.array([0.3, -0.9539392014169456j], dtype=complex)
    out = qmat.normalize_phase(psi)
    # largest-magnitude amplitude becomes real and nonnegative
    assert out[1].imag == pytest.approx(0.0, abs=1e-15)
    assert out[1].real > 0


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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


def test_stacked_states_factories_match_per_matrix():
    rng = np.random.default_rng(8)
    rhos = np.array([random_density(rng, 8) for _ in range(4)])
    assert np.array_equal(states.marginals(rhos), np.array([states.marginals(r) for r in rhos]).swapaxes(0, 1))
    assert np.array_equal(states.pi_product(rhos), [states.pi_product(r) for r in rhos])
    assert np.array_equal(states.split_1_23(rhos), [states.split_1_23(r) for r in rhos])


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
    target = states.density(qmat.ground_state(models.hamiltonian("zz", 2.0)).state)
    others = tomography_like_states(seed + 100)
    for b in (target, others):
        root, sq = qmat.root_fidelity(rhos, b), qmat.state_fidelity(rhos, b)
        assert root.shape == sq.shape == (len(rhos),)
        for i, a in enumerate(rhos):
            bi = b if b.ndim == 2 else b[i]
            single = qmat.root_fidelity(a, bi)
            assert type(single) is float and single == root[i] == root_fidelity_one_pair_form(a, bi)
            assert qmat.state_fidelity(a, bi) == sq[i] == root_fidelity_one_pair_form(a, bi) ** 2
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
    # an array square is one multiply, which differs in the last bit from
    # the scalar pow of one pair for about 1 in 1000 values
    roots = np.random.default_rng(72).uniform(0.0, 1.0, 5000)
    monkeypatch.setattr(qmat, "root_fidelity", lambda a, b: roots if a.ndim == 3 else float(roots[a[0, 0]]))
    stacked = qmat.state_fidelity(np.zeros((5000, 1, 1)), None)
    assert not same_bits(stacked, roots**2)
    assert all(stacked[i] == qmat.state_fidelity(np.full((1, 1), i), None) for i in range(len(roots)))
