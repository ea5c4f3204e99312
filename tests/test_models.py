import itertools
import json
import math

import numpy as np
import pytest

from tricoh import models, qmat, states

EPS = np.finfo(float).eps


def bit_spins(idx):
    # S^z eigenvalue per qubit: +1/2 for bit 0, -1/2 for bit 1
    bits = [(idx >> shift) & 1 for shift in (2, 1, 0)]
    return [0.5 if b == 0 else -0.5 for b in bits]


def permutation_matrix(perm):
    # 8x8 matrix sending qubit i to position perm[i-1]
    p = np.zeros((8, 8))
    for idx in range(8):
        bits = [(idx >> shift) & 1 for shift in (2, 1, 0)]
        out = [0, 0, 0]
        for src, dst in enumerate(perm):
            out[dst - 1] = bits[src]
        jdx = (out[0] << 2) | (out[1] << 1) | out[2]
        p[jdx, idx] = 1.0
    return p


def test_spin_op_single_site():
    np.testing.assert_allclose(models.spin_op(1, 1, "z"), np.diag([0.5, -0.5]), atol=1e-15)


def test_spin_op_disjoint_sites_commute():
    for (i, a), (j, b) in itertools.product(
        itertools.product((1, 2, 3), "xyz"), itertools.product((1, 2, 3), "xyz")
    ):
        if i == j:
            continue
        si = models.spin_op(3, i, a)
        sj = models.spin_op(3, j, b)
        assert np.abs(si @ sj - sj @ si).max() < 1e-14


def test_spin_op_traceless():
    assert abs(np.trace(models.spin_op(3, 2, "x"))) < 1e-14


def test_spin_op_rejects_bad_input():
    with pytest.raises(ValueError):
        models.spin_op(3, 0, "z")
    with pytest.raises(ValueError):
        models.spin_op(3, 4, "z")
    with pytest.raises(ValueError):
        models.spin_op(3, 1, "w")
    for n_qubits, site, message in ((3, 1.5, "site must be an integer, got 1.5"),
                                    (3, True, "site must be an integer, got True"),
                                    (3, 0, r"site must lie in \[1, 3\], got 0"),
                                    (3, 4, r"site must lie in \[1, 3\], got 4"),
                                    (0, 1, r"n_qubits must lie in \[1, inf\), got 0"),
                                    (3.0, 1, "n_qubits must be an integer, got 3.0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            models.spin_op(n_qubits, site, "x")
    assert models.spin_op(np.int64(3), np.int64(2), "x").tobytes() == models.spin_op(3, 2, "x").tobytes()


def test_h_zz_diagonal_closed_form():
    p = models.ModelParams(omega_x=0.0, j2=1.3)
    h = models.hamiltonian("zz", p.j2, p)
    assert np.abs(h - np.diag(np.diag(h))).max() < 1e-14
    for idx in range(8):
        s = bit_spins(idx)
        want = p.omega_z * sum(s) + 2 * p.j2 * (s[0] * s[1] + s[0] * s[2] + s[1] * s[2])
        assert abs(h[idx, idx].real - want) < 1e-12
    assert abs(models.hamiltonian("zz", 0.0, models.ModelParams(omega_x=0.0))[0, 0] - (-3.0)) < 1e-12


def test_h_zz_permutation_symmetric():
    h = models.hamiltonian("zz", 1.7)
    for perm in itertools.permutations((1, 2, 3)):
        p = permutation_matrix(perm)
        assert np.abs(p @ h @ p.T - h).max() < 1e-12


def test_h_zz_ground_close_to_w():
    h = models.hamiltonian("zz", 2.0)
    _, g, _ = qmat.ground_states(h)
    f = qmat.root_fidelity(states.density(g), states.density(states.make_state("W001")))
    assert abs(f - 0.9978) < 5e-4


def test_h_zzz_start_ground():
    _, g, _ = qmat.ground_states(models.hamiltonian("zzz", 0.0))
    target = states.sign_product_state("---")
    assert abs(abs(np.vdot(target, g)) - 1.0) < 1e-12


def test_h_zzz_end_ground_close_to_g():
    h = models.hamiltonian("zzz", 5.0)
    _, g, _ = qmat.ground_states(h)
    f = qmat.root_fidelity(states.density(g), states.density(states.make_state("G")))
    assert abs(f - 0.9996) < 5e-4


@pytest.mark.parametrize("omega_x", [0.1, -0.3])
@pytest.mark.parametrize("j", [0.0, 1.3, 5.0])
def test_h_zzz_spectrum_is_four_two_level_systems(j, omega_x):
    # H = omega_x S^x + (J/2) P: one block at S^x = +-3/2 and three at +-1/2
    outer, inner = math.sqrt(9 * omega_x ** 2 + j ** 2) / 2, math.sqrt(omega_x ** 2 + j ** 2) / 2
    want = np.sort([-outer, outer] + [-inner, inner] * 3)
    got = np.linalg.eigvalsh(models.hamiltonian("zzz", j, models.ModelParams(omega_x=omega_x)))
    assert np.abs(got - want).max() <= 8 * EPS * outer


def test_three_body_term_eigenvalues():
    term = 4.0 * models.spin_op(3, 1, "z") @ models.spin_op(3, 2, "z") @ models.spin_op(3, 3, "z")
    for idx in range(8):
        s = bit_spins(idx)
        assert abs(term[idx, idx].real - 4.0 * s[0] * s[1] * s[2]) < 1e-14
        assert abs(abs(term[idx, idx].real) - 0.5) < 1e-14


def test_hamiltonians_hermitian_random_params():
    rng = np.random.default_rng(41)
    for _ in range(20):
        p = models.ModelParams(
            omega_z=float(rng.uniform(-3, 3)),
            omega_x=float(rng.uniform(-1, 1)),
            j2=float(rng.uniform(0, 2)),
            j3=float(rng.uniform(0, 5)),
        )
        for h in (models.hamiltonian("zz", p.j2, p), models.hamiltonian("zzz", p.j3, p)):
            assert np.abs(h - h.conj().T).max() < 1e-12


def test_hamiltonian_parts_sum():
    p = models.ModelParams(j2=1.1, j3=2.2)
    for tag in models.MODEL_TAGS:
        j = getattr(p, models.model(tag).coupling)
        hx, hz = models.parts(tag, j, p)
        np.testing.assert_allclose(hx + np.diag(hz), models.hamiltonian(tag, j, p), atol=1e-14)


def test_gap_positive_over_both_sweeps():
    for tag in models.MODEL_TAGS:
        for j in np.linspace(*models.model(tag).j_range, 101):
            w = np.linalg.eigvalsh(models.hamiltonian(tag, j))
            assert w[1] - w[0] > 0


def test_coupling_derivative_matches_finite_difference():
    eps = 1e-6
    for tag in models.MODEL_TAGS:
        p = models.ModelParams(j2=1.0, j3=1.0)
        hp = models.hamiltonian(tag, 1.0 + eps, p)
        hm = models.hamiltonian(tag, 1.0 - eps, p)
        fd = (hp - hm) / (2 * eps)
        np.testing.assert_allclose(np.diag(models.model(tag).dh_dj), fd, atol=1e-8)


def test_model_params_validation():
    with pytest.raises(ValueError):
        models.ModelParams(j2=2.5)
    with pytest.raises(ValueError):
        models.ModelParams(j3=-0.1)
    with pytest.raises(ValueError, match="^omega_x must be finite, got nan$"):
        models.ModelParams(omega_x=float("nan"))
    with pytest.raises(ValueError, match="^omega_x must be a real number, got '0.1'$"):
        models.ModelParams(omega_x="0.1")
    # the table path enforces the same inclusive coupling bounds
    for tag, j in (("zz", 2.5), ("zz", -1e-12), ("zzz", 5.000001), ("zzz", float("nan")), ("zz", float("inf"))):
        with pytest.raises(ValueError, match="must lie in"):
            models.hamiltonian(tag, j)
        with pytest.raises(ValueError, match="must lie in"):
            models.parts(tag, j)
    for tag in models.MODEL_TAGS:
        lo, hi = models.model(tag).j_range
        models.hamiltonian(tag, lo)
        models.hamiltonian(tag, hi)


def test_nmr_params_validation():
    with pytest.raises(ValueError):
        models.NmrParams(deltas=(1.0, 2.0), j_couplings=((0.0,) * 3,) * 3)
    asym = ((0.0, 1.0, 2.0), (9.0, 0.0, 3.0), (2.0, 3.0, 0.0))
    with pytest.raises(ValueError):
        models.NmrParams(deltas=(1.0, 2.0, 3.0), j_couplings=asym)
    diag = ((1.0, 1.0, 2.0), (1.0, 0.0, 3.0), (2.0, 3.0, 0.0))
    with pytest.raises(ValueError):
        models.NmrParams(deltas=(1.0, 2.0, 3.0), j_couplings=diag)


def test_nmr_params_reject_shallow_tables_and_scalar_shifts():
    with pytest.raises(ValueError, match=r"^j_couplings must be a 3x3 table, got \(0\.0, 1\.0, 2\.0\)$"):
        models.NmrParams(deltas=(1.0, 2.0, 3.0), j_couplings=(0.0, 1.0, 2.0))
    with pytest.raises(ValueError, match=r"^deltas must hold 3 chemical shifts, got 1\.0$"):
        models.NmrParams(deltas=1.0, j_couplings=((0.0, 1.0, 2.0),) * 3)


def test_nmr_params_store_tuples(tmp_path):
    jc = [[0.0, 4.0, 5.0], [4.0, 0.0, 6.0], [5.0, 6.0, 0.0]]
    nmr = models.NmrParams(deltas=[1.0, 2.0, 3.0], j_couplings=jc)
    assert nmr == models.NmrParams(deltas=(1.0, 2.0, 3.0), j_couplings=tuple(map(tuple, jc)))
    assert hash(nmr) == hash(models.NmrParams(deltas=(1.0, 2.0, 3.0), j_couplings=tuple(map(tuple, jc))))
    path = tmp_path / "nmr.json"
    path.write_text(json.dumps({"deltas": [1.0, 2.0, 3.0], "j_couplings": jc}))
    assert models.load_nmr_params(path) == nmr


@pytest.mark.parametrize("content, message", [
    ({"deltas": 1.0, "j_couplings": [[0.0, 4.0, 5.0]] * 3}, "deltas must hold 3 chemical shifts, got 1.0"),
    ({"deltas": [1.0, 2.0, 3.0], "j_couplings": [0.0, 4.0, 5.0]},
     "j_couplings must be a 3x3 table, got [0.0, 4.0, 5.0]"),
    ([1.0, 2.0, 3.0], "malformed NMR config: expected a JSON object with the fields deltas, j_couplings"),
    ({"deltas": [1.0, 2.0, 3.0]}, "malformed NMR config: expected a JSON object with the fields deltas, j_couplings"),
], ids=["scalar_deltas", "shallow_table", "not_an_object", "missing_field"])
def test_malformed_nmr_config_names_the_file(tmp_path, content, message):
    path = tmp_path / "nmr.json"
    path.write_text(json.dumps(content))
    with pytest.raises(ValueError) as exc:
        models.load_nmr_params(path)
    assert str(exc.value) == f"{path}: {message}"


def test_nmr_coupling_accessor():
    jc = ((0.0, 47.6, 160.7), (47.6, 0.0, 25.7), (160.7, 25.7, 0.0))
    nmr = models.NmrParams(deltas=(1.0, 2.0, 3.0), j_couplings=jc)
    assert nmr.coupling(1, 2) == 47.6
    assert nmr.coupling(3, 1) == 160.7


def test_config_loaders(tmp_path):
    npath = tmp_path / "nmr.json"
    npath.write_text(json.dumps({
        "deltas": [1.0, 2.0, 3.0],
        "j_couplings": [[0.0, 4.0, 5.0], [4.0, 0.0, 6.0], [5.0, 6.0, 0.0]],
    }))
    nmr = models.load_nmr_params(npath)
    assert nmr.coupling(2, 3) == 6.0


def test_with_coupling_and_tag_check():
    with pytest.raises(ValueError):
        models.model("xyz")


def test_hamiltonian_of_coupling_array_matches_per_coupling():
    p = models.ModelParams(omega_z=-1.3, omega_x=0.4)
    for tag in models.MODEL_TAGS:
        js = np.linspace(*models.model(tag).j_range, 37)
        for params in (None, p):
            stack = models.hamiltonian(tag, js, params)
            hx, hz = models.parts(tag, js, params)
            assert stack.shape == (37, 8, 8) and hz.shape == (37, 8)
            for j, h, d in zip(js, stack, hz):
                assert np.array_equal(h, models.hamiltonian(tag, j, params))
                assert np.array_equal(d, models.parts(tag, j, params)[1])
            assert np.array_equal(models.hamiltonian(tag, list(js[:3]), params), stack[:3])
    for tag, js, bad in (("zz", [0.0, 2.5, 3.0], "2.5"), ("zzz", [1.0, float("nan")], "nan")):
        with pytest.raises(ValueError) as stacked:
            models.hamiltonian(tag, np.array(js))
        with pytest.raises(ValueError) as scalar:
            models.hamiltonian(tag, float(bad))
        assert str(stacked.value) == str(scalar.value)


def test_nmr_params_reject_non_finite_entries():
    jc = ((0.0, 47.6, 160.7), (47.6, 0.0, 25.7), (160.7, 25.7, 0.0))
    with pytest.raises(ValueError, match="chemical shift delta3 must be finite"):
        models.NmrParams(deltas=(1.0, 2.0, float("inf")), j_couplings=jc)
    nan_j = ((0.0, 47.6, float("nan")), (47.6, 0.0, 25.7), (float("nan"), 25.7, 0.0))
    with pytest.raises(ValueError, match="coupling J13 must be finite"):
        models.NmrParams(deltas=(1.0, 2.0, 3.0), j_couplings=nan_j)


def test_nmr_params_reject_non_real_entries():
    with pytest.raises(ValueError, match=r"^coupling J11 must be a real number, got \[0\.0\]$"):
        models.NmrParams(deltas=(1.0, 2.0, 3.0), j_couplings=(([0.0], [1.0], [2.0]),) * 3)
    jc = ((0.0, 47.6, 160.7), (47.6, 0.0, 25.7), (160.7, 25.7, 0.0))
    for bad in ("2.0", None):
        with pytest.raises(ValueError, match="^chemical shift delta2 must be a real number"):
            models.NmrParams(deltas=(1.0, bad, 3.0), j_couplings=jc)


def test_nmr_config_too_deep_names_the_file(tmp_path):
    path = tmp_path / "nmr.json"
    path.write_text(json.dumps({"deltas": [1.0, 2.0, 3.0], "j_couplings": [[[0.0], [4.0], [5.0]]] * 3}))
    with pytest.raises(ValueError) as exc:
        models.load_nmr_params(path)
    assert str(exc.value) == f"{path}: coupling J11 must be a real number, got [0.0]"

