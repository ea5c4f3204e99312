import math

import numpy as np
import pytest
import scipy.linalg

from tricoh import adiabatic, coherence, models, qmat, states


def sweep_reports(sweep):
    return coherence.coherence_reports(states.density(sweep.ground_states))


def max_report_jump(reports):
    worst = 0.0
    for prev, cur in zip(reports, reports[1:]):
        a = np.asarray(coherence.report_values(prev))
        b = np.asarray(coherence.report_values(cur))
        worst = max(worst, float(np.abs(b - a).max()))
    return worst


def test_linear_schedule_three_points():
    sch = adiabatic.linear_schedule("zz", 2, 0.7)
    np.testing.assert_allclose(sch.values, [0.0, 1.0, 2.0], atol=1e-15)
    assert sch.tau == 0.7


def test_linear_schedule_endpoints_and_spacing():
    for tag in models.MODEL_TAGS:
        lo, hi = models.model(tag).j_range
        sch = adiabatic.linear_schedule(tag, 57, 0.3)
        assert sch.values[0] == lo and abs(sch.values[-1] - hi) < 1e-12
        steps = np.diff(sch.values)
        assert np.abs(steps - steps[0]).max() < 1e-12


def test_schedule_validation():
    with pytest.raises(ValueError):
        adiabatic.Schedule(values=(0.0, 1.2, 1.0, 2.0), tau=0.7, model_tag="zz")
    with pytest.raises(ValueError):
        adiabatic.Schedule(values=(0.5, 1.0, 2.0), tau=0.7, model_tag="zz")
    with pytest.raises(ValueError):
        adiabatic.Schedule(values=(0.0, 1.0, 2.0), tau=0.0, model_tag="zz")
    single = adiabatic.Schedule(values=(0.0,), tau=0.7, model_tag="zz")
    assert len(single.values) == 1


def test_constant_density_reduces_to_linear():
    grid = np.linspace(0.0, 2.0, 501)
    sch = adiabatic.schedule_from_density("zz", 40, 0.7, grid, np.ones_like(grid))
    lin = adiabatic.linear_schedule("zz", 40, 0.7)
    np.testing.assert_allclose(sch.values, lin.values, atol=1e-9)


def test_adaptive_schedule_densifies_near_gap_minimum():
    sch = adiabatic.gap_adaptive_schedule("zz", 300, 0.7)
    values = np.asarray(sch.values)
    steps = np.diff(values)
    assert np.all(steps >= -1e-12)
    k = int(np.abs(values - 1.0).argmin())
    near_crossover = steps[max(k - 1, 0):k + 1].min()
    assert near_crossover < steps[0] / 10
    assert near_crossover < steps[-1] / 10
    lin = adiabatic.linear_schedule("zz", 300, 0.7)
    assert values[0] == lin.values[0] and abs(values[-1] - lin.values[-1]) < 1e-12


def test_schedule_file_round_trip(tmp_path):
    import json
    sch = adiabatic.gap_adaptive_schedule("zzz", 25, 0.4)
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(list(sch.values)))
    back = adiabatic.load_schedule(path, "zzz", 0.4)
    assert np.array_equal(np.asarray(back.values), np.asarray(sch.values))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([0.0, 3.0, 2.0, 5.0]))
    with pytest.raises(ValueError):
        adiabatic.load_schedule(bad, "zzz", 0.4)


def test_ground_sweep_consistency(zz_sweep, zz_reports):
    n = len(zz_sweep.j_values)
    assert n == models.model("zz").steps + 1
    assert len(zz_reports) == n and len(zz_sweep.ground_states) == n
    assert zz_sweep.degenerate_steps == []
    gaps = np.asarray(zz_sweep.gaps)
    assert np.all(gaps > 0)
    # phase alignment: successive exact ground states overlap positively
    for a, b in zip(zz_sweep.ground_states, zz_sweep.ground_states[1:]):
        assert np.vdot(a, b).real > 0


def test_ground_sweep_endpoint_fidelities(zz_sweep, zzz_sweep):
    assert abs(zz_sweep.ground_target_fidelity - 0.9978) < 5e-4
    assert abs(zzz_sweep.ground_target_fidelity - 0.9996) < 5e-4


def test_coherence_curves_continuous(zz_reports, zzz_reports):
    assert max_report_jump(zz_reports) < 0.1
    assert max_report_jump(zzz_reports) < 0.1
    small = adiabatic.ground_sweep(adiabatic.linear_schedule("zz", 100, 0.7))
    assert max_report_jump(sweep_reports(small)) < 0.1
    adaptive_small = adiabatic.ground_sweep(adiabatic.gap_adaptive_schedule("zzz", 100, 0.4))
    assert max_report_jump(sweep_reports(adaptive_small)) < 0.1


def test_trotter_pair_unitarity_and_threshold():
    for tag, j, tau in (("zz", 1.0, 0.7), ("zzz", 2.5, 0.4)):
        u_ide, u_exp = adiabatic.trotter_pair(tag, j, tau)
        dim = u_ide.shape[0]
        assert np.abs(u_ide.conj().T @ u_ide - np.eye(dim)).max() < 1e-9
        assert np.abs(u_exp.conj().T @ u_exp - np.eye(dim)).max() < 1e-9
        assert qmat.unitary_fidelity(u_ide, u_exp) > 0.999


def test_commuting_split_is_exact():
    # without the transverse field hx = 0 commutes with the diagonal hz
    no_field = models.ModelParams(omega_x=0.0)
    for tag, j, tau in (("zz", 1.3, 0.7), ("zzz", 3.1, 0.4)):
        u_ide, u_exp = adiabatic.trotter_pair(tag, j, tau, no_field)
        np.testing.assert_allclose(u_ide, u_exp, atol=1e-12)


def test_full_product_stays_unitary(zz_sweep):
    u = np.eye(8, dtype=complex)
    for j in zz_sweep.j_values[1:]:
        _, u_exp = adiabatic.trotter_pair("zz", j, 0.7)
        u = u_exp @ u
    assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-7


def test_evolve_single_point_schedule():
    sch = adiabatic.Schedule(values=(0.0,), tau=0.7, model_tag="zz")
    res = adiabatic.evolve(sch)
    assert res.min_fidelity == pytest.approx(1.0, abs=1e-12)


def test_evolve_matches_independent_propagator(zz_linear_run):
    # re-simulation with a separately coded propagator and eigensolver
    sch = adiabatic.linear_schedule("zz", models.model("zz").steps, models.model("zz").tau)
    tau = sch.tau
    hx, _ = models.parts("zz", sch.values[0])
    w0, v0 = np.linalg.eigh(models.hamiltonian("zz", sch.values[0]))
    psi = v0[:, 0]
    fids = [1.0]
    half = scipy.linalg.expm(-0.5j * tau * hx)
    for j in sch.values[1:]:
        _, hz = models.parts("zz", j)
        psi = half @ scipy.linalg.expm(-1j * tau * np.diag(hz)) @ half @ psi
        _, v = np.linalg.eigh(models.hamiltonian("zz", j))
        fids.append(abs(np.vdot(v[:, 0], psi)))
    assert abs(min(fids) - zz_linear_run.min_fidelity) < 1e-3
    assert abs(fids[-1] - zz_linear_run.fid_instant[-1]) < 1e-3


def test_tau_halving_improves_min_fidelity(zz_adaptive_run, zzz_adaptive_run):
    for tag, run in (("zz", zz_adaptive_run), ("zzz", zzz_adaptive_run)):
        m = models.model(tag).steps
        tau = models.model(tag).tau
        finer = adiabatic.evolve(adiabatic.gap_adaptive_schedule(tag, 2 * m, tau / 2))
        assert finer.min_fidelity > run.min_fidelity


def test_adaptive_beats_linear(zz_linear_run, zzz_linear_run, zz_adaptive_run, zzz_adaptive_run):
    assert zz_adaptive_run.min_fidelity >= zz_linear_run.min_fidelity
    assert zzz_adaptive_run.min_fidelity >= zzz_linear_run.min_fidelity


def test_evolve_fidelity_ranges(zz_linear_run, zzz_linear_run):
    for run in (zz_linear_run, zzz_linear_run):
        fids = np.asarray(run.fid_instant)
        assert np.all(fids >= 0.0) and np.all(fids <= 1.0 + 1e-12)
        assert abs(run.min_fidelity - fids.min()) < 1e-15
        assert 0.0 <= run.final_fidelity <= 1.0


def test_evolve_pseudopure_affine_map():
    mu = 1e-3
    sch = adiabatic.linear_schedule("zz", 50, 0.7)
    pure = adiabatic.evolve(sch)
    pps = adiabatic.evolve(sch, mu=mu)
    for f1, fm in zip(pure.fid_instant, pps.fid_instant):
        want = math.sqrt((1 - mu) / 8 + mu * f1 * f1)
        assert abs(fm - want) < 1e-12
    # spot check against a directly constructed pseudopure density matrix
    g = qmat.ground_state(models.hamiltonian("zz", sch.values[-1]))
    rho = states.make_pps(pure.final_state, mu)
    direct = qmat.root_fidelity(rho, states.density(g.state))
    assert abs(direct - pps.fid_instant[-1]) < 1e-7


def test_error_scaling_ratio_and_stability():
    ratio = adiabatic.trotter_error_scaling("zz", 1.0, 0.1)
    assert 6.0 <= ratio <= 10.0
    ratios = [adiabatic.trotter_error_scaling("zz", j, 0.1) for j in (0.5, 1.0, 1.5, 2.0)]
    assert max(ratios) / min(ratios) < 1.3


def test_error_scaling_degenerate_and_precondition():
    assert math.isnan(adiabatic.trotter_error_scaling("zz", 1.0, 0.1, params=models.ModelParams(omega_x=0.0)))
    with pytest.raises(ValueError):
        adiabatic.trotter_error_scaling("zz", 1.0, 3.0)


def test_error_scaling_of_coupling_array():
    for tag in models.MODEL_TAGS:
        js = np.linspace(*models.model(tag).j_range, 5)
        ratios = adiabatic.trotter_error_scaling(tag, js, 0.1)
        singles = [adiabatic.trotter_error_scaling(tag, j, 0.1) for j in js]
        assert all(type(r) is float for r in singles)
        assert ratios.shape == (5,)
        assert same_bits(ratios, singles)
    # zzz at J = 0 is a commuting split, so only that row is NaN
    assert np.isnan(ratios).tolist() == [True, False, False, False, False]
    commuting = adiabatic.trotter_error_scaling("zzz", js, 0.1, params=models.ModelParams(omega_x=0.0))
    assert np.isnan(commuting).all()
    # at tau = 2 only J = 2.5 of the zzz table leaves the scaling regime
    with pytest.raises(ValueError, match="at J=2.5: error"):
        adiabatic.trotter_error_scaling("zzz", js, 2.0)
    with pytest.raises(ValueError, match="at J=2.5: error"):
        adiabatic.trotter_error_scaling("zzz", 2.5, 2.0)
    assert math.isfinite(adiabatic.trotter_error_scaling("zzz", 3.75, 2.0))


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_trotter_rejects_bad_tau(tau):
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        adiabatic.trotter_pair("zz", 1.0, tau)
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        adiabatic.trotter_error_scaling("zz", 1.0, tau)


def test_min_steps_search_basics():
    assert adiabatic.min_steps_search("zz", 0.0, 0.7) == 1
    low = adiabatic.min_steps_search("zz", 0.8, 0.7)
    high = adiabatic.min_steps_search("zz", 0.95, 0.7)
    assert low <= high
    with pytest.raises(ValueError, match="best achieved"):
        adiabatic.min_steps_search("zz", 0.9999, 0.7, step_cap=20)
    assert adiabatic.min_steps_search("zz", 0.0, 0.7, step_cap=1) == 1
    for cap in (0, -3):
        with pytest.raises(ValueError, match="step_cap must be at least 1"):
            adiabatic.min_steps_search("zz", 0.5, 0.7, step_cap=cap)


def test_min_steps_search_paper_defaults(zz_adaptive_run, zzz_adaptive_run):
    # fidelity vs step count oscillates by a few 1e-4 around its envelope, so
    # target the default-run quality with a margin wider than the oscillation
    margin = 1e-3
    m_zz = adiabatic.min_steps_search("zz", zz_adaptive_run.min_fidelity - margin, 0.7)
    assert m_zz <= 300
    m_zzz = adiabatic.min_steps_search("zzz", zzz_adaptive_run.min_fidelity - margin, 0.4)
    assert m_zzz <= 200


def test_refocus_matches_independent_formulas():
    deltas = (7792.0, 15480.0, 3845.0)
    jc = ((0.0, 47.6, 160.7), (47.6, 0.0, 25.7), (160.7, 25.7, 0.0))
    nmr = models.NmrParams(deltas=deltas, j_couplings=jc)
    sch = adiabatic.linear_schedule("zz", 4, 0.7)
    ref = adiabatic.refocus_params(nmr, sch, -2.0, omega_x=0.1)
    d12, d13, d23 = 1 / (2 * 47.6), 1 / (2 * 160.7), 1 / (2 * 25.7)
    assert ref.m_indices == [1, 2, 3, 4]
    assert any("m=0" in note for note in ref.notices)
    assert abs(ref.pulse_angle - 0.1 * 0.7 / 2) < 1e-15
    for i, m in enumerate(ref.m_indices):
        j = sch.values[m]
        assert abs(ref.j_values[i] - j) < 1e-15
        assert abs(ref.columns["tau1"][i] - j * 0.7 / math.pi * (d12 + d23)) < 1e-12
        assert abs(ref.columns["tau2"][i] - j * 0.7 / math.pi * (d12 + d13)) < 1e-12
        assert abs(ref.columns["tau3"][i] - j * 0.7 / math.pi * (d13 + d23)) < 1e-12
        assert abs(ref.columns["FQ1"][i] - (-2.0) / (4 * j * d12)) < 1e-9
        assert abs(ref.columns["FQ2"][i] - (-2.0) / (4 * j * (d12 + d13 + d23))) < 1e-9
        assert abs(ref.columns["FQ3"][i] - (-2.0) / (4 * j * d23)) < 1e-9
        assert ref.columns["tau1"][i] >= 0 and ref.columns["tau2"][i] >= 0 and ref.columns["tau3"][i] >= 0


def test_refocus_offsets_inverse_in_coupling():
    jc = ((0.0, 47.6, 160.7), (47.6, 0.0, 25.7), (160.7, 25.7, 0.0))
    nmr = models.NmrParams(deltas=(1.0, 2.0, 3.0), j_couplings=jc)
    sch = adiabatic.linear_schedule("zz", 2, 0.7)
    ref = adiabatic.refocus_params(nmr, sch, -2.0, omega_x=0.1)
    # J doubles from step 1 to step 2, so every offset halves
    for fq in (ref.columns["FQ1"], ref.columns["FQ2"], ref.columns["FQ3"]):
        assert abs(fq[1] - fq[0] / 2) < 1e-9


def test_refocus_zzz_delay():
    jc = ((0.0, 47.6, 160.7), (47.6, 0.0, 25.7), (160.7, 25.7, 0.0))
    nmr = models.NmrParams(deltas=(1.0, 2.0, 3.0), j_couplings=jc)
    sch = adiabatic.linear_schedule("zzz", 4, 0.4)
    ref = adiabatic.refocus_params(nmr, sch, -2.0, omega_x=0.1)
    d12 = 1 / (2 * 47.6)
    for i, m in enumerate(ref.m_indices):
        assert abs(ref.columns["d_m"][i] - sch.values[m] * 0.4 / math.pi * d12) < 1e-12


def test_refocus_zero_coupling_error():
    jc = ((0.0, 0.0, 160.7), (0.0, 0.0, 25.7), (160.7, 25.7, 0.0))
    nmr = models.NmrParams(deltas=(1.0, 2.0, 3.0), j_couplings=jc)
    sch = adiabatic.linear_schedule("zz", 2, 0.7)
    with pytest.raises(ValueError, match="J12"):
        adiabatic.refocus_params(nmr, sch, -2.0, omega_x=0.1)


def test_find_crossing():
    j = np.array([0.0, 1.0, 2.0, 3.0])
    a = np.array([1.0, 1.0, 0.2, 0.0])
    b = np.array([0.0, 0.5, 0.6, 1.0])
    lo, hi, root = adiabatic.find_crossing(j, a, b)
    assert (lo, hi) == (1.0, 2.0)
    assert abs(root - (1.0 + 0.5 / 0.9)) < 1e-12
    assert adiabatic.find_crossing(j, a + 2.0, b) is None


def test_evolve_with_reports():
    sch = adiabatic.linear_schedule("zzz", 10, 0.4)
    reports = sweep_reports(adiabatic.evolve(sch))
    assert len(reports) == 11
    assert reports[0].c_local > 0.5


def per_step_ground_sweep(tag, values, params=None):
    # the per-step reference: one validated eig_hermitian per coupling value
    e0, e1, grounds, degenerate = [], [], [], []
    for m, j in enumerate(values):
        spec = qmat.eig_hermitian(models.hamiltonian(tag, j, params))
        e0.append(spec.eigenvalues[0])
        e1.append(spec.eigenvalues[1])
        if spec.eigenvalues[1] - spec.eigenvalues[0] < qmat.DEGENERACY_TOL:
            degenerate.append(m)
        g = spec.eigenvectors[:, 0].copy()
        if grounds and np.real(np.vdot(grounds[-1], g)) < 0.0:
            g = -g
        grounds.append(g)
    return np.array(e0), np.array(e1), np.array(grounds), degenerate


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("tag", models.MODEL_TAGS)
def test_ground_sweep_matches_per_step_reference_bitwise(tag):
    m = models.model(tag)
    # without the transverse field every step is degenerate for zzz (and
    # every other one for zz), and the ground cluster changes with a zero overlap
    for params in (None, models.ModelParams(omega_x=0.0), models.ModelParams(omega_z=-1.1, omega_x=0.3)):
        for sch in (adiabatic.linear_schedule(tag, m.steps, m.tau), adiabatic.gap_adaptive_schedule(tag, m.steps, m.tau)):
            sweep = adiabatic.ground_sweep(sch, params=params)
            e0, e1, grounds, degenerate = per_step_ground_sweep(tag, sch.values, params)
            assert same_bits(sweep.ground_energies, e0)
            assert same_bits(sweep.excited_energies, e1)
            assert same_bits(sweep.gaps, e1 - e0)
            assert same_bits(sweep.ground_states, grounds)
            assert sweep.degenerate_steps == degenerate


def test_ground_sweep_sign_alignment_resets_on_zero_overlap(monkeypatch):
    # overlaps +, -, 0, -, -, 0, +, - with the aligned previous vector
    e0, e1 = np.eye(8, dtype=complex)[:2]
    raw = np.array([e0, e0, -e0, e1, -e1, e1, e0, e0, -e0])
    flags = np.zeros(len(raw), dtype=bool)
    monkeypatch.setattr(adiabatic, "ground_states", lambda hs: (np.zeros((len(hs), 8)), raw.copy(), flags))
    sch = adiabatic.linear_schedule("zz", len(raw) - 1, 0.7)
    want = []
    for g in raw:
        # the per-step rule: negate when the overlap with the aligned previous vector is negative
        want.append(-g if want and np.real(np.vdot(want[-1], g)) < 0.0 else g)
    got = adiabatic.ground_sweep(sch).ground_states
    assert same_bits(got, np.array(want))
    assert same_bits(got, [e0, e0, e0, e1, e1, e1, e0, e0, e0])


def test_ground_sweep_degenerate_fallback():
    # without the transverse field every zzz level is at least fourfold degenerate
    params = models.ModelParams(omega_x=0.0)
    sch = adiabatic.linear_schedule("zzz", 20, 0.4)
    sweep = adiabatic.ground_sweep(sch, params=params)
    assert sweep.degenerate_steps == list(range(len(sch.values)))
    for j, g in zip(sch.values, sweep.ground_states):
        assert np.array_equal(g, qmat.eig_hermitian(models.hamiltonian("zzz", j, params)).eigenvectors[:, 0])


@pytest.mark.parametrize("tag", models.MODEL_TAGS)
def test_evolve_matches_per_step_propagator(tag):
    m = models.model(tag)
    sch = adiabatic.gap_adaptive_schedule(tag, 60, m.tau)
    run = adiabatic.evolve(sch)
    hx, _ = models.parts(tag, sch.values[0])
    half = qmat.expm_hermitian(hx, sch.tau / 2)
    psi = run.ground_states[0].copy()
    fids = [abs(np.vdot(run.ground_states[0], psi))]
    for k, j in enumerate(sch.values[1:], start=1):
        _, hz = models.parts(tag, j)
        psi = half @ (qmat.expm_hermitian(np.diag(hz), sch.tau) @ (half @ psi))
        fids.append(abs(np.vdot(run.ground_states[k], psi)))
    np.testing.assert_allclose(run.fid_instant, fids, rtol=0, atol=1e-12)
    np.testing.assert_allclose(run.final_state, psi, rtol=0, atol=1e-12)


def per_step_vdot_evolve(sch, mu):
    # the per-step reference: a vdot, abs and math.sqrt after every propagation step
    tag = sch.model_tag
    grounds = adiabatic.ground_sweep(sch).ground_states
    hx, hz = models.parts(tag, sch.values)
    u_half = qmat.expm_hermitian(hx, sch.tau / 2)
    kicks = np.exp(-1j * sch.tau * hz)
    psi = grounds[0].copy()

    def reported(pure_amp):
        return math.sqrt((1.0 - mu) / 8 + mu * pure_amp**2)

    fids = np.empty(len(sch.values))
    fids[0] = reported(abs(np.vdot(grounds[0], psi)))
    for m in range(1, len(sch.values)):
        psi = u_half @ (kicks[m] * (u_half @ psi))
        fids[m] = reported(abs(np.vdot(grounds[m], psi)))
    target = states.make_state(models.model(tag).target)
    return fids, psi, reported(abs(np.vdot(target, psi)))


@pytest.mark.parametrize("mu", [1.0, 0.3])
@pytest.mark.parametrize("tag", models.MODEL_TAGS)
def test_evolve_matches_per_step_vdot_loop_bitwise(tag, mu):
    m = models.model(tag)
    for sch in (adiabatic.linear_schedule(tag, m.steps, m.tau), adiabatic.gap_adaptive_schedule(tag, 60, m.tau)):
        run = adiabatic.evolve(sch, mu=mu)
        fids, psi, final = per_step_vdot_evolve(sch, mu)
        assert same_bits(run.fid_instant, fids)
        assert same_bits(run.final_state, psi)
        assert run.min_fidelity == float(fids.min())
        assert run.final_fidelity == final


def per_point_density(tag, grid):
    # the per-point reference for the stacked sector density
    basis = adiabatic.symmetric_sector_basis()
    d_small = basis.conj().T @ np.diag(models.model(tag).dh_dj) @ basis
    dens = np.empty_like(grid)
    for i, j in enumerate(grid):
        w, v = np.linalg.eigh(basis.conj().T @ models.hamiltonian(tag, j) @ basis)
        rate = 0.0
        for n in range(1, len(w)):
            rate += abs(np.vdot(v[:, n], d_small @ v[:, 0])) / (w[n] - w[0]) ** 2
        dens[i] = rate
    return dens


@pytest.mark.parametrize("tag", models.MODEL_TAGS)
def test_gap_adaptive_schedule_matches_per_point_density_bitwise(tag):
    m = models.model(tag)
    grid = np.linspace(*m.j_range, adiabatic.DENSITY_GRID + 1)
    dens = per_point_density(tag, grid)
    for steps in (300, 200, 40):
        want = adiabatic.schedule_from_density(tag, steps, m.tau, grid, dens)
        assert np.array_equal(adiabatic.gap_adaptive_schedule(tag, steps, m.tau).values, want.values)


@pytest.mark.parametrize("tag", models.MODEL_TAGS)
def test_trotter_pair_stack_matches_per_coupling_bitwise(tag):
    m = models.model(tag)
    for sch in (adiabatic.linear_schedule(tag, m.steps, m.tau), adiabatic.gap_adaptive_schedule(tag, m.steps, m.tau)):
        u_ide, u_exp = adiabatic.trotter_pair(tag, sch.values, sch.tau)
        assert u_ide.shape == u_exp.shape == (len(sch.values), 8, 8)
        for j, a, b in zip(sch.values, u_ide, u_exp):
            want_ide, want_exp = adiabatic.trotter_pair(tag, j, sch.tau)
            assert np.array_equal(a, want_ide)
            assert np.array_equal(b, want_exp)


def test_trotter_phase_overflow_raises():
    # tau * hz overflows for zz, whose diagonal reaches past 1
    sch = adiabatic.linear_schedule("zz", 3, 1e308)
    with pytest.raises(ValueError, match=r"tau 1e\+308 is too large"):
        adiabatic.evolve(sch)
    with pytest.raises(ValueError, match=r"tau 1e\+308 is too large"):
        adiabatic.trotter_pair("zz", 1.0, 1e308)
    with pytest.raises(ValueError, match=r"tau 1e\+308 is too large"):
        adiabatic.trotter_pair("zz", sch.values, 1e308)
    # a huge tau whose phases stay finite still propagates, without a warning
    u_ide, u_exp = adiabatic.trotter_pair("zz", sch.values, 1e300)
    assert np.isfinite(u_ide).all() and np.isfinite(u_exp).all()
    assert np.isfinite(adiabatic.evolve(adiabatic.linear_schedule("zz", 3, 1e300)).fid_instant).all()
