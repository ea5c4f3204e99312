import contextlib
import dataclasses
import json
import math
import re

import numpy as np
import pytest
import scipy.linalg

from helpers import same_bits, traced_peak, zzz_pair_block
from tricoh import adiabatic, coherence, models, qmat, states

EPS = np.finfo(float).eps
# (model tag, basis, hz levels) of the bases the sector code is run on: the shipped sector for
# each model (basis None), and the 2-dim block (e_+, G) of the zzz ground state
BLOCKS = {"zz": ("zz", None, [0, 1, 3, 7]), "zzz": ("zzz", None, [0, 1, 3, 7]),
          "zzz-pair": ("zzz", zzz_pair_block(), [0, 1])}


@contextlib.contextmanager
def sector_swapped(name):
    """Run with the sector basis and levels of the test block ``name``; yields its model tag.

    ``_density_table`` is cached by model and fields, not by basis, so a swap empties the cache on
    entry and on exit: inside, every table comes from the swapped basis, and none outlives it.
    """
    tag, block, levels = BLOCKS[name]
    if block is None:
        yield tag
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adiabatic, "_SECTOR_BASIS", block)
        patch.setattr(adiabatic, "_SECTOR_LEVELS", levels)
        adiabatic._density_table.cache_clear()
        try:
            yield tag
        finally:
            adiabatic._density_table.cache_clear()


def sweep_reports(sweep):
    return coherence.coherence_reports(states.density(sweep.ground_states))


def max_report_jump(reports):
    worst = 0.0
    for prev, cur in zip(reports, reports[1:]):
        a = np.asarray(list(prev))
        b = np.asarray(list(cur))
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


STEP_BUILDERS = {
    "linear": lambda m_steps: adiabatic.linear_schedule("zz", m_steps, 0.7),
    "density": lambda m_steps: adiabatic.schedule_from_density("zz", m_steps, 0.7, [0.0, 2.0], [1.0, 1.0]),
    "adaptive": lambda m_steps: adiabatic.gap_adaptive_schedule("zz", m_steps, 0.7),
}


@pytest.mark.parametrize("m_steps", [2.5, 3.0, True, np.float64(3.0), "3"])
@pytest.mark.parametrize("kind", STEP_BUILDERS)
def test_schedules_reject_a_step_count_that_is_not_an_integer(kind, m_steps):
    with pytest.raises(ValueError, match=re.escape(f"m_steps must be an integer, got {m_steps!r}")):
        STEP_BUILDERS[kind](m_steps)


@pytest.mark.parametrize("m_steps", [0, -3, np.int64(0)])
@pytest.mark.parametrize("kind", STEP_BUILDERS)
def test_schedules_reject_fewer_than_one_step(kind, m_steps):
    with pytest.raises(ValueError, match=re.escape(f"m_steps must lie in [1, 100000], got {m_steps}") + "$"):
        STEP_BUILDERS[kind](m_steps)


@pytest.mark.parametrize("kind", STEP_BUILDERS)
def test_schedules_have_a_step_ceiling(kind):
    with pytest.raises(ValueError, match=re.escape("m_steps must lie in [1, 100000], got 100001") + "$"):
        STEP_BUILDERS[kind](100_001)
    assert len(STEP_BUILDERS[kind](100_000).values) == 100_001


@pytest.mark.parametrize("kind", STEP_BUILDERS)
def test_schedules_accept_numpy_integer_step_counts(kind):
    for m_steps in (np.int64(3), np.int32(1)):
        assert np.array_equal(STEP_BUILDERS[kind](m_steps).values, STEP_BUILDERS[kind](int(m_steps)).values)


def test_constant_density_reduces_to_linear():
    grid = np.linspace(0.0, 2.0, 501)
    sch = adiabatic.schedule_from_density("zz", 40, 0.7, grid, np.ones_like(grid))
    lin = adiabatic.linear_schedule("zz", 40, 0.7)
    np.testing.assert_allclose(sch.values, lin.values, atol=1e-9)


def test_schedule_from_density_inverts_the_trapezoid_cumulative_on_a_nonuniform_grid():
    # each trapezoid is weighted by its own width; a uniform grid's width cancels in the normalization
    grid, density = [0.0, 0.1, 0.4, 1.0, 2.0], [1.0, 4.0, 2.0, 0.5, 1.0]
    cum = [0.0]
    for g0, g1, d0, d1 in zip(grid, grid[1:], density, density[1:]):
        cum.append(cum[-1] + (d0 + d1) / 2 * (g1 - g0))
    cum = [c / cum[-1] for c in cum]
    want = []
    for t in np.linspace(0.0, 1.0, 11):
        k = max(i for i in range(len(grid) - 1) if cum[i] <= t)
        want.append(grid[k] + (t - cum[k]) / (cum[k + 1] - cum[k]) * (grid[k + 1] - grid[k]))
    sch = adiabatic.schedule_from_density("zz", 10, 0.7, grid, density)
    np.testing.assert_allclose(sch.values, want, rtol=0, atol=1e-12)


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


def test_nested_schedule_names_its_shape(tmp_path):
    import json
    path = tmp_path / "nested.json"
    path.write_text(json.dumps([[0.0, 2.0]]))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: schedule values must be a 1-D array, got shape \(1, 2\)$"):
        adiabatic.load_schedule(path, "zz", 0.7)
    with pytest.raises(ValueError, match="^schedule needs at least one value$"):
        adiabatic.Schedule(values=[], tau=0.7, model_tag="zz")


def test_ground_sweep_consistency(zz_sweep, zz_reports):
    n = len(zz_sweep.j_values)
    assert n == models.model("zz").steps + 1
    assert len(zz_reports) == n and len(zz_sweep.ground_states) == n
    assert zz_sweep.degenerate_steps == []
    gaps = np.asarray(zz_sweep.gaps)
    assert np.all(gaps > 0)
    # phase convention: each ground vector's largest-magnitude amplitude is real and nonnegative
    grounds = zz_sweep.ground_states
    pivots = grounds[np.arange(len(grounds)), np.abs(grounds).argmax(axis=1)]
    assert np.all(pivots.imag == 0.0) and np.all(pivots.real >= 0.0)


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
    _, g, _ = qmat.ground_states(models.hamiltonian("zz", sch.values[-1]))
    rho = states.make_pps(pure.final_state, mu)
    direct = qmat.root_fidelity(rho, states.density(g))
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
    with pytest.raises(ValueError, match=r"tau must lie in \(0, inf\)"):
        adiabatic.trotter_pair("zz", 1.0, tau)
    with pytest.raises(ValueError, match=r"tau must lie in \(0, inf\)"):
        adiabatic.trotter_error_scaling("zz", 1.0, tau)
    with pytest.raises(ValueError, match=r"tau must lie in \(0, inf\)"):
        adiabatic.min_steps_search("zz", 0.9, tau)


def test_min_steps_search_basics():
    assert adiabatic.min_steps_search("zz", 0.0, 0.7) == 1
    low = adiabatic.min_steps_search("zz", 0.8, 0.7)
    high = adiabatic.min_steps_search("zz", 0.95, 0.7)
    assert low <= high
    with pytest.raises(ValueError, match="best achieved"):
        adiabatic.min_steps_search("zz", 0.99999, 0.7)


def test_min_steps_search_paper_defaults(zz_adaptive_run, zzz_adaptive_run):
    # fidelity vs step count oscillates by a few 1e-4 around its envelope, so
    # target the default-run quality with a margin wider than the oscillation
    margin = 1e-3
    m_zz = adiabatic.min_steps_search("zz", zz_adaptive_run.min_fidelity - margin, 0.7)
    assert m_zz <= 300
    m_zzz = adiabatic.min_steps_search("zzz", zzz_adaptive_run.min_fidelity - margin, 0.4)
    assert m_zzz <= 200


def evolve_min_fidelity(tag, m_steps, tau, params=None):
    return adiabatic.evolve(adiabatic.gap_adaptive_schedule(tag, m_steps, tau, params), params=params).min_fidelity


def search_trace(scores, target, cap):
    """The counts the documented search probes, and its result, with ``scores[m]`` the value of probe m.

    Doubling 1, 2, 4, ... up to ``cap`` stops at the first passing count; bisection then narrows the bracket from
    the last failing one. A count missing from ``scores`` reads NaN, which fails every target.
    """
    probed, lo, m = [], 0, 1
    while True:
        probed.append(m)
        if scores.get(m, math.nan) >= target or m >= cap:
            break
        lo, m = m, min(2 * m, cap)
    hi = m
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probed.append(mid)
        if scores.get(mid, math.nan) >= target:
            hi = mid
        else:
            lo = mid
    return probed, hi


def probed_search(monkeypatch, tag, target, tau, probe=None):
    """``min_steps_search``'s result and probed step counts, with ``probe(schedule, params)`` in place of the sector score.

    Every probe, the nested doubling probes included, passes through ``adiabatic._search_probe``, and the counts are
    those it receives. They must be the documented doubling then bisection on the values the probes returned, and
    the result must be that trace's: a search that scores a probe outside the seam, or probes fewer than two
    counts, fails here.
    """
    trace = []
    search_probe = adiabatic._search_probe

    def seam(m_steps, sector, nest):
        if probe is None:
            value = search_probe(m_steps, sector, nest)
        else:
            values = adiabatic._schedule_values(sector.grid, sector.cum, m_steps)
            value = probe(adiabatic.Schedule(values=values, tau=sector.tau, model_tag=tag), None)
        trace.append((m_steps, value))
        return value

    with monkeypatch.context() as patch:
        patch.setattr(adiabatic, "_search_probe", seam)
        got = adiabatic.min_steps_search(tag, target, tau)
    probed = [m_steps for m_steps, _ in trace]
    assert len(probed) > 1
    assert (probed, got) == search_trace(dict(trace), target, 10 * models.model(tag).steps)
    return got, probed


@pytest.mark.parametrize(("tag", "target", "want"), [
    ("zz", 0.9, 36), ("zz", 0.99, 126), ("zz", 0.999, 412),
    ("zzz", 0.9, 19), ("zzz", 0.99, 60), ("zzz", 0.999, 266),
])
def test_min_steps_search_matches_evolve_reference(monkeypatch, tag, target, want):
    # the reference scores every probe with a full 8-dim evolve
    tau = models.model(tag).tau
    ref, ref_probed = probed_search(monkeypatch, tag, target, tau,
                                    lambda sch, params: adiabatic.evolve(sch, params=params).min_fidelity)
    got, probed = probed_search(monkeypatch, tag, target, tau)
    assert got == ref == want
    assert probed == ref_probed
    assert evolve_min_fidelity(tag, got, tau) >= target > evolve_min_fidelity(tag, got - 1, tau)


def test_search_trace_replays_the_documented_search():
    # scores that pass from 40 on: doubling to 64, then bisection from 32
    scores = {m: float(m >= 40) for m in range(1, 65)}
    assert search_trace(scores, 0.5, 2000) == ([1, 2, 4, 8, 16, 32, 64, 48, 40, 36, 38, 39], 40)
    assert search_trace({1: 1.0}, 0.5, 2000) == ([1], 1)
    # a count with no score fails, so the doubling runs on to the cap
    assert search_trace({}, 0.5, 5) == ([1, 2, 4, 5], 5)


def test_min_steps_search_is_not_the_smallest_passing_count():
    # f(m) is not monotone in m: 202 steps already reach 0.999, but the
    # bisection bracket the search lands in ends at 266
    assert evolve_min_fidelity("zzz", 202, 0.4) == pytest.approx(0.9990053, abs=1e-7)
    assert adiabatic.min_steps_search("zzz", 0.999, 0.4) == 266


def sector_min_fidelity(values, sector):
    # the route of a step-search probe that builds its own pairs
    return adiabatic._sector_propagate(*adiabatic._sector_pairs(values, sector))


def sector_probe(schedule, params=None):
    sector = adiabatic._prepare_sector(schedule.model_tag, schedule.tau, params)
    return sector_min_fidelity(schedule.values, sector)


@pytest.mark.parametrize("params", [None, models.ModelParams(omega_z=-1.7, omega_x=0.2),
                                    models.ModelParams(omega_x=-0.1), models.ModelParams(omega_x=1e-3)])
@pytest.mark.parametrize("tag", BLOCKS)
def test_sector_probe_matches_evolve(tag, params):
    model_tag = BLOCKS[tag][0]
    m = models.model(model_tag)
    for m_steps in (1, 2, 60, 412, 10 * m.steps):
        # the schedule comes from the shipped sector's density table
        sch = adiabatic.gap_adaptive_schedule(model_tag, m_steps, m.tau, params)
        want = adiabatic.evolve(sch, params=params).min_fidelity
        with sector_swapped(tag):
            got = sector_probe(sch, params)
        assert abs(got - want) < 1e-10


def test_min_steps_search_runs_no_8_dim_propagation(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the step search must not run an 8-dim propagation")

    for namespace in (adiabatic, qmat):
        monkeypatch.setattr(namespace, "ground_states", forbidden)
    monkeypatch.setattr(adiabatic, "evolve", forbidden)
    assert adiabatic.min_steps_search("zz", 0.99, 0.7) == 126
    assert adiabatic.min_steps_search("zzz", 0.99, 0.4) == 60


SECTOR_BASIS = np.column_stack([states.make_state(s) for s in ("000", "W001", "W110", "111")])


def sequential_sector_min_fidelity(schedule, params=None):
    # the step-by-step reference of the blocked sector propagation: one 4x4 matvec per step
    hx, hz = models.parts(schedule.model_tag, schedule.values, params)
    basis = SECTOR_BASIS.real
    hx_s = basis.T @ hx.real @ basis
    hz_s = hz[:, [0, 1, 3, 7]]
    half, kicks = adiabatic._split_step(hx_s, hz_s, schedule.tau)
    grounds = np.linalg.eigh(hx_s + hz_s[:, :, None] * np.eye(4))[1][:, :, 0]
    steps = (half * kicks[:, None, :]) @ half
    psis = np.empty(grounds.shape, dtype=complex)
    psis[0] = grounds[0]
    for m in range(1, len(psis)):
        psis[m] = steps[m] @ psis[m - 1]
    return float(np.abs((grounds * psis).sum(axis=1)).min())


@pytest.mark.parametrize("params", [None, models.ModelParams(omega_z=-1.7, omega_x=0.2)])
@pytest.mark.parametrize("tag", models.MODEL_TAGS)
def test_blocked_sector_probe_matches_step_by_step_loop(tag, params):
    # block edges: k = isqrt(m + 1) gives k = 3 for m = 8..14 and k = 4 for m = 15..23
    m = models.model(tag)
    for m_steps in (1, 2, 3, 8, 9, 10, 15, 16, 17, 412, 10 * m.steps):
        sch = adiabatic.gap_adaptive_schedule(tag, m_steps, m.tau, params)
        want = sequential_sector_min_fidelity(sch, params)
        assert abs(sector_probe(sch, params) - want) < 1e-13
    single = adiabatic.Schedule(values=(0.0,), tau=m.tau, model_tag=tag)
    assert sector_probe(single) == sequential_sector_min_fidelity(single)


@pytest.mark.parametrize("name", BLOCKS)
def test_sector_basis_is_real_orthonormal_invariant_and_holds_the_ground_state(name):
    tag, block, levels = BLOCKS[name]
    m = models.model(tag)
    if block is None:
        block = adiabatic._SECTOR_BASIS
        assert not block.flags.writeable and not adiabatic._SECTOR_LEVELS.flags.writeable
        assert adiabatic._SECTOR_LEVELS.tolist() == levels
    k = len(levels)
    assert block.shape == (8, k) and np.all(block.imag == 0.0)
    b = block.real
    assert np.abs(b.T @ b - np.eye(k)).max() <= 4 * EPS
    outside = np.eye(8) - b @ b.T
    hx = models.parts(tag, 0.0)[0].real
    for x in (hx, np.diag(m.dh_dj), np.diag(m.dh_domega_z)):
        assert np.abs(outside @ x @ b).max() <= 4 * EPS * max(1.0, np.abs(x).max())
    # the Newton kernel reads only the diagonal hz and the first off-diagonal of hx_s
    hx_s = b.T @ hx @ b
    i, j = np.indices(hx_s.shape)
    assert np.all(hx_s[np.abs(i - j) != 1] == 0.0)
    # each column joins computational states of one value of each diagonal, read at its level
    for column, level in zip(b.T, levels):
        support = column != 0.0
        assert support.argmax() == level
        for diagonal in (m.dh_dj, m.dh_domega_z):
            assert np.all(diagonal[support] == diagonal[level])
    _, ground, _ = qmat.ground_states(models.hamiltonian(tag, 0.0))
    assert np.linalg.norm(outside @ ground) <= 4 * EPS


def sector_problem(name, params, n_values):
    """``(hx_s, hz_s, start, H_s)`` of the probe's ground-pair kernel on ``n_values`` evenly spaced couplings.

    ``name`` is a key of ``BLOCKS``, whose basis gives ``hx_s`` and the density table of ``start``.
    """
    with sector_swapped(name) as tag:
        sector = adiabatic._prepare_sector(tag, models.model(tag).tau, params)
    hx_s, levels = sector.hx_s, BLOCKS[name][2]
    values = np.linspace(*models.model(tag).j_range, n_values)
    hz_s = models.parts(tag, values, params)[1][:, levels]
    return hx_s, hz_s, np.interp(values, sector.grid, sector.ground), hx_s + hz_s[:, :, None] * np.eye(len(levels))


def spy_on_eigh(patch):
    """Record the stack size of every ``eigh`` and ``eigvalsh`` call made while ``patch`` is active."""
    sizes = []
    for name in ("eigh", "eigvalsh"):
        def spy(a, *args, _kernel=getattr(np.linalg, name), **kwargs):
            sizes.append(1 if np.ndim(a) == 2 else len(a))
            return _kernel(a, *args, **kwargs)

        patch.setattr(np.linalg, name, spy)
    return sizes


@pytest.mark.parametrize("params", [None, models.ModelParams(omega_z=-1.7, omega_x=0.2), models.ModelParams(omega_x=-0.1),
                                    models.ModelParams(omega_x=1e-2), models.ModelParams(omega_x=1e-3)],
                         ids=["default", "fields", "negative", "1e-2", "1e-3"])
@pytest.mark.parametrize("tag", BLOCKS)
def test_sector_ground_pairs_match_eigh(monkeypatch, tag, params):
    hx_s, hz_s, start, h = sector_problem(tag, params, 4001)
    want_w = np.linalg.eigvalsh(h)[:, 0]
    want_v = np.linalg.eigh(h)[1][:, :, 0]
    with monkeypatch.context() as patch, np.errstate(all="raise"):
        fallback = spy_on_eigh(patch)
        energies, vectors = adiabatic._sector_ground_pairs(hx_s, hz_s, start)
    # every pair comes from the kernel itself, none from its eigh fallback
    assert fallback == []
    assert np.all(np.abs(energies - want_w) <= 1e-13 * (1.0 + np.abs(want_w)))
    assert np.all(np.abs((vectors * want_v).sum(axis=1)) >= 1.0 - 1e-13)
    residuals = np.linalg.norm((h - energies[:, None, None] * np.eye(len(h[0]))) @ vectors[:, :, None], axis=(1, 2))
    assert residuals.max() <= 1e-13


@pytest.mark.parametrize("tag", models.MODEL_TAGS)
def test_sector_ground_pairs_recompute_a_failed_row_with_eigh(monkeypatch, tag):
    hx_s, hz_s, start, h = sector_problem(tag, None, 200)
    w, v = np.linalg.eigh(h)
    # Newton from the first excited level stays there, and the sign test rejects its column
    with monkeypatch.context() as patch:
        fallback = spy_on_eigh(patch)
        energies, vectors = adiabatic._sector_ground_pairs(hx_s, hz_s, w[:, 1])
    assert fallback == [len(h)]
    assert energies.tobytes() == w[:, 0].tobytes() and vectors.tobytes() == v[:, :, 0].tobytes()
    # a Newton iteration cut after one step leaves the off-grid rows to the residual test
    with monkeypatch.context() as patch:
        patch.setattr(adiabatic, "_NEWTON_MAX", 1)
        fallback = spy_on_eigh(patch)
        energies, vectors = adiabatic._sector_ground_pairs(hx_s, hz_s, start)
    assert len(fallback) == 1 and 0 < fallback[0] < len(h)
    residuals = np.linalg.norm((h - energies[:, None, None] * np.eye(4)) @ vectors[:, :, None], axis=(1, 2))
    assert residuals.max() <= 1e-13


@pytest.mark.parametrize("tag", models.MODEL_TAGS)
def test_density_table_keeps_the_sector_ground_energy_read_only(tag):
    p = models.ModelParams()
    grid, _, _, ground = adiabatic._density_table(tag, p.omega_z, p.omega_x)
    hx_s = adiabatic._prepare_sector(tag, models.model(tag).tau).hx_s
    hz_s = models.parts(tag, grid)[1][:, [0, 1, 3, 7]]
    np.testing.assert_allclose(ground, np.linalg.eigvalsh(hx_s + hz_s[:, :, None] * np.eye(4))[:, 0], rtol=0, atol=1e-13)
    with pytest.raises(ValueError, match="read-only"):
        ground[0] = 1.0


def test_zzz_ground_sweep_target_fidelity_has_its_closed_form(zzz_sweep):
    # |<G|g>| = cos(t/2) with tan t = 3 |omega_x| / J, for the ground state g of the zzz block (e_+, G)
    j = zzz_sweep.j_values
    want = np.sqrt((1.0 + j / np.sqrt(9 * 0.1 ** 2 + j ** 2)) / 2)
    got = np.abs(zzz_sweep.ground_states @ states.make_state("G").conj())
    assert np.abs(got - want).max() <= 4 * EPS
    assert abs(zzz_sweep.ground_target_fidelity - 0.999551110615605) <= 2 * EPS


@pytest.mark.parametrize("omega_x", [0.1, -0.3])
def test_zzz_density_table_has_the_closed_form_ground_energy_and_density(omega_x):
    grid, density, _, ground = adiabatic._density_table("zzz", -2.0, omega_x)
    a = 1.5 * abs(omega_x)
    energy = np.sqrt(a ** 2 + grid ** 2 / 4)
    assert np.abs(ground + energy).max() <= 8 * EPS * energy.max()
    # the exact density is the top sector level's term alone; the two symmetry-zero
    # terms add rounding noise, at most 1.5e-8 of it at omega_x = 0.1
    np.testing.assert_allclose(density, a / (8 * energy ** 3), rtol=1e-7, atol=0.0)


def test_sector_ground_pairs_are_scale_free():
    # at 2**300 the products of the unscaled minors would overflow
    hx_s, hz_s, start, _ = sector_problem("zzz", models.ModelParams(omega_z=-1.7, omega_x=0.2), 200)
    big = 2.0 ** 300
    with np.errstate(all="raise"):
        energies, vectors = adiabatic._sector_ground_pairs(hx_s, hz_s, start)
        big_energies, big_vectors = adiabatic._sector_ground_pairs(big * hx_s, big * hz_s, big * start)
    assert big_vectors.tobytes() == vectors.tobytes()
    assert big_energies.tobytes() == (big * energies).tobytes()


def test_step_search_takes_no_eigh_stack_past_the_floor(monkeypatch):
    tau = models.model("zz").tau
    adiabatic.gap_adaptive_schedule("zz", 1, tau)
    with monkeypatch.context() as patch:
        sizes = spy_on_eigh(patch)
        got, probed = probed_search(monkeypatch, "zz", 0.999, tau)
    assert got == 412 and max(probed) + 1 > adiabatic.SECTOR_EIGH_FLOOR
    assert sizes and max(sizes) <= adiabatic.SECTOR_EIGH_FLOOR


@pytest.mark.parametrize(("omega_x", "best"), [(1e-5, 0.709026), (1e-6, 0.707109)])
def test_step_search_at_a_near_degenerate_sector(monkeypatch, omega_x, best):
    # the zzz sector gap falls to 4e-11 at omega_x = 1e-5 and 4e-13 at 1e-6, where the adjugate pivots are smallest
    params = models.ModelParams(omega_x=omega_x)
    assert adiabatic.min_steps_search("zzz", 0.5, 0.4, params) == 1
    messages = []
    search_probe = adiabatic._search_probe
    # the kernel's search, then one that scores every probe with eigh
    for floor in (adiabatic.SECTOR_EIGH_FLOOR, math.inf):
        probed = []

        def seam(m_steps, sector, nest):
            probed.append(m_steps)
            return search_probe(m_steps, sector, nest)

        with monkeypatch.context() as patch:
            patch.setattr(adiabatic, "SECTOR_EIGH_FLOOR", floor)
            patch.setattr(adiabatic, "_search_probe", seam)
            sizes = spy_on_eigh(patch)
            with pytest.raises(ValueError, match=r"^target 0\.9 unreachable within 2000 steps; best achieved 0\.\d{6}$") as exc:
                adiabatic.min_steps_search("zzz", 0.9, 0.4, params)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    # without a floor every stack goes through eigh: the half step's one matrix, then the pairs of each probe
    # that builds its own and of the nested schedule, whose strided slices score the doubling probes 2 .. 64
    nested = adiabatic.NESTED_STEPS
    assert probed[:8] == [1, 2, 4, 8, 16, 32, 64, 128]
    assert sizes == [1, 2, nested + 1] + [m_steps + 1 for m_steps in probed if m_steps > nested]
    # the sixth digit at 1e-5 depends on the OpenBLAS kernel set: 0.709025 under Sandybridge and Nehalem
    assert abs(float(messages[0].rsplit(" ", 1)[1]) - best) < 1.5e-6


# min_steps_search on a grid of omega_x at the default omega_z, by model, at the targets 0.5, 0.9 and 0.99: the
# step count found, or the "best achieved" text of a search that raises "target ... unreachable within ... steps"
FIELD_GRID_SEARCHES = {
    (1e-2, "zz"): (96, 342, 1178), (1e-2, "zzz"): (1, 172, 587),
    (1e-3, "zz"): (984, 2901, "0.909449"), (1e-3, "zzz"): (1, 1596, "0.927978"),
    (1e-4, "zz"): ("0.145294",) * 3, (1e-4, "zzz"): (1, "0.732818", "0.732818"),
    (1e-5, "zz"): ("0.014611",) * 3, (1e-5, "zzz"): (1, "0.709026", "0.709026"),
    (1e-6, "zz"): ("0.001461",) * 3, (1e-6, "zzz"): (1, "0.707109", "0.707109"),
    (-0.1, "zz"): (11, 36, 126), (-0.1, "zzz"): (1, 19, 60),
    (0.2, "zz"): (6, 18, 67), (0.2, "zzz"): (1, 10, 32),
}
# fields whose sixth "best achieved" digit depends on the OpenBLAS kernel set: zzz at 1e-5 reads 0.709025 under the
# Sandybridge and Nehalem kernels; every other entry above reads the same under SkylakeX, Haswell, Sandybridge and Nehalem
KERNEL_DEPENDENT_BEST = {(1e-5, "zzz")}


@pytest.mark.parametrize("target_index", range(3), ids=["0.5", "0.9", "0.99"])
@pytest.mark.parametrize(("omega_x", "tag"), FIELD_GRID_SEARCHES)
def test_step_search_field_grid(omega_x, tag, target_index):
    target = (0.5, 0.9, 0.99)[target_index]
    want = FIELD_GRID_SEARCHES[(omega_x, tag)][target_index]
    params = models.ModelParams(omega_x=omega_x)
    tau = models.model(tag).tau
    if isinstance(want, int):
        assert adiabatic.min_steps_search(tag, target, tau, params) == want
        return
    prefix = f"target {target} unreachable within {10 * models.model(tag).steps} steps; best achieved "
    with pytest.raises(ValueError) as exc:
        adiabatic.min_steps_search(tag, target, tau, params)
    message = str(exc.value)
    if (omega_x, tag) in KERNEL_DEPENDENT_BEST:
        assert re.fullmatch(re.escape(prefix) + r"0\.\d{6}", message)
        assert abs(float(message[len(prefix):]) - float(want)) < 1.5e-6
    else:
        assert message == prefix + want


PERFBENCH_SEARCHES = [("zz", 0.9, 36), ("zz", 0.99, 126), ("zz", 0.999, 412),
                      ("zzz", 0.9, 19), ("zzz", 0.99, 60), ("zzz", 0.999, 266)]


@pytest.mark.parametrize(("tag", "target", "want"), PERFBENCH_SEARCHES)
def test_step_search_probes_build_no_states_and_read_the_cached_table(monkeypatch, fresh_density_tables, tag,
                                                                       target, want):
    # each search builds its density table and raises no floating-point error or warning on the way
    def forbidden(*args, **kwargs):
        raise AssertionError("a probe must not rebuild the sector basis")

    tau = models.model(tag).tau
    with monkeypatch.context() as patch, np.errstate(all="raise"):
        for namespace in (adiabatic, states):
            patch.setattr(namespace, "make_state", forbidden)
        got, probed = probed_search(monkeypatch, tag, target, tau)
    assert got == want
    p = models.ModelParams()
    grid, density, _, _ = adiabatic._density_table(tag, p.omega_z, p.omega_x)
    for m_steps in probed:
        want_values = adiabatic.schedule_from_density(tag, m_steps, tau, grid, density).values
        assert adiabatic.gap_adaptive_schedule(tag, m_steps, tau).values.tobytes() == want_values.tobytes()


def test_cached_schedule_recomputes_no_cumulative_sum(monkeypatch):
    params = models.ModelParams(omega_z=-1.3, omega_x=0.15)
    sums = []
    cumsum = np.cumsum

    def spy(*args, **kwargs):
        sums.append(args)
        return cumsum(*args, **kwargs)

    monkeypatch.setattr(np, "cumsum", spy)
    first = adiabatic.gap_adaptive_schedule("zz", 40, 0.7, params)
    assert len(sums) == 1
    again = adiabatic.gap_adaptive_schedule("zz", 40, 0.7, params)
    other = adiabatic.gap_adaptive_schedule("zz", 300, 0.4, params)
    assert len(sums) == 1
    assert np.array_equal(first.values, again.values) and len(other.values) == 301
    grid, density, cum, _ = adiabatic._density_table("zz", params.omega_z, params.omega_x)
    assert cum.tobytes() == adiabatic._cumulative(grid, density).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        cum[0] = 1.0


def test_rejected_density_leaves_no_cache_entry():
    adiabatic._density_table.cache_clear()
    for tag, message in (("zz", "positive entry"), ("zzz", "density must be finite")):
        with pytest.raises(ValueError, match=message):
            adiabatic._density_table(tag, -2.0, 0.0)
        assert adiabatic._density_table.cache_info().currsize == 0
    adiabatic._density_table("zz", -2.0, 0.1)
    assert adiabatic._density_table.cache_info().currsize == 1


def test_min_steps_search_checks_tau_before_the_density():
    # as load_schedule checks tau before it reads the file
    with pytest.raises(ValueError, match=r"tau must lie in \(0, inf\)"):
        adiabatic.min_steps_search("zz", 0.9, -1.0, models.ModelParams(omega_x=0.0))
    with pytest.raises(ValueError, match="density must have a positive entry"):
        adiabatic.min_steps_search("zz", 0.9, 0.7, models.ModelParams(omega_x=0.0))


def test_refocus_matches_independent_formulas():
    deltas = (7792.0, 15480.0, 3845.0)
    jc = ((0.0, 47.6, 160.7), (47.6, 0.0, 25.7), (160.7, 25.7, 0.0))
    nmr = models.NmrParams(deltas=deltas, j_couplings=jc)
    sch = adiabatic.linear_schedule("zz", 4, 0.7)
    table, notices = adiabatic.refocus_params(nmr, sch)
    d12, d13, d23 = 1 / (2 * 47.6), 1 / (2 * 160.7), 1 / (2 * 25.7)
    assert table["m"].tolist() == [1, 2, 3, 4]
    assert any("m=0" in note for note in notices)
    assert np.all(abs(table["pulse_angle"] - 0.1 * 0.7 / 2) < 1e-15)
    for i, m in enumerate(table["m"]):
        j = sch.values[m]
        assert abs(table["J"][i] - j) < 1e-15
        assert abs(table["tau1"][i] - j * 0.7 / math.pi * (d12 + d23)) < 1e-12
        assert abs(table["tau2"][i] - j * 0.7 / math.pi * (d12 + d13)) < 1e-12
        assert abs(table["tau3"][i] - j * 0.7 / math.pi * (d13 + d23)) < 1e-12
        assert abs(table["FQ1"][i] - (-2.0) / (4 * j * d12)) < 1e-9
        assert abs(table["FQ2"][i] - (-2.0) / (4 * j * (d12 + d13 + d23))) < 1e-9
        assert abs(table["FQ3"][i] - (-2.0) / (4 * j * d23)) < 1e-9
        assert table["tau1"][i] >= 0 and table["tau2"][i] >= 0 and table["tau3"][i] >= 0


def test_refocus_offsets_inverse_in_coupling():
    jc = ((0.0, 47.6, 160.7), (47.6, 0.0, 25.7), (160.7, 25.7, 0.0))
    nmr = models.NmrParams(deltas=(1.0, 2.0, 3.0), j_couplings=jc)
    sch = adiabatic.linear_schedule("zz", 2, 0.7)
    table, _ = adiabatic.refocus_params(nmr, sch)
    # J doubles from step 1 to step 2, so every offset halves
    for fq in (table["FQ1"], table["FQ2"], table["FQ3"]):
        assert abs(fq[1] - fq[0] / 2) < 1e-9


def test_refocus_zzz_delay():
    jc = ((0.0, 47.6, 160.7), (47.6, 0.0, 25.7), (160.7, 25.7, 0.0))
    nmr = models.NmrParams(deltas=(1.0, 2.0, 3.0), j_couplings=jc)
    sch = adiabatic.linear_schedule("zzz", 4, 0.4)
    table, _ = adiabatic.refocus_params(nmr, sch)
    d12 = 1 / (2 * 47.6)
    for i, m in enumerate(table["m"]):
        assert abs(table["d_m"][i] - sch.values[m] * 0.4 / math.pi * d12) < 1e-12


def test_refocus_zero_coupling_error():
    jc = ((0.0, 0.0, 160.7), (0.0, 0.0, 25.7), (160.7, 25.7, 0.0))
    nmr = models.NmrParams(deltas=(1.0, 2.0, 3.0), j_couplings=jc)
    sch = adiabatic.linear_schedule("zz", 2, 0.7)
    with pytest.raises(ValueError, match="J12"):
        adiabatic.refocus_params(nmr, sch)


@pytest.mark.parametrize("tag, couplings, message", [
    ("zz", (1e-320, 160.7, 25.7), "coupling J12 = 9.99989e-321 Hz is too small: its delay 1/(2 J12) overflows"),
    ("zzz", (5e-324, 160.7, 25.7), "coupling J12 = 4.94066e-324 Hz is too small: its delay 1/(2 J12) overflows"),
    ("zz", (1e308, 1e308, 1e308), "refocusing column FQ1 must be finite, got -inf at step m=1 with J=0.4"),
], ids=["zz_tiny_j12", "zzz_smallest_j12", "zz_huge_couplings"])
def test_refocus_rejects_a_table_that_is_not_finite(tag, couplings, message):
    j12, j13, j23 = couplings
    nmr = models.NmrParams(deltas=(1.0, 2.0, 3.0), j_couplings=((0.0, j12, j13), (j12, 0.0, j23), (j13, j23, 0.0)))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        adiabatic.refocus_params(nmr, adiabatic.linear_schedule(tag, 5, 0.4))


@pytest.mark.parametrize("j", [5e-324, 1e-310])
def test_refocus_rejects_a_schedule_value_whose_offsets_overflow(j):
    jc = ((0.0, 47.6, 160.7), (47.6, 0.0, 25.7), (160.7, 25.7, 0.0))
    nmr = models.NmrParams(deltas=(1.0, 2.0, 3.0), j_couplings=jc)
    sch = adiabatic.Schedule(values=np.array([0.0, j, 1.0, 2.0]), tau=0.7, model_tag="zz")
    with pytest.raises(ValueError, match=f"^refocusing column FQ1 must be finite, got -inf at step m=1 with J={j:g}$"):
        adiabatic.refocus_params(nmr, sch)


REFOCUS_COLUMNS = {
    "zz": ["m", "J", "tau1", "tau2", "tau3", "FQ1", "FQ2", "FQ3", "pulse_angle"],
    "zzz": ["m", "J", "d_m", "pulse_angle"],
}


@pytest.mark.parametrize("tag", models.MODEL_TAGS)
def test_refocus_table_column_order(tag):
    jc = ((0.0, 47.6, 160.7), (47.6, 0.0, 25.7), (160.7, 25.7, 0.0))
    nmr = models.NmrParams(deltas=(1.0, 2.0, 3.0), j_couplings=jc)
    table, notices = adiabatic.refocus_params(nmr, adiabatic.linear_schedule(tag, 5, 0.4))
    assert list(table) == REFOCUS_COLUMNS[tag]
    assert all(len(col) == 5 for col in table.values())
    assert notices == ["skipped step m=0 with J=0"]


@pytest.mark.parametrize("tag", models.MODEL_TAGS)
def test_refocus_all_zero_couplings_give_an_empty_table(tag):
    jc = ((0.0, 47.6, 160.7), (47.6, 0.0, 25.7), (160.7, 25.7, 0.0))
    nmr = models.NmrParams(deltas=(1.0, 2.0, 3.0), j_couplings=jc)
    sch = adiabatic.Schedule(values=np.zeros(1), tau=0.4, model_tag=tag)
    table, notices = adiabatic.refocus_params(nmr, sch)
    assert list(table) == REFOCUS_COLUMNS[tag]
    assert all(len(col) == 0 for col in table.values())
    assert notices == ["skipped step m=0 with J=0"]


def test_find_crossing():
    j = np.array([0.0, 1.0, 2.0, 3.0])
    a = np.array([1.0, 1.0, 0.2, 0.0])
    b = np.array([0.0, 0.5, 0.6, 1.0])
    lo, hi, root = adiabatic.find_crossing(j, a, b)
    assert (lo, hi) == (1.0, 2.0)
    assert abs(root - (1.0 + 0.5 / 0.9)) < 1e-12
    assert adiabatic.find_crossing(j, a + 2.0, b) is None


def test_find_crossing_reports_a_zero_at_any_sample():
    assert adiabatic.find_crossing([0, 1, 2], [1, 0, -1], [0, 0, 0]) == (1.0, 1.0, 1.0)
    assert adiabatic.find_crossing([0, 1], [1, 0], [0, 0]) == (1.0, 1.0, 1.0)
    assert adiabatic.find_crossing([0.5], [2.0], [2.0]) == (0.5, 0.5, 0.5)
    assert adiabatic.find_crossing([0.5], [2.0], [1.0]) is None


def test_find_crossing_rejects_unequal_lengths():
    with pytest.raises(ValueError, match=r"equal lengths, got \(2, 3, 1\)"):
        adiabatic.find_crossing([0, 1], [1, 1, -1], [0])
    # misaligned arrays must not yield a crossing
    with pytest.raises(ValueError, match=r"equal lengths, got \(3, 2, 2\)"):
        adiabatic.find_crossing([0, 1, 2], [1, -1], [0, 0])


@pytest.mark.parametrize("args, message", [
    (([0, 1, 2], [1, math.nan, -1], [0, 0, 0]), "component_a must be finite, got nan at index 1"),
    (([0, 1, 2], [1, 0, -1], [0, math.inf, 0]), "component_b must be finite, got inf at index 1"),
    (([0, math.nan, 2], [1, 0, -1], [0, 0, 0]), "j_values must be finite, got nan at index 1"),
], ids=["a_nan", "b_inf", "j_nan"])
def test_find_crossing_rejects_non_finite_input(args, message):
    with pytest.raises(ValueError, match=message):
        adiabatic.find_crossing(*args)


def test_evolve_with_reports():
    sch = adiabatic.linear_schedule("zzz", 10, 0.4)
    reports = sweep_reports(adiabatic.evolve(sch))
    assert len(reports) == 11
    assert reports[0].c_local > 0.5


def per_step_ground_sweep(tag, values, params=None):
    # the per-step reference: one validated eig_hermitian per coupling value
    e0, e1, grounds, degenerate = [], [], [], []
    for m, j in enumerate(values):
        w, v = qmat.eig_hermitian(models.hamiltonian(tag, j, params))
        e0.append(w[0])
        e1.append(w[1])
        if w[1] - w[0] < qmat.DEGENERACY_TOL:
            degenerate.append(m)
        grounds.append(v[:, 0])
    return np.array(e0), np.array(e1), np.array(grounds), degenerate


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


def test_ground_sweep_degenerate_fallback():
    # without the transverse field every zzz level is at least fourfold degenerate
    params = models.ModelParams(omega_x=0.0)
    sch = adiabatic.linear_schedule("zzz", 20, 0.4)
    sweep = adiabatic.ground_sweep(sch, params=params)
    assert sweep.degenerate_steps == list(range(len(sch.values)))
    for j, g in zip(sch.values, sweep.ground_states):
        assert np.array_equal(g, qmat.eig_hermitian(models.hamiltonian("zzz", j, params))[1][:, 0])


def test_evolve_flags_near_degenerate_steps_at_tiny_transverse_field():
    # at omega_x = 1e-6 the zzz ground splitting falls below DEGENERACY_TOL, so
    # evolve scores those steps against a cluster pick and must say so
    params = models.ModelParams(omega_x=1e-6)
    sch = adiabatic.gap_adaptive_schedule("zzz", 60, 0.4, params)
    assert len(adiabatic.evolve(sch, params=params).degenerate_steps) > len(sch.values) // 2
    for tag in models.MODEL_TAGS:
        m = models.model(tag)
        assert adiabatic.evolve(adiabatic.gap_adaptive_schedule(tag, 60, m.tau)).degenerate_steps == []


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
        return math.sqrt((1.0 - mu) / 8 + mu * (pure_amp * pure_amp))

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


def test_sweep_result_fields_cannot_be_assigned():
    exact = adiabatic.ground_sweep(adiabatic.linear_schedule("zz", 20, 0.7))
    for name in ("min_fidelity", "gaps"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(exact, name, 0.5)


def test_evolve_leaves_the_ground_sweep_record_untouched(monkeypatch):
    ground_sweep = adiabatic.ground_sweep
    for sch in (adiabatic.linear_schedule("zz", 20, 0.7), adiabatic.Schedule(values=(0.0,), tau=0.7, model_tag="zz")):
        exact = ground_sweep(sch)
        grounds = exact.ground_states.copy()
        monkeypatch.setattr(adiabatic, "ground_sweep", lambda *args, **kwargs: exact)
        run = adiabatic.evolve(sch)
        assert (exact.fid_instant, exact.min_fidelity, exact.final_state, exact.final_fidelity) == (None,) * 4
        assert same_bits(exact.ground_states, grounds)
        assert len(run.fid_instant) == len(sch.values) and run.final_fidelity is not None
        # a one-value schedule's final state is a copy of the first ground state, not a view
        assert not np.shares_memory(run.final_state, exact.ground_states)


@pytest.mark.parametrize("call, message", [
    (lambda: adiabatic.schedule_from_density("zz", 10, 0.7, np.linspace(0.0, 2.0, 11), np.ones(10)),
     "^grid and density must be equal-length 1-D arrays$"),
    (lambda: adiabatic.evolve(adiabatic.linear_schedule("zz", 4, 0.7), mu=1.5), r"^mu must lie in \[0, 1\], got 1.5$"),
    (lambda: adiabatic.evolve(adiabatic.linear_schedule("zz", 4, 0.7), mu=-0.1), r"^mu must lie in \[0, 1\], got -0.1$"),
    (lambda: adiabatic.min_steps_search("zz", 1.0, 0.7), r"^target must lie in \[0, 1\), got 1.0$"),
    (lambda: adiabatic.min_steps_search("zz", -0.5, 0.7), r"^target must lie in \[0, 1\), got -0.5$"),
], ids=["density_length", "mu_above_1", "mu_below_0", "target_1", "target_negative"])
def test_out_of_range_arguments_are_rejected_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("content", [{"values": [0.0, 2.0]}, 1.0, "0.0, 2.0"], ids=["object", "number", "string"])
def test_load_schedule_rejects_json_that_is_not_an_array(tmp_path, content):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(content))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: expected a JSON array of coupling values$"):
        adiabatic.load_schedule(path, "zz", 0.7)


def per_point_density(tag, grid, params=None):
    # the per-point reference for the stacked sector density
    basis = SECTOR_BASIS
    d_small = basis.conj().T @ np.diag(models.model(tag).dh_dj) @ basis
    dens = np.empty_like(grid)
    for i, j in enumerate(grid):
        w, v = np.linalg.eigh(basis.conj().T @ models.hamiltonian(tag, j, params) @ basis)
        rate = 0.0
        for n in range(1, len(w)):
            rate += abs(np.vdot(v[:, n], d_small @ v[:, 0])) / (w[n] - w[0]) ** 2
        dens[i] = rate
    return dens


@pytest.mark.kernel_rounding
@pytest.mark.parametrize("tag", models.MODEL_TAGS)
def test_gap_adaptive_schedule_matches_per_point_density_bitwise(tag):
    m = models.model(tag)
    grid = np.linspace(*m.j_range, adiabatic.DENSITY_GRID + 1)
    dens = per_point_density(tag, grid)
    for steps in (300, 200, 40):
        want = adiabatic.schedule_from_density(tag, steps, m.tau, grid, dens)
        assert np.array_equal(adiabatic.gap_adaptive_schedule(tag, steps, m.tau).values, want.values)


DENSITY_PARAMS = {"default": None, "fields": models.ModelParams(omega_z=-1.1, omega_x=0.3),
                  "no_transverse": models.ModelParams(omega_x=0.0)}
# the default and fields cases pin schedules whose last bits follow the kernel set; without a transverse
# field the density is zero (zz) or NaN (zzz) on every route, so both tables reject it under every set
DENSITY_CASES = [
    pytest.param(tag, params, id=f"{tag}-{name}", marks=() if name == "no_transverse" else pytest.mark.kernel_rounding)
    for tag in models.MODEL_TAGS for name, params in DENSITY_PARAMS.items()
]


@pytest.mark.parametrize("tag, params", DENSITY_CASES)
def test_cached_density_table_matches_uncached_and_per_point(tag, params):
    m = models.model(tag)
    p = params or models.ModelParams()
    grid = np.linspace(*m.j_range, adiabatic.DENSITY_GRID + 1)
    # omega_x = 0 leaves degenerate zzz levels, whose 0/0 rate is NaN on every route
    with np.errstate(invalid="ignore"):
        want = per_point_density(tag, grid, params)
    try:
        adiabatic._cumulative(grid, want)
    except ValueError as exc:
        # a density the per-point route rejects, the table rejects with the same message
        for table in (adiabatic._density_table, adiabatic._density_table.__wrapped__):
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                table(tag, p.omega_z, p.omega_x)
        return
    got_grid, dens, _, _ = adiabatic._density_table(tag, p.omega_z, p.omega_x)
    fresh_grid, fresh, _, _ = adiabatic._density_table.__wrapped__(tag, p.omega_z, p.omega_x)
    assert np.array_equal(got_grid, grid)
    assert np.array_equal(grid, fresh_grid)
    assert dens.tobytes() == fresh.tobytes()
    # the stacked and per-point routes may round apart in the last bit (at
    # most one eps relative on these grids), which the schedule's
    # interpolation absorbs
    np.testing.assert_allclose(dens, want, rtol=2 * np.finfo(float).eps, atol=0.0)
    for steps in (1, 40, m.steps):
        expected = adiabatic.schedule_from_density(tag, steps, m.tau, grid, want).values
        assert np.array_equal(adiabatic.gap_adaptive_schedule(tag, steps, m.tau, params).values, expected)
    for table in (got_grid, dens, adiabatic._SECTOR_BASIS):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0


def one_shot_density_table(tag, omega_z, omega_x):
    """The density table built from one whole-grid projection of the (n, 8, 8) stack of H(J)."""
    m = models.model(tag)
    params = models.ModelParams(omega_z=omega_z, omega_x=omega_x)
    grid = np.linspace(*m.j_range, adiabatic.DENSITY_GRID + 1)
    basis = SECTOR_BASIS
    d_small = basis.conj().T @ np.diag(m.dh_dj) @ basis
    w, v = qmat._eigh(basis.conj().T @ models.hamiltonian(tag, grid, params) @ basis)
    overlaps = np.abs(v.conj().swapaxes(-1, -2) @ (d_small @ v[:, :, :1]))[:, 1:, 0]
    density = (overlaps / (w[:, 1:] - w[:, :1]) ** 2).sum(axis=1)
    return grid, density, adiabatic._cumulative(grid, density), w[:, 0]


# (DENSITY_GRID, DENSITY_SLICE): the shipped layout, whose second and last slice is one point
# short, a shorter grid whose last slice is half full, and four full slices and a partial fifth
SLICE_LAYOUTS = [(adiabatic.DENSITY_GRID, adiabatic.DENSITY_SLICE), (1500, adiabatic.DENSITY_SLICE), (2000, 480)]


@pytest.mark.parametrize("layout", SLICE_LAYOUTS, ids=["shipped", "short_grid", "five_slices"])
@pytest.mark.parametrize("omega_z, omega_x", [(-2.0, 0.1), (-1.1, 0.3), (-2.0, -0.1), (-2.0, 1e-3), (-2.0, 1e-6)])
@pytest.mark.parametrize("tag", models.MODEL_TAGS)
def test_sliced_density_table_is_bitwise_the_one_shot_build(monkeypatch, tag, omega_z, omega_x, layout):
    grid_size, slice_size = layout
    assert (grid_size + 1) % slice_size != 0
    monkeypatch.setattr(adiabatic, "DENSITY_GRID", grid_size)
    monkeypatch.setattr(adiabatic, "DENSITY_SLICE", slice_size)
    got = adiabatic._density_table.__wrapped__(tag, omega_z, omega_x)
    want = one_shot_density_table(tag, omega_z, omega_x)
    assert len(got[0]) == grid_size + 1
    for table, expected in zip(got, want, strict=True):
        assert same_bits(table, expected)


def test_density_table_holds_one_slice_of_the_hamiltonian_stack(monkeypatch):
    p = models.ModelParams()
    # the one-shot build peaks while the whole (n, 8, 8) stack of H(J) and its
    # (n, 4, 8) half projection are held; two slices cut that peak by about 30%
    sliced = traced_peak(adiabatic._density_table.__wrapped__, "zz", p.omega_z, p.omega_x)
    one_shot = traced_peak(one_shot_density_table, "zz", p.omega_z, p.omega_x)
    assert sliced < 0.75 * one_shot
    sizes = []
    hamiltonian = models.hamiltonian

    def spy(tag, j, params=None):
        sizes.append(np.size(j))
        return hamiltonian(tag, j, params)

    monkeypatch.setattr(models, "hamiltonian", spy)
    adiabatic._density_table.__wrapped__("zz", p.omega_z, p.omega_x)
    assert max(sizes) <= adiabatic.DENSITY_SLICE
    assert sum(sizes) == adiabatic.DENSITY_GRID + 1


@pytest.mark.parametrize("steps", [1, 40])
@pytest.mark.parametrize("tag, message", [
    ("zz", "density must have a positive entry"),  # every rate is 0
    ("zzz", r"density must be finite, got nan"),  # a degenerate level gives 0/0
], ids=["zz", "zzz"])
def test_adaptive_schedule_without_transverse_field_is_rejected(tag, message, steps):
    with pytest.raises(ValueError, match=message):
        adiabatic.gap_adaptive_schedule(tag, steps, models.model(tag).tau, models.ModelParams(omega_x=0.0))


def test_schedule_from_density_rejects_non_finite_and_nonpositive_density():
    grid = np.linspace(0.0, 2.0, 11)
    for bad in (np.nan, np.inf):
        dens = np.ones_like(grid)
        dens[4] = bad
        with pytest.raises(ValueError, match=f"density must be finite, got {bad} at grid point 4"):
            adiabatic.schedule_from_density("zz", 40, 0.7, grid, dens)
    for dens in (np.zeros_like(grid), -np.ones_like(grid)):
        with pytest.raises(ValueError, match="density must have a positive entry"):
            adiabatic.schedule_from_density("zz", 40, 0.7, grid, dens)


def test_schedule_from_density_rejects_negative_density():
    grid = np.linspace(0.0, 2.0, 11)
    dens = np.ones_like(grid)
    dens[3:6] = -5.0
    with pytest.raises(ValueError, match="density must be nonnegative, got -5.0 at grid point 3"):
        adiabatic.schedule_from_density("zz", 10, 0.7, grid, dens)
    # a zero entry is allowed and lifted to the floor
    dens[3:6] = 0.0
    assert adiabatic.schedule_from_density("zz", 10, 0.7, grid, dens).values[-1] == 2.0


def test_density_table_is_shared_by_the_fields_it_reads():
    adiabatic._density_table.cache_clear()
    schedules = [adiabatic.gap_adaptive_schedule("zz", 40, 0.7, p)
                 for p in (None, models.ModelParams(), models.ModelParams(j2=1.0))]
    assert adiabatic._density_table.cache_info().misses == 1
    assert all(np.array_equal(s.values, schedules[0].values) for s in schedules)
    p = models.ModelParams()
    table = adiabatic._density_table("zz", p.omega_z, p.omega_x)
    assert adiabatic._density_table.cache_info().misses == 1
    other = adiabatic._density_table("zz", p.omega_z, 0.3)
    assert other[1] is not table[1] and not np.array_equal(other[1], table[1])
    assert adiabatic._density_table("zzz", p.omega_z, p.omega_x)[0] is not table[0]
    assert adiabatic._density_table.cache_info().misses == 3
    assert adiabatic._density_table.cache_info().maxsize == adiabatic.DENSITY_CACHE_SIZE


def test_repeated_schedules_and_searches_build_no_new_density_table(monkeypatch):
    params = models.ModelParams(omega_z=-1.7, omega_x=0.2)
    tables = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        if np.shape(a) == (adiabatic.DENSITY_GRID + 1, 4, 4):
            tables.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    first = adiabatic.gap_adaptive_schedule("zz", 40, 0.7, params)
    assert len(tables) == 1
    again = adiabatic.gap_adaptive_schedule("zz", 40, 0.7, params)
    assert adiabatic.min_steps_search("zz", 0.5, 0.7, params) >= 1
    assert len(tables) == 1
    assert np.array_equal(first.values, again.values)


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
        adiabatic._prepare_sector("zz", 1e308)
    # the tau check runs before the density table is read, which rejects omega_x = 0 by itself
    with pytest.raises(ValueError, match=r"tau 1e\+308 is too large"):
        adiabatic._prepare_sector("zz", 1e308, models.ModelParams(omega_x=0.0))
    with pytest.raises(ValueError, match=r"tau 1e\+308 is too large"):
        adiabatic.min_steps_search("zz", 0.9, 1e308)
    with pytest.raises(ValueError, match=r"tau 1e\+308 is too large"):
        adiabatic.trotter_pair("zz", 1.0, 1e308)
    with pytest.raises(ValueError, match=r"tau 1e\+308 is too large"):
        adiabatic.trotter_pair("zz", sch.values, 1e308)
    # a huge tau whose phases stay finite still propagates, without a warning
    u_ide, u_exp = adiabatic.trotter_pair("zz", sch.values, 1e300)
    assert np.isfinite(u_ide).all() and np.isfinite(u_exp).all()
    assert np.isfinite(adiabatic.evolve(adiabatic.linear_schedule("zz", 3, 1e300)).fid_instant).all()
    assert math.isfinite(sector_probe(adiabatic.linear_schedule("zz", 3, 1e300)))
    # at this tau the phases of each part stay finite, but the bound on those of H, (max |hx| row sum + max |hz|) tau,
    # overflows; just below that bound the pair is built
    hx, hz = models.parts("zz", 2.0)
    a, b = float(np.abs(hx).sum(axis=-1).max()), float(np.abs(hz).max())
    big = float(np.finfo(float).max)
    tau = big / (b + a / 2)
    assert math.isfinite(max(a, b) * tau) and not math.isfinite((a + b) * tau)
    with pytest.raises(ValueError, match=r"is too large: the Trotter step phases overflow$"):
        adiabatic.trotter_pair("zz", 2.0, tau)
    u_ide, u_exp = adiabatic.trotter_pair("zz", 2.0, 0.99 * big / (a + b))
    assert np.isfinite(u_ide).all() and np.isfinite(u_exp).all()


@pytest.mark.parametrize(("tag", "target", "want"), PERFBENCH_SEARCHES)
def test_step_search_builds_the_transverse_half_step_once(monkeypatch, tag, target, want):
    halves = []
    expm = adiabatic.expm_hermitian

    def spy(h, t):
        halves.append(t)
        return expm(h, t)

    monkeypatch.setattr(adiabatic, "expm_hermitian", spy)
    got, probed = probed_search(monkeypatch, tag, target, models.model(tag).tau)
    assert got == want and len(probed) > 1
    assert halves == [models.model(tag).tau / 2]


@pytest.mark.parametrize(("tag", "target", "want"), PERFBENCH_SEARCHES)
def test_step_search_prepares_its_sector_once(monkeypatch, tag, target, want):
    # every probe takes a plain array of couplings: no probe builds a Schedule record, rebuilds the
    # 8-dim diagonals, looks the density table up or exponentiates the half step again
    def forbidden(self):
        raise AssertionError("a step search must build no Schedule")

    # with the table cached, since building it reads models.parts through models.hamiltonian
    tau = models.model(tag).tau
    adiabatic.gap_adaptive_schedule(tag, 1, tau)
    calls = []
    monkeypatch.setattr(adiabatic.Schedule, "__post_init__", forbidden)
    for namespace, name in ((models, "parts"), (adiabatic, "_density_table"), (adiabatic, "expm_hermitian")):
        def spy(*args, _name=name, _kernel=getattr(namespace, name), **kwargs):
            calls.append(_name)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(namespace, name, spy)
    got, probed = probed_search(monkeypatch, tag, target, tau)
    assert got == want and len(probed) > 1
    assert sorted(calls) == ["_density_table", "expm_hermitian", "parts"]


@pytest.mark.parametrize("params", [None, models.ModelParams(omega_z=-1.7, omega_x=0.2)])
@pytest.mark.parametrize("tag", models.MODEL_TAGS)
def test_sector_probe_with_a_shared_transverse_part_is_bitwise_equal(tag, params):
    # the search's prepared sector, its pair built at the ends of the coupling range, against each schedule's own parts
    tau = models.model(tag).tau
    sector = adiabatic._prepare_sector(tag, tau, params)
    assert sector.tau == tau
    for m_steps in (1, 2, 3, 17, 60, 412):
        sch = adiabatic.gap_adaptive_schedule(tag, m_steps, tau, params)
        hx, hz = models.parts(tag, sch.values, params)
        hx_s = SECTOR_BASIS.real.T @ hx.real @ SECTOR_BASIS.real
        own = hx_s, adiabatic._split_step(hx_s, hz[:, [0, 1, 3, 7]], tau)[0]
        assert all(a.tobytes() == b.tobytes() for a, b in zip((sector.hx_s, sector.half), own))
        # the probe's coupling values and sector diagonals are the schedule's and models.parts' bit for bit
        assert adiabatic._schedule_values(sector.grid, sector.cum, m_steps).tobytes() == sch.values.tobytes()
        assert (sector.hz0_s + np.multiply.outer(sch.values, sector.dh_dj_s)).tobytes() == hz[:, [0, 1, 3, 7]].tobytes()
        own_sector = dataclasses.replace(sector, hx_s=own[0], half=own[1])
        assert sector_min_fidelity(sch.values, sector) == sector_min_fidelity(sch.values, own_sector)


@pytest.mark.parametrize("params", [None, models.ModelParams(omega_z=-1.7, omega_x=0.2), models.ModelParams(omega_x=-0.1),
                                    models.ModelParams(omega_x=1e-3)], ids=["default", "fields", "negative", "1e-3"])
@pytest.mark.parametrize("tag", models.MODEL_TAGS)
def test_nested_doubling_probes_are_strided_slices_of_one_schedule(tag, params):
    sector = adiabatic._prepare_sector(tag, models.model(tag).tau, params)
    top = adiabatic.NESTED_STEPS
    values = adiabatic._schedule_values(sector.grid, sector.cum, top)
    nest = adiabatic._sector_pairs(values, sector)
    # the counts that divide the nested one are the doubling probes 1, 2, 4, ..., 64
    counts = [m_steps for m_steps in range(1, top + 1) if top % m_steps == 0]
    assert counts == [2 ** i for i in range(7)]
    for m_steps in counts:
        own = adiabatic._schedule_values(sector.grid, sector.cum, m_steps)
        assert own.tobytes() == values[::top // m_steps].tobytes()
        assert adiabatic._sector_pairs(own, sector)[0].tobytes() == nest[0][::top // m_steps].tobytes()
        want = sector_min_fidelity(own, sector)
        assert abs(adiabatic._search_probe(m_steps, sector, nest) - want) < 1e-13
    # any other count, and any count before the nest is built, scores its own schedule
    for m_steps in (1, 3, 48, 63, 65, 128):
        want = sector_min_fidelity(adiabatic._schedule_values(sector.grid, sector.cum, m_steps), sector)
        assert adiabatic._search_probe(m_steps, sector, None) == want
        if top % m_steps:
            assert adiabatic._search_probe(m_steps, sector, nest) == want


def test_min_steps_search_builds_the_nest_once_and_only_after_the_first_probe_fails(monkeypatch):
    sizes = []
    sector_pairs = adiabatic._sector_pairs

    def spy(values, sector):
        sizes.append(len(values))
        return sector_pairs(values, sector)

    monkeypatch.setattr(adiabatic, "_sector_pairs", spy)
    # a search that passes at m = 1 builds its own 2-value pairs and nothing more
    assert adiabatic.min_steps_search("zzz", 0.5, 0.4) == 1
    assert sizes == [2]
    sizes.clear()
    # after the first probe fails, the 65-value nest is built once, and no doubling probe builds its own pairs
    top = adiabatic.NESTED_STEPS
    assert adiabatic.min_steps_search("zz", 0.9, 0.7) == 36
    assert sizes[:2] == [2, top + 1] and sizes.count(top + 1) == 1
    assert all(top % (size - 1) for size in sizes[2:])
