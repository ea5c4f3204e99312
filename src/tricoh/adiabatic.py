"""Discrete adiabatic sweeps for the two spin models.

A sweep is a monotone sequence of coupling values J(t_0) .. J(t_M) with a
fixed step interval tau. ``ground_sweep`` tracks the exact instantaneous
spectrum and coherence reports along a schedule; ``evolve`` propagates a
state with the symmetric Trotter step of each coupling value and audits the
instantaneous fidelity to the exact ground state. All reported fidelities
use the amplitude (root-fidelity) convention of ``qmat.root_fidelity``.

The gap-adaptive schedule allocates steps according to the local diabatic
transition rate out of the ground state,

    density(J) = sum_n |<n| dH/dJ |g>| / (E_n - E_g)^2,

evaluated in the permutation-symmetric four-state subspace that contains the
entire dynamics (spanned by |000>, |W001>, |W110>, |111>). Summing over all
excited levels matters: level crossings with symmetry-forbidden coupling
carry no diabatic risk and must not attract steps. Near an avoided crossing
dominated by a single level this density reduces to the familiar inverse
squared gap rule, and a constant density reproduces the linear schedule.

``refocus_params`` translates a schedule into per-step spectrometer delays
and radio-frequency offsets for an NMR implementation with given chemical
shifts and scalar couplings.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import models
from .qmat import eig_hermitian, expm_hermitian, normalize_phase, root_fidelity
from .states import density, make_state
from .coherence import coherence_reports

# fine-grid resolution used to tabulate the adaptive step density
DENSITY_GRID = 2000
# floor applied to the density as a fraction of its maximum, so that flat
# zero-coupling stretches still receive a nonzero measure
DENSITY_FLOOR_FRACTION = 1e-6
GAP_DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class Schedule:
    """Coupling values J(t_0)..J(t_M) with step interval tau for one model.

    Values must be monotone nondecreasing and span the model's full coupling
    range. A single-value schedule (M = 0) is the degenerate no-step case
    and is exempt from the endpoint requirement.
    """

    values: np.ndarray
    tau: float
    model_tag: str

    def __post_init__(self):
        models.check_model_tag(self.model_tag)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) < 1:
            raise ValueError("schedule needs at least one value")
        if not math.isfinite(self.tau) or self.tau <= 0.0:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not np.all(np.isfinite(values)):
            raise ValueError("schedule values must be finite")
        if np.any(np.diff(values) < -1e-12):
            raise ValueError("schedule values must be monotone nondecreasing")
        lo, hi = models.J_RANGE[self.model_tag]
        if values[0] < lo - 1e-9 or values[-1] > hi + 1e-9:
            raise ValueError(f"schedule values must lie in [{lo}, {hi}]")
        if len(values) > 1:
            if abs(values[0] - lo) > 1e-9 or abs(values[-1] - hi) > 1e-9:
                raise ValueError(f"schedule must run from {lo} to {hi}, got {values[0]}..{values[-1]}")

    @property
    def m_steps(self):
        return len(self.values) - 1


@dataclass
class SweepResult:
    """Exact tracking and (optionally) evolved-state audit along a schedule.

    Exact part: per-step ground/first-excited energies, gap, phase-aligned
    ground states, coherence reports (optional), indices of near-degenerate
    steps, and the fidelity of the final exact ground state to the model's
    target state. Evolved part (None until ``evolve`` fills it): per-step
    instantaneous fidelity of the propagated state to the exact ground
    state, its minimum, the final state, and its fidelity to the target.
    """

    model_tag: str
    j_values: np.ndarray
    tau: float
    ground_energies: np.ndarray
    excited_energies: np.ndarray
    gaps: np.ndarray
    ground_states: list
    reports: list | None
    degenerate_steps: list
    ground_target_fidelity: float
    fid_instant: np.ndarray | None = None
    min_fidelity: float | None = None
    final_state: np.ndarray | None = None
    final_fidelity: float | None = None


def linear_schedule(model_tag, m_steps, tau):
    """Uniformly spaced schedule over the model's coupling range."""
    models.check_model_tag(model_tag)
    if m_steps < 1:
        raise ValueError(f"m_steps must be at least 1, got {m_steps}")
    lo, hi = models.J_RANGE[model_tag]
    return Schedule(values=np.linspace(lo, hi, m_steps + 1), tau=tau, model_tag=model_tag)


def symmetric_sector_basis():
    """Columns |000>, |W001>, |W110>, |111>: the permutation-symmetric subspace."""
    return np.column_stack([make_state("000"), make_state("W001"), make_state("W110"), make_state("111")])


def _sector_density(model_tag, params):
    """Tabulated diabatic-rate density on a fine coupling grid."""
    lo, hi = models.J_RANGE[model_tag]
    grid = np.linspace(lo, hi, DENSITY_GRID + 1)
    basis = symmetric_sector_basis()
    d_small = basis.conj().T @ models.coupling_derivative(model_tag) @ basis
    dens = np.empty_like(grid)
    for i, j in enumerate(grid):
        h_small = basis.conj().T @ models.hamiltonian(model_tag, models.with_coupling(model_tag, params, j)) @ basis
        w, v = np.linalg.eigh(h_small)
        rate = 0.0
        for n in range(1, len(w)):
            gap = w[n] - w[0]
            rate += abs(np.vdot(v[:, n], d_small @ v[:, 0])) / gap**2
        dens[i] = rate
    return grid, dens


def schedule_from_density(model_tag, m_steps, tau, grid, density_values):
    """Schedule whose step spacing follows a tabulated density.

    The cumulative density is normalized and inverted on the grid, so twice
    the density means half the local step spacing. A constant density
    reproduces the linear schedule.
    """
    models.check_model_tag(model_tag)
    if m_steps < 1:
        raise ValueError(f"m_steps must be at least 1, got {m_steps}")
    grid = np.asarray(grid, dtype=float)
    dens = np.asarray(density_values, dtype=float)
    if grid.shape != dens.shape or grid.ndim != 1 or len(grid) < 2:
        raise ValueError("grid and density must be equal-length 1-D arrays")
    dens = np.maximum(dens, DENSITY_FLOOR_FRACTION * dens.max())
    steps = np.diff(grid)
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * steps)])
    cum /= cum[-1]
    values = np.interp(np.linspace(0.0, 1.0, m_steps + 1), cum, grid)
    values[0], values[-1] = grid[0], grid[-1]
    return Schedule(values=values, tau=tau, model_tag=model_tag)


def gap_adaptive_schedule(model_tag, m_steps, tau, params=None):
    """Schedule with step density set by the local diabatic transition rate.

    See the module docstring for the density definition. Spacing shrinks
    where the ground state changes fastest (the avoided crossing of the
    two-body model, the early crossover of the three-body model) and relaxes
    where excitations are symmetry-forbidden or energetically suppressed.
    """
    params = params or models.ModelParams()
    grid, dens = _sector_density(model_tag, params)
    return schedule_from_density(model_tag, m_steps, tau, grid, dens)


def load_schedule(path, model_tag, tau):
    """Schedule from a JSON array of coupling values."""
    import json

    with open(path, encoding="ascii") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected a JSON array of coupling values")
    return Schedule(values=np.asarray(raw, dtype=float), tau=tau, model_tag=model_tag)


def ground_sweep(model_tag, schedule, params=None, reports=True, log_base=2.0):
    """Exact instantaneous spectrum and coherence reports along a schedule.

    Ground states are phase-aligned step to step (sign-flipped when the
    overlap with the previous step's state is negative) so curves built from
    them are continuous. Steps whose lowest gap falls below 1e-10 are listed
    in ``degenerate_steps``.
    """
    models.check_model_tag(model_tag)
    if schedule.model_tag != model_tag:
        raise ValueError(f"schedule is for model {schedule.model_tag!r}, not {model_tag!r}")
    params = params or models.ModelParams()
    n = len(schedule.values)
    e0 = np.empty(n)
    e1 = np.empty(n)
    grounds = []
    degenerate = []
    prev = None
    for m, j in enumerate(schedule.values):
        h = models.hamiltonian(model_tag, models.with_coupling(model_tag, params, j))
        spec = eig_hermitian(h)
        e0[m] = spec.eigenvalues[0]
        e1[m] = spec.eigenvalues[1]
        if e1[m] - e0[m] < GAP_DEGENERACY_TOL:
            degenerate.append(m)
        g = spec.eigenvectors[:, 0].copy()
        if prev is not None and np.real(np.vdot(prev, g)) < 0.0:
            g = -g
        grounds.append(g)
        prev = g
    report_list = coherence_reports([density(g) for g in grounds], base=log_base) if reports else None
    target = make_state(models.TARGET_LABEL[model_tag])
    return SweepResult(
        model_tag=model_tag,
        j_values=schedule.values.copy(),
        tau=schedule.tau,
        ground_energies=e0,
        excited_energies=e1,
        gaps=e1 - e0,
        ground_states=grounds,
        reports=report_list,
        degenerate_steps=degenerate,
        ground_target_fidelity=float(abs(np.vdot(target, grounds[-1]))),
    )


def trotter_pair(model_tag, j_value, tau, params=None):
    """Ideal one-step propagator and its symmetric Trotter approximation.

    u_ide = exp(-i (H_x + H_z) tau); u_exp applies a half step of the
    transverse part, a full step of the longitudinal part, and another half
    step of the transverse part.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    params = params or models.ModelParams()
    hx, hz = models.hamiltonian_parts(model_tag, models.with_coupling(model_tag, params, j_value))
    return strang_pair(hx, hz, tau)


def strang_pair(hx, hz, tau):
    """(u_ide, u_exp) for an arbitrary Hermitian split H = hx + hz."""
    u_ide = expm_hermitian(hx + hz, tau)
    half = expm_hermitian(hx, tau / 2)
    u_exp = half @ expm_hermitian(hz, tau) @ half
    return u_ide, u_exp


def evolve(schedule, initial=None, params=None, mu=1.0, log_base=2.0, reports=False):
    """Propagate through a schedule with per-step Trotter unitaries.

    Starts from ``initial`` (default: the exact ground state at the first
    coupling value) and applies the symmetric Trotter step of each
    subsequent value. ``fid_instant[m]`` is the amplitude fidelity of the
    propagated state to the exact ground state at step m. With ``mu`` below
    1 the reported fidelities are those of the pseudopure mixture
    (1 - mu) I/d + mu |psi><psi|, which evolves as the pure component does.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    params = params or models.ModelParams()
    model_tag = schedule.model_tag
    exact = ground_sweep(model_tag, schedule, params=params, reports=reports, log_base=log_base)
    psi = exact.ground_states[0].copy() if initial is None else normalize_phase(initial)
    dim = len(psi)

    def reported(pure_amp):
        # pseudopure mixtures keep their maximally mixed component under
        # unitary evolution, so the fidelity maps through exactly
        return math.sqrt((1.0 - mu) / dim + mu * pure_amp**2)

    hx, _ = models.hamiltonian_parts(model_tag, params)
    u_half = expm_hermitian(hx, schedule.tau / 2)
    fids = np.empty(len(schedule.values))
    fids[0] = reported(abs(np.vdot(exact.ground_states[0], psi)))
    for m, j in enumerate(schedule.values[1:], start=1):
        _, hz = models.hamiltonian_parts(model_tag, models.with_coupling(model_tag, params, j))
        psi = u_half @ (expm_hermitian(hz, schedule.tau) @ (u_half @ psi))
        fids[m] = reported(abs(np.vdot(exact.ground_states[m], psi)))
    target = make_state(models.TARGET_LABEL[model_tag])
    exact.fid_instant = fids
    exact.min_fidelity = float(fids.min())
    exact.final_state = psi
    exact.final_fidelity = float(reported(abs(np.vdot(target, psi))))
    return exact


def trotter_error_scaling(model_tag, j_value, tau, params=None):
    """Ratio of Trotter errors at tau and tau/2 (max-entry operator norm).

    The symmetric split has third-order local error, so the ratio is close
    to 8. Returns NaN for a commuting split, where both errors vanish and
    the ratio is degenerate. Requires the error at ``tau`` to stay below 0.1
    so the asymptotic scaling regime applies.
    """

    def err(t):
        u_ide, u_exp = trotter_pair(model_tag, j_value, t, params=params)
        return float(np.abs(u_ide - u_exp).max())

    e_full = err(tau)
    if e_full > 0.1:
        raise ValueError(f"tau {tau} too large for the scaling regime: error {e_full:.3e} exceeds 0.1")
    e_half = err(tau / 2)
    if e_half < 1e-13:
        return math.nan
    return e_full / e_half


def min_steps_search(model_tag, target_min_fidelity, tau, params=None, step_cap=None):
    """Smallest step count whose gap-adaptive schedule reaches a fidelity target.

    Searches by doubling until the evolved minimum fidelity meets the
    target, then bisects. Raises if the target is not reached within
    ``step_cap`` (default: ten times the model's canonical step count),
    reporting the best value achieved.
    """
    models.check_model_tag(model_tag)
    if not 0.0 <= target_min_fidelity < 1.0:
        raise ValueError(f"target must lie in [0, 1), got {target_min_fidelity}")
    params = params or models.ModelParams()
    cap = step_cap or 10 * models.DEFAULT_STEPS[model_tag]
    grid, dens = _sector_density(model_tag, params)

    def achieved(m_steps):
        sched = schedule_from_density(model_tag, m_steps, tau, grid, dens)
        return evolve(sched, params=params).min_fidelity

    best = -1.0
    last_fail = 0
    m = 1
    while True:
        value = achieved(m)
        best = max(best, value)
        if value >= target_min_fidelity:
            break
        if m >= cap:
            raise ValueError(
                f"target {target_min_fidelity} unreachable within {cap} steps; best achieved {best:.6f}"
            )
        last_fail = m
        m = min(2 * m, cap)
    lo, hi = last_fail, m
    if lo == 0 or lo == hi:
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if achieved(mid) >= target_min_fidelity:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class RefocusParams:
    """Per-step spectrometer parameters realizing a schedule.

    For the two-body model each emitted step carries three evolution delays
    (seconds) and three radio-frequency offsets (Hz); for the three-body
    model a single delay per step. ``pulse_angle`` is the transverse-kick
    rotation angle omega_x tau / 2 in radians. Steps with J = 0 are skipped
    and noted in ``notices``.
    """

    model_tag: str
    pulse_angle: float
    m_indices: list
    j_values: np.ndarray
    tau1: np.ndarray | None
    tau2: np.ndarray | None
    tau3: np.ndarray | None
    fq1: np.ndarray | None
    fq2: np.ndarray | None
    fq3: np.ndarray | None
    d_m: np.ndarray | None
    notices: list


def refocus_params(nmr, schedule, omega_z, omega_x=0.1):
    """Delays and RF offsets implementing each step of a schedule.

    Uses d_ij = 1/(2 J_ij) built from the scalar couplings. The two-body
    model needs all three couplings; the three-body model needs J12 only. A
    zero required coupling is an error naming the pair.
    """
    tag = schedule.model_tag
    needed = [(1, 2), (1, 3), (2, 3)] if tag == "zz" else [(1, 2)]
    d = {}
    for i, k in needed:
        j_ik = nmr.coupling(i, k)
        if j_ik == 0.0:
            raise ValueError(f"zero coupling J{i}{k}: cannot build refocusing delays")
        d[(i, k)] = 1.0 / (2.0 * j_ik)

    notices = []
    m_indices = []
    j_kept = []
    for m, j in enumerate(schedule.values):
        if j > 0.0:
            m_indices.append(m)
            j_kept.append(j)
        else:
            notices.append(f"skipped step m={m} with J={j:g}")
    j_kept = np.asarray(j_kept)
    pulse_angle = omega_x * schedule.tau / 2

    if tag == "zz":
        d12, d13, d23 = d[(1, 2)], d[(1, 3)], d[(2, 3)]
        return RefocusParams(
            model_tag=tag,
            pulse_angle=pulse_angle,
            m_indices=m_indices,
            j_values=j_kept,
            tau1=j_kept * schedule.tau / math.pi * (d12 + d23),
            tau2=j_kept * schedule.tau / math.pi * (d12 + d13),
            tau3=j_kept * schedule.tau / math.pi * (d13 + d23),
            fq1=omega_z / (4.0 * j_kept * d12),
            fq2=omega_z / (4.0 * j_kept * (d12 + d13 + d23)),
            fq3=omega_z / (4.0 * j_kept * d23),
            d_m=None,
            notices=notices,
        )
    return RefocusParams(
        model_tag=tag,
        pulse_angle=pulse_angle,
        m_indices=m_indices,
        j_values=j_kept,
        tau1=None,
        tau2=None,
        tau3=None,
        fq1=None,
        fq2=None,
        fq3=None,
        d_m=j_kept * schedule.tau / math.pi * d[(1, 2)],
        notices=notices,
    )


def find_crossing(j_values, component_a, component_b):
    """First sign change of (a - b) along a sweep, with a linear-interpolation root.

    Returns (j_lo, j_hi, j_root) bracketing the crossing, or None when the
    difference never changes sign.
    """
    diff = np.asarray(component_a, dtype=float) - np.asarray(component_b, dtype=float)
    j_values = np.asarray(j_values, dtype=float)
    for m in range(1, len(diff)):
        if diff[m - 1] == 0.0:
            return j_values[m - 1], j_values[m - 1], j_values[m - 1]
        if diff[m - 1] * diff[m] < 0.0:
            frac = diff[m - 1] / (diff[m - 1] - diff[m])
            root = j_values[m - 1] + frac * (j_values[m] - j_values[m - 1])
            return j_values[m - 1], j_values[m], root
    return None
