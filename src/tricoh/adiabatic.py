"""Discrete adiabatic sweeps for the two spin models.

A sweep is a monotone sequence of coupling values J(t_0) .. J(t_M) with a
fixed step interval tau. ``ground_sweep`` diagonalizes the schedule's
(M+1, 8, 8) stack of H(J) at once to track the exact instantaneous spectrum
and ground states; ``evolve`` propagates a state with the symmetric
Trotter step of each coupling value, whose diagonal longitudinal part is a
phase vector, and audits the instantaneous fidelity to the exact ground
state, from one stacked overlap of all steps once the propagation is done.
Sign alignment and overlaps reproduce per-step ``np.vdot`` bit for bit.
All reported fidelities use the amplitude (root-fidelity) convention of
``qmat.root_fidelity``. ``trotter_pair`` and ``trotter_error_scaling``
take one coupling or a J array.

The gap-adaptive schedule allocates steps according to the local diabatic
transition rate out of the ground state,

    density(J) = sum_n |<n| dH/dJ |g>| / (E_n - E_g)^2,

evaluated in the permutation-symmetric four-state subspace that contains the
entire dynamics (spanned by |000>, |W001>, |W110>, |111>), on the whole
fine grid with one stacked 4x4 eigendecomposition. Summing over all
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
from .qmat import expm_hermitian, ground_states
from .states import make_state

# fine-grid resolution used to tabulate the adaptive step density
DENSITY_GRID = 2000
# floor applied to the density as a fraction of its maximum, so that flat
# zero-coupling stretches still receive a nonzero measure
DENSITY_FLOOR_FRACTION = 1e-6


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
        lo, hi = models.model(self.model_tag).j_range
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
        if values.min() < lo or values.max() > hi:
            raise ValueError(f"schedule values must lie in [{lo}, {hi}]")
        if len(values) > 1:
            if abs(values[0] - lo) > 1e-9 or abs(values[-1] - hi) > 1e-9:
                raise ValueError(f"schedule must run from {lo} to {hi}, got {values[0]}..{values[-1]}")


@dataclass
class SweepResult:
    """Exact tracking and (optionally) evolved-state audit along a schedule.

    Exact part: per-step ground/first-excited energies, gap, the (M+1, 8)
    array of phase-aligned ground states, indices of near-degenerate steps,
    and the fidelity of the final exact ground state to the model's target
    state. Evolved part (None until ``evolve`` fills it): per-step
    instantaneous fidelity of the propagated state to the exact ground
    state, its minimum, the final state, and its fidelity to the target.
    """

    j_values: np.ndarray
    ground_energies: np.ndarray
    excited_energies: np.ndarray
    gaps: np.ndarray
    ground_states: np.ndarray
    degenerate_steps: list
    ground_target_fidelity: float
    fid_instant: np.ndarray | None = None
    min_fidelity: float | None = None
    final_state: np.ndarray | None = None
    final_fidelity: float | None = None


def linear_schedule(model_tag, m_steps, tau):
    """Uniformly spaced schedule over the model's coupling range."""
    lo, hi = models.model(model_tag).j_range
    if m_steps < 1:
        raise ValueError(f"m_steps must be at least 1, got {m_steps}")
    return Schedule(values=np.linspace(lo, hi, m_steps + 1), tau=tau, model_tag=model_tag)


def symmetric_sector_basis():
    """Columns |000>, |W001>, |W110>, |111>: the permutation-symmetric subspace."""
    return np.column_stack([make_state("000"), make_state("W001"), make_state("W110"), make_state("111")])


def _sector_density(model_tag, params):
    """Tabulated diabatic-rate density on a fine coupling grid."""
    m = models.model(model_tag)
    grid = np.linspace(*m.j_range, DENSITY_GRID + 1)
    basis = symmetric_sector_basis()
    d_small = basis.conj().T @ np.diag(m.dh_dj) @ basis
    h_small = basis.conj().T @ models.hamiltonian(model_tag, grid, params) @ basis
    w, v = np.linalg.eigh(h_small)
    # <n| dH/dJ |g> for every level n of every grid point, as one matmul
    overlaps = np.abs(v.conj().swapaxes(-1, -2) @ (d_small @ v[:, :, :1]))[:, 1:, 0]
    return grid, (overlaps / (w[:, 1:] - w[:, :1]) ** 2).sum(axis=1)


def schedule_from_density(model_tag, m_steps, tau, grid, density_values):
    """Schedule whose step spacing follows a tabulated density.

    The cumulative density is normalized and inverted on the grid, so twice
    the density means half the local step spacing. A constant density
    reproduces the linear schedule.
    """
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


def ground_sweep(schedule, params=None):
    """Exact instantaneous spectrum and ground states along a schedule.

    Ground states are phase-aligned step to step (sign-flipped when the
    overlap with the previous step's state is negative) so curves built from
    them are continuous. Steps ``qmat.ground_states`` flags degenerate are
    listed in ``degenerate_steps``.
    """
    w, grounds, degenerate = ground_states(models.hamiltonian(schedule.model_tag, schedule.values, params))
    # grounds[m] is negated when its overlap with the aligned grounds[m - 1]
    # is negative; negation is exact, so that overlap is the raw one times
    # the sign of grounds[m - 1], and a zero overlap resets the sign to +1
    overlaps = _row_vdot(grounds[:-1], grounds[1:]).real
    negative = np.cumsum(overlaps < 0.0)
    flips = (negative - np.maximum.accumulate(np.where(overlaps == 0.0, negative, 0))) % 2 == 1
    np.negative(grounds[1:], out=grounds[1:], where=flips[:, None])
    target = make_state(models.model(schedule.model_tag).target)
    return SweepResult(
        j_values=schedule.values.copy(),
        ground_energies=w[:, 0],
        excited_energies=w[:, 1],
        gaps=w[:, 1] - w[:, 0],
        ground_states=grounds,
        degenerate_steps=np.flatnonzero(degenerate).tolist(),
        ground_target_fidelity=float(abs(np.vdot(target, grounds[-1]))),
    )


def _row_vdot(a, b):
    """``np.vdot`` of each row of ``a`` with the same row of ``b``, bitwise, as one stacked matmul."""
    return (a.conj()[:, None, :] @ b[:, :, None])[:, 0, 0]


def _split_step(hx, hz, tau):
    """Half step exp(-i hx tau/2) and phase vector exp(-i tau hz) of the symmetric Trotter step.

    Rejects a tau whose phases, here and in exp(-i H tau), could overflow: their bound
    tau (max row sum |hx| + max |hz|) is a Python float, so no numpy warning comes first.
    """
    if not math.isfinite(tau) or tau <= 0.0:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if not math.isfinite(tau * float(np.abs(hx).sum(axis=-1).max() + np.abs(hz).max())):
        raise ValueError(f"tau {tau} is too large: the Trotter step phases overflow")
    return expm_hermitian(hx, tau / 2), np.exp(-1j * tau * hz)


def trotter_pair(model_tag, j, tau, params=None):
    """Ideal one-step propagator and its symmetric Trotter approximation.

    u_ide = exp(-i (H_x + H_z) tau); u_exp applies a half step of the
    transverse part, a full step of the diagonal longitudinal part (the
    phase vector exp(-i tau hz)), and another half step of the transverse part.
    An array of n couplings gives two (n, 8, 8) stacks, sharing one half step.
    """
    half, kicks = _split_step(*models.parts(model_tag, j, params), tau)
    u_ide = expm_hermitian(models.hamiltonian(model_tag, j, params), tau)
    return u_ide, (half * kicks[..., None, :]) @ half


def evolve(schedule, params=None, mu=1.0):
    """Propagate through a schedule with per-step Trotter unitaries.

    Starts from the exact ground state of ``ground_sweep`` at the first
    coupling value and applies the symmetric Trotter step of each subsequent
    value. ``fid_instant[m]`` is the amplitude fidelity of the propagated
    state to the exact ground state at step m. With ``mu`` below 1 the
    reported fidelities are those of the pseudopure mixture (1 - mu) I/d +
    mu |psi><psi|, which evolves as the pure component does.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    model_tag = schedule.model_tag
    u_half, kicks = _split_step(*models.parts(model_tag, schedule.values, params), schedule.tau)
    exact = ground_sweep(schedule, params=params)
    psi = exact.ground_states[0].copy()
    dim = len(psi)

    def reported(pure_amp):
        # pseudopure mixtures keep their maximally mixed component under
        # unitary evolution, so the fidelity maps through exactly
        return math.sqrt((1.0 - mu) / dim + mu * pure_amp**2)

    psis = np.empty((len(schedule.values), dim), dtype=complex)
    psis[0] = psi
    for m in range(1, len(schedule.values)):
        psi = u_half @ (kicks[m] * (u_half @ psi))
        psis[m] = psi
    overlaps = _row_vdot(exact.ground_states, psis)
    fids = np.array([reported(amp) for amp in np.hypot(overlaps.real, overlaps.imag)])
    target = make_state(models.model(model_tag).target)
    exact.fid_instant = fids
    exact.min_fidelity = float(fids.min())
    exact.final_state = psi
    exact.final_fidelity = float(reported(abs(np.vdot(target, psi))))
    return exact


def trotter_error_scaling(model_tag, j, tau, params=None):
    """Ratio of Trotter errors at tau and tau/2 (max-entry operator norm).

    The symmetric split has third-order local error, so the ratio is close
    to 8. Returns NaN for a commuting split, where both errors vanish and
    the ratio is degenerate. Requires the error at ``tau`` to stay below 0.1
    so the asymptotic scaling regime applies; the error names the first
    coupling that fails. One coupling gives a float, an array of n
    couplings an array of n ratios from two stacked ``trotter_pair`` calls.
    """

    def err(t):
        u_ide, u_exp = trotter_pair(model_tag, j, t, params=params)
        return np.abs(u_ide - u_exp).max(axis=(-2, -1))

    e_full = err(tau)
    over = np.flatnonzero(np.ravel(e_full > 0.1))
    if len(over):
        j_bad, e_bad = np.ravel(j)[over[0]], np.ravel(e_full)[over[0]]
        raise ValueError(
            f"tau {tau} too large for the scaling regime at J={j_bad:g}: error {e_bad:.3e} exceeds 0.1"
        )
    e_half = err(tau / 2)
    ratio = np.divide(e_full, e_half, out=np.full_like(e_full, math.nan), where=e_half >= 1e-13)
    return float(ratio) if ratio.ndim == 0 else ratio


def min_steps_search(model_tag, target_min_fidelity, tau, params=None, step_cap=None):
    """Smallest step count whose gap-adaptive schedule reaches a fidelity target.

    Searches by doubling until the evolved minimum fidelity meets the
    target, then bisects. Raises if the target is not reached within
    ``step_cap`` (default: ten times the model's canonical step count; at
    least 1), reporting the best value achieved.
    """
    if not 0.0 <= target_min_fidelity < 1.0:
        raise ValueError(f"target must lie in [0, 1), got {target_min_fidelity}")
    cap = 10 * models.model(model_tag).steps if step_cap is None else step_cap
    if cap < 1:
        raise ValueError(f"step_cap must be at least 1, got {cap}")
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

    ``columns`` maps each model-specific CSV column to its per-step values,
    in column order: for the two-body model three evolution delays
    ``tau1..tau3`` (seconds) and three radio-frequency offsets ``FQ1..FQ3``
    (Hz), for the three-body model a single delay ``d_m``.
    ``pulse_angle`` is the transverse-kick rotation angle omega_x tau / 2 in
    radians. Steps with J = 0 are skipped and noted in ``notices``.
    """

    pulse_angle: float
    m_indices: list
    j_values: np.ndarray
    columns: dict
    notices: list


def refocus_params(nmr, schedule, omega_z, omega_x=0.1):
    """Delays and RF offsets implementing each step of a schedule.

    Uses d_ij = 1/(2 J_ij) built from the scalar couplings. The two-body
    model needs all three couplings; the three-body model needs J12 only. A
    required coupling that is not positive is an error naming the pair.
    """
    tag = schedule.model_tag
    needed = [(1, 2), (1, 3), (2, 3)] if tag == "zz" else [(1, 2)]
    d = {}
    for i, k in needed:
        j_ik = nmr.coupling(i, k)
        if not j_ik > 0.0:
            raise ValueError(f"coupling J{i}{k} = {j_ik:g} Hz must be positive to build refocusing delays")
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
    scale = j_kept * schedule.tau / math.pi
    if tag == "zz":
        d12, d13, d23 = d[(1, 2)], d[(1, 3)], d[(2, 3)]
        columns = {
            "tau1": scale * (d12 + d23),
            "tau2": scale * (d12 + d13),
            "tau3": scale * (d13 + d23),
            "FQ1": omega_z / (4.0 * j_kept * d12),
            "FQ2": omega_z / (4.0 * j_kept * (d12 + d13 + d23)),
            "FQ3": omega_z / (4.0 * j_kept * d23),
        }
    else:
        columns = {"d_m": scale * d[(1, 2)]}
    return RefocusParams(
        pulse_angle=omega_x * schedule.tau / 2,
        m_indices=m_indices,
        j_values=j_kept,
        columns=columns,
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
