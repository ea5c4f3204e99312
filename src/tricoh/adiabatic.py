"""Discrete adiabatic sweeps for the two spin models.

A sweep is a monotone sequence of coupling values J(t_0) .. J(t_M) with a
fixed step interval tau. ``ground_sweep`` diagonalizes the schedule's
(M+1, 8, 8) stack of H(J) at once to track the exact instantaneous spectrum
and ground states; ``evolve`` propagates a state with the symmetric
Trotter step of each coupling value, whose diagonal longitudinal part is a
phase vector, and audits the instantaneous fidelity to the exact ground
state, from one stacked overlap of all steps once the propagation is done.
Ground vectors and overlaps equal per-step ``qmat.eig_hermitian`` and
``np.vdot`` bit for bit. At a step listed in ``degenerate_steps`` the ground
vector is a canonical pick in the near-degenerate cluster, not the unique
symmetric ground state, so check that list before reading fidelities.
All reported fidelities use the amplitude (root-fidelity) convention of
``qmat.root_fidelity``. ``trotter_pair`` and ``trotter_error_scaling``
take one coupling or a J array.

The gap-adaptive schedule allocates steps according to the local diabatic
transition rate out of the ground state,

    density(J) = sum_n |<n| dH/dJ |g>| / (E_n - E_g)^2,

evaluated in the permutation-symmetric four-state subspace that contains the
entire dynamics (spanned by |000>, |W001>, |W110>, |111>), on the whole
fine grid with one stacked 4x4 eigendecomposition. The table depends only
on the model and the fields (omega_z, omega_x), so it is computed once per
model and field and shared, read-only, by every later schedule and step
search, together with its validated, normalized cumulative sum, so that a
schedule costs one interpolation; at most ``DENSITY_CACHE_SIZE`` tables are
kept, and a density that fails validation (omega_x = 0) raises and is not
kept. The sector basis is built once at import. Summing over all
excited levels matters: level crossings with symmetry-forbidden coupling
carry no diabatic risk and must not attract steps. Near an avoided crossing
dominated by a single level this density reduces to the familiar inverse
squared gap rule, and a constant density reproduces the linear schedule.
``min_steps_search`` finds, by doubling and then bisection, a step count m
of such a schedule that reaches a fidelity target where m - 1 does not,
searching up to ten times the model's canonical step count. The fidelity
does not always rise with the step count, so m is the smallest passing
count only where it does below m. Its probes propagate in the symmetric
four-state subspace, in blocks of about sqrt(m) steps, and share one
transverse half step, built and checked against tau before the first probe.

``refocus_params`` translates a schedule into the per-step table of
spectrometer delays and radio-frequency offsets for an NMR implementation
with given scalar couplings; the model record names the table's columns and
the spin pairs each one sums.
"""

from dataclasses import dataclass
import functools
import math
import numbers

import numpy as np

from . import models
from .qmat import _json_numbers, _read_json, expm_hermitian, ground_states
from .states import make_state

# fine-grid resolution used to tabulate the adaptive step density
DENSITY_GRID = 2000
# floor applied to the density as a fraction of its maximum, so that flat
# zero-coupling stretches still receive a nonzero measure
DENSITY_FLOOR_FRACTION = 1e-6
# density tables kept, one per (model, omega_z, omega_x); each holds up to
# three arrays of DENSITY_GRID + 1 floats (grid, density, cumulative)
DENSITY_CACHE_SIZE = 16


def _check_tau(tau):
    if not math.isfinite(tau) or tau <= 0.0:
        raise ValueError(f"tau must be positive and finite, got {tau}")


def _check_steps(m_steps):
    # bool is an Integral, but True is not a step count
    if isinstance(m_steps, bool) or not isinstance(m_steps, numbers.Integral):
        raise ValueError(f"m_steps must be an integer, got {m_steps!r}")
    if m_steps < 1:
        raise ValueError(f"m_steps must be at least 1, got {m_steps}")


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
        if values.ndim != 1:
            raise ValueError(f"schedule values must be a 1-D array, got shape {values.shape}")
        if len(values) < 1:
            raise ValueError("schedule needs at least one value")
        _check_tau(self.tau)
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
    array of ground states in the ``qmat.normalize_phase`` convention,
    indices of near-degenerate steps, and the fidelity of the final exact
    ground state to the model's target state. Evolved part (None until
    ``evolve`` fills it): per-step instantaneous fidelity of the propagated
    state to the exact ground state, its minimum, the final state, and its
    fidelity to the target.
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
    _check_steps(m_steps)
    return Schedule(values=np.linspace(lo, hi, m_steps + 1), tau=tau, model_tag=model_tag)


# the permutation-symmetric sector, built once and shared read-only
_SECTOR_BASIS = np.column_stack([make_state(label) for label in ("000", "W001", "W110", "111")])
_SECTOR_BASIS.flags.writeable = False
# hz is constant on each excitation number, so the sector's diagonal is hz at |000>, |001>, |011>, |111>
_SECTOR_LEVELS = [0, 1, 3, 7]


def _cumulative(grid, density):
    """Normalized cumulative of a validated density on its grid, from 0 to 1.

    A density with a non-finite entry, with no positive entry or with a
    negative entry is rejected. Entries are floored at
    ``DENSITY_FLOOR_FRACTION`` of the maximum before the trapezoid sum.
    """
    if grid.shape != density.shape or grid.ndim != 1 or len(grid) < 2:
        raise ValueError("grid and density must be equal-length 1-D arrays")
    bad = np.flatnonzero(~np.isfinite(density))
    if bad.size:
        raise ValueError(f"density must be finite, got {density[bad[0]]} at grid point {bad[0]}")
    if not (density > 0.0).any():
        raise ValueError("density must have a positive entry, got none")
    bad = np.flatnonzero(density < 0.0)
    if bad.size:
        raise ValueError(f"density must be nonnegative, got {density[bad[0]]} at grid point {bad[0]}")
    dens = np.maximum(density, DENSITY_FLOOR_FRACTION * density.max())
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(grid))])
    cum /= cum[-1]
    return cum


def _schedule_from_cumulative(model_tag, m_steps, tau, grid, cum):
    values = np.interp(np.linspace(0.0, 1.0, m_steps + 1), cum, grid)
    values[0], values[-1] = grid[0], grid[-1]
    return Schedule(values=values, tau=tau, model_tag=model_tag)


@functools.lru_cache(maxsize=DENSITY_CACHE_SIZE)
def _density_table(model_tag, omega_z, omega_x):
    """Diabatic-rate density on a fine coupling grid, as read-only ``(grid, density, cumulative)``.

    ``cumulative`` is ``_cumulative(grid, density)``. A density that it
    rejects (omega_x = 0) raises its ``ValueError`` here and leaves no cache
    entry.
    """
    # keyed on the fields the table reads, so params differing only in the
    # coupling fields share one entry; every caller gets the same arrays
    m = models.model(model_tag)
    params = models.ModelParams(omega_z=omega_z, omega_x=omega_x)
    grid = np.linspace(*m.j_range, DENSITY_GRID + 1)
    basis = _SECTOR_BASIS
    d_small = basis.conj().T @ np.diag(m.dh_dj) @ basis
    h_small = basis.conj().T @ models.hamiltonian(model_tag, grid, params) @ basis
    w, v = np.linalg.eigh(h_small)
    # <n| dH/dJ |g> for every level n of every grid point, as one matmul
    overlaps = np.abs(v.conj().swapaxes(-1, -2) @ (d_small @ v[:, :, :1]))[:, 1:, 0]
    # a degenerate level at zero coupling gives 0/0 here; _cumulative rejects the NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        density = (overlaps / (w[:, 1:] - w[:, :1]) ** 2).sum(axis=1)
    cum = _cumulative(grid, density)
    grid.flags.writeable = density.flags.writeable = cum.flags.writeable = False
    return grid, density, cum


def schedule_from_density(model_tag, m_steps, tau, grid, density_values):
    """Schedule whose step spacing follows a tabulated density.

    The cumulative density is normalized and inverted on the grid, so twice
    the density means half the local step spacing. A constant density
    reproduces the linear schedule. A density with a non-finite entry, with
    no positive entry or with a negative entry is rejected.
    """
    _check_steps(m_steps)
    grid = np.asarray(grid, dtype=float)
    cum = _cumulative(grid, np.asarray(density_values, dtype=float))
    return _schedule_from_cumulative(model_tag, m_steps, tau, grid, cum)


def gap_adaptive_schedule(model_tag, m_steps, tau, params=None):
    """Schedule with step density set by the local diabatic transition rate.

    See the module docstring for the density definition. Spacing shrinks
    where the ground state changes fastest (the avoided crossing of the
    two-body model, the early crossover of the three-body model) and relaxes
    where excitations are symmetry-forbidden or energetically suppressed.
    The validated, normalized cumulative density is cached with the table,
    once per model and (omega_z, omega_x), so a schedule costs one
    interpolation; it equals ``schedule_from_density`` on the cached
    ``(grid, density)`` bit for bit.
    """
    _check_steps(m_steps)
    p = params or models._DEFAULT_PARAMS
    grid, _, cum = _density_table(model_tag, p.omega_z, p.omega_x)
    return _schedule_from_cumulative(model_tag, m_steps, tau, grid, cum)


def load_schedule(path, model_tag, tau):
    """Schedule from a JSON array of coupling values.

    Errors in the file's values name the file; a bad ``tau`` does not come
    from the file and is checked first, without the prefix.
    """
    _check_tau(tau)
    raw = _read_json(path)
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected a JSON array of coupling values")
    values = _json_numbers(path, "schedule values", raw)
    try:
        return Schedule(values=values, tau=tau, model_tag=model_tag)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def ground_sweep(schedule, params=None):
    """Exact instantaneous spectrum and ground states along a schedule.

    Ground state m is ``qmat.eig_hermitian(H(J_m)).eigenvectors[:, 0]`` bit
    for bit, in the phase convention of ``qmat.normalize_phase``. Steps
    ``qmat.ground_states`` flags degenerate are listed in ``degenerate_steps``.
    """
    w, grounds, degenerate = ground_states(models.hamiltonian(schedule.model_tag, schedule.values, params))
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

    Rejects a bad tau, or one whose phases here and in exp(-i H tau) could overflow. Their bound
    tau (max row sum |hx| + max |hz|) is a Python float, so no numpy warning comes first.
    """
    _check_tau(tau)
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

    At a step in ``degenerate_steps`` (zzz at omega_x = 1e-6 has them, the
    default fields none) the reference is a canonical pick in the
    near-degenerate cluster, not the symmetric ground state, so check that
    list before trusting ``fid_instant`` and ``min_fidelity``.
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


def _sector_transverse(model_tag, tau, params=None):
    """Sector transverse part hx_s = B^T hx B and its half step exp(-i hx_s tau/2), as ``(hx_s, half)``.

    Neither depends on the coupling. ``_split_step``'s tau checks run here on
    the sector parts at the ends of the model's coupling range. hz is affine
    in J, so its largest modulus on any schedule of the model is reached at
    an endpoint (rounding is monotone too): every schedule of the model with
    this tau and these fields shares the pair and the checks' verdict.
    """
    hx, hz = models.parts(model_tag, models.model(model_tag).j_range, params)
    basis = _SECTOR_BASIS.real
    hx_s = basis.T @ hx.real @ basis
    return hx_s, _split_step(hx_s, hz[:, _SECTOR_LEVELS], tau)[0]


def _sector_min_fidelity(schedule, transverse, params=None):
    """``evolve(schedule, params).min_fidelity``, computed in the symmetric sector.

    For omega_x != 0 the ground state of every H(J) is unique and permutation
    symmetric (H conjugated by Z (x) Z (x) Z is stoquastic and irreducible, so
    Perron-Frobenius applies), and the Trotter step keeps that sector. So the
    state propagates as a 4-vector in the basis |000>, |W001>, |W110>, |111>
    of ``_SECTOR_BASIS``: one stacked real 4x4 ``eigh`` gives the ground
    vectors, one stacked product the step matrices. ``transverse`` is
    ``_sector_transverse(schedule.model_tag, schedule.tau, params)``, which
    checks tau on the 4x4 sector parts it exponentiates; their overflow bound
    is never below that of the 8x8 parts, so the probe raises wherever
    ``evolve`` does. Where ``evolve`` flags a step degenerate (a ground gap
    below ``qmat.DEGENERACY_TOL``, as for zzz at omega_x = 1e-5), its
    reference vector is a canonical pick in the near-degenerate cluster, not
    the symmetric ground state used here, and the two values differ.

    The M steps propagate in blocks of k = isqrt(M + 1): k stacked products
    build every in-block prefix product, then one matvec per block carries
    the state to the next block, about 2 sqrt(M) Python iterations in all.
    The values differ from a step-by-step loop by rounding only (below
    3e-15 on the step counts the ``perfbench`` searches probe).
    """
    hx_s, half = transverse
    hz_s = models.parts(schedule.model_tag, schedule.values, params)[1][:, _SECTOR_LEVELS]
    kicks = np.exp(-1j * schedule.tau * hz_s)
    grounds = np.linalg.eigh(hx_s + hz_s[:, :, None] * np.eye(4))[1][:, :, 0]
    steps = (half * kicks[:, None, :]) @ half
    # steps 1..M in blocks of k, the last padded with identities
    n = len(steps)
    k = math.isqrt(n)
    n_blocks = -(-(n - 1) // k)
    pad = np.broadcast_to(np.eye(4), (n_blocks * k - (n - 1), 4, 4))
    blocks = np.concatenate([steps[1:], pad]).reshape(n_blocks, k, 4, 4)
    # prods[b, j] = blocks[b, j] @ ... @ blocks[b, 0], each j one stacked product over all blocks
    prods = np.empty_like(blocks)
    prods[:, 0] = blocks[:, 0]
    for j in range(1, k):
        prods[:, j] = blocks[:, j] @ prods[:, j - 1]
    starts = np.empty((n_blocks + 1, 4), dtype=complex)
    starts[0] = grounds[0]
    for b in range(n_blocks):
        starts[b + 1] = prods[b, -1] @ starts[b]
    psis = np.concatenate([starts[:1], (prods @ starts[:-1, None, :, None]).reshape(-1, 4)[:n - 1]])
    return float(np.abs((grounds * psis).sum(axis=1)).min())


def min_steps_search(model_tag, target_min_fidelity, tau, params=None):
    """Step count of a gap-adaptive schedule that reaches a fidelity target, by doubling then bisection.

    With f(m) the minimum instantaneous fidelity of ``evolve`` on the
    m-step gap-adaptive schedule, the result hi has f(hi) >= target and,
    unless hi = 1, f(hi - 1) < target. Doubling 1, 2, 4, ... stops at the
    first passing count; bisection then narrows the bracket from the last
    failing one. f does not always rise with m, so hi is the smallest
    passing count only where f rises with m below hi. Each probe is scored
    in the 4-dim symmetric sector, which gives ``evolve``'s value up to
    rounding wherever ``evolve`` flags no step degenerate. Raises if the
    target is not reached within ten times the model's canonical step
    count, reporting the best value achieved.
    """
    if not 0.0 <= target_min_fidelity < 1.0:
        raise ValueError(f"target must lie in [0, 1), got {target_min_fidelity}")
    cap = 10 * models.model(model_tag).steps
    transverse = _sector_transverse(model_tag, tau, params)

    def achieved(m_steps):
        return _sector_min_fidelity(gap_adaptive_schedule(model_tag, m_steps, tau, params), transverse, params)

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
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if achieved(mid) >= target_min_fidelity:
            hi = mid
        else:
            lo = mid
    return hi


def refocus_params(nmr, schedule, params=None):
    """Per-step delays and RF offsets implementing a schedule, as ``(table, notices)``.

    ``table`` maps each column of the refocusing CSV to its per-step array,
    in column order: the step index ``m``, the coupling ``J``, the model's
    delay columns (seconds) and RF-offset columns (Hz) from its
    ``models.Model`` record, and ``pulse_angle``, the transverse-kick
    rotation angle omega_x tau / 2 in radians. A delay is J tau / pi times
    the sum of d_ik = 1/(2 J_ik) over the column's spin pairs, an offset
    omega_z / (4 J times that sum), with ``omega_z`` and ``omega_x`` from
    ``params`` (default ``ModelParams()``). Steps with J = 0 are skipped
    and noted in ``notices``. A coupling some column needs that is not
    positive is an error naming the pair.
    """
    params = params or models._DEFAULT_PARAMS
    m = models.model(schedule.model_tag)
    d = {}
    for i, k in sorted(set().union(*m.delays.values(), *m.offsets.values())):
        j_ik = nmr.coupling(i, k)
        if not j_ik > 0.0:
            raise ValueError(f"coupling J{i}{k} = {j_ik:g} Hz must be positive to build refocusing delays")
        d[(i, k)] = 1.0 / (2.0 * j_ik)

    kept = schedule.values > 0.0
    j = schedule.values[kept]
    table = {"m": np.flatnonzero(kept), "J": j}
    for name, pairs in m.delays.items():
        table[name] = j * schedule.tau / math.pi * sum(d[p] for p in pairs)
    for name, pairs in m.offsets.items():
        table[name] = params.omega_z / (4.0 * j * sum(d[p] for p in pairs))
    table["pulse_angle"] = np.full(len(j), params.omega_x * schedule.tau / 2)
    return table, [f"skipped step m={step} with J={value:g}" for step, value in enumerate(schedule.values)
                   if not kept[step]]


def find_crossing(j_values, component_a, component_b):
    """First sign change of (a - b) along a sweep, with a linear-interpolation root.

    Returns (j_lo, j_hi, j_root) bracketing the crossing, or None when the
    difference neither changes sign nor vanishes. A sample where a - b is
    exactly zero is a crossing (j, j, j) wherever it lies, the last sample and
    a lone sample included. The three arrays must have equal lengths and
    finite entries.
    """
    arrays = {"j_values": j_values, "component_a": component_a, "component_b": component_b}
    arrays = {name: np.asarray(x, dtype=float) for name, x in arrays.items()}
    lengths = tuple(len(x) for x in arrays.values())
    if len(set(lengths)) != 1:
        raise ValueError(f"j_values, component_a and component_b must have equal lengths, got {lengths}")
    for name, x in arrays.items():
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size:
            raise ValueError(f"{name} must be finite, got {x[bad[0]]} at index {bad[0]}")
    j_values, component_a, component_b = arrays.values()
    diff = component_a - component_b
    for m in range(len(diff)):
        if diff[m] == 0.0:
            return j_values[m], j_values[m], j_values[m]
        if m + 1 < len(diff) and diff[m] * diff[m + 1] < 0.0:
            frac = diff[m] / (diff[m] - diff[m + 1])
            root = j_values[m] + frac * (j_values[m + 1] - j_values[m])
            return j_values[m], j_values[m + 1], root
    return None
