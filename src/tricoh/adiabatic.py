"""Discrete adiabatic sweeps for the two spin models.

A sweep is a monotone sequence of coupling values J(t_0) .. J(t_M) with a
fixed step interval tau. ``ground_sweep`` tracks the exact instantaneous
spectrum and ground states; ``evolve`` propagates a state with the symmetric
Trotter step of each coupling value and audits its instantaneous fidelity to
the exact ground state. All reported fidelities use the amplitude
(root-fidelity) convention of ``qmat.root_fidelity``.

The gap-adaptive schedule allocates steps according to the local diabatic
transition rate out of the ground state,

    density(J) = sum_n |<n| dH/dJ |g>| / (E_n - E_g)^2,

evaluated in the permutation-symmetric four-state subspace that contains the
entire dynamics (spanned by |000>, |W001>, |W110>, |111>). Near an avoided
crossing dominated by a single level this density reduces to the familiar
inverse squared gap rule, and a constant density reproduces the linear
schedule. ``_density_table`` tabulates and caches it.

The zzz model is H = omega_x S^x + (J/2) P, with S^x the total x spin and P
the product of the three Pauli z. P anticommutes with S^x and flips each
x-basis state, so H is four 2x2 blocks [[m omega_x, J/2], [J/2, -m omega_x]]
with S^x = m = 3/2 once and 1/2 three times. The ground state, at energy -E
with E = sqrt(a^2 + J^2/4) and a = 3|omega_x|/2, is cos(t/2) G -
sign(omega_x) sin(t/2) e_+, e_+ = (|000> + sqrt(3)|W110>)/2, tan t = 2a/J,
and its density is a/(8 E^3). The sector's other two excited levels lie in
other blocks, so their terms vanish by symmetry; in floats they are rounding
noise that does attract steps: at omega_x = 1e-3 most points move by over 1%.

``min_steps_search`` finds, by doubling and then bisection, the step count
of such a schedule that reaches a fidelity target; ``_search_probe`` scores
each probe in the symmetric sector, and its docstring says why that is
exact. ``refocus_params`` translates a schedule into the per-step table of
spectrometer delays and radio-frequency offsets for an NMR implementation
with given scalar couplings.
"""

from dataclasses import dataclass, replace
import functools
import math

import numpy as np

from . import models, qmat
from .qmat import _check_integer, _check_real, _json_numbers, _load_json, _squares, expm_hermitian, ground_states
from .states import make_state

# fine-grid resolution used to tabulate the adaptive step density
DENSITY_GRID = 2000
# grid points whose (k, 8, 8) stack of H(J) is built and projected at once,
# so the table's 2001 points take two slices. Smaller slices cut the peak
# further but cost time: glibc raises its mmap and trim thresholds to the
# largest block freed, so after small slices later passes page-fault. On a
# 2-CPU x86-64 VM (numpy 2.4, glibc malloc), 128-point slices raised the
# adiabatic_design benchmark's wall_s by 7.5%, and 128- or 301-point slices
# added 1000 to 1600 minor faults per pass of adiabatic_design and
# sweep_reports; 1001-point slices kept the one-shot build's fault counts
# to within 200 per run
DENSITY_SLICE = 1001
# floor applied to the density as a fraction of its maximum, so that flat
# zero-coupling stretches still receive a nonzero measure
DENSITY_FLOOR_FRACTION = 1e-6
# density tables kept, one per (model, omega_z, omega_x); each holds up to
# four arrays of DENSITY_GRID + 1 floats (grid, density, cumulative, sector
# ground energy)
DENSITY_CACHE_SIZE = 16
# the step counts m_steps a schedule builder accepts. The ceiling is 33 times
# the step search's cap of 3000 steps; at that size the (M + 1, 8, 8) complex
# stack of H(J) already takes about 100 MB, so a larger count fails by name
# before anything is allocated
STEP_COUNTS = "[1, 100000]"
# a step-search probe of at most this many coupling values takes its ground
# vectors from one stacked eigh, a longer one from _sector_ground_pairs. On a
# 2-CPU x86-64 VM (numpy 2.4, OpenBLAS SkylakeX kernels, min of 15
# interleaved rounds) eigh scored the zz and zzz probes of 81 values 3-6%
# faster, and the kernel those of 97 values 3-16% faster
SECTOR_EIGH_FLOOR = 96
# the doubling probes of a step search up to this many steps share the sector pairs of one schedule of this
# many steps (see min_steps_search); a power of two, so that every doubling count up to it divides it
NESTED_STEPS = 64
_EPS = np.finfo(float).eps
# residual bound ||(T - lam) g|| / ||g|| of a kernel ground pair, in units of
# the kernel's power-of-two scale; a pair above it is recomputed by eigh
SECTOR_RESIDUAL_TOL = 4 * _EPS
# Newton iterations after which the kernel stops; a row that has not settled
# by then fails the residual test
_NEWTON_MAX = 64


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
        m = models.model(self.model_tag)
        lo, hi = m.j_range
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValueError(f"schedule values must be a 1-D array, got shape {values.shape}")
        if len(values) < 1:
            raise ValueError("schedule needs at least one value")
        _check_real("tau", self.tau, "(0, inf)")
        if not np.all(np.isfinite(values)):
            raise ValueError("schedule values must be finite")
        if np.any(np.diff(values) < -1e-12):
            raise ValueError("schedule values must be monotone nondecreasing")
        models._check_coupling(m, values)
        if len(values) > 1:
            if abs(values[0] - lo) > 1e-9 or abs(values[-1] - hi) > 1e-9:
                raise ValueError(f"schedule must run from {lo} to {hi}, got {values[0]}..{values[-1]}")


@dataclass(frozen=True)
class SweepResult:
    """Exact tracking and (optionally) evolved-state audit along a schedule.

    Exact part: per-step ground/first-excited energies, gap, the (M+1, 8)
    array of ground states in the ``qmat.normalize_phase`` convention,
    indices of near-degenerate steps, and the fidelity of the final exact
    ground state to the model's target state. Evolved part (None in the
    record of ``ground_sweep``; ``evolve`` returns a copy with it set):
    per-step instantaneous fidelity of the propagated state to the exact
    ground state, its minimum, the final state, and its fidelity to the
    target.
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
    _check_integer("m_steps", m_steps, STEP_COUNTS)
    return Schedule(values=np.linspace(lo, hi, m_steps + 1), tau=tau, model_tag=model_tag)


# the permutation-symmetric sector, built once and shared read-only. The sector code needs, of any
# real orthonormal basis put here: a span that holds the J = 0 ground state and is kept by hx, dH/dJ
# and dH/domega_z, B^T hx B tridiagonal with a zero diagonal, and each column joining states of one
# hz, so that the sector's diagonal is hz at each column's first nonzero entry
_SECTOR_BASIS = np.column_stack([make_state(label) for label in ("000", "W001", "W110", "111")])
_SECTOR_LEVELS = (_SECTOR_BASIS != 0).argmax(axis=0)
_SECTOR_BASIS.flags.writeable = _SECTOR_LEVELS.flags.writeable = False


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


def _schedule_values(grid, cum, m_steps):
    """The m_steps + 1 coupling values that invert the normalized cumulative ``cum`` on ``grid``, ends pinned."""
    values = np.interp(np.linspace(0.0, 1.0, m_steps + 1), cum, grid)
    values[0], values[-1] = grid[0], grid[-1]
    return values


@functools.lru_cache(maxsize=DENSITY_CACHE_SIZE)
def _density_table(model_tag, omega_z, omega_x):
    """Diabatic-rate density on a fine coupling grid, as read-only ``(grid, density, cumulative, ground)``.

    ``cumulative`` is ``_cumulative(grid, density)`` and ``ground`` the
    sector ground energy at each grid point. The table depends only on the
    model and the fields, so it is computed once per model and
    (omega_z, omega_x) and shared, read-only, by every later schedule and
    step search; at most ``DENSITY_CACHE_SIZE`` tables are kept. A density
    that ``_cumulative`` rejects (omega_x = 0) raises its ``ValueError``
    here and leaves no cache entry.

    The (n, 8, 8) stack of H(J) is built and projected onto the sector one
    slice of at most ``DENSITY_SLICE`` grid points at a time, with the same
    per-matrix products as one whole-grid projection, so every table bit is
    the same and at most one slice of the stack is held; the 4x4 ``eigh``
    stays one stacked call over the whole grid. A cold zz build's
    ``tracemalloc`` peak is about 2.4 MB, against 3.5 MB for one whole-grid
    projection.
    """
    # keyed on the fields the table reads, so params differing only in the
    # coupling fields share one entry; every caller gets the same arrays
    m = models.model(model_tag)
    params = models.ModelParams(omega_z=omega_z, omega_x=omega_x)
    grid = np.linspace(*m.j_range, DENSITY_GRID + 1)
    basis = _SECTOR_BASIS
    d_small = basis.conj().T @ np.diag(m.dh_dj) @ basis
    h_small = np.empty((len(grid),) + d_small.shape, dtype=complex)
    for i in range(0, len(grid), DENSITY_SLICE):
        # unnamed, so the slice's 8x8 stack is freed before the next one is built
        part = slice(i, i + DENSITY_SLICE)
        h_small[part] = basis.conj().T @ models.hamiltonian(model_tag, grid[part], params) @ basis
    w, v = qmat._eigh(h_small)
    # <n| dH/dJ |g> for every level n of every grid point, as one matmul
    overlaps = np.abs(v.conj().swapaxes(-1, -2) @ (d_small @ v[:, :, :1]))[:, 1:, 0]
    # a degenerate level at zero coupling gives 0/0 here; _cumulative rejects the NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        density = (overlaps / (w[:, 1:] - w[:, :1]) ** 2).sum(axis=1)
    cum = _cumulative(grid, density)
    ground = w[:, 0].copy()
    for table in (grid, density, cum, ground):
        table.flags.writeable = False
    return grid, density, cum, ground


def schedule_from_density(model_tag, m_steps, tau, grid, density_values):
    """Schedule whose step spacing follows a tabulated density.

    The cumulative density is normalized and inverted on the grid, so twice
    the density means half the local step spacing. A constant density
    reproduces the linear schedule. A density with a non-finite entry, with
    no positive entry or with a negative entry is rejected.
    """
    _check_integer("m_steps", m_steps, STEP_COUNTS)
    grid = np.asarray(grid, dtype=float)
    cum = _cumulative(grid, np.asarray(density_values, dtype=float))
    return Schedule(values=_schedule_values(grid, cum, m_steps), tau=tau, model_tag=model_tag)


def gap_adaptive_schedule(model_tag, m_steps, tau, params=None):
    """Schedule with step density set by the local diabatic transition rate.

    See the module docstring for the density definition. Spacing shrinks
    where the ground state changes fastest (the avoided crossing of the
    two-body model, the early crossover of the three-body model) and relaxes
    where excitations are symmetry-forbidden or energetically suppressed.
    The density and its validated, normalized cumulative come from
    ``_density_table``, so a schedule costs one interpolation, and it equals
    ``schedule_from_density`` on that table's ``(grid, density)`` bit for bit.
    """
    _check_integer("m_steps", m_steps, STEP_COUNTS)
    p = params or models._DEFAULT_PARAMS
    grid, _, cum, _ = _density_table(model_tag, p.omega_z, p.omega_x)
    return Schedule(values=_schedule_values(grid, cum, m_steps), tau=tau, model_tag=model_tag)


def load_schedule(path, model_tag, tau):
    """Schedule from a JSON array of coupling values.

    Errors in the file's values name the file; a bad ``tau`` does not come
    from the file and is checked first, without the prefix.
    """
    _check_real("tau", tau, "(0, inf)")

    def build(raw):
        if not isinstance(raw, list):
            raise ValueError("expected a JSON array of coupling values")
        return Schedule(values=_json_numbers("schedule values", raw), tau=tau, model_tag=model_tag)

    return _load_json(path, build)


def ground_sweep(schedule, params=None):
    """Exact instantaneous spectrum and ground states along a schedule, from one stacked diagonalization.

    Ground state m is ``qmat.eig_hermitian(H(J_m))[1][:, 0]`` bit
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
    _check_real("tau", tau, "(0, inf)")
    if not math.isfinite(tau * float(np.abs(hx).sum(axis=-1).max() + np.abs(hz).max(initial=0.0))):
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
    mu |psi><psi|, which evolves as the pure component does. Returns a copy
    of the ``ground_sweep`` record with its evolved part set.

    At a step in ``degenerate_steps`` (zzz at omega_x = 1e-6 has them, the
    default fields none) the reference is a canonical pick in the
    near-degenerate cluster, not the symmetric ground state, so check that
    list before trusting ``fid_instant`` and ``min_fidelity``.
    """
    _check_real("mu", mu, "[0, 1]")
    model_tag = schedule.model_tag
    u_half, kicks = _split_step(*models.parts(model_tag, schedule.values, params), schedule.tau)
    exact = ground_sweep(schedule, params=params)
    psi = exact.ground_states[0].copy()
    psis = np.empty((len(schedule.values), len(psi)), dtype=complex)
    psis[0] = psi
    for m in range(1, len(schedule.values)):
        psi = u_half @ (kicks[m] * (u_half @ psi))
        psis[m] = psi
    target = make_state(models.model(model_tag).target)
    # per-step overlaps with the exact ground states, then the final state's with the target
    overlaps = np.append(_row_vdot(exact.ground_states, psis), np.vdot(target, psi))
    # pseudopure mixtures keep their maximally mixed component under
    # unitary evolution, so the fidelity maps through exactly
    fids = np.sqrt((1.0 - mu) / len(psi) + mu * _squares(np.hypot(overlaps.real, overlaps.imag)))
    return replace(exact, fid_instant=fids[:-1], min_fidelity=float(fids[:-1].min()),
                   final_state=psi, final_fidelity=float(fids[-1]))


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


@dataclass(frozen=True)
class _Sector:
    """What every probe of one step search shares: the symmetric sector of one model and field, at one tau.

    ``half`` is the half step exp(-i hx_s tau/2) of the sector transverse part
    hx_s = B^T hx B, and the probe's kicks exp(-i tau hz_s) take the same
    ``tau``. The sector diagonal at coupling J is ``hz0_s + J * dh_dj_s``,
    entry by entry the sector columns of ``models.parts``' diagonal.
    ``grid``, ``cum`` and ``ground`` are the density table's arrays.
    """

    tau: float
    hx_s: np.ndarray
    half: np.ndarray
    hz0_s: np.ndarray
    dh_dj_s: np.ndarray
    grid: np.ndarray
    cum: np.ndarray
    ground: np.ndarray


def _prepare_sector(model_tag, tau, params=None):
    """The ``_Sector`` of a step search, built once per search.

    Neither hx_s nor its half step depends on the coupling. ``_split_step``'s
    tau checks run on the sector parts at the ends of the model's coupling
    range, before the density table is read. hz is affine in J, so its
    largest modulus on any schedule of the model is reached at an endpoint
    (rounding is monotone too): every schedule of the model with this tau and
    these fields shares the half step and the checks' verdict. The sector
    basis and levels are read here, at call time, not at import.
    """
    m = models.model(model_tag)
    hx, hz = models.parts(model_tag, m.j_range, params)
    basis = _SECTOR_BASIS.real
    hx_s = basis.T @ hx.real @ basis
    half = _split_step(hx_s, hz[:, _SECTOR_LEVELS], tau)[0]
    p = params or models._DEFAULT_PARAMS
    grid, _, cum, ground = _density_table(model_tag, p.omega_z, p.omega_x)
    return _Sector(tau=tau, hx_s=hx_s, half=half, hz0_s=p.omega_z * m.dh_domega_z[_SECTOR_LEVELS],
                   dh_dj_s=m.dh_dj[_SECTOR_LEVELS], grid=grid, cum=cum, ground=ground)


def _sector_ground_pairs(hx_s, hz_s, start):
    """Ground energies and vectors of the sector matrices hx_s + diag(hz_s[m]), as ``(energies, vectors)``.

    hx_s is real symmetric tridiagonal with a zero diagonal and a nonzero
    superdiagonal e, so each matrix T is unreduced tridiagonal and its
    leading minors theta_k(lam) = det(T - lam)[:k, :k] and trailing minors
    phi_k(lam) = det(T - lam)[k:, k:] follow from three-term recurrences.
    The products theta_r phi_{r+1} are the diagonal of adj(T - lam), whose
    trace is -d det(T - lam) / d lam, so Newton on det(T - lam), the last
    theta, needs nothing else. It runs from ``start``, a lower bound on each
    ground energy up to rounding, until no row moves by more than 4 eps of
    the scale; from below it converges to the lowest root. The ground vector is
    column r of the adjugate at the last iterate, for the twist index r of
    the largest |theta_r phi_{r+1}|: entry i is
    prod(-e[min(i, r):max(i, r)]) theta_min(i, r) phi_max(i, r)+1.

    A row passes when the minor products behind its column's entries share
    one sign, so that the vector has the sign pattern of the ground state
    (every other eigenvector of an unreduced tridiagonal matrix changes sign
    against it), and its residual ||(T - lam) g|| / ||g|| is at most
    ``SECTOR_RESIDUAL_TOL`` times the scale. Rows that fail either test,
    among them any whose Newton iteration has not settled, take their pair
    from one stacked ``eigh`` of those rows alone.
    """
    off = np.diagonal(hx_s, 1)
    # a power-of-two scale keeps every minor below 3**size and moves no bit of the vectors
    scale = math.ldexp(1.0, math.frexp(float(np.abs(hz_s).max() + 2.0 * np.abs(off).max()))[1])
    d = hz_s.T / scale
    e = off / scale
    e2 = (e * e).tolist()
    lam = start / scale
    n, size = hz_s.shape
    theta = np.empty((size + 1, n))
    phi = np.empty((size + 1, n))
    theta[0] = phi[size] = 1.0
    for _ in range(_NEWTON_MAX):
        a = d - lam
        theta[1], phi[size - 1] = a[0], a[size - 1]
        for k in range(2, size + 1):
            theta[k] = a[k - 1] * theta[k - 1] - e2[k - 2] * theta[k - 2]
        for k in range(size - 2, 0, -1):
            phi[k] = a[k] * phi[k + 1] - e2[k] * phi[k + 2]
        pivots = theta[:size] * phi[1:]
        step = theta[size] / pivots.sum(axis=0)
        lam = lam + step
        if not (np.abs(step) > 4.0 * _EPS).any():
            break
    twist = np.abs(pivots).argmax(axis=0)
    # span[i][j] = prod(-e[min(i, j):max(i, j)])
    b = (-e).tolist()
    span = [[1.0] * size for _ in range(size)]
    for i in range(size - 1):
        for j in range(i + 1, size):
            span[i][j] = span[j][i] = span[i][j - 1] * b[j - 1]
    rows = np.arange(size)[:, None]
    cols = np.arange(n)
    minors = theta.take(np.minimum(rows, twist) * n + cols) * phi.take(np.maximum(rows, twist) * n + (cols + n))
    x = np.take(span, rows * size + twist) * minors
    norm2 = (x * x).sum(axis=0)
    res = a * x
    res[1:] += e[:, None] * x[:-1]
    res[:-1] += e[:, None] * x[1:]
    perron = (minors.min(axis=0) >= 0.0) | (minors.max(axis=0) <= 0.0)
    passed = perron & ((res * res).sum(axis=0) <= SECTOR_RESIDUAL_TOL ** 2 * norm2)
    energies = lam * scale
    vectors = (x / np.sqrt(norm2)).T
    failed = np.flatnonzero(~passed)
    if failed.size:
        w, v = qmat._eigh(hx_s + hz_s[failed, :, None] * np.eye(size))
        energies[failed], vectors[failed] = w[:, 0], v[:, :, 0]
    return energies, vectors


def _sector_pairs(values, sector):
    """Ground vectors and step matrices of a probe on coupling ``values``, as ``(grounds, steps)``.

    ``sector`` is ``_prepare_sector(tag, tau, params)``, built once per step
    search, so a probe takes only the schedule's coupling values: it builds
    no ``Schedule`` and reads neither ``models.parts`` nor the density table,
    and its kicks use the tau its half step was built for. Row m of
    ``grounds`` is the sector ground vector at values[m]; ``steps[m]`` is the
    symmetric Trotter step half @ diag(exp(-i tau hz_s[m])) @ half into it.
    A probe of at most ``SECTOR_EIGH_FLOOR`` values takes its ground vectors
    from one stacked real 4x4 ``eigh``, a longer one from
    ``_sector_ground_pairs``, started from the density table's sector ground
    energy interpolated linearly in J (a lower bound, since E0(J) is concave
    for H affine in J); one (4n, 4) x (4, 4) product gives the n step
    matrices. Each ground vector and kick depends on its own coupling value
    alone, so rows of two probes at one value are equal bit for bit where
    both take ``eigh``; a step matrix can move in its last bits with the
    length of the product under some BLAS kernels.
    """
    hx_s, half = sector.hx_s, sector.half
    hz_s = sector.hz0_s + np.multiply.outer(values, sector.dh_dj_s)
    kicks = np.exp(-1j * sector.tau * hz_s)
    n, size = hz_s.shape
    if n <= SECTOR_EIGH_FLOOR:
        grounds = qmat._eigh(hx_s + hz_s[:, :, None] * np.eye(size))[1][:, :, 0]
    else:
        # E0(J) is concave (H is affine in J), so its chord on the grid is a lower bound
        grounds = _sector_ground_pairs(hx_s, hz_s, np.interp(values, sector.grid, sector.ground))[1]
    # one (n size, size) x (size, size) product for all n step matrices
    steps = ((half * kicks[:, None, :]).reshape(-1, size) @ half).reshape(n, size, size)
    return grounds, steps


def _sector_propagate(grounds, steps):
    """min_m |<grounds[m]| steps[m] @ ... @ steps[1] |grounds[0]>|, the minimum instantaneous fidelity.

    The M = n - 1 steps propagate in blocks of k = isqrt(n): k stacked
    products build every in-block prefix product, then one matvec per block
    carries the state to the next block, about 2 sqrt(M) Python iterations
    in all, and one stacked product gives every state, one (4k, 4) matvec
    per block. Every product writes into an array allocated once. The values
    differ from a step-by-step loop by rounding only (below 3e-15 on the
    step counts the ``perfbench`` searches probe). ``grounds`` and ``steps``
    may be strided views, as the nested probes of ``_search_probe`` pass.
    """
    n, size = grounds.shape
    k = math.isqrt(n)
    n_blocks = -(-(n - 1) // k)
    # prods[b, j] = steps[1 + b k + j] @ ... @ steps[1 + b k], each j one stacked product over the blocks that
    # reach it; the last block's rows past its own steps repeat its last product, so that they hold finite values
    # for the two reads that are never used: the start after the last block, and the states past step M
    prods = np.empty((n_blocks, k, size, size), dtype=complex)
    prods[:, 0] = steps[1::k]
    for j in range(1, k):
        more = steps[1 + j::k]
        np.matmul(more, prods[:len(more), j - 1], out=prods[:len(more), j])
    last = n - 1 - (n_blocks - 1) * k
    prods[-1:, last:] = prods[-1:, last - 1:last]
    starts = np.empty((n_blocks + 1, size), dtype=complex)
    starts[0] = grounds[0]
    for b in range(n_blocks):
        np.matmul(prods[b, -1], starts[b], out=starts[b + 1])
    # each block's k states as one (k size, size) matvec of its stacked prefix products
    psis = np.empty((1 + n_blocks * k, size), dtype=complex)
    psis[0] = grounds[0]
    np.matmul(prods.reshape(n_blocks, k * size, size), starts[:-1, :, None], out=psis[1:].reshape(-1, k * size, 1))
    return float(np.abs((grounds * psis[:n]).sum(axis=1)).min())


def _search_probe(m_steps, sector, nest):
    """``evolve(gap_adaptive_schedule(tag, m_steps, tau), params).min_fidelity``, computed in the symmetric sector.

    Every probe of ``min_steps_search`` passes through here. ``sector`` is
    the search's ``_prepare_sector(tag, tau, params)``, and the probe's
    coupling values are ``gap_adaptive_schedule``'s bit for bit. For
    omega_x != 0 the ground state of every H(J) is unique and permutation
    symmetric (H conjugated by Z (x) Z (x) Z is stoquastic and irreducible,
    so Perron-Frobenius applies), and the Trotter step keeps that sector. So
    the state propagates as a 4-vector in the basis |000>, |W001>, |W110>,
    |111> of ``_SECTOR_BASIS``, and the score is ``evolve``'s up to rounding.
    ``_prepare_sector`` checks tau on the 4x4 sector parts it exponentiates;
    their overflow bound is never below that of the 8x8 parts, so the search
    raises wherever ``evolve`` does. Where ``evolve`` flags a step degenerate
    (a ground gap below ``qmat.DEGENERACY_TOL``, as for zzz at
    omega_x = 1e-5), its reference vector is a canonical pick in the
    near-degenerate cluster, not the symmetric ground state used here, and
    the two values differ.

    ``nest`` is None or the ``_sector_pairs`` of the ``NESTED_STEPS``-step
    (64-step) schedule. A count m that divides 64 then propagates every
    (64 / m)-th row of them, and that is exact: for a power of two m the
    grid ``np.linspace(0, 1, m + 1)`` is i (1 / m) = i (64 / m) (1 / 64) with
    every product exact in binary, so it is every (64 / m)-th point of the
    64-step grid, and ``np.interp`` maps each point on its own, so the m-step
    coupling values are every (64 / m)-th 64-step value bit for bit, and so
    are the ground vectors and kicks built from them. Only the step matrices
    come from a longer product, which may move their last bits under some
    BLAS kernels. Any other count, and any count while ``nest`` is None,
    builds its own pairs.
    """
    if nest is not None and NESTED_STEPS % m_steps == 0:
        stride = NESTED_STEPS // m_steps
        return _sector_propagate(nest[0][::stride], nest[1][::stride])
    values = _schedule_values(sector.grid, sector.cum, m_steps)
    return _sector_propagate(*_sector_pairs(values, sector))


def min_steps_search(model_tag, target_min_fidelity, tau, params=None):
    """Step count of a gap-adaptive schedule that reaches a fidelity target, by doubling then bisection.

    With f(m) the minimum instantaneous fidelity of ``evolve`` on the
    m-step gap-adaptive schedule, the result hi has f(hi) >= target and,
    unless hi = 1, f(hi - 1) < target. Doubling 1, 2, 4, ... stops at the
    first passing count; bisection then narrows the bracket from the last
    failing one. f does not always rise with m, so hi is the smallest
    passing count only where f rises with m below hi. A tau the Trotter
    step rejects raises before the density table is read. Raises if the
    target is not reached within ten times the model's canonical step count,
    reporting the best value achieved.

    The search prepares the 4-dim symmetric sector once, and
    ``_search_probe`` scores every probe there, which gives f up to rounding
    wherever ``evolve`` flags no step degenerate. Once the first probe
    (m = 1) fails, the search builds the sector pairs of the
    ``NESTED_STEPS``-step schedule once, which the doubling probes up to 64
    steps share; a search that passes at m = 1 builds nothing more.
    """
    _check_real("target", target_min_fidelity, "[0, 1)")
    cap = 10 * models.model(model_tag).steps
    sector = _prepare_sector(model_tag, tau, params)
    nest = None
    best = -1.0
    last_fail = 0
    m = 1
    while True:
        value = _search_probe(m, sector, nest)
        best = max(best, value)
        if value >= target_min_fidelity:
            break
        if m >= cap:
            raise ValueError(
                f"target {target_min_fidelity} unreachable within {cap} steps; best achieved {best:.6f}"
            )
        if nest is None:
            nest = _sector_pairs(_schedule_values(sector.grid, sector.cum, NESTED_STEPS), sector)
        last_fail = m
        m = min(2 * m, cap)
    lo, hi = last_fail, m
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _search_probe(mid, sector, nest) >= target_min_fidelity:
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
    and noted in ``notices``. A coupling some column needs whose delay
    d_ik is not finite and positive is an error naming the pair, and so is
    a cell that is not finite, naming its column, step and J: every cell
    of a returned table is finite.
    """
    params = params or models._DEFAULT_PARAMS
    m = models.model(schedule.model_tag)
    d = {}
    for i, k in sorted(set().union(*m.delays.values(), *m.offsets.values())):
        j_ik = nmr.coupling(i, k)
        if not j_ik > 0.0:
            raise ValueError(f"coupling J{i}{k} = {j_ik:g} Hz must be positive to build refocusing delays")
        d[(i, k)] = 1.0 / (2.0 * j_ik)
        if not math.isfinite(d[(i, k)]):
            raise ValueError(f"coupling J{i}{k} = {j_ik:g} Hz is too small: its delay 1/(2 J{i}{k}) overflows")

    kept = schedule.values > 0.0
    j = schedule.values[kept]
    table = {"m": np.flatnonzero(kept), "J": j}
    # a cell that overflows, or an offset whose denominator underflows to zero, fails the check below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for name, pairs in m.delays.items():
            table[name] = j * schedule.tau / math.pi * sum(d[p] for p in pairs)
        for name, pairs in m.offsets.items():
            table[name] = params.omega_z / (4.0 * j * sum(d[p] for p in pairs))
    table["pulse_angle"] = np.full(len(j), params.omega_x * schedule.tau / 2)
    for name, cells in table.items():
        bad = np.flatnonzero(~np.isfinite(cells))
        if bad.size:
            step = table["m"][bad[0]]
            raise ValueError(f"refocusing column {name} must be finite, got {cells[bad[0]]} at step m={step} "
                             f"with J={j[bad[0]]:g}")
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
