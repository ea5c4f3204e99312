"""Coherence decompositions built on the quantum Jensen-Shannon divergence.

The divergence J(rho, sigma) = [S_r(rho||m) + S_r(sigma||m)]/2 with
m = (rho + sigma)/2 is computed in base-2 logarithms by default, which bounds
J by 1 and its square root (the distance D) by 1 for any pair of states.
Both the defining form and the entropic form S(m) - S(rho)/2 - S(sigma)/2
are always evaluated, and any disagreement beyond ``CROSS_CHECK_TOL`` raises
``ArithmeticError``.

``coherence_reports`` evaluates the full decomposition for a stack of
three-qubit states: total, global, local and absolute coherence, the 1:23
and 2:3 partition terms, the pairwise terms entering the monogamy
difference, and the four trade-off slacks (each slack is the inequality's
right-hand sum minus its left-hand term, so validity means slack >= 0 up to
rounding). It builds the derived matrices of ``REPORT_CHUNK`` states at a
time, symmetrizes each distinct matrix and mixture once, and runs one
stacked ``eigh`` for the defining form and one stacked ``eigvalsh`` for the
entropic form per matrix size, so the cross-check runs per stacked batch.
Stacked kernels see the same input bytes as per-matrix calls, so every
report is bitwise equal to the report of its state alone.
``coherence_report``, ``qjsd``, ``relative_entropy`` and
``von_neumann_entropy`` are single-state calls into the same stacked
helpers.

``embed_tetrahedron`` places the four states rho, pi(rho), dephased pi(rho)
and rho_1 x rho_23 in Euclidean 3-space so that pairwise point distances
reproduce the six inter-state distances, using the gauge: rho at the origin,
dephased pi(rho) on the +x axis, pi(rho) in the upper xy half-plane. Four
points with pairwise metric distances need not embed exactly; cosines are
clamped and the worst mismatch is reported as the residual.
"""

from dataclasses import dataclass, fields
import math

import numpy as np

from .qmat import _as_square, _as_stack, dephase, kron, partial_trace

# eigenvalues below this floor are treated as exact zeros inside logarithms
EIG_FLOOR = 1e-12
# weight of rho outside the support of sigma that triggers the +inf signal
SUPPORT_WEIGHT_TOL = 1e-10
# disagreement bound between the two qjsd computation routes
CROSS_CHECK_TOL = 1e-9
# denominators below this collapse a tetrahedron vertex instead of dividing
EMBED_EPS = 1e-9
# states per batch in ``coherence_reports``; bounds the working set, since
# each state adds 20 derived matrices and their eigenvectors
REPORT_CHUNK = 16


def _log_scale(base):
    if base <= 1.0:
        raise ValueError(f"log base must exceed 1, got {base}")
    return math.log(base)


def _sym(mats):
    return (mats + mats.conj().swapaxes(-1, -2)) / 2


def _entropies(w, scale):
    """Von Neumann entropies of the ascending spectra along the last axis."""
    w = np.where(w > EIG_FLOOR, w, 1.0)
    return -(w * np.log(w)).sum(-1) / scale


def _relative_entropies(p, u, q, v, scale):
    """S_r(rho||sigma) per row from the clipped eigenpairs (p, u) of rho and (q, v) of sigma.

    Rows where rho puts more than ``SUPPORT_WEIGHT_TOL`` weight outside the
    support of sigma read +inf.
    """
    # weight_j = sum_i p_i |<u_i|v_j>|^2, the weight of rho on sigma's j-th eigenvector
    overlap = np.abs(u.conj().swapaxes(-1, -2) @ v) ** 2
    weight = (p[..., None, :] @ overlap)[..., 0, :]
    support = q > EIG_FLOOR
    mismatch = np.any(~support & (weight > SUPPORT_WEIGHT_TOL), axis=-1)
    # below-floor eigenvalues enter the logarithms as 1.0, so their terms are exact zeros
    plogp = (p * np.log(np.where(p > EIG_FLOOR, p, 1.0))).sum(-1)
    wlogq = (weight * np.log(np.where(support, q, 1.0))).sum(-1)
    s = (plogp - wlogq) / scale
    return np.where(mismatch, math.inf, np.where(s < 0.0, 0.0, s))


def _qjsd_pairs(mats, pairs, scale):
    """QJSD of the index pairs ``pairs`` into a (S, n, d, d) stack, as a (P, n) array.

    Every distinct matrix and every mixture is symmetrized once, then
    diagonalized by one stacked ``eigh`` (defining form) and one stacked
    ``eigvalsh`` (entropic form). The two forms must agree within
    ``CROSS_CHECK_TOL`` for every pair, else ``ArithmeticError``.
    """
    left, right = np.array(pairs).T
    mid = np.arange(len(pairs)) + len(mats)
    sym = _sym(np.concatenate([mats, (mats[left] + mats[right]) / 2]))
    w, vecs = np.linalg.eigh(sym)
    w = np.clip(w, 0.0, None)
    arg = np.concatenate([left, right])
    both = np.concatenate([mid, mid])
    rel = _relative_entropies(w[arg], vecs[arg], w[both], vecs[both], scale)
    j_def = 0.5 * (rel[: len(pairs)] + rel[len(pairs):])
    ent = _entropies(np.linalg.eigvalsh(sym), scale)
    j_ent = ent[mid] - 0.5 * ent[left] - 0.5 * ent[right]
    bad = ~np.isfinite(j_def) | (np.abs(j_def - j_ent) > CROSS_CHECK_TOL)
    if bad.any():
        state, pair = np.argwhere(bad.T)[0]
        raise ArithmeticError(
            f"qjsd cross-check failed: defining form {float(j_def[pair, state])!r} "
            f"vs entropic form {float(j_ent[pair, state])!r}"
        )
    return np.where(j_def < 0.0, 0.0, j_def)


def _pair_stack(rho, sigma):
    rho = _as_square(rho, "rho")
    sigma = _as_square(sigma, "sigma")
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    return np.stack([rho, sigma])


def von_neumann_entropy(rho, base=2.0):
    """S(rho) = -sum_k lambda_k log lambda_k, with 0 log 0 = 0."""
    rho = _as_square(rho, "rho")
    return float(_entropies(np.linalg.eigvalsh(_sym(rho)), _log_scale(base)))


def relative_entropy(rho, sigma, base=2.0):
    """S_r(rho||sigma) = Tr rho (log rho - log sigma), or +inf on support mismatch.

    Support containment is decided with the ``EIG_FLOOR`` eigenvalue cutoff:
    if rho places more than ``SUPPORT_WEIGHT_TOL`` weight on eigenvectors of
    sigma whose eigenvalues fall below the floor, ``math.inf`` is returned.
    """
    w, v = np.linalg.eigh(_sym(_pair_stack(rho, sigma)))
    w = np.clip(w, 0.0, None)
    return float(_relative_entropies(w[0], v[0], w[1], v[1], _log_scale(base)))


def qjsd(rho, sigma, base=2.0):
    """Quantum Jensen-Shannon divergence of two density matrices.

    Returns [S_r(rho||m) + S_r(sigma||m)]/2 with m the equal mixture, after
    verifying it against S(m) - S(rho)/2 - S(sigma)/2 within
    ``CROSS_CHECK_TOL``. Always finite and bounded by log_base(2).
    """
    mats = _pair_stack(rho, sigma)[:, None]
    return float(_qjsd_pairs(mats, [(0, 1)], _log_scale(base))[0, 0])


def dist(rho, sigma, base=2.0):
    """Metric distance sqrt(qjsd(rho, sigma))."""
    return math.sqrt(qjsd(rho, sigma, base))


@dataclass(frozen=True)
class CoherenceReport:
    """All coherence quantities of one three-qubit state (log-base units)."""

    c_total: float
    c_global: float
    c_local: float
    c_absolute: float
    c_1_23: float
    c_2_3: float
    c_abs_1_23: float
    c_1_2: float
    c_1_3: float
    monogamy_m: float
    slack_eq7: float
    slack_eq10a: float
    slack_eq10b: float
    slack_eq11: float


REPORT_COLUMNS = (
    "C_T",
    "C_G",
    "C_L",
    "C_A",
    "C_1_23",
    "C_2_3",
    "C_A_1_23",
    "C_1_2",
    "C_1_3",
    "M",
    "slack7",
    "slack10a",
    "slack10b",
    "slack11",
)


def report_values(report):
    """Report fields in ``REPORT_COLUMNS`` order."""
    return [getattr(report, f.name) for f in fields(CoherenceReport)]


# distances of a report, by index into the stacks built in ``_chunk_distances``:
# 8x8 stack (rho, dephased rho, pi(rho), dephased pi(rho), rho_1 x rho_23)
_PAIRS_8 = ((0, 1), (0, 2), (2, 3), (0, 3), (0, 4), (4, 3))
# 4x4 stack (rho_23, rho_2 x rho_3, rho_12, rho_1 x rho_2, rho_13, rho_1 x rho_3)
_PAIRS_4 = ((0, 1), (2, 3), (4, 5))


def _chunk_distances(rho, scale):
    """The nine report distances of a (n, 8, 8) stack, as a (n, 9) array.

    Columns follow ``CoherenceReport``: C_T, C_G, C_L, C_A, C_1_23, C_2_3,
    C_A_1_23, C_1_2, C_1_3.
    """
    m1, m2, m3 = (partial_trace(rho, 3, [q]) for q in (1, 2, 3))
    rho_23 = partial_trace(rho, 3, [2, 3])
    pi = kron(kron(m1, m2), m3)
    big = np.stack([rho, dephase(rho), pi, dephase(pi), kron(m1, rho_23)])
    small = np.stack([
        rho_23, kron(m2, m3),
        partial_trace(rho, 3, [1, 2]), kron(m1, m2),
        partial_trace(rho, 3, [1, 3]), kron(m1, m3),
    ])
    d8 = np.sqrt(_qjsd_pairs(big, _PAIRS_8, scale))
    d4 = np.sqrt(_qjsd_pairs(small, _PAIRS_4, scale))
    return np.concatenate([d8[:5], d4[:1], d8[5:], d4[1:]]).T


def _report(c_total, c_global, c_local, c_absolute, c_1_23, c_2_3, c_abs_1_23, c_1_2, c_1_3):
    return CoherenceReport(
        c_total=c_total,
        c_global=c_global,
        c_local=c_local,
        c_absolute=c_absolute,
        c_1_23=c_1_23,
        c_2_3=c_2_3,
        c_abs_1_23=c_abs_1_23,
        c_1_2=c_1_2,
        c_1_3=c_1_3,
        monogamy_m=c_1_2 + c_1_3 - c_1_23,
        slack_eq7=c_local + c_global - c_absolute,
        slack_eq10a=c_1_23 + c_abs_1_23 - c_absolute,
        slack_eq10b=c_2_3 + c_local - c_abs_1_23,
        slack_eq11=c_1_23 + c_2_3 - c_global,
    )


def coherence_reports(rhos, base=2.0):
    """Full coherence decompositions of a (N, 8, 8) stack of density matrices.

    Returns N ``CoherenceReport`` values, each equal bit for bit to the
    report of its state alone. States are processed ``REPORT_CHUNK`` at a
    time.
    """
    rhos = _as_stack(rhos, "rhos")
    if rhos.ndim != 3 or rhos.shape[1:] != (8, 8):
        raise ValueError(f"expected an (N, 8, 8) stack of three-qubit density matrices, got {rhos.shape}")
    scale = _log_scale(base)
    reports = []
    for start in range(0, len(rhos), REPORT_CHUNK):
        for row in _chunk_distances(rhos[start:start + REPORT_CHUNK], scale).tolist():
            reports.append(_report(*row))
    return reports


def coherence_report(rho, base=2.0):
    """Full coherence decomposition of a three-qubit density matrix."""
    rho = _as_square(rho, "rho")
    if rho.shape != (8, 8):
        raise ValueError(f"expected an 8x8 three-qubit density matrix, got {rho.shape}")
    return coherence_reports(rho[None], base)[0]


@dataclass(frozen=True)
class Tetrahedron:
    """Euclidean embedding of the four coherence-related states.

    Coordinates are 3-vectors; ``residual`` is the worst absolute mismatch
    between a pairwise point distance and its target coherence value.
    """

    rho: np.ndarray
    pi_product_dephased: np.ndarray
    pi_product: np.ndarray
    split_1_23: np.ndarray
    residual: float


def _clamp(x):
    return min(max(x, -1.0), 1.0)


def embed_tetrahedron(report):
    """Embed a ``CoherenceReport`` as four points in 3-space (see module docstring)."""
    ca = report.c_absolute
    cg = report.c_global
    cl = report.c_local
    c123 = report.c_1_23
    ca123 = report.c_abs_1_23
    c23 = report.c_2_3

    p_rho = np.zeros(3)
    p_pid = np.array([ca, 0.0, 0.0])

    if cg < EMBED_EPS:
        cos_t, sin_t = 1.0, 0.0
        p_pi = p_rho.copy()
    elif ca < EMBED_EPS:
        # gauge axis degenerate; place pi(rho) along +x
        cos_t, sin_t = 1.0, 0.0
        p_pi = np.array([cg, 0.0, 0.0])
    else:
        cos_t = _clamp((ca**2 + cg**2 - cl**2) / (2 * ca * cg))
        sin_t = math.sqrt(max(1.0 - cos_t**2, 0.0))
        p_pi = np.array([cg * cos_t, cg * sin_t, 0.0])

    if c123 < EMBED_EPS:
        p_split = p_rho.copy()
    else:
        if ca < EMBED_EPS:
            cos_p = 1.0
        else:
            cos_p = _clamp((ca**2 + c123**2 - ca123**2) / (2 * ca * c123))
        sin_p = math.sqrt(max(1.0 - cos_p**2, 0.0))
        if sin_p * sin_t < EMBED_EPS or cg < EMBED_EPS:
            cos_x, sin_x = 1.0, 0.0
        else:
            cos_x = _clamp(((c123**2 + cg**2 - c23**2) / (2 * c123 * cg) - cos_p * cos_t) / (sin_p * sin_t))
            sin_x = math.sqrt(max(1.0 - cos_x**2, 0.0))
        p_split = np.array([c123 * cos_p, c123 * sin_p * cos_x, c123 * sin_p * sin_x])

    targets = [
        (p_rho, p_pid, ca),
        (p_rho, p_pi, cg),
        (p_pi, p_pid, cl),
        (p_rho, p_split, c123),
        (p_split, p_pid, ca123),
        (p_split, p_pi, c23),
    ]
    residual = max(abs(float(np.linalg.norm(a - b)) - t) for a, b, t in targets)
    return Tetrahedron(
        rho=p_rho,
        pi_product_dephased=p_pid,
        pi_product=p_pi,
        split_1_23=p_split,
        residual=residual,
    )
