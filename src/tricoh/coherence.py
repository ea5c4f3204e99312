"""Coherence decompositions built on the quantum Jensen-Shannon divergence.

The divergence J(rho, sigma) = [S_r(rho||m) + S_r(sigma||m)]/2 with
m = (rho + sigma)/2 is computed in base-2 logarithms by default, which bounds
J by 1 and its square root (the distance D) by 1 for any pair of states.
Both the defining form and the entropic form S(m) - S(rho)/2 - S(sigma)/2
are always evaluated, and any disagreement beyond ``CROSS_CHECK_TOL`` raises
``CrossCheckError``, an ``ArithmeticError`` that names the failing state's
index in its stack. ``_qjsd_pairs`` says which spectrum each form reads.

``coherence_reports`` evaluates the full decomposition for a stack of
three-qubit states: total, global, local and absolute coherence, the 1:23
and 2:3 partition terms, the pairwise terms entering the monogamy
difference, and the four trade-off slacks (each slack is the inequality's
right-hand sum minus its left-hand term, so validity means slack >= 0 up to
rounding). A ``CoherenceReport`` is a named tuple whose fields are its
output row, in ``REPORT_COLUMNS`` order; one table names both.
``coherence_reports`` says in which order a stack's chunks are built,
diagonalized and scored, and ``_chunk_rows`` what each stage writes and
frees and which entropies come in closed form. ``_reports`` scores and
cross-checks only the distances that the fields a caller names read, as
``tricoh ratios`` does; ``_SUMS`` is the one list of each sum's terms.
``coherence_report``, ``qjsd``, ``relative_entropy`` and
``von_neumann_entropy`` are single-state calls into the same stacked
helpers.

``embed_tetrahedron`` places the four states rho, pi(rho), dephased pi(rho)
and rho_1 x rho_23 in Euclidean 3-space so that pairwise point distances
reproduce the six inter-state distances, using the gauge: rho at the origin,
dephased pi(rho) on the +x axis, pi(rho) in the upper xy half-plane. Four
points with pairwise metric distances need not embed exactly; cosines are
clamped and the worst mismatch is reported as the residual. A
``Tetrahedron`` is a named tuple of the points rho, dephased pi(rho), pi(rho)
and rho_1 x rho_23, then the residual.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from . import qmat
from .qmat import _as_square, _as_stack, _check_real, _dephased, _kron_into, _sym

# eigenvalues below this floor are treated as exact zeros inside logarithms
EIG_FLOOR = 1e-12
# weight of rho outside the support of sigma that triggers the +inf signal
SUPPORT_WEIGHT_TOL = 1e-10
# disagreement bound between the two qjsd computation routes
CROSS_CHECK_TOL = 1e-9
# denominators below this collapse a tetrahedron vertex instead of dividing
EMBED_EPS = 1e-9
# states per batch in ``coherence_reports``: each chunk pays a fixed cost of
# about 0.3 ms, and each state adds up to 20 derived matrices and their
# eigenvectors, of which the ``eigh`` inputs and outputs alone take about
# 22 KB; 32 is the largest count whose chunk's traced peak stays under the
# 950 KB that tier-1 allows it
REPORT_CHUNK = 32


class CrossCheckError(ArithmeticError):
    """The two QJSD routes disagree beyond ``CROSS_CHECK_TOL``; ``index`` is the state's position in its stack."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


def _log_scale(base):
    _check_real("log base", base, "(1, inf)")
    return math.log(base)


def _log_terms(w):
    """Floor test w > ``EIG_FLOOR``, logarithms and row sums of w log w of spectra; sub-floor terms are exact zeros."""
    floor = w > EIG_FLOOR
    w = np.where(floor, w, 1.0)
    log = np.log(w)
    return floor, log, (w * log).sum(-1)


def _entropies(w, scale):
    """Von Neumann entropies of the ascending spectra along the last axis."""
    return -_log_terms(w)[2] / scale


def _relative_entropies(w, v, sides, mixed, scale):
    """S_r(rho||sigma) per row, rho the matrices ``sides`` and sigma the matrices ``mixed`` of ``eigh`` pairs (w, v).

    ``sides`` holds one index array per side, and the overlaps are taken one
    side at a time, left then right: each pass copies that side's
    eigenvectors by fancy index, conjugates the copy in place, multiplies it
    against sigma's and squares the moduli into its weights, so only one
    side's copy and overlap are alive at once. Each matrix's product is one
    BLAS ``gemm`` or ``gemv`` call of its own either way, so a pass per side
    has the bits of one pass over both. ``v`` is complex, or real where
    ``_chunk_rows`` says. The two sides' weights are then stacked,
    and tested and scored together. Floor tests and logarithms are taken once, by ``_log_terms``;
    its row sums, p log p of the eigenvalues p clipped at 0, are returned
    too. Rows where rho puts more than ``SUPPORT_WEIGHT_TOL`` weight outside
    the support of sigma read +inf.
    """
    floor, log, wlogw = _log_terms(w)
    v_mixed = v[mixed]
    weights = []
    for side in sides:
        u = v[side]
        # weight_j = sum_i p_i |<u_i|v_j>|^2, the weight of rho on sigma's j-th eigenvector
        overlap = np.conjugate(u, out=u).swapaxes(-1, -2) @ v_mixed
        del u
        overlap = np.abs(overlap)
        overlap **= 2
        weights.append((np.maximum(w[side], 0.0)[..., None, :] @ overlap)[..., 0, :])
        del overlap
    weight = np.stack(weights)
    mismatch = (~floor[mixed] & (weight > SUPPORT_WEIGHT_TOL)).any(-1)
    s = (wlogw[sides] - (weight * log[mixed]).sum(-1)) / scale
    return np.where(mismatch, math.inf, np.where(s < 0.0, 0.0, s)), wlogw


def _qubit_spectra(m):
    """Ascending eigenvalues of the Hermitian parts of a stack of 2x2 matrices, (t -+ hypot(a - d, 2|b|))/2.

    a, d and b are the entries of ``_sym(m)``, the matrix ``eigh`` sees.
    """
    a, d = m[..., 0, 0].real, m[..., 1, 1].real
    b = (m[..., 0, 1] + m[..., 1, 0].conj()) / 2
    r = np.hypot(a - d, 2.0 * np.abs(b))
    return np.stack([(a + d - r) / 2, (a + d + r) / 2], axis=-1)


def _product_spectrum(p, q):
    """Spectrum of A (x) B from the spectra p of A and q of B along the last axis (unsorted)."""
    return (p[..., :, None] * q[..., None, :]).reshape(*p.shape[:-1], -1)


def _qjsd_stack(mats, pairs):
    """The symmetrized (S + P, n, d, d) stack whose ``eigh`` eigenpairs ``_qjsd_pairs`` scores.

    ``mats`` holds the S inputs, then room for the mixtures of the rows (a,
    b) of the (P, 2) index array ``pairs``, which are written there in pair
    order with the bits of (a + b) / 2: one ``np.add`` of two views, then a
    halving in place, in the dtype of ``mats``.
    """
    n_in = len(mats) - len(pairs)
    for k, (a, b) in enumerate(pairs, n_in):
        np.add(mats[a], mats[b], out=mats[k])
    mats[n_in:] /= 2
    return _sym(mats)


def _qjsd_pairs(w, v, pairs, closed, scale):
    """QJSD of the rows of the (P, 2) index array ``pairs`` from the ``eigh`` eigenpairs of a ``_qjsd_stack``.

    Returns the (P, n) divergences. Each matrix is diagonalized once: the
    S + P eigenpairs (w, v) serve the defining form, both sides of a pair
    scored against the mixture by ``_relative_entropies``, whose row sums of
    w log w serve the entropic form. It takes the entropy of input
    ``k`` from ``closed[k]``, an (n,) closed form, where the caller gives
    one, and from the ``eigh`` spectrum otherwise; mixtures always read the
    spectrum. The inputs are not re-checked: callers pass finite stacks.
    The two forms must agree within ``CROSS_CHECK_TOL`` for every pair, else
    ``CrossCheckError`` with the index of the first failing state.
    """
    left, right = sides = pairs.T
    n_in = len(w) - len(pairs)
    rel, wlogw = _relative_entropies(w, v, sides, slice(n_in, None), scale)
    j_def = 0.5 * (rel[0] + rel[1])
    ent = -wlogw / scale
    for k, s in closed.items():
        ent[k] = s
    j_ent = ent[n_in:] - 0.5 * ent[left] - 0.5 * ent[right]
    bad = ~np.isfinite(j_def) | (np.abs(j_def - j_ent) > CROSS_CHECK_TOL)
    if bad.any():
        state, pair = np.argwhere(bad.T)[0]
        raise CrossCheckError(
            f"qjsd cross-check failed: defining form {float(j_def[pair, state])!r} "
            f"vs entropic form {float(j_ent[pair, state])!r}",
            int(state),
        )
    return j_def


def _pair_stack(rho, sigma):
    """A (3, d, d) stack of the checked rho and sigma, with room for their mixture."""
    rho = _as_square(rho, "rho")
    sigma = _as_square(sigma, "sigma")
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    return np.stack([rho, sigma, sigma])


def von_neumann_entropy(rho, base=2.0):
    """S(rho) = -sum_k lambda_k log lambda_k, with 0 log 0 = 0."""
    rho = _as_square(rho, "rho")
    return float(_entropies(qmat._eigh(_sym(rho), vectors=False), _log_scale(base)))


def relative_entropy(rho, sigma, base=2.0):
    """S_r(rho||sigma) = Tr rho (log rho - log sigma), or +inf on support mismatch.

    Support containment is decided with the ``EIG_FLOOR`` eigenvalue cutoff:
    if rho places more than ``SUPPORT_WEIGHT_TOL`` weight on eigenvectors of
    sigma whose eigenvalues fall below the floor, ``math.inf`` is returned.
    """
    w, v = qmat._eigh(_sym(_pair_stack(rho, sigma)[:2]))
    return float(_relative_entropies(w, v, [[0]], 1, _log_scale(base))[0][0, 0])


def qjsd(rho, sigma, base=2.0):
    """Quantum Jensen-Shannon divergence of two density matrices.

    Returns [S_r(rho||m) + S_r(sigma||m)]/2 with m the equal mixture, after
    verifying it against S(m) - S(rho)/2 - S(sigma)/2 within
    ``CROSS_CHECK_TOL``. Always finite and bounded by log_base(2).
    """
    pairs = np.array([(0, 1)])
    w, v = qmat._eigh(_qjsd_stack(_pair_stack(rho, sigma)[:, None], pairs))
    return float(_qjsd_pairs(w, v, pairs, {}, _log_scale(base))[0, 0])


def dist(rho, sigma, base=2.0):
    """Metric distance sqrt(qjsd(rho, sigma))."""
    return math.sqrt(qjsd(rho, sigma, base))


# the report's quantities in row order, as (``CoherenceReport`` field, ``REPORT_COLUMNS`` name)
_REPORT_LAYOUT = (
    ("c_total", "C_T"),
    ("c_global", "C_G"),
    ("c_local", "C_L"),
    ("c_absolute", "C_A"),
    ("c_1_23", "C_1_23"),
    ("c_2_3", "C_2_3"),
    ("c_abs_1_23", "C_A_1_23"),
    ("c_1_2", "C_1_2"),
    ("c_1_3", "C_1_3"),
    ("monogamy_m", "M"),
    ("slack_eq7", "slack7"),
    ("slack_eq10a", "slack10a"),
    ("slack_eq10b", "slack10b"),
    ("slack_eq11", "slack11"),
)
REPORT_COLUMNS = tuple(column for _, column in _REPORT_LAYOUT)
CoherenceReport = NamedTuple("CoherenceReport", [(field, float) for field, _ in _REPORT_LAYOUT])
CoherenceReport.__doc__ = """All coherence quantities of one three-qubit state (log-base units).

Fields are in ``REPORT_COLUMNS`` order, so a report is its output row.
"""


# the distances of a report, its first nine fields, each the QJSD pair of stack inputs that it scores:
# 8x8 stack (rho, dephased rho, pi(rho), dephased pi(rho), rho_1 x rho_23), of which 1 and 3 are dephased
_PAIRS_8 = {"c_total": (0, 1), "c_global": (0, 2), "c_local": (2, 3), "c_absolute": (0, 3), "c_1_23": (0, 4),
            "c_abs_1_23": (4, 3)}
_DEPHASED_8 = (1, 3)
# 4x4 stack (rho_23, rho_2 x rho_3, rho_12, rho_1 x rho_2, rho_13, rho_1 x rho_3); the QJSD
# drops a common tensor factor, so C_2_3 = D(rho_1 x rho_23, pi(rho)) is scored on the first pair
_PAIRS_4 = {"c_2_3": (0, 1), "c_1_2": (2, 3), "c_1_3": (4, 5)}
# the 4x4 pairs as the (3, 2) index array that ``_qjsd_stack`` and ``_qjsd_pairs`` read
_PAIRS_4_INDEX = np.array([*_PAIRS_4.values()])
_PAIRS_4_INDEX.flags.writeable = False
_DISTANCES = CoherenceReport._fields[:9]
# the report's five sums, its last fields, in row order: each field's terms (a, b, c) give a + b - c. These are the
# monogamy difference M and the slacks of Eqs. 7, 10a, 10b and 11, each of a triangle inequality of the QJSD metric
_SUMS = {"monogamy_m": ("c_1_2", "c_1_3", "c_1_23"), "slack_eq7": ("c_local", "c_global", "c_absolute"),
         "slack_eq10a": ("c_1_23", "c_abs_1_23", "c_absolute"), "slack_eq10b": ("c_2_3", "c_local", "c_abs_1_23"),
         "slack_eq11": ("c_1_23", "c_2_3", "c_global")}
# the sums' terms as the (3, 5) array of the rows of a, b and c among the distances
_SUM_TERMS = np.array([[_DISTANCES.index(term) for term in terms] for terms in _SUMS.values()]).T
_SUM_TERMS.flags.writeable = False


def _report_stacks(rho, inputs, room):
    """The QJSD stacks of a (n, 8, 8) stack ``rho`` and its single-qubit marginals.

    ``inputs`` lists the 8x8 inputs to build, ascending, by ``_PAIRS_8``
    index. Returns the (6 + 3, n, 4, 4) and (len(inputs) + room, n, 8, 8)
    stacks, whose first 6 and len(inputs) matrices are the inputs and whose
    rest is room for the mixtures, and the (3, n, 2, 2) marginals rho_1,
    rho_2 and rho_3. Every input is bitwise equal to the one
    ``partial_trace``, ``marginals``, ``dephase`` and ``kron`` build. The
    products and the dephased matrices come from ``_kron_into`` and
    ``_dephased``, the bodies of ``kron`` and ``dephase``. The two-qubit
    marginals come from one (n, 2, 2, 2, 2, 2, 2) view of ``rho``, rho_1 and
    rho_2 from rho_12 and rho_3 from rho_13, through the ``np.trace`` calls
    ``partial_trace`` makes when it traces qubits out last first. Nothing is
    re-checked: ``rho`` is a finite complex or real stack, and every stack
    returned has its dtype.
    """
    n = len(rho)
    tensor = rho.reshape(n, 2, 2, 2, 2, 2, 2)
    small = np.empty((6 + len(_PAIRS_4), n, 4, 4), dtype=rho.dtype)
    # qubit k's row and column axes are k and k + 3: rho_23, rho_12 and rho_13 trace out qubits 1, 3 and 2
    for slot, qubit in ((0, 1), (2, 3), (4, 2)):
        np.trace(tensor, axis1=qubit, axis2=qubit + 3, out=small[slot].reshape(n, 2, 2, 2, 2))
    marg = np.empty((3, n, 2, 2), dtype=rho.dtype)
    # rho_1 traces qubit 2 out of rho_12; rho_2 and rho_3 trace qubit 1 out of rho_12 and rho_13
    two_qubit = small[2:5:2].reshape(2, n, 2, 2, 2, 2)
    np.trace(two_qubit[0], axis1=2, axis2=4, out=marg[0])
    np.trace(two_qubit, axis1=2, axis2=4, out=marg[1:])
    # rho_2 x rho_3, rho_1 x rho_2, rho_1 x rho_3
    _kron_into(small[1:6:2], marg[[1, 0, 0]], marg[[2, 1, 2]])
    big = np.empty((len(inputs) + room, n, 8, 8), dtype=rho.dtype)
    # input 0 is rho, 2 pi(rho) = rho_12 x rho_3 and 4 rho_1 x rho_23; inputs 1 and 3 dephase inputs 0 and 2,
    # which ``_plan_8`` puts in the slot before theirs
    for k, i in enumerate(inputs):
        if i in _DEPHASED_8:
            big[k] = _dephased(big[k - 1])
        elif i == 0:
            big[k] = rho
        elif i == 2:
            _kron_into(big[k], small[3], marg[2])
        else:
            _kron_into(big[k], marg[0], small[0])
    return small, big, marg


@functools.cache
def _plan_8(fields):
    """What ``_chunk_rows`` builds for the distances ``fields``, once per set of them.

    Returns the 8x8 inputs that the ``_PAIRS_8`` pairs of ``fields`` read,
    with the input that each dephased one dephases, by index and ascending;
    those pairs as a read-only (P, 2) array of indices into these inputs; the
    slots of the dephased inputs; the (slot, row) of pi(rho) and of rho_1 x
    rho_23 among them, each row that of its product spectrum in
    ``_chunk_rows``; and the report rows of the distances, then of the 4x4
    ones.
    """
    scored = [field for field in _PAIRS_8 if field in fields]
    read = {i for field in scored for i in _PAIRS_8[field]}
    inputs = tuple(sorted(read | {i - 1 for i in read if i in _DEPHASED_8}))
    pairs = np.array([[inputs.index(i) for i in _PAIRS_8[field]] for field in scored])
    pairs.flags.writeable = False
    dephased = tuple(k for k, i in enumerate(inputs) if i in _DEPHASED_8)
    products = tuple((inputs.index(i), row) for row, i in enumerate((2, 4)) if i in inputs)
    return inputs, pairs, dephased, products, np.array([_DISTANCES.index(field) for field in (*scored, *_PAIRS_4)])


def _chunk_rows(start, rho, scale, fields):
    """The (n, 14) report rows of the (n, 8, 8) chunk at ``start``, in ``REPORT_COLUMNS`` order.

    ``fields``, a frozenset, names the distances to score. The three 4x4
    pairs are always scored, as their stack also gives the marginals and
    rho_23's spectrum; of the 8x8 stack, only the inputs and mixtures of the
    named pairs are built and diagonalized. A distance left out, and each
    sum with it as a term, reads nan. Each matrix is diagonalized on its
    own, so every value scored has the bits it has when all nine are.

    A function of its own, so that one chunk's arrays are freed before the
    next chunk's are built; within the chunk, each array is held only while
    it is needed. In the order that ``coherence_reports`` states,
    ``_report_stacks`` writes the raw stacks and ``_qjsd_stack`` their
    mixtures and the symmetrized copies. The raw 4x4 stack is freed once its
    copy is made, and the raw 8x8 stack once its copy is made and the (k, n,
    8) real diagonals of its dephased inputs are taken. Each symmetrized
    stack is freed as its ``eigh`` returns, the 4x4 one first. The scores
    take the 4x4 pairs first, so their ``CrossCheckError`` wins; it names
    the state's index in the whole stack. The distances come first, then
    the five sums of ``_SUMS``, all taken by one a + b - c over the rows of
    their terms: per cell the same two operations, in the same order, as a
    sum written out by hand.

    The entropic form reads the ``eigh`` spectra of rho, the two-qubit
    marginals and the mixtures. The structured matrices get closed forms,
    so no structured matrix's entropy comes from a diagonalization of that
    matrix: dephased rho and dephased pi(rho) the Shannon entropy of their
    diagonal, and pi(rho), rho_1 x rho_23 and the two-qubit marginal
    products the entropy of the outer product of their factors' spectra.
    The qubit spectra come from the 2x2 formula of ``_qubit_spectra`` and
    rho_23's from its 4x4 ``eigh``, both of the Hermitian part that ``eigh``
    sees and unclipped, as the spectrum of a product is the product of its
    factors' spectra before the defining route clips it; ``_entropies``
    drops the sub-floor products either way. So a state that ``tomo``
    accepts without ``--repair`` (Hermitian and positive only within
    ``--tol``) gets the same closed forms as its ``eigh`` route.

    The dtype follows the input. A chunk whose imaginary parts are all zero
    (either sign) runs on its real part: its raw, mixture and symmetrized
    stacks are float64, and each symmetrized stack is cast to complex only as
    the input of ``qmat._eigh``, so the eigensolver sees complex stacks
    alone. When both eigenvector stacks of that chunk come back with zero
    imaginary parts, the overlaps, moduli and squares of
    ``_relative_entropies`` run on real copies of them. Every score keeps the
    bits of the complex route: on zero imaginary parts a complex add,
    multiply, trace sum or halving computes its real part by the same real
    operation, |x + 0i| by ``hypot`` is |x|, and the real overlap products
    had the complex ones' bits on every chunk of the default sweeps under the
    SkylakeX, Haswell, Sandybridge and Nehalem OpenBLAS kernels. The ``eigh``
    inputs can differ only in signed zeros: the complex halving, (re + im 0)
    / 2, makes +0.0 of a -0.0 real part, which the real halving keeps. A
    chunk with any nonzero imaginary part runs complex throughout.
    """
    if not rho.imag.any():
        rho = rho.real
    inputs, pairs, dephased, products, rows = _plan_8(fields)
    small, big, marg = _report_stacks(rho, inputs, len(pairs))
    sym4 = _qjsd_stack(small, _PAIRS_4_INDEX)
    del small
    sym8 = _qjsd_stack(big, pairs)
    diagonals = np.take(np.diagonal(big, axis1=-2, axis2=-1), dephased, axis=0).real.copy()
    del big
    sym4 = sym4.astype(complex, copy=False)
    w4, v4 = qmat._eigh(sym4)
    del sym4
    sym8 = sym8.astype(complex, copy=False)
    w8, v8 = qmat._eigh(sym8)
    del sym8
    if rho.dtype == float and not (v4.imag.any() or v8.imag.any()):
        v4, v8 = v4.real.copy(), v8.real.copy()
    q = _qubit_spectra(marg)
    # spectra of rho_2 x rho_3, rho_1 x rho_2 and rho_1 x rho_3
    q4 = _product_spectrum(q[[1, 0, 0]], q[[2, 1, 2]])
    s4 = _entropies(q4, scale)
    try:
        j4 = _qjsd_pairs(w4, v4, _PAIRS_4_INDEX, {1: s4[0], 3: s4[1], 5: s4[2]}, scale)
        # pi(rho) = rho_1 x rho_2 x rho_3 and rho_1 x rho_23; rho_23 is the first matrix of the 4x4 stack
        s8 = _entropies(np.stack([_product_spectrum(q4[1], q[2]), _product_spectrum(q[0], w4[0])]), scale)
        # closed forms by slot
        closed = {k: s8[row] for k, row in products}
        closed.update(zip(dephased, _entropies(diagonals, scale)))
        j8 = _qjsd_pairs(w8, v8, pairs, closed, scale)
    except CrossCheckError as exc:
        exc.index += start
        raise
    dists = np.full((len(_DISTANCES), len(rho)), np.nan)
    dists[rows] = np.sqrt(np.concatenate([j8, j4]))
    a, b, c = dists[_SUM_TERMS]
    return np.concatenate([dists, a + b - c]).T


def _reports(rhos, base, fields):
    """``coherence_reports``, scoring only the distances that the ``CoherenceReport`` fields ``fields`` read.

    A distance reads itself and a sum its three terms in ``_SUMS``; the
    three 4x4 distances are always scored (see ``_chunk_rows``). A name that
    is not a field raises a ``ValueError`` naming it, and a set that reaches
    no 8x8 distance one naming the 8x8 distances. Only the pairs scored are
    cross-checked, so a state that fails only the cross-check of a distance
    left out gets its report, with that distance and each sum of it nan.
    """
    rhos = _as_stack(rhos, "rhos")
    if rhos.ndim != 3 or rhos.shape[1:] != (8, 8):
        raise ValueError(f"expected an (N, 8, 8) stack of three-qubit density matrices, got {rhos.shape}")
    scale = _log_scale(base)
    distances = frozenset(term for field in fields for term in _SUMS.get(field, (field,)))
    if not distances.issubset(_DISTANCES):
        raise ValueError(f"not CoherenceReport fields: {sorted(distances.difference(_DISTANCES))}")
    if distances.isdisjoint(_PAIRS_8):
        raise ValueError(f"fields must name at least one 8x8 distance of {', '.join(_PAIRS_8)}; got {sorted(fields)}")
    rows = [_chunk_rows(k, rhos[k:k + REPORT_CHUNK], scale, distances) for k in range(0, len(rhos), REPORT_CHUNK)]
    return [CoherenceReport._make(row) for block in rows for row in block.tolist()]


def coherence_reports(rhos, base=2.0):
    """Full coherence decompositions of a (N, 8, 8) stack of density matrices.

    Returns N ``CoherenceReport`` values, each equal bit for bit to the
    report of its state alone. A failed cross-check raises
    ``CrossCheckError`` whose ``index`` is the failing state's position in
    ``rhos``. The stack is checked once, on entry, and the check admits any
    finite stack, so a state far from a density matrix fails its
    cross-check. From about 1e103 up, entries overflow the products of the
    marginals' spectra, with numpy warnings, and the chunk's 8x8 ``eigh``
    raises numpy's ``LinAlgError`` ("Eigenvalues did not converge") before
    its scores run. ``qmat.validate_density`` rejects or repairs such
    matrices first, as ``tomo`` does.

    States are processed ``REPORT_CHUNK`` at a time on the calling thread,
    chunk after chunk, by ``_chunk_rows``, and each chunk runs in one serial
    order: its stacks (``_report_stacks``, then the mixtures and ``_sym`` of
    ``_qjsd_stack``, 4x4 then 8x8), the stacked 4x4 ``eigh``, the stacked
    8x8 ``eigh``, then, with the stacks freed, its scores. So the first
    failure in that order is the one raised, and no later chunk's stacks are
    built before it.
    """
    return _reports(rhos, base, _DISTANCES)


def coherence_report(rho, base=2.0):
    """Full coherence decomposition of a three-qubit density matrix."""
    rho = _as_square(rho, "rho")
    if rho.shape != (8, 8):
        raise ValueError(f"expected an 8x8 three-qubit density matrix, got {rho.shape}")
    return coherence_reports(rho[None], base)[0]


class Tetrahedron(NamedTuple):
    """Euclidean embedding of the four coherence-related states.

    Four 3-vector points, named as the ``points`` keys of ``tricoh geometry``,
    then ``residual``: the worst absolute mismatch between a pairwise point
    distance and its target coherence value.
    """

    rho: np.ndarray
    pi_product_dephased: np.ndarray
    pi_product: np.ndarray
    split_1_23: np.ndarray
    residual: float


def _cos_sin(x):
    """Cosine ``x`` clamped to [-1, 1] and the nonnegative sine that goes with it."""
    cos = min(max(x, -1.0), 1.0)
    return cos, math.sqrt(max(1.0 - cos**2, 0.0))


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
        cos_t, sin_t = _cos_sin((ca**2 + cg**2 - cl**2) / (2 * ca * cg))
        p_pi = np.array([cg * cos_t, cg * sin_t, 0.0])

    if c123 < EMBED_EPS:
        p_split = p_rho.copy()
    else:
        cos_p, sin_p = _cos_sin(1.0 if ca < EMBED_EPS else (ca**2 + c123**2 - ca123**2) / (2 * ca * c123))
        if sin_p * sin_t < EMBED_EPS or cg < EMBED_EPS:
            cos_x, sin_x = 1.0, 0.0
        else:
            cos_x, sin_x = _cos_sin(((c123**2 + cg**2 - c23**2) / (2 * c123 * cg) - cos_p * cos_t) / (sin_p * sin_t))
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
    return Tetrahedron(p_rho, p_pid, p_pi, p_split, residual)
