"""Dense complex linear algebra for small multi-qubit systems.

All matrices and state vectors are numpy arrays with complex entries.
Conventions used throughout the package:

- Qubit 1 is the most significant tensor factor, so the computational basis
  index k in 0..2^n - 1 spells the bits of qubits (1, ..., n) left to right.
- |0> is the S^z = +1/2 state of a spin-1/2.
- Pure states follow a fixed phase convention: the largest-magnitude
  amplitude is real and nonnegative (first index on ties).
- The primitives take one matrix (or vector) or a stack of them over the
  leading axes, through one code path, and each item of a stack comes out
  bitwise equal to the call on that item alone. So do the checks and
  fidelities used on tomography input: ``validate_density`` takes an
  (n, d, d) stack, decides every failure (non-finite or overflowing
  entries included) with one mask and raises ``DensityError``, which
  carries the index of the first failing matrix, and ``root_fidelity``,
  ``state_fidelity`` score a stack against one matrix or a stack.

Two fidelity conventions are provided. ``state_fidelity`` is the squared
Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2, which reduces to <psi|b|psi>
for a pure first argument. ``root_fidelity`` is its square root, the
amplitude-overlap convention used for all reported sweep and endpoint
fidelities in this package.
"""

from dataclasses import dataclass
from functools import reduce
import json
import math

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class GroundState:
    """Lowest eigenpair of a Hermitian matrix.

    ``degenerate`` is set when the two lowest eigenvalues are closer than
    ``DEGENERACY_TOL``, in which case the returned state is one arbitrary
    (but deterministic) member of the ground space.
    """

    energy: float
    state: np.ndarray
    degenerate: bool


def _as_stack(m, name="matrix"):
    """``m`` as a complex array with square trailing axes and finite entries."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _as_square(m, name="matrix"):
    m = _as_stack(m, name)
    if m.ndim != 2:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def _check_hermitian(m, name="matrix"):
    dev = np.abs(m - m.conj().swapaxes(-1, -2)).max()
    if dev > HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian: max deviation {dev:.3e} exceeds {HERMITICITY_TOL:.1e}")


def _sym(m):
    """Hermitian part (m + m^dag)/2 of a matrix or of each matrix of a stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


def kron(a, b):
    """Kronecker product; the left factor is the most significant subsystem.

    Matrices multiply over their last two axes, so stacks of matrices pair
    up matrix by matrix (leading axes broadcast); vectors give ``np.kron``.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim < 2 or b.ndim < 2:
        return np.kron(a, b)
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def kron_all(mats):
    """Kronecker product of a sequence of matrices, left to right."""
    return reduce(kron, mats)


def partial_trace(rho, n_qubits, keep):
    """Reduced density matrix over the 1-based qubit indices in ``keep``.

    The kept qubits retain their relative order. The trace is preserved.
    A (..., 2^n, 2^n) stack is reduced matrix by matrix: qubits are traced
    out one at a time, last first, so each matrix sees the same sums as it
    would alone.
    """
    rho = _as_stack(rho, "rho")
    dim = 2**n_qubits
    if rho.shape[-2:] != (dim, dim):
        raise ValueError(f"dimension mismatch: expected {dim}x{dim} for {n_qubits} qubits, got {rho.shape}")
    keep = sorted(set(int(q) for q in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 1 or keep[-1] > n_qubits:
        raise ValueError(f"keep indices must lie in 1..{n_qubits}, got {keep}")
    lead = rho.shape[:-2]
    tensor = rho.reshape(lead + (2,) * (2 * n_qubits))
    drop = [q - 1 for q in range(1, n_qubits + 1) if q not in keep]
    live = n_qubits
    for axis in reversed(drop):
        tensor = np.trace(tensor, axis1=len(lead) + axis, axis2=len(lead) + axis + live)
        live -= 1
    d = 2 ** len(keep)
    return tensor.reshape(lead + (d, d))


def dephase(rho):
    """Zero all off-diagonal entries in the computational (S^z) basis.

    Applies matrix by matrix to a stack.
    """
    rho = _as_stack(rho, "rho")
    out = np.zeros_like(rho)
    idx = np.arange(rho.shape[-1])
    out[..., idx, idx] = rho[..., idx, idx]
    return out


def normalize_phase(vec):
    """Normalize a state vector and fix its global phase.

    The largest-magnitude amplitude (first index on ties within 1e-12) is
    made real and nonnegative. A (..., d) stack is normalized row by row,
    each row bitwise equal to a call on that row alone: the squared norm is
    the stacked matmul re @ re + im @ im of the real and imaginary views,
    the sum ``np.linalg.norm`` forms, and the pivot modulus is ``np.hypot``,
    which matches the scalar ``abs`` where ``np.abs`` of a complex array
    does not.
    """
    v = np.asarray(vec, dtype=complex)
    re, im = v.real[..., None, :], v.imag[..., None, :]
    norm = np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]
    if (norm < 1e-300).any():
        raise ValueError("cannot normalize the zero vector")
    v = v / norm
    mags = np.abs(v)
    idx = np.argmax(mags > mags.max(axis=-1, keepdims=True) - 1e-12, axis=-1)
    pivot = np.take_along_axis(v, idx[..., None], axis=-1)
    return v * (pivot.conj() / np.hypot(pivot.real, pivot.imag))


def eig_hermitian(h):
    """Eigendecomposition of a Hermitian matrix with deterministic output.

    Eigenvalues are ascending. Within any degenerate cluster (consecutive
    eigenvalue gaps below ``DEGENERACY_TOL``) the eigenvectors are rebuilt by
    projecting standard basis vectors onto the cluster subspace and
    orthonormalizing in index order, so identical inputs always yield
    identical eigenvectors regardless of backend rotation freedom. Every
    eigenvector carries the ``normalize_phase`` convention.
    """
    h = _as_square(h, "h")
    _check_hermitian(h, name="h")
    w, v = np.linalg.eigh(h)
    for start, stop in _clusters(w):
        if stop - start > 1:
            v[:, start:stop] = _canonical_cluster_basis(v[:, start:stop])
    v[:] = normalize_phase(v.T).T
    return Spectrum(eigenvalues=w, eigenvectors=v)


def _clusters(w):
    """(start, stop) of each run of ascending ``w`` whose consecutive gaps lie below ``DEGENERACY_TOL``."""
    start = 0
    for stop in range(1, len(w) + 1):
        if stop < len(w) and w[stop] - w[stop - 1] < DEGENERACY_TOL:
            continue
        yield start, stop
        start = stop


def _canonical_cluster_basis(block):
    """Deterministic orthonormal basis of the column span of ``block``.

    For orthonormal columns the pivoting always finds ``size`` vectors: while
    fewer are accepted, some later column of the projector keeps a residual
    of about 1/sqrt(dim) or more, far above the 1e-8 cut.
    """
    dim, size = block.shape
    projector = block @ block.conj().T
    basis = []
    for i in range(dim):
        u = projector[:, i].copy()
        for b in basis:
            u -= b * np.vdot(b, u)
        norm = np.linalg.norm(u)
        if norm > 1e-8:
            basis.append(u / norm)
            if len(basis) == size:
                break
    return np.column_stack(basis)


def ground_states(hs):
    """Ascending eigenvalues (n, d), ground vectors (n, d) and degenerate flags (n,).

    Of an unchecked (n, d, d) Hermitian stack, with one stacked ``eigh``.
    Each ground vector equals ``eig_hermitian(hs[i]).eigenvectors[:, 0]``:
    only matrices flagged degenerate (see ``GroundState``) take the cluster
    rebuild, of their ground cluster alone, and one stacked
    ``normalize_phase`` fixes the phase of every ground vector.
    """
    w, v = np.linalg.eigh(hs)
    degenerate = w[:, 1] - w[:, 0] < DEGENERACY_TOL
    grounds = v[:, :, 0].copy()
    for i in np.flatnonzero(degenerate):
        _, stop = next(_clusters(w[i]))
        grounds[i] = _canonical_cluster_basis(v[i, :, :stop])[:, 0]
    return w, normalize_phase(grounds), degenerate


def ground_state(h):
    """Lowest eigenpair of a Hermitian matrix (see ``GroundState``)."""
    h = _as_square(h, "h")
    _check_hermitian(h, name="h")
    w, states, degenerate = ground_states(h[None])
    return GroundState(energy=float(w[0, 0]), state=states[0], degenerate=bool(degenerate[0]))


def expm_hermitian(h, t):
    """Unitary exp(-i h t) of a Hermitian matrix, or of each matrix of a stack, via eigendecomposition."""
    h = _as_stack(h, "h")
    _check_hermitian(h, name="h")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _sqrtm_psd(rho):
    """Square root of a PSD matrix, or of each matrix of a stack, with negative eigenvalues clipped to 0."""
    w, v = np.linalg.eigh(rho)
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)


def root_fidelity(a, b):
    """Uhlmann root fidelity Tr sqrt(sqrt(a) b sqrt(a)), in [0, 1].

    This amplitude-overlap convention (|<psi|phi>| for pure states) is the
    one used for reported sweep fidelities. A (..., d, d) stack ``a`` is
    scored matrix by matrix against a stack ``b`` of the same shape or
    against one d x d matrix ``b``, with one stacked ``eigh`` and one
    stacked ``eigvalsh``, each value bitwise equal to the call on that pair
    alone. One pair gives a float, a stack an array.
    """
    a = _as_stack(a, "a")
    b = _as_stack(b, "b")
    if b.shape not in (a.shape, a.shape[-2:]):
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    sa = _sqrtm_psd(a)
    w = np.linalg.eigvalsh(sa @ b @ sa)
    f = np.clip(np.sqrt(np.clip(w, 0.0, None)).sum(axis=-1), 0.0, 1.0)
    return float(f) if f.ndim == 0 else f


def state_fidelity(a, b):
    """Squared Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2, in [0, 1].

    Reduces to <psi|b|psi> when ``a`` is pure; symmetric; equals 1 iff a = b.
    Takes stacks as ``root_fidelity`` does.
    """
    f = root_fidelity(a, b)
    # each square goes through scalar C pow, as for one pair (see unitary_fidelity)
    sq = np.array([x**2 for x in np.ravel(f).tolist()]).reshape(np.shape(f))
    return float(sq) if sq.ndim == 0 else sq


def unitary_fidelity(u1, u2):
    """Entanglement fidelity |Tr(U1 U2^dag)|^2 / d^2 between two unitaries.

    Invariant under a global phase of either argument. Two equal-shape
    (..., d, d) stacks give the array of pairwise fidelities, each bitwise
    equal to the call on that pair alone; one pair gives a float.
    """
    u1 = _as_stack(u1, "u1")
    u2 = _as_stack(u2, "u2")
    if u1.shape != u2.shape:
        raise ValueError(f"dimension mismatch: {u1.shape} vs {u2.shape}")
    d = u1.shape[-1]
    eye = np.eye(d)
    for name, u in (("u1", u1), ("u2", u2)):
        dev = np.abs(u.conj().swapaxes(-1, -2) @ u - eye).max()
        if dev > 1e-8:
            raise ValueError(f"{name} is not unitary: max deviation {dev:.3e} exceeds 1e-08")
    tr = np.trace(u1 @ u2.conj().swapaxes(-1, -2), axis1=-2, axis2=-1)
    # the square goes through scalar C pow, as for one pair: an array square
    # is one multiply, which differs in the last bit
    mods = np.ravel(np.hypot(tr.real, tr.imag))
    f = np.clip(np.array([m**2 for m in mods]).reshape(tr.shape) / d**2, 0.0, 1.0)
    return float(f) if f.ndim == 0 else f


def check_tolerance(tol):
    """Raise ``ValueError`` unless a validation tolerance is finite and nonnegative."""
    if not math.isfinite(tol) or tol < 0.0:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")


class DensityError(ValueError):
    """A density-matrix check failed; ``index`` is the failing matrix's position in its stack (0 for one matrix)."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


def validate_density(m, tol=HERMITICITY_TOL, repair=False):
    """Check (or repair) the density-matrix invariants of ``m``.

    Checks finite entries, Hermiticity, unit trace, and positive
    semidefiniteness within ``tol``, which must be finite and nonnegative.
    With ``repair`` the matrix is symmetrized, negative eigenvalues are
    clipped to zero, and the trace is renormalized to 1; otherwise any
    violation raises a ``DensityError`` naming the failed invariant and the
    amount by which it failed.

    ``m`` is one d x d matrix or an (n, d, d) stack, checked through one
    code path: one stacked ``eigvalsh`` gives every ``min_eig`` and, with
    ``repair``, one stacked ``eigh`` every repair, each item bitwise equal
    to the call on that matrix alone. A matrix whose entries, trace,
    Hermitian part or (with ``repair``) clipped spectrum are not finite is
    diagonalized as zeros and fails with a message of its own, with no numpy
    warning. A stack raises the error of its first failing matrix, whose
    position is the error's ``index``.

    Returns ``(rho, checks)``: the (repaired) matrix or stack and the
    diagnostics of the input, ``checks = {"herm_dev", "trace_dev",
    "min_eig"}``, floats for one matrix and arrays of n values for a stack.
    """
    check_tolerance(tol)
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"density matrix must be square, got shape {m.shape}")
    stack = m.reshape((-1,) + m.shape[-2:])
    # huge finite entries overflow here; such a matrix is unusable and fails below
    with np.errstate(over="ignore", invalid="ignore"):
        herm_dev = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        # a contiguous diagonal sums in the order np.trace uses on one matrix, and
        # np.hypot matches the scalar abs where np.abs of a complex array does not
        trace = np.diagonal(stack, axis1=-2, axis2=-1).copy().sum(axis=-1) - 1.0
        trace_dev = np.hypot(trace.real, trace.imag)
        sym = _sym(stack)
    # a non-finite entry makes the Hermitian part non-finite too
    unusable = ~np.isfinite(sym).all(axis=(-2, -1)) | ~np.isfinite(trace)
    sym[unusable] = 0.0
    min_eig = np.linalg.eigvalsh(sym)[:, 0]
    trace_tol, psd_tol = max(tol, TRACE_TOL), max(tol, PSD_TOL)
    if repair:
        w, v = np.linalg.eigh(sym)
        w = np.clip(w, 0.0, None)
        total = w.sum(axis=-1)
        unusable |= ~np.isfinite(total)
        failed = unusable | (total < 1e-300)
    else:
        failed = unusable | (herm_dev > tol) | (trace_dev > trace_tol) | (min_eig < -psd_tol)
    if failed.any():
        i = int(np.argmax(failed))
        if not np.isfinite(stack[i]).all():
            message = "density matrix contains non-finite entries"
        elif unusable[i]:
            message = "density matrix entries too large: its trace, Hermitian part or spectrum overflows"
        elif repair:
            message = "density matrix repair failed: all eigenvalues nonpositive"
        elif herm_dev[i] > tol:
            message = f"not Hermitian: max deviation {herm_dev[i]:.3e} exceeds tolerance {tol:.1e}"
        elif trace_dev[i] > trace_tol:
            message = f"trace differs from 1 by {trace_dev[i]:.3e}, exceeds tolerance {trace_tol:.1e}"
        else:
            message = f"negative eigenvalue {min_eig[i]:.3e} below tolerance -{psd_tol:.1e}"
        raise DensityError(message, i)
    checks = {"herm_dev": herm_dev, "trace_dev": trace_dev, "min_eig": min_eig}
    rho = (v * (w / total[:, None])[:, None, :]) @ v.conj().swapaxes(-1, -2) if repair else stack
    if m.ndim == 2:
        return rho[0], {name: float(x[0]) for name, x in checks.items()}
    return rho, checks


def save_density(path, rho):
    """Write a density matrix as JSON {"dim": d, "re": [[...]], "im": [[...]]}."""
    rho = _as_square(rho, "rho")
    payload = {
        "dim": rho.shape[0],
        "re": [[float(x) for x in row] for row in rho.real],
        "im": [[float(x) for x in row] for row in rho.imag],
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def _read_json(path):
    """Parsed content of an ASCII JSON file; a decoding error names the file."""
    with open(path, encoding="ascii") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _json_numbers(path, field, value):
    """Parsed JSON ``value`` as a float array, if it is a rectangular nest of JSON numbers."""
    try:
        nest = np.array(value, dtype=object)
        # bool is not a JSON number, and a ragged nest leaves lists as elements
        if set(map(type, nest.flat)) <= {int, float}:
            return nest.astype(float)
    except OverflowError:  # an integer too large for a float
        pass
    raise ValueError(f"{path}: {field} must be a rectangular array of JSON numbers")


def load_density(path):
    """Read a density matrix written by ``save_density``.

    Only the shape is validated here; run ``validate_density`` on the result
    to enforce the physical invariants.
    """
    payload = _read_json(path)
    try:
        dim = payload["dim"]
        re, im = (_json_numbers(path, field, payload[field]) for field in ("re", "im"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed density-matrix file ({exc})") from exc
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValueError(f"{path}: dim must be a JSON integer, got {json.dumps(dim)}")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(f"{path}: arrays do not match dim={dim}")
    return re + 1j * im
