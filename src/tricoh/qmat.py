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
  bitwise equal to the call on that item alone. So do ``ground_states``
  and the checks and fidelities used on tomography input
  (``validate_density``, ``root_fidelity`` and ``state_fidelity``). An
  empty stack, with a leading axis of length 0, gives an empty result.

Two fidelity conventions are provided. ``state_fidelity`` is the squared
Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2, which reduces to <psi|b|psi>
for a pure first argument. ``root_fidelity`` is its square root, the
amplitude-overlap convention used for all reported sweep and endpoint
fidelities in this package.
"""

from functools import lru_cache, reduce
import json
import math
import numbers

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
DEGENERACY_TOL = 1e-10


@lru_cache(maxsize=256)
def _parse_interval(interval):
    """(text, lo, hi, lo_open, hi_open) of an interval written as printed ("(0, inf)") or as closed bounds ``(lo, hi)``.

    Cached, so each interval is parsed once.
    """
    if isinstance(interval, str):
        lo, hi = map(float, interval[1:-1].split(","))
        return interval, lo, hi, interval[0] == "(", interval[-1] == ")"
    return ("[%g, %g]" % interval, *interval, False, False)


def _check_interval(name, value, interval):
    """Raise ``ValueError`` "<name> must lie in <interval>, got <x>" for the first ``x`` of ``value`` (a number or an
    array) outside ``interval``, written as printed ("(0, inf)") or as closed bounds ``(lo, hi)``; NaN lies in none."""
    text, lo, hi, lo_open, hi_open = _parse_interval(interval)
    # the comparisons give a bool for a number and a bool array for an array
    inside = (lo < value if lo_open else lo <= value) & (value < hi if hi_open else value <= hi)
    if not (inside.all() if isinstance(inside, np.ndarray) else inside):
        raise ValueError(f"{name} must lie in {text}, got {np.extract(~np.asarray(inside), value)[0]}")


def _check_integer(name, value, interval=None):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer (not a bool) in ``interval``, if given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if interval is not None:
        _check_interval(name, value, interval)


def _check_real(name, value, interval=None):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a real (not a bool) in ``interval``, else finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if interval is not None:
        _check_interval(name, value, interval)
    elif not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _as_stack(m, name):
    """``m`` as a complex array with square trailing axes and finite entries."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.shape[-1] == 0:
        raise ValueError(f"{name} must have a nonzero dimension, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _as_square(m, name):
    m = _as_stack(m, name)
    if m.ndim != 2:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def _check_hermitian(m, name):
    dev = np.abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0)
    if dev > HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian: max deviation {dev:.3e} exceeds {HERMITICITY_TOL:.1e}")


def _sym(m):
    """Hermitian part (m + m^dag)/2 of a matrix or of each matrix of a stack, with the bits of that expression.

    ``m`` is added into a fresh C-ordered conjugate transpose from ``np.conjugate``. ``ndarray.conj()``
    would not do: on a real array it returns ``m`` itself, and the in-place sum would overwrite the caller's
    matrix.
    """
    h = np.conjugate(m.swapaxes(-1, -2), order="C")
    h += m
    h /= 2
    return h


def kron(a, b):
    """Kronecker product; the left factor is the most significant subsystem.

    Matrices multiply over their last two axes, so stacks of matrices pair
    up matrix by matrix (leading axes broadcast); vectors give ``np.kron``.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim < 2 or b.ndim < 2:
        return np.kron(a, b)
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return _kron_into(np.empty(lead + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]), dtype=complex), a, b)


def _kron_into(out, a, b):
    """Write the Kronecker products of the (..., r, c) stack ``a`` and the (..., s, t) stack ``b`` into ``out``.

    ``out`` is a writable complex (..., r s, c t) array or view, and is returned. The reshape only splits
    each of its last two axes in two, which numpy does as a view for any strides, so the products land in
    ``out`` itself. Each entry is one multiply, so every product has the same bits wherever it is written.
    """
    shape = out.shape[:-2] + (a.shape[-2], b.shape[-2], a.shape[-1], b.shape[-1])
    np.multiply(a[..., :, None, :, None], b[..., None, :, None, :], out=out.reshape(shape))
    return out


def kron_all(mats):
    """Kronecker product of a sequence of matrices, left to right."""
    return reduce(kron, mats)


def partial_trace(rho, n_qubits, keep):
    """Reduced density matrix over the 1-based qubit indices in ``keep``.

    ``n_qubits`` must be an integer in [1, inf) and each index one in
    [1, n_qubits], neither a bool. The kept qubits retain their relative
    order, and the trace is preserved. A (..., 2^n, 2^n) stack is reduced
    matrix by matrix: qubits are traced out one at a time, last first, so
    each matrix sees the same sums as it would alone.
    """
    rho = _as_stack(rho, "rho")
    _check_integer("n_qubits", n_qubits, "[1, inf)")
    dim = 2**n_qubits
    if rho.shape[-2:] != (dim, dim):
        raise ValueError(f"dimension mismatch: expected {dim}x{dim} for {n_qubits} qubits, got {rho.shape}")
    keep = list(keep)
    indices = f"[1, {n_qubits}]"
    for q in keep:
        _check_integer("keep index", q, indices)
    keep = sorted(set(map(int, keep)))
    if not keep:
        raise ValueError("keep set must be nonempty")
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
    return _dephased(_as_stack(rho, "rho"))


def _dephased(m):
    """A stack the caller has checked, with its off-diagonal entries set to zero by a diagonal mask."""
    return np.where(np.eye(m.shape[-1], dtype=bool), m, 0)


def _squared_norms(v):
    """Squared norm of each row of ``v``, as a (..., 1) array: the stacked matmul re @ re + im @ im."""
    re, im = v.real[..., None, :], v.imag[..., None, :]
    return (re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]


def normalize_phase(vec):
    """Normalize a state vector and fix its global phase.

    The largest-magnitude amplitude (first index on ties within 1e-12) is
    made real and nonnegative. A (..., d) stack is normalized row by row,
    each row bitwise equal to a call on that row alone: the squared norm is
    the stacked matmul re @ re + im @ im of the real and imaginary views,
    the sum ``np.linalg.norm`` forms, and the pivot modulus is ``np.hypot``,
    which matches the scalar ``abs`` where ``np.abs`` of a complex array
    does not. A row whose squared norm overflows or falls below the smallest
    normal float is first scaled by the exact power of two that brings its
    largest real or imaginary part into [0.5, 1); every other row keeps its
    bits. A row with a non-finite entry or a zero norm raises ``ValueError``.
    """
    v = np.asarray(vec, dtype=complex)
    if not np.isfinite(v).all():
        raise ValueError("cannot normalize a vector with non-finite entries")
    with np.errstate(over="ignore"):
        sq = _squared_norms(v)
    rescale = ((sq == np.inf) | (sq < np.finfo(float).tiny))[..., 0]
    if rescale.any():
        v = v.copy()
        parts = v[rescale].view(float)
        v[rescale] = np.ldexp(parts, -np.frexp(np.abs(parts).max(axis=-1, keepdims=True))[1]).view(complex)
        sq = _squared_norms(v)
    if (sq == 0.0).any():
        raise ValueError("cannot normalize the zero vector")
    v = v / np.sqrt(sq)
    mags = np.abs(v)
    idx = np.argmax(mags > mags.max(axis=-1, keepdims=True) - 1e-12, axis=-1)
    pivot = np.take_along_axis(v, idx[..., None], axis=-1)
    return v * (pivot.conj() / np.hypot(pivot.real, pivot.imag))


def _eigh(a, vectors=True):
    """``numpy.linalg.eigh(a)``, or ``numpy.linalg.eigvalsh(a)`` without ``vectors``, of a stack its callers have checked.

    The one place the package calls numpy's Hermitian eigensolvers: every
    eigenpair and spectrum the package computes comes from here, so the
    solver is chosen, counted or swapped here alone, and one ``monkeypatch``
    of ``qmat._eigh`` swaps it everywhere. It returns numpy's bits and
    checks nothing. numpy's function is looked up at each call, so a wrapper
    set on ``numpy.linalg`` sees every call too.
    """
    return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)


def _spectral(w, v):
    """v diag(w) v^dag of the eigenvalues ``w`` and eigenvectors ``v`` of a matrix or of each matrix of a stack."""
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)


def eig_hermitian(h):
    """Eigendecomposition ``(w, v)`` of a Hermitian matrix with deterministic output.

    As from ``numpy.linalg.eigh``, the eigenvalues ``w`` are ascending and
    column k of ``v`` is the eigenvector of ``w[k]``. Within any degenerate
    cluster (consecutive eigenvalue gaps below ``DEGENERACY_TOL``) the
    eigenvectors are rebuilt by projecting standard basis vectors onto the
    cluster subspace and orthonormalizing in index order, so identical
    inputs always yield identical eigenvectors regardless of backend
    rotation freedom. Every eigenvector carries the ``normalize_phase``
    convention.
    """
    h = _as_square(h, "h")
    _check_hermitian(h, name="h")
    w, v = _eigh(h)
    for start, stop in _clusters(w):
        if stop - start > 1:
            v[:, start:stop] = _canonical_cluster_basis(v[:, start:stop])
    v[:] = normalize_phase(v.T).T
    return w, v


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


def ground_states(h):
    """Ascending eigenvalues, ground vectors and degenerate flags of a Hermitian matrix or stack.

    ``h`` is one d x d matrix or a (..., d, d) stack, checked square, finite
    and Hermitian, and diagonalized with one stacked ``eigh``. A stack gives
    (..., d) eigenvalues, (..., d) ground vectors and (...) flags; one
    matrix gives the same without the leading axis, and a bool flag. A flag
    is set when the two lowest eigenvalues are closer than
    ``DEGENERACY_TOL``; the ground vector is then one arbitrary (but
    deterministic) member of the ground space.

    Each ground vector equals ``eig_hermitian(h[i])[1][:, 0]``:
    only matrices flagged degenerate take the cluster rebuild, of their
    ground cluster alone, and one stacked ``normalize_phase`` fixes the
    phase of every ground vector.
    """
    h = _as_stack(h, "h")
    _check_hermitian(h, name="h")
    w, v = _eigh(h.reshape((-1,) + h.shape[-2:]))
    degenerate = w[:, 1] - w[:, 0] < DEGENERACY_TOL
    grounds = v[:, :, 0].copy()
    for i in np.flatnonzero(degenerate):
        _, stop = next(_clusters(w[i]))
        grounds[i] = _canonical_cluster_basis(v[i, :, :stop])[:, 0]
    flags = degenerate.reshape(h.shape[:-2]) if h.ndim > 2 else bool(degenerate[0])
    return w.reshape(h.shape[:-1]), normalize_phase(grounds).reshape(h.shape[:-1]), flags


def expm_hermitian(h, t):
    """Unitary exp(-i h t) of a Hermitian matrix, or of each matrix of a stack, via eigendecomposition."""
    h = _as_stack(h, "h")
    _check_hermitian(h, name="h")
    w, v = _eigh(h)
    return _spectral(np.exp(-1j * w * t), v)


def _squares(x):
    """Square of each entry of a float array, as an array of its shape.

    Each square goes through scalar C ``pow``, as the square of a single
    value does, so a stacked fidelity equals the single-pair value bit for
    bit: an array square is one multiply, which differs in the last bit.
    """
    x = np.asarray(x, dtype=float)
    return np.array([v**2 for v in x.ravel().tolist()]).reshape(x.shape)


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
    # sqrt(a), with negative eigenvalues clipped to 0
    w, v = _eigh(a)
    sa = _spectral(np.sqrt(np.clip(w, 0.0, None)), v)
    w = _eigh(sa @ b @ sa, vectors=False)
    f = np.clip(np.sqrt(np.clip(w, 0.0, None)).sum(axis=-1), 0.0, 1.0)
    return float(f) if f.ndim == 0 else f


def state_fidelity(a, b):
    """Squared Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2, in [0, 1].

    Reduces to <psi|b|psi> when ``a`` is pure; symmetric; equals 1 iff a = b.
    Takes stacks as ``root_fidelity`` does.
    """
    sq = _squares(root_fidelity(a, b))
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
        dev = np.abs(u.conj().swapaxes(-1, -2) @ u - eye).max(initial=0.0)
        if dev > 1e-8:
            raise ValueError(f"{name} is not unitary: max deviation {dev:.3e} exceeds 1e-08")
    tr = np.trace(u1 @ u2.conj().swapaxes(-1, -2), axis1=-2, axis2=-1)
    f = np.clip(_squares(np.hypot(tr.real, tr.imag)) / d**2, 0.0, 1.0)
    return float(f) if f.ndim == 0 else f


def check_tolerance(tol):
    """Raise ``ValueError`` unless a validation tolerance is a real number in [0, inf)."""
    _check_real("tolerance", tol, "[0, inf)")


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
    if m.shape[-1] == 0:
        raise ValueError(f"density matrix must have a nonzero dimension, got shape {m.shape}")
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
    min_eig = _eigh(sym, vectors=False)[:, 0]
    trace_tol, psd_tol = max(tol, TRACE_TOL), max(tol, PSD_TOL)
    if repair:
        w, v = _eigh(sym)
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
    rho = _spectral(w / total[:, None], v) if repair else stack
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


def _load_json(path, build):
    """``build`` of the parsed content of an ASCII JSON file; the one place an error gets its file's name.

    A ``ValueError`` from decoding or from ``build``, or the ``RecursionError`` of a nest too deep to
    parse, becomes a ``ValueError`` that starts "<path>: "; an ``OSError`` names the file already.
    """
    with open(path, encoding="ascii") as fh:
        try:
            return build(json.load(fh))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _json_numbers(field, value):
    """Parsed JSON ``value`` as a float array, if it is a rectangular nest of JSON numbers."""
    try:
        nest = np.array(value, dtype=object)
        # bool is not a JSON number, and a ragged nest or one past numpy's 64 dimensions leaves lists
        # as elements; flat, the fastest iterator, takes at most 32 dimensions, so it runs over the raveled nest
        if set(map(type, nest.ravel().flat)) <= {int, float}:
            return nest.astype(float)
    except OverflowError:  # an integer too large for a float
        pass
    raise ValueError(f"{field} must be a rectangular array of JSON numbers")


def _density_from_json(payload):
    try:
        dim = payload["dim"]
        re, im = (_json_numbers(field, payload[field]) for field in ("re", "im"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed density-matrix file ({exc})") from exc
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValueError(f"dim must be a JSON integer, got {json.dumps(dim)}")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(f"arrays do not match dim={dim}")
    return re + 1j * im


def load_density(path):
    """Read a density matrix written by ``save_density``.

    Only the shape is validated here; run ``validate_density`` on the result
    to enforce the physical invariants.
    """
    return _load_json(path, _density_from_json)
