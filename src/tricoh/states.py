"""Canonical state constructors and marginal/product factories.

State labels accepted by ``make_state``:

- a bit string such as ``"000"`` or ``"101"`` (computational basis),
- a sign pattern such as ``"+-+"`` or ``"---"`` (product of (|0> +/- |1>)/sqrt(2)),
- ``"W001"``: (|001> + |010> + |100>)/sqrt(3),
- ``"W110"``: (|110> + |101> + |011>)/sqrt(3),
- ``"GHZ-"``: (|000> - |111>)/sqrt(2),
- ``"G"``: (|001> + |010> + |100> + |111>)/2, the Hadamard transform of GHZ-.

Bit ordering follows ``qmat``: qubit 1 is the most significant factor.
"""

import numpy as np

from .qmat import _check_real, kron, kron_all, normalize_phase, partial_trace

_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)


def basis_state(bits):
    """Computational basis ket for a bit string like "010"."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"invalid bit string {bits!r}")
    vec = np.zeros(2 ** len(bits), dtype=complex)
    vec[int(bits, 2)] = 1.0
    return vec


def sign_product_state(pattern):
    """Product of (|0> +/- |1>)/sqrt(2) factors for a pattern like "+-+"."""
    if not pattern or any(c not in "+-" for c in pattern):
        raise ValueError(f"invalid sign pattern {pattern!r}")
    return kron_all([(_KET0 + _KET1) / np.sqrt(2) if c == "+" else (_KET0 - _KET1) / np.sqrt(2) for c in pattern])


def make_state(label):
    """Named pure state (see module docstring for accepted labels)."""
    if label == "W001":
        vec = (basis_state("001") + basis_state("010") + basis_state("100")) / np.sqrt(3)
    elif label == "W110":
        vec = (basis_state("110") + basis_state("101") + basis_state("011")) / np.sqrt(3)
    elif label == "GHZ-":
        vec = (basis_state("000") - basis_state("111")) / np.sqrt(2)
    elif label == "G":
        vec = (basis_state("001") + basis_state("010") + basis_state("100") + basis_state("111")) / 2
    elif label and all(c in "01" for c in label):
        vec = basis_state(label)
    elif label and all(c in "+-" for c in label):
        vec = sign_product_state(label)
    else:
        raise ValueError(f"unknown state label {label!r}")
    return normalize_phase(vec)


def density(psi):
    """Projector |psi><psi| of a state vector, or of each row of a (..., d) stack, bitwise as ``np.outer``."""
    psi = np.asarray(psi, dtype=complex)
    return psi[..., :, None] * psi.conj()[..., None, :]


def make_pps(psi, mu):
    """Pseudopure state (1 - mu) I/d + mu |psi><psi|."""
    _check_real("mu", mu, "[0, 1]")
    psi = np.asarray(psi, dtype=complex)
    d = psi.shape[0]
    return (1.0 - mu) * np.eye(d, dtype=complex) / d + mu * density(psi)


def marginals(rho):
    """Single-qubit reduced density matrices of a three-qubit ``rho``, in qubit order."""
    return [partial_trace(rho, 3, {q}) for q in (1, 2, 3)]


def pi_product(rho):
    """Tensor product of the single-qubit marginals of a three-qubit ``rho``."""
    return kron_all(marginals(rho))


def split_1_23(rho):
    """Product of the qubit-1 marginal with the (2,3) block marginal."""
    return kron(partial_trace(rho, 3, {1}), partial_trace(rho, 3, {2, 3}))
