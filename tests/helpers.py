"""Helpers shared by several test modules."""

import tracemalloc

import numpy as np


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def traced_peak(build, *args):
    """Bytes of the traced peak above the current allocation while ``build(*args)`` runs, after one warm-up call."""
    build(*args)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def random_unitary(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_mixed(rng, n_qubits):
    # partial trace of a doubled-system pure state gives a full-rank mixed state
    dim = 2 ** n_qubits
    psi = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
    psi = psi / np.linalg.norm(psi)
    rho = psi.reshape(dim, dim)
    return rho @ rho.conj().T


def zzz_pair_block():
    """The 2-dim block of the zzz ground state: e_+ = (|000> + sqrt(3)|W110>)/2 and G."""
    from tricoh import states

    e_plus = (states.make_state("000") + np.sqrt(3) * states.make_state("W110")) / 2
    return np.column_stack([e_plus, states.make_state("G")])
