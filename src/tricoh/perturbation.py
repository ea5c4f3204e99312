"""Closed-form perturbative ground states and fidelities for both models.

For the two-body model the unperturbed part is the longitudinal Hamiltonian
and the transverse field is the perturbation; at large coupling the
first-order ground state mixes |W001> with |W110> and |000>. For the
three-body model the unperturbed ground level is degenerate and the correct
zeroth-order state follows from the secular equation of the second-order
effective Hamiltonian, whose lowest eigenvector reproduces |G>.

All returned states are normalized with the package phase convention; the
closed-form fidelity expressions already account for the normalization of
the unnormalized perturbative expansions.
"""

from dataclasses import dataclass
import math

import numpy as np

from .qmat import eig_hermitian, normalize_phase, _as_square, _check_hermitian
from .states import basis_state, make_state
from . import models

# eigenvalues of h0 within this distance of the subspace energy count as degenerate
SECULAR_ENERGY_TOL = 1e-8


@dataclass(frozen=True)
class PerturbationSplit:
    """Unperturbed part, perturbation, and optional degenerate subspace."""

    h0: np.ndarray
    v: np.ndarray
    degenerate_subspace: list | None = None


@dataclass(frozen=True)
class SecularResult:
    """Lowest eigenpair of the second-order effective Hamiltonian.

    ``coefficients`` are the zeroth-order ground-state components in the
    supplied subspace basis. ``degenerate`` flags an (effectively) degenerate
    effective matrix, in which case the coefficients are one deterministic
    choice from the ground space.
    """

    energy_shift: float
    coefficients: np.ndarray
    degenerate: bool


def zz_split(p):
    """Perturbation split of the two-body model: transverse field as V."""
    hx, hz = models.parts("zz", p.j2, p)
    return PerturbationSplit(h0=np.diag(hz), v=hx)


def zzz_split(p):
    """Perturbation split of the three-body model with its degenerate ground pair."""
    hx, hz = models.parts("zzz", p.j3, p)
    return PerturbationSplit(h0=np.diag(hz), v=hx, degenerate_subspace=[make_state("W001"), basis_state("111")])


def zz_first_order_ground(omega_x, omega_z, j2):
    """First-order ground state of the two-body model at coupling ``j2``.

    Normalization of |W001> + (omega_x/omega_z)|W110>
    - (sqrt(3)/2)(omega_x/(2 j2 + omega_z))|000>. Invalid at the avoided
    crossing 2 j2 + omega_z = 0.
    """
    denom = 2.0 * j2 + omega_z
    if abs(denom) < 1e-12:
        raise ValueError(f"formula invalid at the avoided crossing 2*j2 + omega_z = 0 (j2 = {j2})")
    vec = (
        make_state("W001")
        + (omega_x / omega_z) * make_state("W110")
        - (math.sqrt(3) / 2) * (omega_x / denom) * basis_state("000")
    )
    return normalize_phase(vec)


def zz_fidelity_formula(omega_x, omega_z, j2):
    """Closed-form fidelity of the two-body ground state to |W001>.

    1 / (1 + (omega_x/omega_z)^2 + (3/4)(omega_x/(2 j2 + omega_z))^2).
    """
    denom = 2.0 * j2 + omega_z
    if abs(denom) < 1e-12:
        raise ValueError(f"formula invalid at the avoided crossing 2*j2 + omega_z = 0 (j2 = {j2})")
    return 1.0 / (1.0 + (omega_x / omega_z) ** 2 + 0.75 * (omega_x / denom) ** 2)


def zzz_first_order_ground(omega_x, j3):
    """First-order ground state of the three-body model at coupling ``j3``.

    Normalization of |G> - (omega_x/j3)((3/4)|000> + (3 sqrt(3)/4)|W110>).
    """
    if j3 <= 0.0:
        raise ValueError(f"j3 must be positive, got {j3}")
    vec = make_state("G") - (omega_x / j3) * (0.75 * basis_state("000") + 0.75 * math.sqrt(3) * make_state("W110"))
    return normalize_phase(vec)


def zzz_fidelity_formula(omega_x, j3):
    """Closed-form fidelity of the three-body ground state to |G>.

    1 / (1 + (3 omega_x / (2 j3))^2); monotone increasing in ``j3``.
    """
    if j3 <= 0.0:
        raise ValueError(f"j3 must be positive, got {j3}")
    return 1.0 / (1.0 + (1.5 * omega_x / j3) ** 2)


def secular_solve(split):
    """Solve the secular equation on the degenerate ground subspace.

    Builds A_mn = sum_k <m|V|k><k|V|n> / (E_g - E_k) over the eigenstates
    ``k`` of ``h0`` outside the subspace energy shell E_g, diagonalizes it,
    and returns the lowest eigenpair. Raises if the subspace is missing, if
    its basis states are not degenerate eigenstates of ``h0``, or if V
    couples the subspace to other states inside the same energy shell (a
    vanishing denominator).
    """
    if not split.degenerate_subspace:
        raise ValueError("secular_solve requires a nonempty degenerate subspace")
    h0 = _as_square(split.h0, "h0")
    v = _as_square(split.v, "v")
    _check_hermitian(h0, name="h0")
    _check_hermitian(v, name="v")
    subspace = [np.asarray(s, dtype=complex) for s in split.degenerate_subspace]
    size = len(subspace)

    energies = [float(np.real(np.vdot(s, h0 @ s))) for s in subspace]
    e_g = energies[0]
    for s, e in zip(subspace, energies):
        residual = np.linalg.norm(h0 @ s - e_g * s)
        if residual > SECULAR_ENERGY_TOL * max(1.0, float(np.abs(h0).max())):
            raise ValueError(f"subspace state is not an h0 eigenstate at energy {e_g:.6g} (residual {residual:.3e})")

    spec = eig_hermitian(h0)
    shell = np.abs(spec.eigenvalues - e_g) <= SECULAR_ENERGY_TOL
    sub_block = np.column_stack(subspace)
    outside = ~shell
    # degenerate states in the shell but outside the subspace must not couple via V
    shell_vecs = spec.eigenvectors[:, shell]
    shell_residual = shell_vecs - sub_block @ (sub_block.conj().T @ shell_vecs)
    coupling = np.abs(shell_residual.conj().T @ v @ sub_block)
    if coupling.size and coupling.max() > 1e-8:
        raise ValueError(
            "vanishing denominator: V couples the subspace to degenerate states outside it "
            f"(max coupling {coupling.max():.3e})"
        )

    a = np.zeros((size, size), dtype=complex)
    for k in np.nonzero(outside)[0]:
        vk = spec.eigenvectors[:, k]
        amps = np.array([np.vdot(vk, v @ s) for s in subspace])
        a += np.outer(amps.conj(), amps) / (e_g - spec.eigenvalues[k])
    a_spec = eig_hermitian(a)
    w = a_spec.eigenvalues
    scale = max(float(np.abs(w).max()), 1.0)
    degenerate = size > 1 and (w[1] - w[0]) < 1e-12 * scale
    return SecularResult(
        energy_shift=float(w[0]),
        coefficients=a_spec.eigenvectors[:, 0].copy(),
        degenerate=degenerate,
    )
