"""Closed-form perturbative ground states and fidelities for both models.

For the two-body model the unperturbed part is the longitudinal Hamiltonian
and the transverse field is the perturbation; at large coupling the
first-order ground state mixes |W001> with |W110> and |000>. For the
three-body model the unperturbed ground level is degenerate and the correct
zeroth-order state follows from the secular equation of the second-order
effective Hamiltonian, whose lowest eigenvector reproduces |G>.

A ``PerturbationSplit`` always names its degenerate subspace, and
``zzz_split`` builds the three-body model's, with its degenerate ground
pair. ``secular_solve`` accepts only an orthonormal basis of degenerate h0
eigenstates (Bravyi, DiVincenzo, Loss, Ann. Phys. 326, 2793 (2011)).

All returned states are normalized with the package phase convention; the
closed-form fidelity expressions already account for the normalization of
the unnormalized perturbative expansions.
"""

from dataclasses import dataclass
import math

import numpy as np

from .qmat import eig_hermitian, normalize_phase, _as_square, _check_hermitian, _check_real
from .states import basis_state, make_state
from . import models

# eigenvalues of h0 within this distance of the subspace energy count as degenerate
SECULAR_ENERGY_TOL = 1e-8
# largest deviation of the subspace Gram matrix from the identity, and largest
# coupling V may make from the subspace to the rest of its energy shell
SUBSPACE_TOL = 1e-8


@dataclass(frozen=True)
class PerturbationSplit:
    """Unperturbed part, perturbation, and the degenerate subspace ``secular_solve`` works in."""

    h0: np.ndarray
    v: np.ndarray
    degenerate_subspace: list


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


def zzz_split(p):
    """Perturbation split of the three-body model with its degenerate ground pair."""
    hx, hz = models.parts("zzz", p.j3, p)
    return PerturbationSplit(h0=np.diag(hz), v=hx, degenerate_subspace=[make_state("W001"), basis_state("111")])


def _zz_ratios(omega_x, omega_z, j2):
    """Admixtures a = omega_x/omega_z and b = omega_x/(2 j2 + omega_z), after checking the two-body
    formulas' arguments and that the state's squared norm 1 + a^2 + (3/4) b^2 is finite."""
    for name, value in (("omega_x", omega_x), ("omega_z", omega_z), ("j2", j2)):
        _check_real(name, value)
    if omega_z == 0.0:
        raise ValueError("omega_z must be nonzero: the |W110> admixture omega_x/omega_z diverges")
    denom = 2.0 * j2 + omega_z
    if abs(denom) < 1e-12:
        raise ValueError(f"formula invalid at the avoided crossing 2*j2 + omega_z = 0 (j2 = {j2})")
    a, b = omega_x / omega_z, omega_x / denom
    if not math.isfinite(1.0 + a * a + 0.75 * b * b):
        raise ValueError(f"omega_x/omega_z = {a:.3g} and omega_x/(2*j2 + omega_z) = {b:.3g} overflow the closed form")
    return a, b


def _check_j3(omega_x, j3):
    """Raise ``ValueError`` unless ``omega_x`` is a finite real, ``j3`` in (0, inf) and (1.5 omega_x / j3)^2 finite."""
    _check_real("omega_x", omega_x)
    _check_real("j3", j3, "(0, inf)")
    ratio = 1.5 * omega_x / j3
    if not math.isfinite(ratio * ratio):
        raise ValueError(f"3*omega_x/(2*j3) = {ratio:.3g} overflows the closed form (j3 = {j3})")


def zz_first_order_ground(omega_x, omega_z, j2):
    """First-order ground state of the two-body model at coupling ``j2``.

    Normalization of |W001> + (omega_x/omega_z)|W110>
    - (sqrt(3)/2)(omega_x/(2 j2 + omega_z))|000>. The arguments must be
    finite; the formula is invalid at omega_z = 0, at the avoided crossing
    2 j2 + omega_z = 0, and where the squared norm overflows.
    """
    a, b = _zz_ratios(omega_x, omega_z, j2)
    vec = make_state("W001") + a * make_state("W110") - (math.sqrt(3) / 2) * b * basis_state("000")
    return normalize_phase(vec)


def zz_fidelity_formula(omega_x, omega_z, j2):
    """Closed-form squared overlap |<W001|g>|^2 of the two-body ground state g, up to O(omega_x^4).

    1 / (1 + (omega_x/omega_z)^2 + (3/4)(omega_x/(2 j2 + omega_z))^2), not
    the amplitude the sweeps report; arguments checked as in ``zz_first_order_ground``.
    """
    a, b = _zz_ratios(omega_x, omega_z, j2)
    return 1.0 / (1.0 + a ** 2 + 0.75 * b ** 2)


def zzz_first_order_ground(omega_x, j3):
    """First-order ground state of the three-body model at coupling ``j3``.

    Normalization of |G> - (omega_x/j3)((3/4)|000> + (3 sqrt(3)/4)|W110>).
    The arguments are checked by ``_check_j3``.
    """
    _check_j3(omega_x, j3)
    vec = make_state("G") - (omega_x / j3) * (0.75 * basis_state("000") + 0.75 * math.sqrt(3) * make_state("W110"))
    return normalize_phase(vec)


def zzz_fidelity_formula(omega_x, j3):
    """Closed-form squared overlap |<G|g>|^2 of the three-body ground state g, up to O(omega_x^4).

    1 / (1 + (3 omega_x / (2 j3))^2), not the amplitude the sweeps report;
    monotone increasing in ``j3``. The arguments are checked by ``_check_j3``.
    """
    _check_j3(omega_x, j3)
    return 1.0 / (1.0 + (1.5 * omega_x / j3) ** 2)


def secular_solve(split):
    """Solve the secular equation on the degenerate ground subspace.

    With the subspace basis as the columns of S and the eigenpairs
    (U_out, E_out) of ``h0`` outside its energy shell E_g, diagonalizes
    A = B^dag diag(1 / (E_g - E_out)) B with B = U_out^dag V S and returns
    the lowest eigenpair. Raises if the subspace is empty, if its Gram
    matrix differs from the identity by more than ``SUBSPACE_TOL``, if its
    states are not h0 eigenstates at E_g, or if V couples it to other
    states inside the shell (a vanishing denominator).
    """
    if len(split.degenerate_subspace) == 0:
        raise ValueError("secular_solve requires a nonempty degenerate subspace")
    h0 = _as_square(split.h0, "h0")
    v = _as_square(split.v, "v")
    _check_hermitian(h0, name="h0")
    _check_hermitian(v, name="v")
    sub = np.column_stack([np.asarray(s, dtype=complex) for s in split.degenerate_subspace])
    size = sub.shape[1]

    gram_dev = np.abs(sub.conj().T @ sub - np.eye(size)).max()
    if gram_dev > SUBSPACE_TOL:
        raise ValueError(f"subspace basis is not orthonormal (max Gram deviation {gram_dev:.3e})")
    e_g = float(np.real(np.vdot(sub[:, 0], h0 @ sub[:, 0])))
    residual = np.linalg.norm(h0 @ sub - e_g * sub, axis=0).max()
    if residual > SECULAR_ENERGY_TOL * max(1.0, float(np.abs(h0).max())):
        raise ValueError(f"subspace state is not an h0 eigenstate at energy {e_g:.6g} (residual {residual:.3e})")

    e0, u0 = eig_hermitian(h0)
    shell = np.abs(e0 - e_g) <= SECULAR_ENERGY_TOL
    # degenerate states in the shell but outside the subspace must not couple via V
    shell_vecs = u0[:, shell]
    shell_residual = shell_vecs - sub @ (sub.conj().T @ shell_vecs)
    coupling = np.abs(shell_residual.conj().T @ v @ sub)
    if coupling.size and coupling.max() > SUBSPACE_TOL:
        raise ValueError(
            "vanishing denominator: V couples the subspace to degenerate states outside it "
            f"(max coupling {coupling.max():.3e})"
        )

    amps = u0[:, ~shell].conj().T @ (v @ sub)
    w, c = eig_hermitian(amps.conj().T @ (amps / (e_g - e0[~shell])[:, None]))
    scale = max(float(np.abs(w).max()), 1.0)
    degenerate = size > 1 and (w[1] - w[0]) < 1e-12 * scale
    return SecularResult(energy_shift=float(w[0]), coefficients=c[:, 0].copy(), degenerate=degenerate)
