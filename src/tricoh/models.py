"""Spin operators and the table of sweep models.

Spin operators use the spin-1/2 convention S = sigma/2 (eigenvalues +/-1/2).
Two sweep models are provided, identified by the tags ``"zz"`` and ``"zzz"``:

- zz:  H = omega_z sum_i S_i^z + omega_x sum_i S_i^x + 2 J2 sum_{i<j} S_i^z S_j^z,
       swept over J2 in [0, 2] with omega_z = -2, omega_x = 0.1;
- zzz: H = omega_x sum_i S_i^x + 4 J3 S_1^z S_2^z S_3^z,
       swept over J3 in [0, 5] with omega_x = 0.1.

Both are affine in their coupling J with a diagonal longitudinal part, so
each is one ``Model`` record in ``MODELS``:

    H(J) = hx + diag(hz0 + J dH/dJ),  hx = omega_x sum_i S_i^x,
    hz0 = omega_z dH/domega_z.

``parts`` returns hx and the real diagonal hz0 + J dH/dJ. It and
``hamiltonian`` also take an array of n couplings, giving (n, 8) diagonals
and the (n, 8, 8) stack of H(J).

Each record also holds the model's other per-model data: the default sample
couplings of ``tricoh geometry`` and the columns of its NMR refocusing table,
each named with the spin pairs whose delays d_ik = 1/(2 J_ik) it sums.

An NMR parameter container (chemical shifts and scalar couplings) is also
defined here; its values are configuration inputs.
"""

from dataclasses import dataclass

import numpy as np

from .qmat import _check_integer, _check_interval, _check_real, _json_numbers, _load_json, kron_all

N_QUBITS = 3

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def spin_op(n_qubits, site, axis):
    """Spin operator sigma_axis/2 on ``site`` in [1, n_qubits], ``n_qubits`` in [1, inf) (integers, not bools)."""
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    _check_integer("n_qubits", n_qubits, "[1, inf)")
    _check_integer("site", site, f"[1, {n_qubits}]")
    mats = [np.eye(2, dtype=complex)] * n_qubits
    mats[site - 1] = _PAULI[axis] / 2
    return kron_all(mats)


_SX_TOTAL = sum(spin_op(N_QUBITS, i, "x") for i in range(1, N_QUBITS + 1))
_Z1, _Z2, _Z3 = (np.diag(spin_op(N_QUBITS, i, "z")).real for i in range(1, N_QUBITS + 1))


@dataclass(frozen=True)
class Model:
    """One sweep model: its coupling, sweep defaults and longitudinal diagonals.

    ``coupling`` names the ``ModelParams`` field holding J, ``j_range`` the
    inclusive sweep range, ``steps`` and ``tau`` the default schedule, and
    ``target`` the ``states.make_state`` label of the state the sweep
    prepares. ``dh_domega_z`` and ``dh_dj`` are the diagonals of dH/domega_z
    and dH/dJ. ``geometry_j`` holds the default sample couplings of
    ``tricoh geometry``. ``delays`` and ``offsets`` map each refocusing-table
    column, in column order, to the 1-based spin pairs (i, k) whose
    d_ik = 1/(2 J_ik) it sums (``adiabatic.refocus_params`` has the formulas).
    """

    coupling: str
    j_range: tuple
    steps: int
    tau: float
    target: str
    dh_domega_z: np.ndarray
    dh_dj: np.ndarray
    geometry_j: tuple
    delays: dict
    offsets: dict


MODELS = {
    "zz": Model(
        coupling="j2", j_range=(0.0, 2.0), steps=300, tau=0.7, target="W001",
        dh_domega_z=_Z1 + _Z2 + _Z3, dh_dj=2.0 * (_Z1 * _Z2 + _Z1 * _Z3 + _Z2 * _Z3),
        geometry_j=(0.0, 0.5, 1.0, 1.5, 2.0),
        delays={"tau1": ((1, 2), (2, 3)), "tau2": ((1, 2), (1, 3)), "tau3": ((1, 3), (2, 3))},
        offsets={"FQ1": ((1, 2),), "FQ2": ((1, 2), (1, 3), (2, 3)), "FQ3": ((2, 3),)},
    ),
    "zzz": Model(
        coupling="j3", j_range=(0.0, 5.0), steps=200, tau=0.4, target="G",
        dh_domega_z=np.zeros(8), dh_dj=4.0 * _Z1 * _Z2 * _Z3,
        geometry_j=(0.0, 0.25, 1.0, 2.5, 5.0), delays={"d_m": ((1, 2),)}, offsets={},
    ),
}
MODEL_TAGS = tuple(MODELS)
for _m in MODELS.values():
    # every caller shares these records
    _m.dh_domega_z.flags.writeable = _m.dh_dj.flags.writeable = False


def model(tag):
    """Table record of the tagged model; ``ValueError`` for an unknown tag."""
    try:
        return MODELS[tag]
    except KeyError:
        raise ValueError(f"unknown model tag {tag!r}, expected one of {MODEL_TAGS}") from None


def _check_coupling(m, j):
    _check_interval(m.coupling, j, m.j_range)


@dataclass(frozen=True)
class ModelParams:
    """Sweep-model parameters; defaults are the canonical settings."""

    omega_z: float = -2.0
    omega_x: float = 0.1
    j2: float = 0.0
    j3: float = 0.0

    def __post_init__(self):
        for name in ("omega_z", "omega_x", "j2", "j3"):
            _check_real(name, getattr(self, name))
        for m in MODELS.values():
            _check_coupling(m, getattr(self, m.coupling))


_DEFAULT_PARAMS = ModelParams()


def parts(tag, j, params=None):
    """(transverse, longitudinal) split (hx, hz) of the tagged model at coupling ``j``.

    ``hz = hz0 + j dH/dJ`` is the real diagonal of the longitudinal part:
    shape (8,) for one coupling, (n, 8) for an array of n. The coupling
    field of ``params`` is ignored in favour of ``j``, every element of
    which must lie in the model's range.
    """
    m = model(tag)
    j = np.asarray(j, dtype=float)
    _check_coupling(m, j)
    p = params or _DEFAULT_PARAMS
    return p.omega_x * _SX_TOTAL, p.omega_z * m.dh_domega_z + np.multiply.outer(j, m.dh_dj)


def hamiltonian(tag, j, params=None):
    """Full Hamiltonian hx + diag(hz) of the tagged model at coupling ``j``.

    An array of n couplings gives the (n, 8, 8) stack of H(J).
    """
    hx, hz = parts(tag, j, params)
    return hx + hz[..., None] * np.eye(len(hx))


def _has_length(value, n):
    """Whether ``value`` is sized with exactly ``n`` items; a scalar is not."""
    try:
        return len(value) == n
    except TypeError:
        return False


@dataclass(frozen=True)
class NmrParams:
    """Chemical shifts (Hz) and symmetric scalar couplings (Hz) of three spins.

    Sequences are stored as tuples: ``deltas`` of three shifts, ``j_couplings``
    a 3x3 table of rows. ``deltas`` is required and checked, but no output
    reads it yet: ``adiabatic.refocus_params`` reads only the couplings and
    the model's omega_z and omega_x.
    """

    deltas: tuple
    j_couplings: tuple

    def __post_init__(self):
        if not _has_length(self.deltas, N_QUBITS):
            raise ValueError(f"deltas must hold {N_QUBITS} chemical shifts, got {self.deltas!r}")
        j = self.j_couplings
        if not (_has_length(j, N_QUBITS) and all(_has_length(row, N_QUBITS) for row in j)):
            raise ValueError(f"j_couplings must be a 3x3 table, got {j!r}")
        j = tuple(map(tuple, j))
        object.__setattr__(self, "deltas", tuple(self.deltas))
        object.__setattr__(self, "j_couplings", j)
        entries = [(f"chemical shift delta{i+1}", d) for i, d in enumerate(self.deltas)]
        entries += [(f"coupling J{i+1}{k+1}", j[i][k]) for i in range(N_QUBITS) for k in range(N_QUBITS)]
        for name, value in entries:
            _check_real(name, value)
        for i in range(N_QUBITS):
            if j[i][i] != 0.0:
                raise ValueError("j_couplings must have a zero diagonal")
            for k in range(i + 1, N_QUBITS):
                if j[i][k] != j[k][i]:
                    raise ValueError(f"j_couplings must be symmetric, J{i+1}{k+1} != J{k+1}{i+1}")

    def coupling(self, i, k):
        """J coupling between 1-based spins i and k, in Hz."""
        return self.j_couplings[i - 1][k - 1]


def _nmr_params_from_json(raw):
    fields = ("deltas", "j_couplings")
    if not isinstance(raw, dict) or not raw.keys() >= set(fields):
        raise ValueError(f"malformed NMR config: expected a JSON object with the fields {', '.join(fields)}")
    deltas, couplings = (_json_numbers(field, raw[field]).tolist() for field in fields)
    return NmrParams(deltas=deltas, j_couplings=couplings)


def load_nmr_params(path):
    """Read deltas and j_couplings from a JSON config file."""
    return _load_json(path, _nmr_params_from_json)
