import math
import threading

import numpy as np
import pytest

from tricoh import adiabatic, coherence, models, states


@pytest.fixture(scope="session")
def zz_sweep():
    sch = adiabatic.linear_schedule("zz", models.model("zz").steps, models.model("zz").tau)
    return adiabatic.ground_sweep(sch)


@pytest.fixture(scope="session")
def zzz_sweep():
    sch = adiabatic.linear_schedule("zzz", models.model("zzz").steps, models.model("zzz").tau)
    return adiabatic.ground_sweep(sch)


@pytest.fixture(scope="session")
def zz_reports(zz_sweep):
    return coherence.coherence_reports(states.density(zz_sweep.ground_states))


@pytest.fixture(scope="session")
def zzz_reports(zzz_sweep):
    return coherence.coherence_reports(states.density(zzz_sweep.ground_states))


@pytest.fixture(scope="session")
def zz_linear_run():
    sch = adiabatic.linear_schedule("zz", models.model("zz").steps, models.model("zz").tau)
    return adiabatic.evolve(sch)


@pytest.fixture(scope="session")
def zzz_linear_run():
    sch = adiabatic.linear_schedule("zzz", models.model("zzz").steps, models.model("zzz").tau)
    return adiabatic.evolve(sch)


@pytest.fixture(scope="session")
def zz_adaptive_run():
    sch = adiabatic.gap_adaptive_schedule("zz", models.model("zz").steps, models.model("zz").tau)
    return adiabatic.evolve(sch)


@pytest.fixture(scope="session")
def zzz_adaptive_run():
    sch = adiabatic.gap_adaptive_schedule("zzz", models.model("zzz").steps, models.model("zzz").tau)
    return adiabatic.evolve(sch)


@pytest.fixture
def states_within_tomo_tolerance():
    # states that ``tomo`` accepts at its default tolerance without repair: a
    # full-rank state whose rho[0, 4] is off by 1e-7 from conj(rho[4, 0]), and
    # a near-product state whose rho, rho_1 and rho_23 each have an eigenvalue
    # near -1e-11
    a = np.random.default_rng(70).standard_normal((8, 8, 2)) @ [1, 1j]
    skewed = a @ a.conj().T / np.trace(a @ a.conj().T).real
    skewed[0, 4] += 1e-7
    plus, minus, zero, one = np.array([[1, 1], [1, -1], [math.sqrt(2), 0], [0, math.sqrt(2)]]) / math.sqrt(2)
    kets = [np.kron(np.kron(q1, zero), q3) for q1, q3 in ((plus, zero), (minus, zero), (plus, one))]
    negative = sum(w * states.density(k) for w, k in zip((1 + 2e-11, -1e-11, -1e-11), kets))
    return [skewed, negative]


@pytest.fixture
def state_failing_cross_check():
    # a full-rank state whose lowest eigenvalue is -5e-7 at unit trace: ``tomo``
    # accepts it at its default tolerance without repair, but the defining
    # QJSD form clips that eigenvalue and the entropic form floors it, so the
    # two differ by about 1e-6, beyond the cross-check tolerance
    a = np.random.default_rng(1).standard_normal((8, 8, 2)) @ [1, 1j]
    w, v = np.linalg.eigh(a @ a.conj().T)
    w[0] = -5e-7
    w[1:] *= (1 - w[0]) / w[1:].sum()
    return (v * w) @ v.conj().T


@pytest.fixture
def no_thread(monkeypatch):
    """Fail any code under test that starts a thread."""

    def refused(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refused)
