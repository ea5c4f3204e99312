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
