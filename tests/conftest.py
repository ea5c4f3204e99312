import pytest

from tricoh import adiabatic, models


@pytest.fixture(scope="session")
def zz_sweep():
    sch = adiabatic.linear_schedule("zz", models.model("zz").steps, models.model("zz").tau)
    return adiabatic.ground_sweep("zz", sch)


@pytest.fixture(scope="session")
def zzz_sweep():
    sch = adiabatic.linear_schedule("zzz", models.model("zzz").steps, models.model("zzz").tau)
    return adiabatic.ground_sweep("zzz", sch)


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
