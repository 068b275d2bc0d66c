"""Shared fixtures: bundled task sets, plants, and a small exhaustive store."""

import pytest

from maars import data_path
from maars.control import load_plant
from maars.schedgen import enumerate_all
from maars.taskmodel import load_taskset
from maars.vulnerability import build_store


@pytest.fixture(scope="session")
def minimal_ts():
    return load_taskset(data_path("tasksets", "minimal.json"))


@pytest.fixture(scope="session")
def ladder_ts():
    return load_taskset(data_path("tasksets", "ladder_demo.json"))


@pytest.fixture(scope="session")
def lu_ts():
    return load_taskset(data_path("tasksets", "automotive_lu.json"))


@pytest.fixture(scope="session")
def hu_ts():
    return load_taskset(data_path("tasksets", "automotive_hu.json"))


@pytest.fixture(scope="session")
def plants():
    names = ("esp", "ttc", "cc", "sc")
    return {n: load_plant(data_path("plants", f"{n}.json")) for n in names}


@pytest.fixture(scope="session")
def minimal_store(minimal_ts):
    """Exhaustive store over the minimal task set's period assignments."""
    from maars.taskmodel import enumerate_specs

    pool = []
    for spec in enumerate_specs(minimal_ts):
        pool.extend(enumerate_all(minimal_ts, spec))
    return build_store(pool, minimal_ts)


@pytest.fixture(scope="session")
def lu_static_store(lu_ts):
    """The store of `simulate --policy static` on automotive_lu: its
    fixed-priority schedule at minimum periods alone."""
    from maars.cli import _static_store

    return _static_store(lu_ts)
