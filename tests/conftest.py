import sys
from pathlib import Path

import pytest
from hypothesis import settings

# property tests draw the same examples on every run and keep no example
# database, so the suite's result does not depend on earlier runs
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

sys.path.insert(0, str(Path(__file__).parent))

from knesergeom import KneserParams, kneser_graph
from knesergeom.graphs import complete_tensor


@pytest.fixture(scope="session")
def petersen():
    return kneser_graph(KneserParams(5, 2))


@pytest.fixture(scope="session")
def desargues(petersen):
    return complete_tensor(petersen, 2)
