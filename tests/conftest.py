import os
from pathlib import Path

import pytest
from hypothesis import settings

from cispectra import parse_polynomial

import helpers

# pyproject's pytest `pythonpath` puts src/ on this process's sys.path only;
# tests that start `python -m cispectra` need it in the environment too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def e2():
    return parse_polynomial(helpers.E2_POLY, 3, 4)


@pytest.fixture(scope="session")
def e2e3():
    return parse_polynomial(helpers.E2_E3_POLY, 3, 4)
