from fractions import Fraction
from pathlib import Path

import pytest

from ctm import Attribute, cyclic_substrate

REPO_ROOT = Path(__file__).resolve().parent.parent
MODELS_DIR = REPO_ROOT / "models"


@pytest.fixture(scope="session")
def models_dir() -> Path:
    return MODELS_DIR


@pytest.fixture()
def counter16():
    """Bare 16-state increment substrate (no timer attributes)."""
    return cyclic_substrate("c16", tuple(range(16)))


def singleton(substrate, state, name=""):
    return Attribute(substrate, frozenset({state}), name=name or str(state))


# parameter values written as an int, a whole Fraction, a non-whole Fraction
# or a string, all distinct as numbers
MIXED_LAMBDAS = (3, Fraction(1), Fraction(1, 2), "3/2", 0, "4", Fraction(-7, 3), Fraction(10, 5))
# the same values and some outside them, in every form a lookup accepts
LAMBDA_PROBES = (*MIXED_LAMBDAS, 2.0, 0.5, "2/1", 1, "1/2", Fraction(4), 5, "5/2", -1.5)
