from fractions import Fraction
from pathlib import Path

import pytest

from ctm import Attribute, Substrate, cyclic_substrate

# the catalog's checks are plain asserts; rewritten, a failing one shows both sides
pytest.register_assert_rewrite("adversarial")

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


def prime_cycle_substrate(top):
    """One cycle c<q>_0 -> c<q>_1 -> ... -> c<q>_0 of length q per prime q <= top.

    The recurrence period, the lcm of the cycle lengths, is the product of
    the primes: about 6.5e9 for top = 29, so a walk bounded by it never
    ends in a test run.
    """
    primes = [q for q in range(2, top + 1) if all(q % d for d in range(2, q))]
    cycles = [tuple(f"c{q}_{i}" for i in range(q)) for q in primes]
    step = {c[i - 1]: c[i] for c in cycles for i in range(len(c))}
    return Substrate(f"primes{top}", [s for c in cycles for s in c], step)


# parameter values written as an int, a whole Fraction, a non-whole Fraction
# or a string, all distinct as numbers
MIXED_LAMBDAS = (3, Fraction(1), Fraction(1, 2), "3/2", 0, "4", Fraction(-7, 3), Fraction(10, 5))
# the same values and some outside them, in every form a lookup accepts
LAMBDA_PROBES = (*MIXED_LAMBDAS, 2.0, 0.5, "2/1", 1, "1/2", Fraction(4), 5, "5/2", -1.5)


def assert_same_value(a, b):
    """a and b are equal under ==, != and hash, either way round."""
    assert a == b and b == a
    assert not a != b and not b != a
    assert hash(a) == hash(b)


def assert_distinct(a, b):
    """a and b are unequal under == and !=, either way round."""
    assert a != b and b != a
    assert not a == b and not b == a


def assert_slotted(*objs):
    """Each object refuses an attribute its class does not declare."""
    for obj in objs:
        with pytest.raises(AttributeError):
            obj.undeclared = None
