"""Shared fixtures: the worked example families and cached enumerations."""

import pytest
from hypothesis import strategies as st

from clutters import Clutter, SetFamily, enumerate_self_dual

# the three self-dual clutters used throughout: a triangle of 2-sets,
# a single singleton, and the 5-element cone-over-square clutter
TRIANGLE = ((1, 2), (1, 3), (2, 3))
SINGLETON2 = ((2,),)
CONE5 = ((1, 2, 3, 4), (1, 5), (2, 5), (3, 5), (4, 5))

# up-family of CONE5 on E_5, all sixteen members
CONE5_UPSET = (
    (1, 5), (2, 5), (3, 5), (4, 5),
    (1, 2, 5), (1, 3, 5), (1, 4, 5), (2, 3, 5), (2, 4, 5), (3, 4, 5),
    (1, 2, 3, 4),
    (1, 2, 3, 5), (1, 2, 4, 5), (1, 3, 4, 5), (2, 3, 4, 5),
    (1, 2, 3, 4, 5),
)

# the 8-face star-self-dual complex on E_4 with facets {12},{13},{23},{4}
COMPLEX_T4 = ((), (1,), (2,), (3,), (4,), (1, 2), (1, 3), (2, 3))
# the simplex on {2,3,4} inside E_4
SIMPLEX_T4 = ((), (2,), (3,), (4,), (2, 3), (2, 4), (3, 4), (2, 3, 4))


@st.composite
def families(draw, max_t=8):
    """Hypothesis strategy: (t, members) of a random family on E_t."""
    t = draw(st.integers(1, max_t))
    members = draw(st.sets(st.integers(0, (1 << t) - 1), max_size=min(1 << t, 48)))
    return t, tuple(sorted(members))


def clutter(t, sets):
    return Clutter.from_sets(t, sets)


def family(t, sets):
    return SetFamily.from_sets(t, sets)


@pytest.fixture(scope="session")
def enum4():
    return enumerate_self_dual(4)


@pytest.fixture(scope="session")
def enum5():
    return enumerate_self_dual(5)


@pytest.fixture(scope="session")
def enum6():
    return enumerate_self_dual(6)
