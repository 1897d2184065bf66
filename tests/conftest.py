"""Shared fixtures: the worked example families, cached enumerations and
random self-dual clutters beyond the enumerated range."""

import random

import pytest
from hypothesis import strategies as st

from clutters import Clutter, SetFamily, enumerate_self_dual
from clutters.sets import minimal_bitmap, star_bitmap, up_bitmap

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


@st.composite
def self_dual_clutters(draw, min_t=7, max_t=16):
    """Hypothesis strategy: a random self-dual clutter on E_t.

    A seeded random walk of the correspondence the enumeration searches:
    random candidate generators on E_(t-1) join the up-family F0 when the
    one-bit pair test passes (E_(t-1) - c not in F0 | c^v), and the clutter
    is the minimal members of F0 plus {S + {t} : S in star(F0)}. Each
    candidate is the union of two uniform subsets, which keeps the
    clutters at tens to a few hundred members, so Berge stays cheap.
    """
    t = draw(st.integers(min_t, max_t))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    s = t - 1
    full = (1 << s) - 1
    f0 = 0
    for _ in range(rng.randint(0, 40)):
        c = rng.randrange(1, 1 << s) | rng.randrange(1 << s)
        if f0 >> c & 1:
            continue
        grown = f0 | up_bitmap(1 << c, s)
        if not grown >> (full ^ c) & 1:
            f0 = grown
    up = f0 | star_bitmap(f0, s) << (1 << s)
    return Clutter.from_bitmap(t, minimal_bitmap(up, t))


def not_applicable(t):
    """The appendix labels whose parity guard excludes t."""
    out = {"odd_t_block", "odd_h_relation"} if t % 2 == 0 else {"eq24", "eq29", "eq9_block"}
    if t % 4:
        out |= {"eq27_block", "eq27_eq9_block"}
    if t < 3:
        out.add("odd_h_relation")
    return out


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
