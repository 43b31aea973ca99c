import pytest

from conclose import parse_instance

# Five-element worked instance used throughout the suite: three rules tie
# elements 1-3 together, element 4 forces 1, and three conflict edges cut
# the top of the lattice off.
DEMO_TEXT = """\
elements: 1 2 3 4 5
imp: 1 3 -> 2
imp: 1 2 -> 3
imp: 2 3 -> 1
imp: 4 -> 1
edge: 3 4
edge: 2 4
edge: 2 5
"""

# One base listed in two element orders: z has a 21-element minimal
# generator, past the exhaustive limit of the independence check, and
# {a b}, a minimal generator of x, is not independent.
_WIDE = " ".join(f"e{i}" for i in range(21))
WIDE_BESIDE_A_FAILURE = tuple(
    f"elements: {elements}\nimp: {_WIDE} -> z\nimp: a -> c\nimp: b -> c\nimp: a b -> x\n"
    for elements in (f"{_WIDE} z a b c x", f"a b c x {_WIDE} z")
)


@pytest.fixture(scope="session")
def demo():
    return parse_instance(DEMO_TEXT)


@pytest.fixture(scope="session")
def demo_base(demo):
    return demo[0]


@pytest.fixture(scope="session")
def demo_graph(demo):
    return demo[1]
