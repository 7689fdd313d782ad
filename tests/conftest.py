import pytest
from hypothesis import settings

from heckelab.hecke import HeckePair, PairSpec
from heckelab.permgroup import symmetric_group
from heckelab.witness import search_witness

# Every property test draws the same examples on every run, each test its own
# fixed sequence, and keeps no example database; a test's own @settings
# (deadline, health checks) still apply, and its example count goes through
# `examples`.  `pytest --hypothesis-profile=explore` draws fresh examples on
# each run, ten times as many, with the local database and the reproduction
# blob of a failure; pin what it finds with @example.
_BUILTIN = settings.get_profile("default")
settings.register_profile("default", _BUILTIN, derandomize=True, database=None)
settings.register_profile("explore", _BUILTIN, print_blob=True)
settings.load_profile("default")

#: how many times its own example count a property test draws, per profile
EXAMPLE_FACTOR = {"default": 1, "explore": 10}


def examples(n: int) -> int:
    """A property test's example count `n`, scaled by the loaded profile."""
    return n * EXAMPLE_FACTOR.get(settings.get_current_profile_name(), 1)


#: (d, k, n) of every ball with at most 16 level points, k·d^(n-1) <= 16; the
#: radius-1 ball does not see d, so there d is 2 or 3
BALL_SHAPES = tuple((d, k, n) for n in range(1, 5) for d in range(2, 9) for k in range(2, 17)
                    if k * d ** (n - 1) <= 16 and (n > 1 or d <= 3))


@pytest.fixture(scope="session")
def flagship_pair() -> HeckePair:
    """(S_8, Q_3), built once per session."""
    return PairSpec.depth(2, 3).pair()


@pytest.fixture(scope="session")
def flagship_certificate(flagship_pair):
    """Default-seed witness certificate, searched once per session."""
    return search_witness(flagship_pair)


@pytest.fixture(scope="session")
def s4_d4_pair() -> HeckePair:
    from heckelab.permgroup import dihedral_square
    G = symmetric_group(4)
    return HeckePair(G, dihedral_square(), name="(S_4, D_4)")


@pytest.fixture(scope="session")
def s3_s2_pair() -> HeckePair:
    from heckelab.permgroup import PermGroup, Permutation
    G = symmetric_group(3)
    H = PermGroup(3, [Permutation.from_cycles(3, (0, 1))])
    return HeckePair(G, H, name="(S_3, S_2)")
