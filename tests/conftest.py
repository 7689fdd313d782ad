import pytest

from heckelab.hecke import HeckePair, PairSpec
from heckelab.permgroup import symmetric_group
from heckelab.witness import search_witness


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
