"""Hecke algebras of finite permutation-group pairs, rooted-tree
automorphism towers, and commutator-moment decay certificates.

The namespace is lazy (PEP 562): a name below imports its layer on first use.
"""

from importlib import import_module

_LAYERS = {
    "permgroup": "CosetIndex DoubleCosetTable PermGroup Permutation r_index symmetric_group",
    "treefam": "TreeShape ball_aut_group closed_form_order q_group wreath_group",
    "hecke": "GelfandReport HeckeElement HeckePair PairSpec",
    "embed": "SCENARIOS WreathScenario check_commutation embed_invariant embed_top "
             "scenario_report",
    "witness": "SpectralData WitnessCertificate decay_table fejer_coefficients "
               "haar_convergence_check moment_table search_witness "
               "unitary_from_selfadjoint verify_certificate",
    "spheromorph": "AlmostAutomorphism canonical_form compose double_coset_key inverse "
                   "is_in_level_subgroup",
}
_EXPORTS = {name: layer for layer, names in _LAYERS.items() for name in names.split()}
__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted([*globals(), *_EXPORTS])
