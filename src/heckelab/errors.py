"""Exception types shared across the package."""


class MalformedPermutationError(ValueError):
    """Input array is not a bijection of {0..m-1}."""


class DomainMismatchError(ValueError):
    """Permutations or groups act on different point sets."""


class ContainmentError(ValueError):
    """A claimed subgroup is not contained in the ambient group."""


class InvarianceError(ValueError):
    """An element or subgroup is not invariant under the required action."""


class ScaleError(ValueError):
    """A desk-scale cap was exceeded.

    The message names the violated cap so CLI users see which knob to lower.
    """


class PairMismatchError(ValueError):
    """Two algebra elements belong to different Hecke pairs or carriers."""


class LevelError(ValueError):
    """An almost automorphism does not stabilize the requested ball complement."""


class SearchFailureError(RuntimeError):
    """Witness search exhausted its budget.

    Attributes:
        best_score: smallest max-moment seen before giving up (None if no
            candidate was scored at all).
    """

    def __init__(self, message, best_score=None):
        super().__init__(message)
        self.best_score = best_score
