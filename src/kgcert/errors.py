"""Exception types shared across the package."""


class KgcertError(Exception):
    """Base class for all package errors."""


class OmegaViolation(KgcertError):
    """Parameter triple outside the admissible set (needs 1 <= r <= n, m >= 0)."""


class InvalidVertex(KgcertError):
    """Vertex is not a valid object of the model (orbit or coordinate out of range)."""


class NotComposable(KgcertError):
    """Morphism endpoints do not match."""


class InfiniteWindow(KgcertError):
    """An enumeration window must denote a finite set."""


class IncompatibleTops(KgcertError):
    """Functors in an exactness check must share the expected top vertices."""


class NotASubfunctor(KgcertError):
    """Claimed subfunctor containment fails."""


class ParameterRange(KgcertError, ValueError):
    """Lemma-instance parameters outside the stated range; also a ValueError."""


class MalformedModel(KgcertError, ValueError):
    """A fan entry or morphism the window engine cannot use (off its channels or degrees, a region
    that is not a box, no basis morphism); certify fails the item that meets one.  Also a ValueError."""


class WrongFamily(KgcertError):
    """Operation applied to a vertex family it does not accept."""


class ModeMismatch(KgcertError):
    """Operation only defined for the other global-dimension mode."""
