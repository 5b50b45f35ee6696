"""Exception types shared across the package."""


class FFSpectraError(Exception):
    """Base class of the named errors in this module; the package also
    raises plain ValueError for some malformed arguments."""


class NonPrime(FFSpectraError):
    """The characteristic passed to a field constructor is not prime."""


class BadModulus(FFSpectraError, ValueError):
    """A modulus that is not monic of the extension degree."""


class ReducibleModulus(FFSpectraError):
    """The requested modulus polynomial factors over the prime field."""


class UnsupportedSize(FFSpectraError):
    """Field or table size outside the supported desk-scale range."""


class ZeroInverse(FFSpectraError, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class FieldMismatch(FFSpectraError):
    """Operands belong to fields with different parameters."""


class IndexOutOfRange(FFSpectraError, ValueError):
    """Element or point index outside [0, size)."""


class DimensionMismatch(FFSpectraError):
    """Vector operands have different lengths."""


class NotABasis(FFSpectraError):
    """The given vectors do not span the space over the prime field."""


class PrimeMismatch(FFSpectraError):
    """Cyclotomic operands live over different primes."""


class SpecDimensionMismatch(FFSpectraError):
    """A function specification is incompatible with the requested dimension."""


class BadExponent(FFSpectraError, ValueError):
    """A power-map exponent outside the supported range."""


class BadTableFile(FFSpectraError, ValueError):
    """A function table file is malformed."""


class TrivialCharacter(FFSpectraError):
    """The character scale u = 0 was passed where a nontrivial one is required."""


class EvenCharacteristic(FFSpectraError):
    """Operation requires odd characteristic."""


class EmptySet(FFSpectraError):
    """A point set with no members was passed where one is required."""


class HypothesisFailed(FFSpectraError):
    """A theorem check was invoked on input that violates its hypothesis;
    witness, when known, is the verdict object that shows the violation."""

    def __init__(self, message: str, witness=None) -> None:
        super().__init__(message)
        self.witness = witness


class NoOpPerturbation(FFSpectraError):
    """A perturbation that does not change the table was requested."""


class NotPlanarBase(HypothesisFailed):
    """The base table of a perturbation sweep is not planar."""


class NotPlanarEntry(HypothesisFailed):
    """A distance-matrix input failed planarity verification."""


class UnknownCatalogEntry(FFSpectraError, KeyError):
    """Catalog lookup for a name that is not registered."""


class PropertyMismatch(FFSpectraError):
    """A catalog function failed verification of its declared properties."""
