"""Exception taxonomy shared by the algebra, model, and engine layers."""


class CompalgError(Exception):
    """Base class for all package errors."""


# -- algebra layer ------------------------------------------------------------

class AlgebraError(CompalgError):
    pass


class AlgebraMismatch(AlgebraError):
    """Arithmetic between amplitudes of different algebras."""


class NonScalarProduct(AlgebraError):
    """a * conj(a) has a nonzero imaginary component: broken product table."""


class NonScalarSum(AlgebraError):
    """a + conj(a) has a nonzero imaginary component: broken conjugation table."""


class NotInvertible(AlgebraError):
    """The quadratic form vanishes, so no multiplicative inverse exists."""


# -- model layer --------------------------------------------------------------

class ModelError(CompalgError):
    pass


class ChainMismatch(ModelError):
    """Junction measurement or result of the two paths disagrees."""


class CoarsenMismatch(ModelError):
    """Operands do not differ at exactly one interior step with disjoint results."""


class NotAFactor(ModelError):
    """The given path is not a prefix/suffix factor at an atomic junction."""


class NotRefinable(ModelError):
    """The refining path is not a sub-result of the coarse path at one step."""


class InsertMismatch(ModelError):
    """Insertion position or junction data is invalid."""


class GroundSetTooLarge(ModelError):
    pass


class TooManyPaths(ModelError):
    pass


class ImpossiblePathHasNoNormalForm(ModelError):
    pass


# -- probability engine --------------------------------------------------------

class EngineError(CompalgError):
    pass


class SequenceMismatch(EngineError):
    """The assignment does not cover a transition required by the sequence."""


class NonAssociativeAlgebra(EngineError):
    """Assignments require an associative algebra (octonion kinds rejected)."""


class NotADistribution(EngineError):
    """Path probabilities are negative or do not sum to one, the source is
    not a result of the first step, or a float sum rule or sample reads a
    matrix entry that is not finite."""
