"""Exception types shared across the package.

Mathematical "false" answers are returned as values, never raised; these
exceptions cover malformed input, unsatisfiable preconditions and resource
budgets.
"""


class GenpiError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(GenpiError):
    pass


class ParentMismatch(GenpiError):
    pass


class NotAssociative(GenpiError):
    def __init__(self, i, j, k):
        self.witness = (i, j, k)
        super().__init__(f"associativity fails on basis triple {(i, j, k)}")


class BadUnit(GenpiError):
    def __init__(self, i):
        self.witness = i
        super().__init__(f"unit axiom fails on basis element {i}")


class UnsupportedName(GenpiError):
    pass


class NotClosed(GenpiError):
    pass


class NotMultiplier(GenpiError):
    def __init__(self, index, witness):
        self.index = index
        self.witness = witness
        super().__init__(f"pair {index} is not a multiplier: fails {witness}")


class NotHomomorphism(GenpiError):
    def __init__(self, i, j):
        self.witness = (i, j)
        super().__init__(f"action map is not multiplicative on basis pair {(i, j)}")


class NotPermutable(GenpiError):
    def __init__(self, i, j):
        self.witness = (i, j)
        super().__init__(f"permutability fails on pair indices {(i, j)}")


class UnitMismatch(GenpiError):
    pass


class NotSplit(GenpiError):
    """A semisimple quotient has a block whose center is a proper field extension."""


class BasisMismatch(GenpiError):
    pass


class NotRational(GenpiError, TypeError):
    """A value that is not an exact rational (an int, a Fraction or a
    'p/q' string), such as a float."""


class UnknownOperation(GenpiError, ValueError):
    """An operation or predicate name that the dispatcher does not know."""


class BadDegree(GenpiError, ValueError):
    """A degree, or a generator or coefficient count, below 1 or not an
    integer; or a monomial whose coefficient slots are not one more than
    its degree."""


class NotPolynomial(GenpiError, TypeError):
    """A value given where a polynomial node (an element of the parsed
    syntax tree) is expected, or a resolved-word generator whose words are
    not tuples of nonzero integer symbols or whose coefficients are not
    integers or Fractions."""


class NotMultilinear(GenpiError, ValueError):
    """A generator or target of more than one multilinear component, or a
    word whose variables are not x1..xn once each."""


class BudgetExceeded(GenpiError):
    """A size refused before anything of that size is allocated.  Without
    itemsize: an evaluation matrix of rows x cols over the row budget
    (GENPI_MAX_ROWS) or the width guard.  With itemsize: rows x cols items
    of itemsize bytes, temporaries counted, over the byte cap budget
    (codim.STREAM_BYTES)."""

    def __init__(self, rows, cols, budget, itemsize=None):
        self.rows = rows
        self.cols = cols
        self.budget = budget
        if itemsize is None:
            message = f"evaluation matrix of {rows} rows x {cols} cols exceeds row budget {budget}"
        else:
            message = (f"{rows} x {cols} x {itemsize} bytes = {rows * cols * itemsize} bytes "
                       f"exceeds the byte cap STREAM_BYTES = {budget}")
        super().__init__(message)


class ParseError(GenpiError):
    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnknownCoefficient(GenpiError):
    pass


class InternalError(GenpiError):
    """Invariant violation that indicates a bug, not a user error."""
