"""Exception types shared across the package."""


class K3FMError(Exception):
    """Base class for every error raised by this package."""


class InvalidLevel(K3FMError, ValueError):
    """s is not an exact divisor of d."""


class InvalidDeterminant(K3FMError, ValueError):
    """Quintuple violates the determinant-one identity."""


class LevelMismatch(K3FMError, ValueError):
    """Operands carry different levels d; mixing levels is never coerced."""


class InternalClosureViolation(K3FMError, RuntimeError):
    """A divisibility guaranteed by the coset algebra failed; this is a bug
    trap, never a consequence of valid input."""


class NotAnIsometry(K3FMError, ValueError):
    """Matrix does not preserve the Gram form."""


class NotIntegral(K3FMError, ValueError):
    """A 3x3 wire entry is a rational that is not an integer; lattice
    matrices hold only integers."""


class ActionNotDiagonal(K3FMError, ValueError):
    """Matrix does not act on the discriminant group by a unit; indicates a
    non-isometry input."""


class NotInImage(K3FMError, ValueError):
    """Matrix entry pattern is inconsistent with every Atkin-Lehner coset."""


class EndpointMismatch(K3FMError, ValueError):
    """Transforms are not composable or endpoints contradict the coset."""


class NumericalPole(K3FMError, ArithmeticError):
    """Floating-point evaluation degenerated (pole or lost projectivity), or
    a point or its image is not in the upper half plane."""


class ZeroRank(K3FMError, ValueError):
    """Rank-zero transforms act by translation; the fractional-linear
    formula does not apply."""
