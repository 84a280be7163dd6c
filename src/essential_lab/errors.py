"""Exception types shared across the library."""


class EssentialLabError(Exception):
    """Base class for all library errors."""


class DegenerateInput(EssentialLabError):
    """Input matrix does not satisfy the essential-matrix equations."""


class RankDeficient(EssentialLabError):
    """A 5x9 coefficient matrix has numerical rank below 5."""


class DegeneratePencil(EssentialLabError):
    """det(s*A + t*B) vanishes identically."""


class DomainError(EssentialLabError):
    """Argument outside the mathematical domain of a special function."""
