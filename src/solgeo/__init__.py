"""Numerical toolkit for moving frames, zero-curvature residuals and
soliton field maps on regular grids."""

from solgeo.errors import ConstraintError, DomainError, NumericalError

__version__ = "0.1.0"

__all__ = ["ConstraintError", "DomainError", "NumericalError", "__version__"]
