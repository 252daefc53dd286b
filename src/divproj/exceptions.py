"""Exception and warning types shared across the package, and its one warning call."""

import os
import sys
import warnings

_PACKAGE = os.path.dirname(__file__)


class DivprojError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(DivprojError):
    """Inputs have incompatible or invalid shapes."""


class InsufficientDataError(DivprojError):
    """Not enough observations to carry out the requested fit."""


class DegenerateDataError(DivprojError):
    """Input data is degenerate (empty, non-numeric, zero-variance, ...)."""


class SingularGramError(DivprojError):
    """A gram matrix that must be inverted is singular beyond repair."""


class DegenerateWeightsWarning(UserWarning):
    """Weight matrix is zero, collinear or otherwise rank deficient."""


class NumericalWarning(UserWarning):
    """A numerical fallback was taken (pseudo-inverse, eigenvalue floor, ...)."""


def _warn(message: str, category: type[Warning]) -> None:
    """Warn from the first stack frame outside the package, so the user's line is named.

    A frame's module file decides, not its code's: a dataclass-generated
    `__init__` has the file `<string>`, and `python -m divproj.cli` runs as
    `__main__`.  Under the `divproj` command the entry point is named; in a
    replication worker (`threads > 1`), a line of `concurrent.futures`.
    """
    frame, level = sys._getframe(1), 2  # level 2 names _warn's caller
    while frame is not None and os.path.dirname(frame.f_globals.get("__file__") or "") == _PACKAGE:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)
