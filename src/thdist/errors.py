"""Exception hierarchy shared across the workbench."""

from __future__ import annotations


class ThdistError(Exception):
    """Base class for all workbench errors."""


class FormulaSyntaxError(ThdistError):
    """Concrete-syntax error with a source position."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        super().__init__(f"{message} (at {line}:{column})" if line else message)


class LanguageError(ThdistError):
    """Ill-formed language, unknown symbol, arity or variable-bound violation."""


class VariableBudgetError(ThdistError):
    """A construction ran out of variables (substitution chains, psi, pairing)."""


class CapExceededError(ThdistError):
    """A semantic computation would exceed the desk-scale caps."""


class UnsupportedFragmentError(ThdistError):
    """Operation only defined on the sentential fragment was asked for more."""


class InconsistencyError(ThdistError):
    """Operation requires consistent input theories."""


class RemovalError(ThdistError):
    """No removal exists: tautologies cannot be unproven, non-theorems
    cannot be removed as theorems."""


class CatalogError(ThdistError):
    """Catalog file problem: parse error, dangling reference, policy violation."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        super().__init__(f"{message} (at {line}:{column})" if line else message)
