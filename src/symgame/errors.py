"""Exception types shared across the package."""


class SymgameError(ValueError):
    """Base class for all package-specific errors."""


class ProtocolError(SymgameError):
    """A revision protocol produced an invalid (negative or non-finite) rate."""


class GridSizeError(SymgameError):
    """A requested state grid exceeds the configured enumeration limit."""


class ReducibleChainError(SymgameError):
    """The jump process is not irreducible; lists the communicating classes found."""

    def __init__(self, message, classes=None):
        super().__init__(message)
        self.classes = classes or []


class SolverError(SymgameError):
    """A stationary solve did not converge or failed its residual bound."""


class IntegrationDivergedError(SymgameError):
    """ODE integration left the admissible region; names the offending step."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class EmptySupportError(SymgameError):
    """Conditioning a product distribution left no admissible state."""


class ConfigError(SymgameError):
    """Configuration text failed validation; carries the full error list."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))
