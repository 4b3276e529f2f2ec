"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A parameter set or plan shape is internally inconsistent."""


class RepresentationError(RuntimeError):
    """A polynomial's limbs are not laid out as its object requires: a
    ciphertext is an (L, 2, N) stack of whole rows."""


class BasisMismatchError(ValueError):
    """Two operands live over different prime bases or levels."""


class ScaleMismatchError(ValueError):
    """Two operands carry incompatible scales for an additive op."""


class LevelExhaustedError(RuntimeError):
    """No prime is left to drop (rescale at level 0)."""


class MissingKeyError(KeyError):
    """A required evaluation key was not supplied."""


class SeedRangeError(ValueError):
    """A plaintext seed coefficient exceeds the centered q0 window."""


class SerializationError(RuntimeError):
    """A byte stream or fixture file failed to parse; carries the path."""

    def __init__(self, message: str, path: str | None = None):
        if path is not None:
            message = f"{message} (file: {path})"
        super().__init__(message)
        self.path = path
