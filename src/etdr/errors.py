"""Exception taxonomy. The CLI maps each class to a distinct exit code."""


class EtdrError(Exception):
    """Base class for all package errors."""


class ParameterError(EtdrError):
    """Parameter outside its supported domain (data size, epsilon, degree)."""


class KeyMaterialError(EtdrError):
    """Key material misuse: single-use violation, bad length, bad key file."""


class FrameError(EtdrError):
    """Wire bytes that do not parse as a valid frame."""


class ProtocolStateError(EtdrError):
    """Message or call that is illegal in the current protocol phase."""


class StoreIntegrityError(EtdrError):
    """Session store record failed its integrity check."""
