"""Exception types shared across the package."""


class CishiftError(Exception):
    """Base class for all package-specific errors."""


class WindowTooLargeError(CishiftError):
    """A scan window exceeds the configured cost budget."""


class CapExceededError(CishiftError):
    """A degree has more factorizations than the configured cap."""


class BoundTooSmallError(CishiftError):
    """The oracle's degree bound failed its guard-window check."""


class NotCompleteIntersectionError(CishiftError):
    """An operation required a complete-intersection base sequence."""


class InvalidCertificateError(CishiftError):
    """A certificate is malformed, or does not validate against the sequence
    it was given for.

    certificate_from_dict and certificate_from_json raise it for every
    structural defect of their input, bad or too deeply nested JSON included.
    """
