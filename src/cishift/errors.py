"""Exception types shared across the package."""


class CishiftError(Exception):
    """Base class for all package-specific errors."""


class CapExceededError(CishiftError):
    """An input would exceed a cost cap: too many factorizations at one
    degree, decider input past its size or generator cap, or oracle or
    witness-search masks or closure work past their limits."""


class WindowTooLargeError(CapExceededError):
    """A scan window exceeds the configured cost budget."""


class NotCompleteIntersectionError(CishiftError):
    """An operation required a complete-intersection base sequence."""


class InvalidCertificateError(CishiftError):
    """A certificate is malformed, or does not validate against the sequence
    it was given for.

    certificate_from_dict and certificate_from_json raise it for every
    structural defect of their input, bad or too deeply nested JSON included.
    """
