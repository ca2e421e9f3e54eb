"""Exception types shared across the package."""


class CishiftError(Exception):
    """Base class for all package-specific errors."""


class CapExceededError(CishiftError):
    """An input would exceed a cost cap: too many factorizations at one
    degree, a scan window past its budget, decider or split-enumeration
    input past its size or generator cap, a bitset past the semigroup
    module's mask cap (membership, witness search, Frobenius number, or the
    oracle's masks), or oracle closure work past its limit."""


class NotCompleteIntersectionError(CishiftError):
    """An operation required a complete-intersection base sequence."""


class InvalidCertificateError(CishiftError):
    """A certificate is malformed, or does not validate against the sequence
    it was given for.

    certificate_from_dict and certificate_from_json, in the certificates
    module, raise it for every structural defect of their input, bad or too
    deeply nested JSON included.
    """
