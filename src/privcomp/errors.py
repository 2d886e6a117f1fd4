"""Exception types shared across the package.

The CLI maps these onto process exit codes: UsageError -> 2,
ResourceLimitError (and the interpreter's RecursionError and MemoryError) -> 3,
everything that signals a failed verification -> 1.
"""


class UsageError(ValueError):
    """Invalid parameters, inconsistent candidates or codes, or unparsable input."""


class ResourceLimitError(RuntimeError):
    """An enumeration or memory cap would be exceeded."""


class DegenerateInstanceError(ValueError):
    """No information to retrieve (e.g. every candidate is constant)."""


class ProtocolError(RuntimeError):
    """A query plan or answer set violates the protocol structure."""


class CodecError(RuntimeError):
    """A codeword is malformed (corrupted header or out-of-range rank)."""
