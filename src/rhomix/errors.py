"""Error types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented invariant or precondition.

    The message names the violated invariant; the CLI maps this to exit code 2.
    """


class CapExceededError(ValidationError):
    """A size cap (state count, alphabet, pool, search range) was exceeded."""


class IntegratorError(RuntimeError):
    """A numerical routine (an integrator, a matrix exponential or inverse, an SVD) failed
    or produced non-finite output."""
