"""Exceptions shared across the package."""

class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed a hard size bound.

    Analyzers and generators refuse oversized requests up front instead of
    thrashing; the CLI maps this to exit code 3.
    """


def check_limit(what: str, need, limit) -> None:
    """Raise ResourceLimitError unless need <= limit, which a NaN need never is."""
    if not need <= limit:
        need, limit = (f"{v:.6g}" if isinstance(v, float) else v for v in (need, limit))
        raise ResourceLimitError(f"{need} {what} exceed the limit of {limit}")
