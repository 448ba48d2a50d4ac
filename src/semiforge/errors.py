"""What every layer shares and no layer owns: the exception base and the function-name rule.

Concrete errors live next to the code that raises them. This module
imports nothing of the package, so the sandbox and the LLM layer both
use it without loading each other.
"""

import keyword


class SemiforgeError(Exception):
    """Base class for every error this package raises on purpose."""


def is_function_name(value) -> bool:
    """True if ``value`` can name a function to call: an identifier that is no keyword."""
    return isinstance(value, str) and value.isidentifier() and not keyword.iskeyword(value)
