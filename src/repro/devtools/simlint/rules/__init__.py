"""simlint rule modules.

Importing this package registers every built-in rule.  To add a rule,
create a module here with a :class:`~repro.devtools.simlint.core.Rule`
subclass decorated with ``@register_rule``, and import it below.
"""

from __future__ import annotations

from . import (
    asyncio_,
    batching,
    executors,
    floats,
    printing,
    rng,
    spans,
    writes,
)

__all__ = [
    "asyncio_",
    "rng",
    "floats",
    "printing",
    "writes",
    "executors",
    "batching",
    "spans",
]
