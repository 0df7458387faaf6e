"""Kernel backend selection.

Imports the compiled kernel when present, otherwise the pure-Python twin.
Set JONQ_PURE=1 to force the pure backend (used by the parity tests and
the backend benchmark).  Only `mul_packed` has a caller in the library;
`merge_linear`, `find_reducer` and `scale_terms` stay exported because
the benchmark's tracer wraps all four names and the tests use them as
references.
"""

import os

if os.environ.get("JONQ_PURE") == "1":
    from jonq._kernel import BACKEND, find_reducer, merge_linear, mul_packed, scale_terms
else:
    try:
        from jonq._kernel_c import (  # type: ignore[no-redef]
            BACKEND,
            find_reducer,
            merge_linear,
            mul_packed,
            scale_terms,
        )
    except ImportError:
        from jonq._kernel import (  # type: ignore[no-redef]
            BACKEND,
            find_reducer,
            merge_linear,
            mul_packed,
            scale_terms,
        )

__all__ = ["BACKEND", "merge_linear", "mul_packed", "find_reducer", "scale_terms"]
