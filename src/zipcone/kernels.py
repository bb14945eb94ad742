"""Backend selection for the window kernels.

The compiled module is preferred when importable; set ZIPCONE_PURE=1 to
force the pure-Python fallback.  The backend-parity tests import
`_kernels_py` directly and do not need it.
"""

from __future__ import annotations

import os

if os.environ.get("ZIPCONE_PURE") == "1":
    from . import _kernels_py as _impl

    BACKEND = "python"
else:
    try:
        from . import _ckernels as _impl  # type: ignore[attr-defined]

        BACKEND = "c"
    except ImportError:
        from . import _kernels_py as _impl

        BACKEND = "python"

compose = _impl.compose
invert = _impl.invert
mirror_defect = _impl.mirror_defect
length = _impl.length
bruhat_leq = _impl.bruhat_leq
rank_entry = _impl.rank_entry
admissible_pairs = _impl.admissible_pairs
