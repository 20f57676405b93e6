"""One BLAS thread per ``repro`` process.

numpy's bundled OpenBLAS starts one thread per core in every process.  A
``repro`` campaign already runs one process per worker, and the learner's
GEMMs (at most a few hundred rows by a few hundred columns) are too small to
gain from a second thread: on a 2-core host two default-threaded workers
spend most of their time spinning against each other.  ``import repro``
therefore calls :func:`budget_threads` before anything else, which sets the
library to one thread unless the user chose a count with
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``.

The library is found without importing numpy, which would cost ``import
repro`` (and so ``repro serve``) about 190 ms against about 5 ms for loading
the library on a 2-core host: :func:`importlib.util.find_spec` locates the
installed numpy package on disk without running it, and numpy's wheel
bundles OpenBLAS in the sibling ``numpy.libs`` directory.  Loading that file through :mod:`ctypes` maps the
same library numpy links against later (the dynamic linker matches it by
name), so the count set here is the one numpy's GEMMs run with.  The count is
set through the library's exported setter, so it holds whether numpy is
imported before or after, and forked children (drainers, watchdog children)
inherit it.  Results do not depend on it: OpenBLAS splits a GEMM
across threads by rows and columns, never along the summed dimension (a test
holds a 2-worker campaign's ``results.json`` to that).  A numpy built
against another
BLAS is left alone, and :func:`blas_threads` reports ``None`` for it.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import os
from typing import Any, Optional

#: Environment variables through which a user picks the thread count.
USER_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

_SETTER = "scipy_openblas_set_num_threads64_"
_GETTER = "scipy_openblas_get_num_threads64_"

_library: Any = None
_searched = False


def _openblas() -> Any:
    """numpy's bundled OpenBLAS (ctypes handle), or ``None`` if absent."""
    global _library, _searched
    if not _searched:
        _searched = True
        spec = importlib.util.find_spec("numpy")
        if spec is None or spec.origin is None:
            return None
        pattern = os.path.join(os.path.dirname(os.path.dirname(spec.origin)),
                               "numpy.libs", "*openblas*.so*")
        for path in sorted(glob.glob(pattern)):
            try:
                library = ctypes.CDLL(path)
            except OSError:
                continue
            if hasattr(library, _SETTER) and hasattr(library, _GETTER):
                getattr(library, _SETTER).argtypes = [ctypes.c_int]
                getattr(library, _SETTER).restype = None
                getattr(library, _GETTER).argtypes = []
                getattr(library, _GETTER).restype = ctypes.c_int
                _library = library
                break
    return _library


def blas_threads() -> Optional[int]:
    """The effective OpenBLAS thread count (``None`` without the bundled library)."""
    library = _openblas()
    return None if library is None else int(getattr(library, _GETTER)())


def budget_threads() -> None:
    """Run OpenBLAS on one thread unless the user set a count."""
    if any(os.environ.get(name) for name in USER_VARIABLES):
        return
    library = _openblas()
    if library is not None:
        getattr(library, _SETTER)(1)
