"""numpy's OpenBLAS: the solver's LAPACK routines and the thread pool they share.

numpy >= 2 wheels bundle an ILP64 OpenBLAS, which numpy's core extension
links: one BLAS and one thread pool per process.
"""

from ctypes import CDLL

from numpy._core import _multiarray_umath

from scaperture.geometry import ConfigurationError

_lib = CDLL(_multiarray_umath.__file__)


def _routine(name: str, restype, *argtypes, lib=_lib):
    """LAPACK routine `name` of `lib`, by default numpy's OpenBLAS, typed."""
    symbol = f"scipy_{name}_64_"
    try:
        routine = getattr(lib, symbol)
    except AttributeError:
        raise ImportError(f"{lib._name} resolves no LAPACK symbol {symbol}") from None
    routine.restype, routine.argtypes = restype, argtypes
    return routine


def set_threads(count: int) -> None:
    """Size the thread pool of numpy's OpenBLAS to `count` threads from its
    next call on, however long ago numpy was loaded. A count the pool does not
    take (ctypes wraps it as a C int, OpenBLAS caps it) leaves the pool as it was."""
    previous = _lib.scipy_openblas_get_num_threads64_()
    _lib.scipy_openblas_set_num_threads64_(count)
    taken = _lib.scipy_openblas_get_num_threads64_()
    if taken != count:
        _lib.scipy_openblas_set_num_threads64_(previous)
        raise ConfigurationError(f"thread count {count} is out of range: the pool took {taken}")
