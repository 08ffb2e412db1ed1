"""Fixtures for every test under ``tests/``."""

import signal

import pytest


@pytest.fixture(autouse=True)
def time_limit():
    """A test that runs past 60 s fails instead of stalling the suite: a run
    forks helper processes on any machine with two or more CPUs, and a
    helper that never answers would otherwise block its parent for good."""

    def expire(signum, frame):
        raise TimeoutError("the test ran for more than 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def numerics_fingerprint() -> str:
    """What this machine's floating-point bytes depend on beyond the code:
    the NumPy version, the SIMD targets its kernels dispatch to on this CPU,
    the BLAS it was built against, and the core OpenBLAS picked at run time
    (when the library is found).  A golden hash holds only where this does."""

    import ctypes  # here, not above: only a failed golden assertion asks
    from pathlib import Path

    import numpy as np
    from numpy._core import _multiarray_umath as umath

    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = "not found"
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        library = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            corename = getattr(library, symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                core = corename().decode()
                break
    return (
        f"numpy {np.__version__}; dispatch {','.join(targets) or 'none'}; "
        f"blas {blas.get('name')} {blas.get('version')}; openblas core {core}"
    )
