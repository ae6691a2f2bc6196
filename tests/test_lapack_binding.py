"""The solver's LAPACK routines, bound through ctypes from the OpenBLAS in
numpy's wheel, against `scipy.linalg.lapack`.  scipy's wheel carries its own
OpenBLAS build, so info values and pivots must match exactly and the floats
to round-off.  The symbol names are private to numpy's wheel, so a numpy
release that drops or renames them must fail here."""

import json
import os
import subprocess
import sys
from ctypes import CDLL, c_int64
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack as lapack
from numpy.fft import _pocketfft_umath

import scaperture
from scaperture import openblas
from scaperture.geometry import SolverError
from scaperture.solver import system as system_module


def bound_factor_and_solve(a, b):
    """The solver's sequence on `a`: 1-norm, LU, condition estimate, solve."""
    lu, x, piv = a.copy(order="F"), b.copy(), np.empty(len(a), np.int64)
    n, one, getrf_info, info = c_int64(len(a)), c_int64(1), c_int64(), c_int64()
    anorm = system_module._dlange(b"1", n, n, lu, n, None, 1)
    system_module._dgetrf(n, n, lu, n, piv, getrf_info)
    rcond = system_module._reciprocal_condition(lu, anorm)
    system_module._dgetrs(b"N", n, one, lu, n, piv, x, n, info, 1)
    return anorm, lu, piv - 1, getrf_info.value, rcond, x, info.value  # scipy's piv is 0-based


def scipy_factor_and_solve(a, b):
    anorm = lapack.dlange("1", a)
    lu, piv, getrf_info = lapack.dgetrf(a)
    rcond, rcond_info = lapack.dgecon(lu, anorm, norm="1")
    assert rcond_info == 0
    x, info = lapack.dgetrs(lu, piv, b)
    return anorm, lu, piv, getrf_info, rcond, x, info


def assert_close(mine, theirs):
    assert np.abs(mine - theirs).max() <= 1e-12 * np.abs(theirs).max()


def test_bound_routines_match_scipy_lapack():
    rng = np.random.default_rng(20211)
    a = np.asfortranarray(rng.standard_normal((200, 200)))
    assert not np.array_equal(a, a.T)
    b = rng.standard_normal(200)
    anorm, lu, piv, getrf_info, rcond, x, info = bound_factor_and_solve(a, b)
    theirs = scipy_factor_and_solve(a, b)
    assert getrf_info == theirs[3] == info == theirs[6] == 0
    assert np.array_equal(piv, theirs[2])
    for mine, ref in ((anorm, theirs[0]), (lu, theirs[1]), (rcond, theirs[4]), (x, theirs[5])):
        assert_close(mine, ref)
    assert np.isclose(anorm, np.abs(a).sum(axis=0).max(), rtol=1e-14, atol=0.0)
    assert 0.0 < rcond < 1.0
    assert np.allclose(a @ x, b, rtol=0.0, atol=1e-12)


def test_info_values_match_scipy_lapack():
    a = np.asfortranarray(np.random.default_rng(5).standard_normal((6, 6)))
    a[:, 3] = 0.0  # getrf meets an exact zero pivot in column 4
    n, info = c_int64(len(a)), c_int64()
    system_module._dgetrf(n, n, a.copy(order="F"), n, np.empty(len(a), np.int64), info)
    assert info.value == lapack.dgetrf(a)[2] == 4
    # a negative 1-norm is an illegal fifth argument to gecon
    lu = lapack.dgetrf(np.eye(3))[0]
    assert lapack.dgecon(lu, -1.0, norm="1")[1] == -5
    with pytest.raises(SolverError, match="gecon info -5"):
        system_module._reciprocal_condition(np.asfortranarray(lu), -1.0)


def test_missing_symbol_is_an_import_error_that_names_it():
    # numpy's FFT extension links no BLAS
    with pytest.raises(ImportError, match="scipy_dgetrf_64_"):
        openblas._routine("dgetrf", None, lib=CDLL(_pocketfft_umath.__file__))


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif(not Path("/proc/self/maps").exists() or _CPUS < 2,
                    reason="needs /proc/self/maps and 2 CPUs for a 2-thread pool")
def test_a_sweep_maps_one_openblas_and_threads_reach_it(tmp_path):
    # numpy loads first and starts a 2-thread pool; --threads 1 must still
    # size it, and the manifest must record what ran
    script = (
        "import json, sys\n"
        "from ctypes import CDLL\n"
        "from numpy._core import _multiarray_umath\n"
        "pool = CDLL(_multiarray_umath.__file__).scipy_openblas_get_num_threads64_\n"
        "before = pool()\n"
        "from scaperture.cli import main\n"
        "out = sys.argv[1]\n"
        "assert main(['sweep', '--preset', 'fig5c', '--grid', '20', '--threads', '1',\n"
        "             '--out', out]) == 0\n"
        "paths = {line.split()[-1] for line in open('/proc/self/maps') if '/' in line}\n"
        "print(json.dumps({'paths': sorted(paths), 'threads': [before, pool()]}))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=str(Path(scaperture.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path / "sweep")],
                         capture_output=True, text=True, env=env, timeout=300, check=True)
    report = json.loads(run.stdout.splitlines()[-1])
    names = [Path(path).name for path in report["paths"]]
    assert len([name for name in names if "openblas" in name]) == 1
    assert not [name for name in names if "_flapack" in name]
    assert report["threads"] == [2, 1]
    assert json.loads((tmp_path / "sweep" / "manifest.json").read_text())["threads"] == 1
