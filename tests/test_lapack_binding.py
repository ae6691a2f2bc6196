"""The solver's LAPACK routines, loaded from scipy's `_flapack` extension by
path, against `scipy.linalg.lapack`.  The file's location is private to
scipy, so a scipy release that moves or changes it must fail here."""

import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack as lapack

from scaperture.solver import system as system_module


def factor_and_solve(lib, a, b):
    anorm = lib.dlange("1", a)
    lu, piv, info = lib.dgetrf(a.copy(order="F"), overwrite_a=1)
    rcond, rcond_info = lib.dgecon(lu, anorm, norm="1")
    x, solve_info = lib.dgetrs(lu, piv, b)
    return anorm, lu, piv, info, rcond, rcond_info, x, solve_info


def test_bound_routines_match_scipy_lapack_bit_for_bit():
    rng = np.random.default_rng(20211)
    a = np.asfortranarray(rng.standard_normal((12, 12)))
    assert not np.array_equal(a, a.T)
    b = rng.standard_normal(12)
    bound = factor_and_solve(system_module._flapack, a, b)
    scipys = factor_and_solve(lapack, a, b)
    assert Path(system_module._flapack.__file__) == Path(lapack._flapack.__file__)
    assert bound[3] == bound[5] == bound[7] == 0
    for mine, theirs in zip(bound, scipys):
        assert np.asarray(mine).dtype == np.asarray(theirs).dtype
        assert np.array_equal(mine, theirs)
    anorm, rcond, x = bound[0], bound[4], bound[6]
    assert np.isclose(anorm, np.abs(a).sum(axis=0).max(), rtol=1e-14, atol=0.0)
    assert 0.0 < rcond < 1.0
    assert np.allclose(a @ x, b, rtol=0.0, atol=1e-12)


def test_loader_names_the_file_it_did_not_find(tmp_path):
    (tmp_path / "_flapack.py").write_text("")  # not an extension module
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "_flapack*.so"))):
        system_module._load_flapack(tmp_path)
