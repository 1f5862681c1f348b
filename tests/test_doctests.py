import doctest

import pytest

import coxsort.coxeter
import coxsort.fibermap
import coxsort.hecke
import coxsort.homology
import coxsort.subword
import coxsort.totalpos


@pytest.mark.parametrize("module", [
    coxsort.coxeter,
    coxsort.fibermap,
    coxsort.hecke,
    coxsort.homology,
    coxsort.subword,
    coxsort.totalpos,
], ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
