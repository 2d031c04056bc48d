"""Backend equivalence: the compiled kernels must be bit-identical to the
pure-Python twins on every input, including the OverflowError handoff."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitring import _kernel_py, kernel

compiled = pytest.importorskip("unitring._kernel", reason="compiled kernel not built")

PRIMES = kernel.prime_table(10**4)


def normalize(fac_cof):
    fac, cof = fac_cof
    return [(int(p), int(e)) for p, e in fac], int(cof)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_trial_divide_equivalence(n):
    assert normalize(compiled.trial_divide(n, PRIMES)) == normalize(
        _kernel_py.trial_divide(n, PRIMES)
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=2, max_value=5))
def test_power_free_equivalence(n, m):
    assert compiled.power_free_part_known(n, m, PRIMES) == _kernel_py.power_free_part_known(
        n, m, PRIMES
    )


def test_compiled_overflow_falls_back():
    big = 1 << 70
    with pytest.raises(OverflowError):
        compiled.trial_divide(big, PRIMES)
    # The dispatcher must still answer.
    fac, cof = kernel.trial_divide(big, PRIMES)
    assert [(int(p), int(e)) for p, e in fac] == [(2, 70)]
    assert cof == 1
