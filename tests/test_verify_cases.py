"""Every case of every ``verify`` check, run as a test of its own.

The grids, seeds and tolerances live in ``betatails._verify`` only; this module
restates none of them. A failing case names its check and its arguments, e.g.
``ORACLE-EQUIVALENCE(98,2)``.
"""

import pytest

from betatails import _verify

CASES = [(name, check, case) for name, check in _verify.CHECKS for case in check.cases]


@pytest.mark.parametrize(
    "name,check,case", CASES,
    ids=[f"{name}({','.join(map(str, case))})" for name, _, case in CASES],
)
def test_case_holds(name, check, case):
    failure = check.holds(*case)
    assert failure is None, f"{name}: {failure}"
