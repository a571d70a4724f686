"""The claims table's comparison at its edges: a measured value equal to a
bound passes, whichever the sense; the next double beyond it fails, and so
does NaN.  A claim's bounds on its details are held the same way."""
import math

import numpy as np
import pytest

from entropiclab.verdicts import CLAIMS, verdict

SCALE = 2.5
BEYOND = {"<=": math.inf, ">=": -math.inf}


def bounds():
    """(claim, key, sense, bound) of each bound of each claim: ``key`` is
    None for the measured value's, or the details key a further bound holds."""
    for claim in CLAIMS:
        bound = claim.bound * SCALE + claim.floor if claim.scale else claim.bound
        yield claim, None, claim.sense, bound
        for key, sense, bound in claim.also:
            yield claim, key, sense, bound


def passes(claim, key, value) -> bool:
    """Whether a verdict of ``claim`` passes with every value at its bound but
    ``key``'s (the measured value's when ``key`` is None), which is ``value``."""
    details = {other: (value if other == key else bound) for other, _, bound in claim.also}
    name = claim.criterion or claim.commands[0]
    scale = SCALE if claim.scale else None
    tolerance = verdict(name, 0.0, details, scale).tolerance
    return verdict(name, value if key is None else tolerance, details, scale).passed


@pytest.mark.parametrize("claim, key, sense, bound", [
    pytest.param(*entry, id=f"{entry[0].criterion or entry[0].commands[0]}-{entry[1]}")
    for entry in bounds()
])
def test_a_bound_holds_itself_and_nothing_beyond(claim, key, sense, bound):
    assert passes(claim, key, bound)
    assert not passes(claim, key, float(np.nextafter(bound, BEYOND[sense])))
    assert not passes(claim, key, math.nan)
