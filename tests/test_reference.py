"""The closed-form gg and ee sums against a 50-digit reference written out here.

The reference builds the splitting amplitudes from exact binomials and the
transit from its Rabi angles, in mpmath, and shares no code with the
package: not ``binom_ladder``, which both engines read, nor the weight
table.  So it referees the ladder as well as the sums.
"""

import math

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")
from cvqubits.analytic import negativity_closed_form, xstate_series  # noqa: E402

DIGITS = 50
# fig3's time grid, and the times of its six smallest positive gg measures
# at s = 0.65, r = 0.99 (cutoff 20), where the measure is a small difference
FIG3_LTS = np.linspace(0.0, 15.0, 151)
NEAR_THRESHOLD = FIG3_LTS[[95, 33, 127, 93, 1, 64]].tolist()
POINTS = [(0.65, 0.99, 20, NEAR_THRESHOLD), (1.0, 0.7, 42, [0.5, 3.0, 7.3, 11.0])]


def reference(s, r, lt, n_max, initial):
    """(a, b, d, e_coh, measure) of the reduced atom state, at ``DIGITS`` digits.

    The squeezed vacuum puts tanh(s)^n / cosh(s) on |n, n>.  Of n photons,
    j stay in a cavity with amplitude sqrt(C(n, j)) t^j r^(n - j), t^2 =
    1 - r^2; the field is the sum over the escaped photons of those
    branches.  The populations sum over levels n the square of the level's
    weight times one factor per cavity; the corner pairs level n with level
    n - 1, one photon fewer in each cavity, and each cavity's emission
    carries -i.
    """
    s, r, lt = mp.mpf(s), mp.mpf(r), mp.mpf(lt)
    level = [mp.tanh(s) ** n / mp.cosh(s) for n in range(n_max + 1)]
    t = mp.sqrt(1 - r * r)

    def kept(n, j):
        return mp.sqrt(math.comb(n, j)) * t**j * r ** (n - j)

    # an atom meeting j photons turns at lambda_t sqrt(j) from |g> and at
    # lambda_t sqrt(j + 1) from |e>; it ends excited by flipping from |g> or
    # by staying in |e>
    turn = [lt * mp.sqrt(j + (initial == "ee")) for j in range(n_max + 1)]
    flip, stay = [mp.sin(x) for x in turn], [mp.cos(x) for x in turn]
    excited, ground = (flip, stay) if initial == "gg" else (stay, flip)
    a = b = d = e = mp.mpf(0)
    for n in range(n_max + 1):
        weight = [kept(n, j) ** 2 for j in range(n + 1)]
        up = mp.fsum(w * excited[j] ** 2 for j, w in enumerate(weight))
        down = mp.fsum(w * ground[j] ** 2 for j, w in enumerate(weight))
        a += level[n] ** 2 * up * up
        b += level[n] ** 2 * up * down
        d += level[n] ** 2 * down * down
        if n >= 1:
            # j photons kept at level n (the atoms end excited), j - 1 at n - 1 (ground)
            pair = mp.fsum(kept(n, j) * kept(n - 1, j - 1) * excited[j] * ground[j - 1] for j in range(1, n + 1))
            e -= level[n] * level[n - 1] * pair * pair
    # c = b by symmetry, so the measure is max(0, 2|e| - 2b)
    return a, b, d, e, max(mp.mpf(0), 2 * abs(e) - 2 * b)


@pytest.mark.parametrize("initial", ["gg", "ee"])
@pytest.mark.parametrize("s,r,n_max,lts", POINTS, ids=["fig3-near-threshold", "s1-r0.7"])
def test_closed_form_holds_13_digits_against_the_reference(s, r, n_max, lts, initial):
    x = xstate_series(s, r, lts, n_max, initial)
    got = np.stack((x.a, x.b, x.d, x.e_coh, negativity_closed_form(x)), axis=1)
    with mp.workdps(DIGITS):
        for lt, row in zip(lts, got.tolist()):
            ref = reference(s, r, lt, n_max, initial)
            if (s, initial) == (0.65, "gg"):
                assert ref[4] > 0, lt
            for name, value, exact in zip(("a", "b", "d", "e_coh", "measure"), row, ref):
                if exact == 0:  # a clamped measure is exactly zero on both sides
                    assert value == 0.0, (lt, name)
                else:
                    assert abs((mp.mpf(value) - exact) / exact) <= 1e-13, (lt, name, value, exact)
