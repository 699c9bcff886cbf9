"""Routes that check each other share no evaluation code.

Each route runs under sys.setprofile on seeded inputs, one set per regime,
and records the hypersum functions it calls. For every pair of routes that
a verify suite, an acceptance criterion or the benchmark compares, the two
call sets may meet only in an explicit allowlist of argument checks and
result constructors.

sum_closed at X < 0 with c in {1, 2, 3} returns sum_special's own
_special_value. No suite, criterion or benchmark compares that pair, so it
is not checked here.
"""

import math
import random
import sys

import pytest

from hypersum import special, sums
from hypersum.branching import (
    ProgenyHalfLaw,
    ScaledSibuya,
    h_alpha_pgf,
    progeny_pgf_elementary,
    progeny_pgf_hypergeometric,
    progeny_pmf,
    progeny_pmf_bessel_oracle,
    progeny_pmf_range,
    progeny_pmf_series_coeffs,
)
from hypersum.special import EvalResult
from hypersum.sums import (
    ConvergenceVerdict,
    SumParams,
    convergence_check,
    sum_closed,
    sum_direct,
    sum_special,
)


def _calls(fn, *args, **kwargs):
    """The hypersum functions that fn(*args, **kwargs) calls, itself
    included, as a dict from code object to module and name."""
    seen = {}

    def record(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("hypersum."):
            seen[frame.f_code] = "%s.%s" % (module, frame.f_code.co_name)

    sys.setprofile(record)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return seen


def _codes(*fns):
    return {f.__code__ for f in fns}


def _assert_share_only(a, b, allowed, label):
    extra = (a.keys() & b.keys()) - allowed
    assert not extra, "%s share %s" % (label, sorted(a[code] for code in extra))


_RESULT = _codes(EvalResult.__init__, EvalResult.__post_init__)
_DIRECT_CLOSED = _RESULT | _codes(special._term_cap)


def _sum_inputs(seed, cs):
    """(eta, c, x) per regime, each inside the convergence region, c drawn
    from cs (a list) or, for None, from [0.3, 6): x < 0 with
    X = (x + eta)/(1 + eta) > 0, x = 0 and x > 0, and for a list of c also
    x < 0 with X < 0, which only the elementary forms reach."""
    rng = random.Random(seed)

    def c():
        return rng.choice(cs) if cs else rng.uniform(0.3, 6.0)

    out = []
    for _ in range(3):
        x = -rng.uniform(0.2, 0.9)
        out.append((rng.uniform(-x + 0.05, 1.5), c(), x))
        if cs:
            out.append((rng.uniform(math.sqrt(1.0 - x) - 0.95, -x), c(), x))
        out.append((rng.uniform(0.05, 3.0), c(), 0.0))
        x = rng.uniform(0.05, 0.9)
        out.append((math.sqrt(x) + rng.uniform(0.05, 2.0), c(), x))
    return out


class TestSumRoutes:
    def test_direct_and_closed(self):
        for t in _sum_inputs(41, None):
            p = SumParams(*t)
            d, cl = _calls(sum_direct, p), _calls(sum_closed, p)
            assert special._ladder.__code__ in d, t
            assert special.hyp2f1_half_one.__code__ in cl, t
            _assert_share_only(d, cl, _DIRECT_CLOSED, "sum_direct and sum_closed at %r" % (t,))

    def test_direct_with_fitted_tail_and_closed(self):
        # Term ratio about 1 - 1e-3: the sum reaches its cap of 10,000 and
        # fits its tail from the large-k profile.
        p = SumParams(0.501, 2.0, 0.25)
        d = _calls(sum_direct, p, max_terms=10_000)
        assert sums._fitted_tail.__code__ in d
        _assert_share_only(d, _calls(sum_closed, p), _DIRECT_CLOSED,
                           "sum_direct's fitted tail and sum_closed")

    def test_special_and_direct(self):
        allowed = _RESULT | _codes(convergence_check, ConvergenceVerdict.__init__)
        for t in _sum_inputs(43, [1.0, 2.0, 3.0]):
            p = SumParams(*t)
            sp, d = _calls(sum_special, p), _calls(sum_direct, p)
            _assert_share_only(sp, d, allowed, "sum_special and sum_direct at %r" % (t,))


def _pmf_routes(seed):
    """(label, call set) of each half-law pmf route on a seeded lambda: the
    ladder's point query up to ell = 151 (one seed column) and past it,
    its range, the Bessel oracle and the series coefficients."""
    rng = random.Random(seed)
    law = ProgenyHalfLaw(rng.uniform(0.2, 0.9))
    short, far = rng.randint(2, 151), rng.randint(152, 400)
    ladder = {**_calls(progeny_pmf, law, short), **_calls(progeny_pmf, law, far),
              **_calls(progeny_pmf_range, law, far)}
    assert special._seed_column.__code__ in ladder and special._ladder.__code__ in ladder
    oracle = {**_calls(progeny_pmf_bessel_oracle, law, short),
              **_calls(progeny_pmf_bessel_oracle, law, far)}
    series = _calls(progeny_pmf_series_coeffs, law, far)
    return [("the ladder pmf", ladder), ("the Bessel oracle", oracle),
            ("the series coefficients", series)]


class TestProgenyRoutes:
    @pytest.mark.parametrize("seed", [5, 6])
    def test_pmf_routes(self, seed):
        routes = _pmf_routes(seed)
        for i, (la, a) in enumerate(routes):
            for lb, b in routes[i + 1:]:
                _assert_share_only(a, b, _codes(special._whole), "%s and %s" % (la, lb))

    def test_pgf_routes(self):
        rng = random.Random(7)
        for _ in range(3):
            lam, z = rng.uniform(0.2, 0.9), rng.uniform(0.05, 0.95)
            law = ProgenyHalfLaw(lam)
            elem = _calls(progeny_pgf_elementary, law, z)
            _assert_share_only(elem, _calls(h_alpha_pgf, ScaledSibuya(0.5, lam), z), set(),
                               "progeny_pgf_elementary and h_alpha_pgf")
            _assert_share_only(elem, _calls(progeny_pgf_hypergeometric, law, z), set(),
                               "progeny_pgf_elementary and progeny_pgf_hypergeometric")
