"""Bit-identity of the pure-Python ``brentq`` port against scipy's.

:func:`repro.battery.kernels.brentq` ports scipy's C loop so that the
package imports without ``scipy.optimize``; these tests hold it to the
same float, the same exceptions and the same messages as
``scipy.optimize.brentq`` for as long as scipy is installed, and pin
every root-finding caller in the package to the scipy-backed result.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery import calibrate, diffusion, kibam
from repro.battery.kernels import brentq

scipy_optimize = pytest.importorskip("scipy.optimize")

#: Every tolerance setting the package's callers use, plus the default.
TOLERANCES = (
    {},
    {"xtol": 1e-12, "rtol": 8.9e-16},
    {"rtol": 1e-10},
    {"rtol": 1e-9},
)

#: Function families, each parametrized by a location ``c`` and a
#: scale ``p``: smooth, flat-near-the-root, saturating, oscillating,
#: underflowing (sign tests where ``f(a) * f(b)`` rounds to zero) and
#: a step (equal function values, the zero-divisor steps).
FAMILIES = (
    lambda c, p: lambda x: x**3 - c,
    lambda c, p: lambda x: math.exp(p * x) - c - 1.5,
    lambda c, p: lambda x: (x - c) ** 5 + 1e-3 * (x - c),
    lambda c, p: lambda x: math.tanh(p * (x - c)),
    lambda c, p: lambda x: math.sin(p * x) - 0.1 * c,
    lambda c, p: lambda x: (x - c) * 1e-300 * p,
    lambda c, p: lambda x: p if x > c else -1.0,
)


def outcome(solver, f, a, b, **kw):
    """``("ok", root.hex())`` or ``(exception type, message)``."""
    try:
        return ("ok", float(solver(f, a, b, **kw)).hex())
    except (ValueError, RuntimeError) as exc:
        return (type(exc).__name__, str(exc))


def assert_same(f, a, b, **kw):
    ours = outcome(brentq, f, a, b, **kw)
    assert ours == outcome(scipy_optimize.brentq, f, a, b, **kw)
    return ours


bracket = st.floats(min_value=-5.0, max_value=5.0)


@given(
    family=st.integers(0, len(FAMILIES) - 1),
    c=st.floats(min_value=-3.0, max_value=3.0),
    p=st.floats(min_value=0.1, max_value=5.0),
    a=bracket,
    b=bracket,
    tol=st.sampled_from(TOLERANCES),
)
@settings(max_examples=400, deadline=None)
def test_random_brackets_match_scipy(family, c, p, a, b, tol):
    assert_same(FAMILIES[family](c, p), a, b, **tol)


@given(
    family=st.integers(0, len(FAMILIES) - 1),
    c=st.floats(min_value=-3.0, max_value=3.0),
    a=st.floats(min_value=-5.0, max_value=-3.5),
    b=st.floats(min_value=3.5, max_value=5.0),
    maxiter=st.integers(0, 6),
)
@settings(max_examples=150, deadline=None)
def test_small_maxiter_matches_scipy(family, c, a, b, maxiter):
    assert_same(FAMILIES[family](c, 1.0), a, b, maxiter=maxiter)


def test_maxiter_exhaustion_raises_runtime_error():
    kind, message = assert_same(lambda x: x**3 - 2.0, 0.0, 5.0, maxiter=3)
    assert kind == "RuntimeError"
    assert "3 iterations" in message


class TestErrors:
    def test_same_signs(self):
        assert assert_same(lambda x: x + 1.0, 0.0, 5.0)[0] == "ValueError"

    def test_nan_value(self):
        kind, message = assert_same(lambda x: math.nan, 0.0, 5.0)
        assert kind == "ValueError"
        assert "NaN" in message

    def test_nan_value_mid_search(self):
        f = lambda x: math.nan if 0.5 < x < 4.5 else x - 2.0
        assert assert_same(f, 0.0, 5.0)[0] == "ValueError"

    @pytest.mark.parametrize("xtol", [0.0, -1e-12])
    def test_xtol_not_positive(self, xtol):
        kind, message = assert_same(lambda x: x - 1.0, 0.0, 5.0, xtol=xtol)
        assert (kind, "xtol too small" in message) == ("ValueError", True)

    def test_rtol_below_four_eps(self):
        kind, message = assert_same(lambda x: x - 1.0, 0.0, 5.0, rtol=1e-16)
        assert (kind, "rtol too small" in message) == ("ValueError", True)

    def test_negative_maxiter(self):
        f = lambda x: x - 1.0
        assert assert_same(f, 0.0, 5.0, maxiter=-1)[0] == "ValueError"

    @pytest.mark.parametrize("a,b", [(1.0, 5.0), (0.0, 1.0)])
    def test_exact_zero_at_an_endpoint_is_returned(self, a, b):
        assert assert_same(lambda x: x - 1.0, a, b) == ("ok", (1.0).hex())


@pytest.fixture
def scipy_backed(monkeypatch):
    """Swap every package caller's ``brentq`` for scipy's."""

    def swap():
        for module in (calibrate, diffusion, kibam):
            monkeypatch.setattr(module, "brentq", scipy_optimize.brentq)

    return swap


def _fitted(cell):
    return tuple(
        float(v).hex()
        for v in vars(cell).values()
        if isinstance(v, float)
    )


@pytest.mark.parametrize(
    "fit",
    [
        lambda: calibrate.calibrate_kibam(),
        lambda: calibrate.calibrate_kibam(
            7200.0, c=0.6, anchor_current=2.0, anchor_delivered=5760.0
        ),
        lambda: calibrate.calibrate_diffusion(),
        lambda: calibrate.calibrate_diffusion(
            7200.0, anchor_current=2.0, anchor_delivered=5760.0, terms=10
        ),
        lambda: calibrate.calibrate_kibam_two_anchors(),
    ],
    ids=["kibam", "kibam-anchor", "diffusion", "diffusion-anchor", "two"],
)
def test_calibration_matches_scipy_backed(fit, scipy_backed):
    ours = _fitted(fit())
    assert ours
    scipy_backed()
    assert _fitted(fit()) == ours


@pytest.mark.parametrize("current", [0.45, 1.25, 2.0, 5.0])
@pytest.mark.parametrize("make", ["kibam", "diffusion"])
def test_first_death_matches_scipy_backed(make, current, scipy_backed):
    cell = {
        "kibam": calibrate.calibrate_kibam,
        "diffusion": calibrate.calibrate_diffusion,
    }[make]()
    # Half a constant-current lifetime in, a segment as long as the
    # whole lifetime dies near its middle.
    life = cell.lifetime_constant(current).lifetime
    state, died = cell.advance(cell.fresh_state(), current, life / 2)
    assert died is None
    ours = cell._first_death(state, current, life)
    assert ours is not None and 0.0 < ours < life
    scipy_backed()
    assert float(cell._first_death(state, current, life)).hex() == (
        float(ours).hex()
    )
