"""``Session`` validation, held to the predicate it replaced.

``Session.__init__`` converts each number once and validates it with
one chained comparison.  The oracle below is the earlier form, written
out check by check with ``math.isfinite``: over floats (NaN, ±inf, ±0,
subnormals, 1e308) and ints (large, but within float range), with
routes of one to four nodes with and without repeats, both must accept
the same arguments, refuse the rest with the same message, and store
the same values.  Arguments that are not numbers at all, which the
oracle met with a bare ``TypeError``, are a ``ConfigurationError``
naming the field.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.net.session import Session


def oracle(session_id, rate, route, *, l_max, l_min=None):
    """The check sequence ``Session`` had before: stored values or error."""
    if not math.isfinite(rate) or rate <= 0:
        raise ConfigurationError(
            f"session {session_id!r}: rate must be positive and "
            f"finite, got {rate}")
    if not route:
        raise ConfigurationError(
            f"session {session_id!r}: route must name at least one node")
    if len(set(route)) != len(route):
        raise ConfigurationError(
            f"session {session_id!r}: route visits a node twice: {route}")
    if not math.isfinite(l_max) or l_max <= 0:
        raise ConfigurationError(
            f"session {session_id!r}: l_max must be positive and "
            f"finite, got {l_max}")
    resolved_l_min = l_max if l_min is None else l_min
    if not math.isfinite(resolved_l_min) \
            or not 0 < resolved_l_min <= l_max:
        raise ConfigurationError(
            f"session {session_id!r}: need 0 < l_min <= l_max, got "
            f"l_min={resolved_l_min}, l_max={l_max}")
    return (float(rate), tuple(route), float(l_max),
            float(resolved_l_min))


_EDGES = [0, 0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308,
          -1e308, math.inf, -math.inf, math.nan, 1, 424, 2 ** 53,
          2 ** 53 + 1, float(2 ** 53), 10 ** 308, -10 ** 308, True]

numbers = st.one_of(
    st.floats(),  # NaN, ±inf, ±0 and subnormals included
    st.sampled_from(_EDGES),
    st.integers(min_value=-2 ** 64, max_value=2 ** 64),
    st.integers(min_value=-10 ** 308, max_value=10 ** 308))

routes = st.lists(st.sampled_from("abcd"), min_size=1, max_size=4)


def _outcome(build):
    try:
        return build()
    except ConfigurationError as error:
        return ConfigurationError, str(error)


def _stored(session: Session):
    return (session.rate, session.route, session.l_max, session.l_min)


def _same(left, right) -> bool:
    """Equal, with floats compared by type and bit pattern."""
    if isinstance(left, tuple) and isinstance(right, tuple):
        return len(left) == len(right) and all(
            _same(a, b) for a, b in zip(left, right))
    if isinstance(left, float) or isinstance(right, float):
        return type(left) is type(right) and \
            math.copysign(1.0, left) == math.copysign(1.0, right) and \
            (left == right or (left != left and right != right))
    return left == right


@settings(max_examples=400, deadline=None)
@given(rate=numbers, l_max=numbers, l_min=st.none() | numbers,
       route=routes, as_tuple=st.booleans())
# Two ints that round to one float: ordered as given, not as rounded.
@example(rate=1.0, l_max=2 ** 53, l_min=2 ** 53 + 1, route=["a"],
         as_tuple=False)
def test_accepts_exactly_what_the_oracle_accepts(rate, l_max, l_min, route,
                                                 as_tuple):
    if as_tuple:
        route = tuple(route)
    expected = _outcome(lambda: oracle("s", rate, route, l_max=l_max,
                                       l_min=l_min))
    got = _outcome(lambda: _stored(Session("s", rate, route, l_max=l_max,
                                           l_min=l_min)))
    assert _same(got, expected), (got, expected)
    if as_tuple and got[0] is not ConfigurationError:
        assert got[1] is route  # shared, not copied


@pytest.mark.parametrize("field, value", [
    ("rate", "fast"), ("rate", "1e3"), ("rate", None),
    ("rate", 10 ** 400), ("l_max", None), ("l_max", "424"),
    ("l_min", "x"), ("l_min", -10 ** 400), ("route", 5),
    ("route", [["n1"], ["n2"]])], ids=lambda value: repr(value)[:12])
def test_garbage_is_a_configuration_error_naming_the_field(field, value):
    spec = dict(rate=100.0, route=["n1", "n2"], l_max=424.0)
    spec[field] = value
    with pytest.raises(ConfigurationError,
                       match=rf"^session 'g': {field} must be "):
        Session("g", **spec)


@pytest.mark.parametrize("route", [None, [], (), ""])
def test_empty_route_keeps_its_message(route):
    with pytest.raises(ConfigurationError,
                       match="route must name at least one node$"):
        Session("e", 1.0, route, l_max=1.0)


def test_a_checked_field_is_reported_before_a_later_garbage_one():
    # Fields are checked in order: a bad rate is named even when
    # l_max is not a number at all.
    with pytest.raises(ConfigurationError, match="rate must be positive"):
        Session("o", -1.0, ["n1"], l_max=None)


_UNSET = object()


def _slots(session: Session):
    """Every slot's value, ``_UNSET`` where it was never stored."""
    return tuple(getattr(session, name, _UNSET) for name in Session.__slots__)


@settings(max_examples=300, deadline=None)
@given(ids=st.lists(st.text(max_size=3), min_size=1, max_size=3),
       rate=numbers, l_max=numbers, l_min=st.none() | numbers,
       route=routes, jitter_control=st.booleans(),
       token_bucket=st.none() | st.tuples(numbers, numbers),
       monitor_buffer=st.booleans(), lazy=st.booleans())
def test_a_population_is_its_sessions_built_one_by_one(
        ids, rate, l_max, l_min, route, jitter_control, token_bucket,
        monitor_buffer, lazy):
    options = dict(l_max=l_max, l_min=l_min, jitter_control=jitter_control,
                   token_bucket=token_bucket, monitor_buffer=monitor_buffer)
    expected = _outcome(lambda: Session(ids[0], rate, route, **options))
    got = _outcome(lambda: Session.population(
        iter(ids) if lazy else ids, rate, route, **options))
    if isinstance(expected, tuple):  # refused: the same message, once
        assert got == expected
        return
    assert type(got) is tuple and len(got) == len(ids)
    for session_id, member in zip(ids, got):
        alone = Session(session_id, rate, route, **options)
        # Slot by slot, so a slot ``__init__`` stores and ``population``
        # does not fails here.
        assert _same(_slots(member), _slots(alone)), (member, alone)
    assert len({id(member) for member in got}) == len(ids)


def test_no_ids_is_no_sessions():
    assert Session.population((), 1.0, ["a"], l_max=1.0) == ()
    assert Session.population(iter([]), 1.0, ["a"], l_max=1.0) == ()
