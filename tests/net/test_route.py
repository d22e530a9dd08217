"""Unit tests for the paper's letter-coded routes."""

import pytest

from repro.errors import ConfigurationError
from repro.net.route import route_from_letters


def test_full_route():
    assert route_from_letters("a", "j") == ["n1", "n2", "n3", "n4", "n5"]


def test_one_hop_routes():
    assert route_from_letters("b", "g") == ["n2"]
    assert route_from_letters("e", "j") == ["n5"]


def test_partial_routes_match_paper():
    assert route_from_letters("a", "h") == ["n1", "n2", "n3"]
    assert route_from_letters("c", "j") == ["n3", "n4", "n5"]
    assert route_from_letters("d", "i") == ["n4"]


def test_backwards_route_rejected():
    with pytest.raises(ConfigurationError):
        route_from_letters("e", "f")


def test_unknown_letters_rejected():
    with pytest.raises(ConfigurationError):
        route_from_letters("z", "j")
    with pytest.raises(ConfigurationError):
        route_from_letters("a", "a")

