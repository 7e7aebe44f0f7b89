"""Unit tests for the .pnet text format."""

import io
import random

import pytest
from hypothesis import given, settings
from net_strategies import small_nets

from repro.petri import Marking, PetriNet, PetriNetError
from repro.petri.generators import figure1_net, figure4_net, muller
from repro.petri.parser import ParseError, dumps, load, loads, save


class TestRoundtrip:
    @pytest.mark.parametrize("factory", [figure1_net, figure4_net,
                                         lambda: muller(3)])
    def test_roundtrip_preserves_structure(self, factory):
        net = factory()
        copy = loads(dumps(net))
        assert copy.name == net.name
        assert copy.places == net.places
        assert copy.transitions == net.transitions
        assert set(copy.arcs()) == set(net.arcs())
        assert copy.initial_marking == net.initial_marking

    def test_file_roundtrip(self, tmp_path):
        net = figure1_net()
        path = tmp_path / "fig1.pnet"
        save(net, path)
        assert load(path).places == net.places

    def test_stream_load(self):
        net = load(io.StringIO(dumps(figure1_net())))
        assert net.name == "figure1"


class TestParsing:
    def test_comments_and_blank_lines(self):
        net = loads("""
        # a comment
        net demo
        place a 1   # trailing comment
        place b
        transition t
        arc a t
        arc t b
        """)
        assert net.name == "demo"
        assert net.initial_marking == Marking(["a"])

    def test_multi_token_place(self):
        net = loads("net x\nplace a 3\n")
        assert net.initial_marking == Marking({"a": 3})

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            loads("frobnicate a b\n")

    def test_bad_arc(self):
        with pytest.raises(ParseError):
            loads("net x\nplace a\narc a\n")

    def test_bad_tokens(self):
        with pytest.raises(ParseError):
            loads("net x\nplace a lots\n")

    def test_duplicate_net_directive(self):
        with pytest.raises(ParseError):
            loads("net x\nnet y\n")

    def test_arc_between_places_rejected(self):
        with pytest.raises(ParseError):
            loads("net x\nplace a\nplace b\narc a b\n")

    def test_error_reports_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            loads("net x\nplace a\nbogus\n")


# ---------------------------------------------------------------------------
# Every net PetriNet accepts survives loads(dumps(net))

@settings(max_examples=150, deadline=None)
@given(net=small_nets())
def test_loads_dumps_reproduces_every_accepted_net(net):
    copy = loads(dumps(net))
    assert copy.name == net.name
    assert copy.places == net.places
    assert copy.transitions == net.transitions
    assert set(copy.arcs()) == set(net.arcs())
    assert copy.initial_marking == net.initial_marking


class TestUnportableNames:
    """Names ``.pnet`` cannot carry are refused when the net is built,
    not when a worker process fails to parse the net's text."""

    def test_net_name_with_whitespace(self):
        with pytest.raises(PetriNetError, match="'figure one'"):
            PetriNet("figure one")
        net = figure1_net()
        with pytest.raises(PetriNetError, match="'figure one'"):
            net.name = "figure one"
        assert net.name == "figure1"

    def test_place_names_with_hash(self):
        net = PetriNet("hashes")
        with pytest.raises(PetriNetError, match="'p#1'"):
            net.add_place("p#1", 1)
        assert net.places == ()

    @pytest.mark.parametrize("name", ["", "a b", "t\n", "x\u2028y", "#"])
    def test_transition_names(self, name):
        with pytest.raises(PetriNetError, match="whitespace or '#'"):
            PetriNet("n").add_transition(name)


# ---------------------------------------------------------------------------
# Malformed input raises ParseError and nothing else

_FUZZ_PIECES = ["net", "place", "transition", "arc", "p", "t", "q", "0",
                "1", "-1", "2", "x1", "#", " ", "\t", "\n", "\r\n",
                "\x0c", "\u2028", "\x85", "\u00df", "\u00e9", "'", "+3",
                "1_0", "9" * 40, "frobnicate"]


def _mutations(rng, text):
    for _ in range(rng.randint(1, 4)):
        pos = rng.randint(0, len(text))
        kind = rng.random()
        if kind < 0.4:
            text = text[:pos] + rng.choice(_FUZZ_PIECES) + text[pos:]
        elif kind < 0.7:
            text = text[:pos] + text[pos + rng.randint(1, 6):]
        else:
            lines = text.splitlines(keepends=True) or [""]
            rng.shuffle(lines)
            text = "".join(lines)
    return text


def test_malformed_pnet_fuzz_raises_only_parse_error():
    rng = random.Random(20)
    seeds = [dumps(figure1_net()), dumps(muller(2)),
             "net x\nplace a 1\ntransition t\narc a t\n"]
    outcomes = {"parsed": 0, "refused": 0}
    for _ in range(2000):
        text = _mutations(rng, rng.choice(seeds))
        try:
            net = loads(text)
        except ParseError:
            outcomes["refused"] += 1
            continue
        outcomes["parsed"] += 1
        # Whatever parses is a net .pnet can carry.
        assert dumps(loads(dumps(net))) == dumps(net)
    assert outcomes["parsed"] and outcomes["refused"]
