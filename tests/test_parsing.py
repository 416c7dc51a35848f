import json
import random
import string
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tradefolio.agents.parsing import (
    extract_json_object,
    parse_allocation_response,
    render_allocation_response,
)
from tradefolio.domain import AllocationVector, MarketSpec
from tradefolio.errors import (
    AllocationError,
    NoObjectFound,
    ParseError,
    SchemaMismatch,
    SumOutOfBand,
    UnknownAsset,
)

SPEC = MarketSpec.stock(("AAPL", "MSFT", "NVDA"))

GOOD = '{"reasoning": "spread it", "allocations": {"AAPL": 0.5, "CASH": 0.5}}'


# prose made of the characters that open, close or quote a JSON object
PROSE = st.text(alphabet='{}"\\\':,a \n', max_size=12)


def wrap(text: str) -> str:
    return f"Sure! Here is my decision:\n```json\n{text}\n```\nGood luck."


class TestExtraction:
    def test_bare_object(self):
        obj = extract_json_object(GOOD)
        assert obj["allocations"]["AAPL"] == 0.5

    def test_code_fence_and_prose(self):
        obj = extract_json_object(wrap(GOOD))
        assert obj["reasoning"] == "spread it"

    def test_prefers_span_with_allocations_key(self):
        text = '{"note": "ignore me"} then ' + GOOD
        obj = extract_json_object(text)
        assert "allocations" in obj

    def test_falls_back_to_any_object(self):
        obj = extract_json_object('noise {"reasoning": "x"} noise')
        assert obj == {"reasoning": "x"}

    def test_nested_object_resolves_to_widest(self):
        text = 'prefix {"reasoning": "r", "allocations": {"CASH": 1.0}} suffix'
        obj = extract_json_object(text)
        assert obj["allocations"] == {"CASH": 1.0}

    def test_braces_inside_strings_do_not_confuse_the_scanner(self):
        tricky = '{"reasoning": "weights {like} this \\" brace }", "allocations": {"CASH": 1.0}}'
        obj = extract_json_object(tricky)
        assert obj["allocations"] == {"CASH": 1.0}
        assert extract_json_object(wrap(tricky)) == obj  # found by the scanner, not whole

    def test_no_braces(self):
        with pytest.raises(NoObjectFound):
            extract_json_object("I would buy AAPL and keep some cash.")

    def test_unbalanced_braces(self):
        with pytest.raises(NoObjectFound):
            extract_json_object('{"reasoning": "never closed"')

    def test_array_is_not_an_object(self):
        with pytest.raises(NoObjectFound):
            extract_json_object('[1, 2, 3] {not json either')

    def test_brace_bomb_is_bounded(self):
        # Thousands of balanced spans; must return or raise quickly.
        bomb = "{}" * 5000
        obj = extract_json_object(bomb)
        assert obj == {}

    @pytest.mark.parametrize("prose", [
        'He said "hi. ',  # an unclosed quote
        'Note: 5" screen. ',  # inches
        'a "b" c "d ',  # a pair, then an unclosed quote
        "{a} " * 200,  # more spans before the answer than are parsed
        '{5" screen} ',  # a quote inside a brace span of prose
        '(see {note: 5" wide}) ',
    ], ids=["unclosed-quote", "inch-mark", "pair-then-unclosed", "many-small-spans",
            "quote-in-brace-span", "quote-in-nested-prose-span"])
    def test_answer_after_prose_is_found(self, prose):
        answer = {"reasoning": "r", "allocations": {"CASH": 1}}
        assert extract_json_object(prose + json.dumps(answer, separators=(",", ":"))) == answer

    @pytest.mark.parametrize("text", [
        'Decision: {"decision": ANSWER} done',
        '{"decision": ANSWER}',
        '{"decisions": [{"note": "x"}, ANSWER]}',
    ], ids=["in-prose", "whole-text", "in-a-list"])
    def test_an_answer_wrapped_in_another_object_is_found(self, text):
        answer = {"reasoning": "r", "allocations": {"CASH": 1}}
        assert extract_json_object(text.replace("ANSWER", json.dumps(answer))) == answer

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @example(before='{"', reasoning="{", after="")
    @given(before=PROSE, reasoning=PROSE, after=PROSE)
    def test_an_answer_in_any_prose_is_found(self, before, reasoning, after):
        """The decoder, not a brace count, decides where the answer
        ends, however prose quotes and braces interleave with it."""
        answer = {"reasoning": reasoning, "allocations": {"CASH": 1}}
        assert extract_json_object(before + json.dumps(answer) + after) == answer

    @pytest.mark.parametrize("bomb", [
        "{" * 60000, "{}" * 30000, "{a}" * 20000, '{"a":' * 5000,
        '{"' * 30000, '{"a":\n' * 5000, ('{"a":' * 900 + "1" + "}" * 900) * 11,
    ], ids=["open-braces", "empty-spans", "junk-spans", "open-keys",
            "open-quotes", "open-keys-on-lines", "deep-objects"])
    def test_brace_heavy_inputs_finish_quickly(self, bomb):
        start = time.perf_counter()
        try:
            assert isinstance(extract_json_object(bomb), dict)
        except NoObjectFound:
            pass
        assert time.perf_counter() - start < 0.5


CORPUS_REJECTS = [
    # (raw text, expected error class)
    ("", NoObjectFound),
    ("   \n\t  ", NoObjectFound),
    ("no json here at all", NoObjectFound),
    ("{", NoObjectFound),
    ("}", NoObjectFound),
    ("{]", NoObjectFound),
    ('{"unterminated": ', NoObjectFound),
    ("null", NoObjectFound),
    ("[1, 2]", NoObjectFound),
    ('"just a string"', NoObjectFound),
    ("42", NoObjectFound),
    ('{"allocations": {"AAPL": 1.0}}', SchemaMismatch),  # no reasoning
    ('{"reasoning": "r"}', SchemaMismatch),  # no allocations
    ('{"reasoning": 42, "allocations": {"CASH": 1.0}}', SchemaMismatch),
    ('{"reasoning": null, "allocations": {"CASH": 1.0}}', SchemaMismatch),
    ('{"reasoning": "r", "allocations": [1, 2]}', SchemaMismatch),
    ('{"reasoning": "r", "allocations": "all in"}', SchemaMismatch),
    ('{"reasoning": "r", "allocations": null}', SchemaMismatch),
    ('{"reasoning": "r", "allocations": {"AAPL": "half"}}', SchemaMismatch),
    ('{"reasoning": "r", "allocations": {"AAPL": true}}', SchemaMismatch),
    ('{"reasoning": "r", "allocations": {"AAPL": null}}', SchemaMismatch),
    ('{"reasoning": "r", "allocations": {"AAPL": NaN, "CASH": 1.0}}', SchemaMismatch),
    ('{"reasoning": "r", "allocations": {"AAPL": Infinity}}', SchemaMismatch),
    ('{"reasoning": "r", "allocations": {"TSLA": 1.0}}', UnknownAsset),
    ('{"reasoning": "r", "allocations": {"aapl": 1.0}}', UnknownAsset),  # case matters
    ('{"reasoning": "r", "allocations": {"AAPL": 0.5}}', SumOutOfBand),
    ('{"reasoning": "r", "allocations": {"AAPL": 1.5, "CASH": 0.5}}', SumOutOfBand),
    ('{"reasoning": "r", "allocations": {}}', SumOutOfBand),
    ('{"reasoning": "r", "allocations": {"CASH": 0.0}}', SumOutOfBand),
    ('{"reasoning": "r", "allocations": {"AAPL": -0.2, "CASH": 1.2}}', AllocationError),
    # an integer past the int-string limit: json.loads raises a plain ValueError
    ('{"reasoning": "r", "allocations": {"CASH": 1, "n": ' + "9" * 4400 + "}}", NoObjectFound),
    ('Sure: {"reasoning": "r", "allocations": {"CASH": 1, "n": ' + "9" * 4400 + "}}",
     NoObjectFound),
]

CORPUS_ACCEPTS = [
    GOOD,
    wrap(GOOD),
    '{"reasoning": "", "allocations": {"CASH": 1.0}}',  # empty reasoning is a string
    '{"reasoning": "r", "allocations": {"CASH": 1}}',  # int weight
    '{"reasoning": "r", "allocations": {"AAPL": 0.33, "MSFT": 0.33, "NVDA": 0.33, "CASH": 0.0}}',
    '{"reasoning": "r", "allocations": {"AAPL": 0.5, "CASH": 0.51}}',  # renormalized
    'Answer:\n\n{"reasoning": "deep\\nthought", "allocations": {"CASH": 1.0}}\n\nDone.',
    '{"extra": 1, "reasoning": "r", "allocations": {"CASH": 1.0}}',  # extra keys ignored
]


class TestCorpus:
    @pytest.mark.parametrize("raw,expected", CORPUS_REJECTS,
                             ids=[f"reject-{i}" for i in range(len(CORPUS_REJECTS))])
    def test_rejects_are_typed(self, raw, expected):
        with pytest.raises(expected):
            parse_allocation_response(raw, SPEC)

    @pytest.mark.parametrize("raw", CORPUS_ACCEPTS,
                             ids=[f"accept-{i}" for i in range(len(CORPUS_ACCEPTS))])
    def test_accepts_validate(self, raw):
        reasoning, allocation = parse_allocation_response(raw, SPEC)
        assert isinstance(reasoning, str)
        assert abs(sum(allocation.weights.values()) - 1.0) <= 1e-9

    def test_corpus_is_large_enough(self):
        assert len(CORPUS_REJECTS) + len(CORPUS_ACCEPTS) >= 30

    def test_renormalized_corpus_entry(self):
        _, allocation = parse_allocation_response(
            '{"reasoning": "r", "allocations": {"AAPL": 0.5, "CASH": 0.51}}', SPEC)
        total = 0.5 + 0.51
        assert allocation["AAPL"] == 0.5 / total
        assert allocation["CASH"] == 0.51 / total

    def test_all_zero_weights_inside_a_band_of_one_are_out_of_band(self):
        """A band of 1 admits a sum of 0, which has no proportions to
        renormalize to; it is refused as a typed error, not a division."""
        with pytest.raises(SumOutOfBand, match="not positive"):
            parse_allocation_response('{"reasoning": "x", "allocations": {"AAPL": 0}}', SPEC,
                                      band=1.0)


class TestRoundTrip:
    def test_render_then_parse_is_exact(self):
        alloc = AllocationVector({"AAPL": 1 / 3, "MSFT": 1 / 3, "NVDA": 0.0,
                                  "CASH": 1.0 - 2 / 3})
        raw = render_allocation_response("thirds", alloc)
        reasoning, parsed = parse_allocation_response(raw, SPEC)
        assert reasoning == "thirds"
        assert parsed.weights == alloc.weights  # bit-for-bit, no drift

    def test_unicode_reasoning_survives(self):
        alloc = AllocationVector({"AAPL": 0.0, "MSFT": 0.0, "NVDA": 0.0, "CASH": 1.0})
        raw = render_allocation_response("naïve approach — stay liquid ✓", alloc)
        reasoning, _ = parse_allocation_response(raw, SPEC)
        assert reasoning == "naïve approach — stay liquid ✓"


class TestFuzz:
    def test_random_text_never_raises_untyped(self):
        rng = random.Random(1234)
        alphabet = string.printable + "{}{}[]\"'\\"
        for _ in range(10_000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))
            try:
                parse_allocation_response(text, SPEC)
            except (ParseError, AllocationError):
                pass
            # Anything else propagates and fails the test.

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=200))
    def test_arbitrary_unicode_never_raises_untyped(self, text):
        try:
            parse_allocation_response(text, SPEC)
        except (ParseError, AllocationError):
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(
        st.sampled_from(["AAPL", "MSFT", "NVDA", "CASH"]),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        max_size=4,
    ))
    def test_json_weight_payloads_accept_or_reject_cleanly(self, weights):
        raw = json.dumps({"reasoning": "fuzz", "allocations": weights})
        try:
            _, allocation = parse_allocation_response(raw, SPEC)
        except (ParseError, AllocationError):
            return
        assert abs(sum(allocation.weights.values()) - 1.0) <= 1e-9
