import datetime as dt
import time
from zoneinfo import ZoneInfo

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tradefolio.domain import PUBLISHED_AT_RANGE
from tradefolio.errors import NormalizationError
from tradefolio.ingestion.normalize import (
    clean_link,
    normalize_prediction_quote,
    parse_news_timestamp,
)

REF = dt.datetime(2025, 10, 24, 15, 0, tzinfo=dt.timezone.utc)


class TestQuoteNormalization:
    def test_probability_passes_through(self):
        assert normalize_prediction_quote(0.93) == 0.93
        assert normalize_prediction_quote(1.0) == 1.0
        assert normalize_prediction_quote(0.0001) == 0.0001

    def test_cents_divide_by_100(self):
        assert normalize_prediction_quote(93) == 0.93
        assert normalize_prediction_quote(93.0) == pytest.approx(0.93)
        assert normalize_prediction_quote(100) == 1.0
        assert normalize_prediction_quote(1.5) == 0.015

    def test_idempotent(self):
        once = normalize_prediction_quote(93)
        assert normalize_prediction_quote(once) == once

    @pytest.mark.parametrize("bad", [0, 0.0, -0.5, 101, 250.0, float("nan"), True, "93", None])
    def test_unrecognized_quotes_rejected(self, bad):
        with pytest.raises(NormalizationError):
            normalize_prediction_quote(bad)


class TestTimestampParsing:
    def test_rfc822(self):
        ts = parse_news_timestamp("Fri, 24 Oct 2025 12:00:00 GMT", REF)
        assert ts == int(dt.datetime(2025, 10, 24, 12, tzinfo=dt.timezone.utc).timestamp())

    def test_rfc822_with_offset(self):
        ts = parse_news_timestamp("Fri, 24 Oct 2025 08:00:00 -0400", REF)
        assert ts == int(dt.datetime(2025, 10, 24, 12, tzinfo=dt.timezone.utc).timestamp())

    def test_iso_with_and_without_zone(self, monkeypatch):
        # a local zone five hours behind UTC, so a naive time read as
        # local time would come out five hours late
        monkeypatch.setenv("TZ", "EST+5")
        time.tzset()
        try:
            aware = parse_news_timestamp("2025-10-24T12:00:00+00:00", REF)
            naive = parse_news_timestamp("2025-10-24T12:00:00", REF)
            assert aware == naive  # naive means UTC
            assert parse_news_timestamp("Fri, 24 Oct 2025 12:00:00", REF) == aware
            naive_ref = REF.replace(tzinfo=None)
            assert parse_news_timestamp("3 hours ago", naive_ref) == aware
        finally:
            monkeypatch.undo()
            time.tzset()

    def test_relative_phrases(self):
        assert parse_news_timestamp("3 hours ago", REF) == int(REF.timestamp()) - 3 * 3600
        assert parse_news_timestamp("1 hour ago", REF) == int(REF.timestamp()) - 3600
        assert parse_news_timestamp("45 mins ago", REF) == int(REF.timestamp()) - 45 * 60
        assert parse_news_timestamp("2 days ago", REF) == int(REF.timestamp()) - 2 * 86400
        assert parse_news_timestamp("1 week ago", REF) == int(REF.timestamp()) - 604800
        assert parse_news_timestamp("yesterday", REF) == int(REF.timestamp()) - 86400

    def test_absolute_word_formats(self):
        expected = int(dt.datetime(2025, 10, 3, tzinfo=dt.timezone.utc).timestamp())
        assert parse_news_timestamp("Oct 03, 2025", REF) == expected
        assert parse_news_timestamp("October 03, 2025", REF) == expected
        assert parse_news_timestamp("03 Oct 2025", REF) == expected
        assert parse_news_timestamp("10/03/2025", REF) == expected

    @pytest.mark.parametrize("bad", ["", "   ", "soon", "last Tuesday", "2025-13-45", "n/a"])
    def test_unparseable_returns_none(self, bad):
        assert parse_news_timestamp(bad, REF) is None

    @given(
        text=st.one_of(
            st.text(),
            st.from_regex(r"\A\d{1,20} (second|minute|hour|day|week)s? ago\Z"),
            st.from_regex(r"\A(Mon, )?\d{1,12} [A-Z][a-z]{2} \d{1,12}( \d\d:\d\d(:\d\d)?)?"
                          r"( [+-]\d{4}| GMT)?( /)?\Z"),
            st.builds(dt.datetime.isoformat, st.datetimes(timezones=st.builds(
                dt.timezone, st.timedeltas(min_value=dt.timedelta(hours=-23, minutes=-59),
                                           max_value=dt.timedelta(hours=23, minutes=59))))),
        ),
        reference=st.datetimes(timezones=st.just(dt.timezone.utc)),
    )
    @example("1000000 weeks ago", REF)
    @example("Mar 99999999999 2025 +14:00 /", REF)
    @example("9999-12-31T23:59:59-14:00", REF)
    @example("0001-01-01T00:00:00+14:00", REF)
    @example("9" * 5000 + " days ago", REF)
    def test_never_raises_and_every_zone_can_show_the_date(self, text, reference):
        seconds = parse_news_timestamp(text, reference)
        assert seconds is None or seconds in PUBLISHED_AT_RANGE
        if seconds is not None:
            for tz in (dt.timezone.utc, ZoneInfo("America/New_York"),
                       dt.timezone(dt.timedelta(hours=23, minutes=59)),
                       dt.timezone(dt.timedelta(hours=-23, minutes=-59))):
                dt.datetime.fromtimestamp(seconds, tz).date()

    @pytest.mark.parametrize("text", ["1000000 weeks ago", "Mar 99999999999 2025 +14:00 /",
                                      "9999-12-31T23:59:59-14:00", "0001-01-01T00:00:00+14:00"])
    def test_a_time_outside_the_range_is_none(self, text):
        assert parse_news_timestamp(text, REF) is None


class TestLinkCleaning:
    def test_unwraps_google_redirect(self):
        wrapped = "https://news.google.com/rss/articles/x?url=https%3A%2F%2Fexample.com%2Fstory&oc=5"
        assert clean_link(wrapped) == "https://example.com/story"

    def test_unwraps_q_parameter(self):
        wrapped = "https://www.google.com/url?q=https://example.com/a&ved=xyz"
        assert clean_link(wrapped) == "https://example.com/a"

    def test_ignores_non_url_redirect_values(self):
        wrapped = "https://news.google.com/rss/articles/CBMiabc?oc=5"
        # No unwrappable parameter: tracking params still stripped.
        assert clean_link(wrapped) == "https://news.google.com/rss/articles/CBMiabc"

    def test_strips_tracking_params_elsewhere(self):
        url = "https://example.com/story?id=7&utm_source=rss&utm_medium=feed&fbclid=123"
        assert clean_link(url) == "https://example.com/story?id=7"

    def test_plain_urls_untouched(self):
        assert clean_link("https://example.com/a/b") == "https://example.com/a/b"
        assert clean_link("") == ""

    def test_a_url_it_cannot_parse_is_returned_unchanged(self):
        assert clean_link("http://[::1") == "http://[::1"
        assert clean_link("https://news.google.com/x?url=http%3A%2F%2F%5B%3A%3A1") == "http://[::1"

    @given(st.one_of(st.text(), st.builds("{}://{}/{}?{}".format, st.sampled_from(["http", "https"]),
                                          st.text(), st.text(), st.text())))
    @example("http://[::1")
    @example("https://www.google.com/url?q=https://[x&utm_source=a")
    def test_never_raises(self, url):
        assert isinstance(clean_link(url), str)
