"""Snapshot store: idempotent upserts, ordering, and file integrity."""

import datetime as dt
import importlib.util
import json
import math
import re
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradefolio import dated
from tradefolio.errors import IngestionError
from tradefolio.domain import NewsItem, PricePoint
from tradefolio.ingestion import snapshots
from tradefolio.ingestion.snapshots import MarketCatalogEntry, SnapshotStore, _filename
from tradefolio.synthetic import seed_prediction_store, seed_stock_store

D = dt.date
REPO = Path(__file__).resolve().parent.parent


def test_price_round_trip(tmp_path):
    store = SnapshotStore(tmp_path)
    assert store.upsert_price("stock", "AAPL", D(2025, 3, 3), 241.5, 1000.0)
    assert store.upsert_price("stock", "AAPL", D(2025, 3, 4), 243.25)

    fresh = SnapshotStore(tmp_path)
    series = fresh.price_series("stock", "AAPL")
    assert [(p.date, p.price, p.volume) for p in series] == [
        (D(2025, 3, 3), 241.5, 1000.0),
        (D(2025, 3, 4), 243.25, None),
    ]


def test_every_stored_row_starts_with_the_date_prefix(tmp_path):
    """A series row is indexed without a ``json.loads`` only while it
    opens with ``_DATE_PREFIX``; price, news and prediction series, and
    a single-row upsert into an existing series, all keep it."""
    seed_stock_store(tmp_path / "s", ("AAPL", "MSFT"), D(2025, 3, 3), 5, seed=3)
    seed_prediction_store(tmp_path / "p", ("Rain?",), D(2025, 3, 3), 5, seed=3)
    SnapshotStore(tmp_path / "s").upsert_price("stock", "AAPL", D(2025, 2, 3), 9.5, 10.0)
    series = sorted(tmp_path.glob("*/prices/*/*.jsonl")) + sorted(tmp_path.glob("*/news/*.jsonl"))
    assert {path.parent.name for path in series} == {"stock", "prediction", "news"}
    for path in series:
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        assert rows and all(row.startswith(snapshots._DATE_PREFIX) for row in rows), path


def test_upsert_same_value_is_noop(tmp_path):
    store = SnapshotStore(tmp_path)
    assert store.upsert_price("stock", "AAPL", D(2025, 3, 3), 241.5) is True
    before = (tmp_path / "prices" / "stock" / "AAPL.jsonl").read_bytes()
    assert store.upsert_price("stock", "AAPL", D(2025, 3, 3), 241.5) is False
    assert (tmp_path / "prices" / "stock" / "AAPL.jsonl").read_bytes() == before


def test_upsert_conflicting_value_refused(tmp_path):
    store = SnapshotStore(tmp_path)
    store.upsert_price("stock", "AAPL", D(2025, 3, 3), 241.5)
    with pytest.raises(IngestionError, match="already recorded with a different value"):
        store.upsert_price("stock", "AAPL", D(2025, 3, 3), 241.51)


def test_out_of_order_upserts_flushed_sorted(tmp_path):
    store = SnapshotStore(tmp_path)
    store.upsert_price("stock", "MSFT", D(2025, 3, 5), 401.0)
    store.upsert_price("stock", "MSFT", D(2025, 3, 3), 399.0)

    lines = (tmp_path / "prices" / "stock" / "MSFT.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert header == {
        "format": "tradefolio-series",
        "version": 1,
        "series": "stock-price",
        "key": "MSFT",
    }
    dates = [json.loads(line)["date"] for line in lines[1:]]
    assert dates == ["2025-03-03", "2025-03-05"]

    # and the reload accepts its own output
    assert len(SnapshotStore(tmp_path).price_series("stock", "MSFT")) == 2


def test_load_rejects_non_increasing_dates(tmp_path):
    path = tmp_path / "prices" / "stock" / "NVDA.jsonl"
    path.parent.mkdir(parents=True)
    rows = [
        {"format": "tradefolio-series", "version": 1, "series": "stock-price", "key": "NVDA"},
        {"date": "2025-03-04", "price": 110.0, "volume": None},
        {"date": "2025-03-04", "price": 110.0, "volume": None},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    with pytest.raises(IngestionError, match="strictly increasing"):
        SnapshotStore(tmp_path).price_series("stock", "NVDA")


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "prices" / "stock" / "NVDA.jsonl"
    path.parent.mkdir(parents=True)
    header = {"format": "tradefolio-series", "version": 1, "series": "stock-price", "key": "AAPL"}
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(IngestionError, match=re.escape(
            f"{path}:1: unreadable header: not the header of series (stock-price, 'NVDA')")):
        SnapshotStore(tmp_path).price_series("stock", "NVDA")


def test_load_rejects_garbage_header(tmp_path):
    path = tmp_path / "prices" / "stock" / "NVDA.jsonl"
    path.parent.mkdir(parents=True)
    path.write_text("not json\n")
    with pytest.raises(IngestionError, match=re.escape(
            f"{path}:1: unreadable header: Expecting value: line 1 column 1")):
        SnapshotStore(tmp_path).price_series("stock", "NVDA")


def _write_rows(root, key, rows, kind="stock-price"):
    """A hand-written series file: the header, then ``rows`` verbatim."""
    folder = root / "news" if kind == "news" else root / "prices" / "stock"
    folder.mkdir(parents=True, exist_ok=True)
    header = {"format": "tradefolio-series", "version": 1, "series": kind, "key": key}
    path = folder / f"{key}.jsonl"
    path.write_text("\n".join([json.dumps(header), *rows]) + "\n", encoding="utf-8")
    return path


def _price_line(day: int, price: float = 110.0) -> str:
    return json.dumps({"date": D(2025, 3, day).isoformat(), "price": price, "volume": None})


@pytest.mark.parametrize("first_line", ["[]", "null", '"x"', "3"])
def test_a_header_of_the_wrong_shape_is_unreadable(tmp_path, first_line):
    path = tmp_path / "prices" / "stock" / "NVDA.jsonl"
    path.parent.mkdir(parents=True)
    path.write_text(f"{first_line}\n{_price_line(3)}\n", encoding="utf-8")
    with pytest.raises(IngestionError, match=re.escape(
            f"{path}:1: unreadable header: not the header of series (stock-price, 'NVDA')")):
        SnapshotStore(tmp_path).price_dates("stock", "NVDA")


def test_a_header_with_an_extra_key_does_not_match(tmp_path):
    path = _write_rows(tmp_path, "NVDA", [_price_line(3)])
    header, rows = path.read_text(encoding="utf-8").split("\n", 1)
    path.write_text(json.dumps({**json.loads(header), "note": "x"}) + "\n" + rows, encoding="utf-8")
    with pytest.raises(IngestionError, match=re.escape(
            f"{path}:1: unreadable header: not the header of series (stock-price, 'NVDA')")):
        SnapshotStore(tmp_path).price_dates("stock", "NVDA")


@pytest.mark.parametrize("bad", [
    '{"date": "2025-03-04", "price": "110", "volume": null}',
    '{"date": "2025-03-04", "price": -1.0, "volume": null}',
    '{"date": "2025-03-04", "volume": null}',
    '{"date": "2025-03-04", "price": 110.0',
    '{"date": "2025-03-04T09:30", "price": 110.0, "volume": null}',  # disagrees with its index
    f"{_price_line(4)}, {_price_line(4)}",  # two rows on one line
    '{"date": "2025-03-04", "price": true, "volume": null}',
    '{"date": "2025-03-04", "price": 110.0, "volume": "9"}',
    '{"date": "2025-03-04", "price": Infinity, "volume": null}',
])
def test_bad_price_value_loads_then_fails_at_its_first_read(tmp_path, bad):
    path = _write_rows(tmp_path, "NVDA", [_price_line(3), bad, _price_line(5, 112.0)])
    store = SnapshotStore(tmp_path)
    assert store.price_dates("stock", "NVDA") == (D(2025, 3, 3), D(2025, 3, 4), D(2025, 3, 5))
    assert store.latest_price("stock", "NVDA", D(2025, 3, 6)).price == 112.0
    for _ in range(2):  # a failed decode leaves the row undecoded, so it fails again
        with pytest.raises(IngestionError, match=re.escape(f"{path}:3: unreadable row")):
            store.price_window("stock", "NVDA", D(2025, 3, 3), D(2025, 3, 5))
    with pytest.raises(IngestionError, match=re.escape(f"{path}:3: unreadable row")):
        SnapshotStore(tmp_path).price_series("stock", "NVDA")
    # a write that does not reach the bad row carries it over byte for byte
    assert store.upsert_price("stock", "NVDA", D(2025, 3, 6), 113.0)
    assert path.read_text().splitlines()[2] == bad
    with pytest.raises(IngestionError, match=re.escape(f"{path}:3: unreadable row")):
        SnapshotStore(tmp_path).price_series("stock", "NVDA")


def test_a_rewritten_series_names_its_bad_row_by_the_new_line(tmp_path):
    bad = '{"date": "2025-03-05", "price": "110", "volume": null}'
    path = _write_rows(tmp_path, "NVDA", ["", _price_line(4), bad])  # the bad row is line 4
    store = SnapshotStore(tmp_path)
    assert store.record_prices("stock", "NVDA", [PricePoint(D(2025, 3, 2), 108.0),
                                                 PricePoint(D(2025, 3, 3), 109.0)]) == 2
    assert path.read_text().splitlines()[4] == bad  # no blank line, two rows before it
    for reader in (store, SnapshotStore(tmp_path)):
        assert reader.price_dates("stock", "NVDA") == tuple(D(2025, 3, d) for d in (2, 3, 4, 5))
        with pytest.raises(IngestionError, match=re.escape(f"{path}:5: unreadable row")):
            reader.price_window("stock", "NVDA", D(2025, 3, 2), D(2025, 3, 5))


def test_a_bad_row_only_the_growth_margin_reaches_stops_the_run_short(tmp_path):
    path = _write_rows(tmp_path, "NVDA", [_price_line(d, 100.0 + d) for d in range(3, 9)]
                       + ['{"date": "2025-03-09", "price": "109", "volume": null}',
                          _price_line(10, 110.0)])  # the bad row is line 8
    store = SnapshotStore(tmp_path)
    for day in range(3, 9):  # the run grows past day 8 only to stop short of day 9
        assert store.latest_price("stock", "NVDA", D(2025, 3, day)).price == 100.0 + day
    for day in (9, 10):  # a read that returns the row, or must decode it, fails
        with pytest.raises(IngestionError, match=re.escape(f"{path}:8: unreadable row")):
            store.latest_price("stock", "NVDA", D(2025, 3, day))
    assert SnapshotStore(tmp_path).latest_price("stock", "NVDA", D(2025, 3, 10)).price == 110.0

    # the same below the run: a read near the end, then a lower one whose margin alone
    # reaches the bad row
    below = tmp_path / "below"
    path = _write_rows(below, "NVDA", [_price_line(3, 103.0),
                                       '{"date": "2025-03-04", "price": "104", "volume": null}']
                       + [_price_line(d, 100.0 + d) for d in range(5, 13)])  # bad: line 3
    store = SnapshotStore(below)
    window = store.price_window("stock", "NVDA", D(2025, 3, 8), D(2025, 3, 12))
    assert [p.price for p in window] == [108.0, 109.0, 110.0, 111.0, 112.0]
    for day in (6, 5):  # the run grows down past day 5 only to stop short of day 4
        assert store.latest_price("stock", "NVDA", D(2025, 3, day)).price == 100.0 + day
    with pytest.raises(IngestionError, match=re.escape(f"{path}:3: unreadable row")):
        store.latest_price("stock", "NVDA", D(2025, 3, 4))


def _news_row(**change):
    """A stored news row for 2025-03-04 whose one item has ``change`` applied."""
    item = {"title": "t", "snippet": "s", "source": "w", "url": "u", "published_at": 1741000000}
    return json.dumps({"date": "2025-03-04", "items": [{**item, **change}]})


@pytest.mark.parametrize("bad", [
    '{"date": "2025-03-04", "items": [{"title": "no other fields"}]}',
    '{"date": "2025-03-04", "items": 7}',
    '{"date": "2025-03-04"}',
    _news_row(published_at="1741000000"),
    _news_row(published_at=True),
    _news_row(published_at=1741000000.0),
    _news_row(title=5),
    _news_row(snippet=None),
    _news_row(source=["w"]),
    _news_row(url={"u": 1}),
    _news_row(published_at=-10**12),
    _news_row(published_at=10**15),
])
def test_bad_news_value_loads_then_fails_at_its_first_read(tmp_path, bad):
    good = json.dumps({"date": "2025-03-05", "items": []})
    path = _write_rows(tmp_path, "NVDA", [bad, good], kind="news")
    store = SnapshotStore(tmp_path)
    assert store.has_news("NVDA", D(2025, 3, 4))
    assert store.news_window("NVDA", D(2025, 3, 5), D(2025, 3, 5)) == ()
    with pytest.raises(IngestionError, match=re.escape(f"{path}:2: unreadable row")):
        store.news_window("NVDA", D(2025, 3, 4), D(2025, 3, 5))


@pytest.mark.parametrize("bad", [
    '{"date": "2025-3-4", "price": 110.0, "volume": null}',
    '{"date": "2025-02-30", "price": 110.0, "volume": null}',
    '{"date": 20250304, "price": 110.0, "volume": null}',
    '{"price": 110.0, "volume": null}',
    "not json",
])
def test_unreadable_date_fails_at_load(tmp_path, bad):
    path = _write_rows(tmp_path, "NVDA", [_price_line(3), bad])
    with pytest.raises(IngestionError, match=re.escape(f"{path}:3: unreadable row")):
        SnapshotStore(tmp_path).price_dates("stock", "NVDA")


def test_row_in_another_key_order_loads_through_the_fallback(tmp_path):
    _write_rows(tmp_path, "NVDA", [
        '{"price": 110.0, "volume": null, "date": "2025-03-03"}',
        "",  # a blank line is skipped
        '{"date":"2025-03-04","price":111.0,"volume":5.0}',
        _price_line(5, 112.0),
    ])
    store = SnapshotStore(tmp_path)
    assert store.latest_price("stock", "NVDA", D(2025, 3, 3)) == PricePoint(D(2025, 3, 3), 110.0)
    assert store.price_series("stock", "NVDA") == (
        PricePoint(D(2025, 3, 3), 110.0),
        PricePoint(D(2025, 3, 4), 111.0, 5.0),
        PricePoint(D(2025, 3, 5), 112.0),
    )


def test_a_write_keeps_every_stored_line_as_it_was_read(tmp_path):
    row = '{"price": 110.0, "volume": null, "date": "2025-03-03"}'
    path = _write_rows(tmp_path, "NVDA", [row])
    store = SnapshotStore(tmp_path)
    assert store.latest_price("stock", "NVDA", D(2025, 3, 3)) == PricePoint(D(2025, 3, 3), 110.0)
    assert store.record_prices("stock", "NVDA", [PricePoint(D(2025, 3, 4), 111.0)]) == 1
    assert path.read_text(encoding="utf-8").splitlines()[1:] == [row, _price_line(4, 111.0)]


def test_nonpositive_price_rejected(tmp_path):
    store = SnapshotStore(tmp_path)
    with pytest.raises(IngestionError):
        store.upsert_price("stock", "AAPL", D(2025, 3, 3), 0.0)
    with pytest.raises(IngestionError):
        store.upsert_price("bonds", "AAPL", D(2025, 3, 3), 1.0)


def test_latest_price_and_window(tmp_path):
    store = SnapshotStore(tmp_path)
    for day, price in [(3, 100.0), (4, 101.0), (6, 103.0)]:
        store.upsert_price("stock", "AAPL", D(2025, 3, day), price)

    assert store.latest_price("stock", "AAPL", D(2025, 3, 5)).price == 101.0
    assert store.latest_price("stock", "AAPL", D(2025, 3, 6)).price == 103.0
    assert store.latest_price("stock", "AAPL", D(2025, 3, 2)) is None

    window = store.price_window("stock", "AAPL", D(2025, 3, 4), D(2025, 3, 6))
    assert [p.price for p in window] == [101.0, 103.0]


def _item(n: int, tag: str) -> NewsItem:
    return NewsItem(
        title=f"headline {n}",
        snippet=f"snippet {n}",
        source="Example Wire",
        url=f"https://example.com/{n}",
        published_at=1_740_000_000 + n,
        tagged_asset=tag,
    )


def test_news_round_trip_and_window(tmp_path):
    store = SnapshotStore(tmp_path)
    assert store.upsert_news("AAPL", D(2025, 3, 3), [_item(1, "AAPL"), _item(2, "AAPL")])
    assert store.upsert_news("AAPL", D(2025, 3, 4), [])
    assert store.upsert_news("AAPL", D(2025, 3, 5), [_item(3, "AAPL")])

    fresh = SnapshotStore(tmp_path)
    assert fresh.has_news("AAPL", D(2025, 3, 4))
    assert not fresh.has_news("AAPL", D(2025, 3, 6))

    window = fresh.news_window("AAPL", D(2025, 3, 3), D(2025, 3, 4))
    assert [i.title for i in window] == ["headline 1", "headline 2"]
    assert window[0] == _item(1, "AAPL")

    # idempotent rewrite of the same day
    assert fresh.upsert_news("AAPL", D(2025, 3, 3), [_item(1, "AAPL"), _item(2, "AAPL")]) is False
    with pytest.raises(IngestionError, match="already recorded with a different value"):
        fresh.upsert_news("AAPL", D(2025, 3, 3), [_item(1, "AAPL")])


def test_news_tagged_asset_comes_from_series_tag(tmp_path):
    # the stored rows carry no tag; the reader tags items with the series key
    store = SnapshotStore(tmp_path)
    store.upsert_news("NVDA", D(2025, 3, 3), [_item(9, "whatever")])
    got = SnapshotStore(tmp_path).news_window("NVDA", D(2025, 3, 3), D(2025, 3, 3))
    assert got[0].tagged_asset == "NVDA"


def _entry(slug: str) -> MarketCatalogEntry:
    return MarketCatalogEntry(
        slug=slug,
        question=f"Will {slug} resolve yes?",
        yes_token=f"{slug}-yes",
        no_token=f"{slug}-no",
        url=f"https://example.com/event/{slug}",
    )


def test_market_catalog_sorted_and_guarded(tmp_path):
    store = SnapshotStore(tmp_path)
    assert store.record_markets([_entry("zeta")]) == 1
    assert store.record_markets([_entry("alpha"), _entry("zeta")]) == 1
    assert store.record_markets([_entry("zeta")]) == 0
    with pytest.raises(IngestionError, match="already catalogued differently"):
        store.record_markets([
            MarketCatalogEntry("zeta", "different?", "y", "n", "https://example.com"),
        ])

    fresh = SnapshotStore(tmp_path)
    assert [e.slug for e in fresh.markets()] == ["alpha", "zeta"]
    assert fresh.markets()[0] == _entry("alpha")

    path = tmp_path / "markets.jsonl"
    path.write_text(path.read_text(encoding="utf-8").replace("\n", "\n\n", 1), encoding="utf-8")
    assert SnapshotStore(tmp_path).markets() == fresh.markets()  # a blank line is skipped


@pytest.mark.parametrize("field", ["slug", "question", "yes_token", "no_token", "url"])
def test_a_catalog_entry_whose_field_is_not_a_string_is_unreadable(tmp_path, field):
    store = SnapshotStore(tmp_path)
    store.record_markets([_entry("alpha"), _entry("zeta")])
    path = tmp_path / "markets.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), field: 5})
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(IngestionError, match=re.escape(f"{path}:2: unreadable market entry")):
        SnapshotStore(tmp_path).markets()


@pytest.mark.parametrize("line, noun", [(1, "unreadable header"), (5, "unreadable row")])
def test_a_series_byte_that_is_not_utf8_is_unreadable_naming_its_line(tmp_path, line, noun):
    path = _write_rows(tmp_path, "NVDA", [_price_line(day) for day in range(3, 9)])
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1][:20] + b"\xff" + lines[line - 1][20:]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(IngestionError, match=re.escape(
            f"{path}:{line}: {noun}: 'utf-8' codec can't decode byte 0xff")):
        SnapshotStore(tmp_path).price_dates("stock", "NVDA")


def test_a_catalog_byte_that_is_not_utf8_is_an_unreadable_entry(tmp_path):
    SnapshotStore(tmp_path).record_markets([_entry("alpha"), _entry("zeta")])
    path = tmp_path / "markets.jsonl"
    path.write_bytes(path.read_bytes().replace(b"zeta", b"z\xffta", 1))
    with pytest.raises(IngestionError, match=re.escape(f"{path}:2: unreadable market entry")):
        SnapshotStore(tmp_path).markets()


def test_filename_slugs_unsafe_keys():
    assert _filename("AAPL") == "AAPL.jsonl"
    assert _filename("tok_1.series-A") == "tok_1.series-A.jsonl"

    unsafe = _filename("слug with spaces/and?junk")
    assert unsafe.endswith(".jsonl")
    assert "/" not in unsafe and "?" not in unsafe and " " not in unsafe
    # distinct unsafe keys must never collide on the same file
    assert unsafe != _filename("слug with spaces and junk")
    # long keys stay bounded: 48-char slug + 10-hex digest + extension
    assert len(_filename("x" * 500 + "!")) == 48 + 1 + 10 + len(".jsonl")


def test_record_calls_count_new_rows(tmp_path):
    store = SnapshotStore(tmp_path)
    prices = [PricePoint(D(2025, 3, 3), 240.0), PricePoint(D(2025, 3, 4), 241.0)]
    news = [(D(2025, 3, 3), [_item(1, "other")]), (D(2025, 3, 4), [])]
    for fresh in (2, 0):  # the second pass re-records identical data
        assert store.record_prices("stock", "AAPL", prices) == fresh
        assert store.record_news("AAPL", news) == fresh
    assert store.news_window("AAPL", D(2025, 3, 3), D(2025, 3, 4)) == (_item(1, "AAPL"),)

    assert store.record_prices("stock", "AAPL", [
        PricePoint(D(2025, 3, 4), 241.0),  # already stored
        PricePoint(D(2025, 3, 5), 242.0),
        PricePoint(D(2025, 3, 5), 242.0),  # repeated within the call
    ]) == 1
    assert store.record_prices("stock", "MSFT", iter([PricePoint(D(2025, 3, 5), 400.0)])) == 1
    assert store.record_prices("stock", "MSFT", []) == 0
    assert [p.price for p in store.price_series("stock", "AAPL")] == [240.0, 241.0, 242.0]
    with pytest.raises(IngestionError, match="unknown market"):
        store.record_prices("bonds", "AAPL", prices)


def _series_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*.jsonl"))}


@pytest.mark.parametrize("conflict", [
    PricePoint(D(2025, 3, 4), 999.0),  # against a stored row
    PricePoint(D(2025, 3, 6), 999.0),  # against the call's own row
])
def test_conflicting_batch_leaves_series_untouched(tmp_path, conflict):
    store = SnapshotStore(tmp_path)
    store.upsert_price("stock", "AAPL", D(2025, 3, 3), 240.0)
    store.upsert_price("stock", "AAPL", D(2025, 3, 4), 241.0)
    before = _series_bytes(tmp_path)
    points = [PricePoint(D(2025, 3, 5), 242.0), PricePoint(D(2025, 3, 6), 243.0), conflict]
    with pytest.raises(IngestionError, match="already recorded with a different value"):
        store.record_prices("stock", "AAPL", points)

    assert _series_bytes(tmp_path) == before
    for reader in (store, SnapshotStore(tmp_path)):
        assert [p.price for p in reader.price_series("stock", "AAPL")] == [240.0, 241.0]
        assert reader.latest_price("stock", "AAPL", D(2025, 3, 6)).date == D(2025, 3, 4)


def test_each_series_is_written_once_per_call(tmp_path, monkeypatch):
    writes = []
    real_write = snapshots._atomic_write

    def counting_write(path, lines):
        writes.append(path.relative_to(tmp_path).as_posix())
        real_write(path, lines)

    monkeypatch.setattr(snapshots, "_atomic_write", counting_write)
    seed_stock_store(tmp_path, ("AAPL", "MSFT"), D(2025, 3, 3), 20)
    assert sorted(writes) == [
        "news/AAPL.jsonl", "news/MSFT.jsonl",
        "prices/stock/AAPL.jsonl", "prices/stock/MSFT.jsonl",
    ]


def test_a_write_decodes_only_the_stored_rows_it_overlaps(tmp_path, monkeypatch):
    tickers = ("AAPL", "MSFT", "NVDA")
    dates = seed_stock_store(tmp_path, tickers, DAY0, 60)
    before = _series_bytes(tmp_path)
    decoded = []
    real_decode = snapshots._decode

    def counting_decode(kind, key, date, row):
        decoded.append((kind, key, date))
        return real_decode(kind, key, date, row)

    monkeypatch.setattr(snapshots, "_decode", counting_decode)
    store = SnapshotStore(tmp_path)
    store.price_window("stock", "AAPL", dates[-5], dates[-1])  # the last five rows decoded
    decoded.clear()
    saturday = dates[30] + dt.timedelta(days=5 - dates[30].weekday())
    new = [dates[-1] + dt.timedelta(days=3), dates[0] - dt.timedelta(days=3), saturday]
    for ticker in tickers:  # at the end, at the start and in the middle
        for day in new:
            assert store.record_prices("stock", ticker, [PricePoint(day, 50.0)]) == 1
        assert store.record_news(ticker, [(day, ()) for day in new]) == 3
    assert decoded == []

    # untouched rows keep their bytes, decoded or not, and the new ones
    # land in date order
    for name, stored in before.items():
        lines = stored.decode().splitlines()
        kind = "news" if name.parts[0] == "news" else "stock-price"
        lines += [snapshots._encode(kind, day, () if kind == "news" else PricePoint(day, 50.0))
                  for day in new]
        expected = [lines[0], *sorted(lines[1:], key=lambda line: json.loads(line)["date"])]
        assert (tmp_path / name).read_text().splitlines() == expected
    assert [p.date for p in store.price_series("stock", "AAPL")] == sorted([*dates, *new])


def test_a_failed_write_leaves_the_series_and_its_directory_as_they_were(tmp_path,
                                                                        monkeypatch):
    store = SnapshotStore(tmp_path)
    store.upsert_price("stock", "AAPL", D(2025, 3, 3), 240.0)
    folder = tmp_path / "prices" / "stock"
    before, listing = _series_bytes(tmp_path), sorted(folder.iterdir())

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(snapshots.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        store.upsert_price("stock", "AAPL", D(2025, 3, 4), 241.0)
    monkeypatch.undo()
    assert sorted(folder.iterdir()) == listing
    assert _series_bytes(tmp_path) == before
    assert store.price_dates("stock", "AAPL") == (D(2025, 3, 3),)
    assert store.upsert_price("stock", "AAPL", D(2025, 3, 4), 241.0)
    assert sorted(folder.iterdir()) == listing


def test_stray_temp_files_go_at_the_first_write_into_their_directory(tmp_path):
    """A writer killed before its rename leaves a temp file; the next
    store to write into that directory removes it, once per store."""
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        SnapshotStore(root).upsert_price("stock", "AAPL", D(2025, 3, 3), 240.0)
        SnapshotStore(root).record_markets([MarketCatalogEntry("s", "q", "y", "n", "u")])
    folder = a / "prices" / "stock"
    strays = [folder / ".AAPL.jsonl.0123456789ab.tmp", folder / ".MSFT.jsonl.ba9876543210.tmp",
              a / ".markets.jsonl.00112233aabb.tmp"]
    for stray in strays:
        stray.write_text('{"date": "2025-03-04", "pri', encoding="utf-8")
    kept = folder / "notes.tmp"  # not a name the store writes
    kept.write_text("mine", encoding="utf-8")

    store = SnapshotStore(a)
    store.upsert_price("stock", "AAPL", D(2025, 3, 4), 241.0)
    assert [p for p in strays if p.exists()] == [strays[2]]  # only the written directory
    store.record_markets([MarketCatalogEntry("t", "q2", "y2", "n2", "u2")])
    assert not any(p.exists() for p in strays) and kept.exists()
    SnapshotStore(b).upsert_price("stock", "AAPL", D(2025, 3, 4), 241.0)
    SnapshotStore(b).record_markets([MarketCatalogEntry("t", "q2", "y2", "n2", "u2")])
    assert _series_bytes(a) == _series_bytes(b)

    # each directory is scanned once per store, not at every write
    late = folder / ".AAPL.jsonl.cafecafecafe.tmp"
    late.write_text("", encoding="utf-8")
    store.upsert_price("stock", "AAPL", D(2025, 3, 5), 242.0)
    assert late.exists()
    SnapshotStore(a).upsert_price("stock", "AAPL", D(2025, 3, 6), 243.0)
    assert not late.exists()


def test_seeding_reproduces_committed_fixtures(tmp_path):
    script = REPO / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    params = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(params)

    seed_stock_store(tmp_path / "stock-50d", params.STOCK_TICKERS,
                     params.STOCK_START, params.STOCK_DAYS)
    seed_prediction_store(tmp_path / "prediction-12d", params.QUESTIONS,
                          params.PREDICTION_START, params.PREDICTION_DAYS)
    for name in ("stock-50d", "prediction-12d"):
        assert _series_bytes(tmp_path / name) == _series_bytes(REPO / "fixtures" / name)


# -- the index against a naive scan ----------------------------------------------

DAY0 = D(2025, 3, 3)


def _day(offset: int) -> dt.date:
    return DAY0 + dt.timedelta(days=offset)


def _close(offset: int) -> float:
    # one fixed close per date, so a row read from the wrong date shows
    return 100.0 + offset / 4


def _day_news(offset: int) -> tuple[NewsItem, ...]:
    # zero to two items, fixed per date like the close
    return tuple(_item(100 * offset + n, "AAPL") for n in range(offset % 3))


def _stored_rows(path):
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()[1:]]


_writes = st.lists(st.integers(0, 30), max_size=6)
_reads = st.tuples(st.integers(-3, 33), st.integers(-3, 33))
_ops = st.lists(st.one_of(st.tuples(st.just("write"), _writes),
                          st.tuples(st.just("read"), _reads)), max_size=20)


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_index_matches_naive_scan(ops):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        store = SnapshotStore(root)
        written: set[int] = set()  # the model: day offsets recorded so far

        def check(reader, lo, hi):
            start, end = _day(lo), _day(hi)
            scan = reader.price_series("stock", "AAPL")
            assert [(p.date, p.price) for p in scan] == [
                (_day(o), _close(o)) for o in sorted(written)]
            before = [p for p in scan if p.date <= start]
            assert reader.latest_price("stock", "AAPL", start) == (before[-1] if before else None)
            assert reader.price_window("stock", "AAPL", start, end) == tuple(
                p for p in scan if start <= p.date <= end)
            assert reader.news_window("AAPL", start, end) == tuple(
                item for o in sorted(written) if lo <= o <= hi for item in _day_news(o))
            assert reader.has_news("AAPL", start) == (lo in written)

        for op, arg in ops:
            if op == "write":
                # one call per series in arbitrary date order, repeats
                # included, as a backfill sends
                new = len(set(arg) - written)
                assert store.record_prices(
                    "stock", "AAPL", [PricePoint(_day(o), _close(o)) for o in arg]) == new
                assert store.record_news("AAPL", [(_day(o), _day_news(o)) for o in arg]) == new
                written |= set(arg)
            else:
                check(store, *arg)  # a read right after a write sees it

        for lo, hi in ((-3, 33), (0, 0), (33, 40), (5, 2)):
            check(store, lo, hi)
            check(SnapshotStore(root), lo, hi)
        rows = _stored_rows(root / "prices" / "stock" / "AAPL.jsonl")
        assert [(r["date"], r["price"]) for r in rows] == [
            (_day(o).isoformat(), _close(o)) for o in sorted(written)]
        rows = _stored_rows(root / "news" / "AAPL.jsonl")
        assert [(r["date"], len(r["items"])) for r in rows] == [
            (_day(o).isoformat(), o % 3) for o in sorted(written)]


def test_readers_never_see_a_half_written_series(tmp_path):
    """Reader threads share the store with a writer appending one row per
    batch: every read must show a consistent, fully merged series."""
    store = SnapshotStore(tmp_path)
    store.upsert_price("stock", "AAPL", _day(0), _close(0))
    days = 200
    errors: list[str] = []
    done = threading.Event()

    def write():
        try:
            for offset in range(1, days):
                store.upsert_price("stock", "AAPL", _day(offset), _close(offset))
        finally:
            done.set()

    def read():
        seen = 0
        while not done.is_set():
            try:
                series = store.price_series("stock", "AAPL")
                latest = store.latest_price("stock", "AAPL", _day(days))
                window = store.price_window("stock", "AAPL", _day(0), _day(days))
            except Exception as exc:  # a torn index can fail a read outright
                errors.append(repr(exc))
                return
            if len(series) < seen or len(window) < len(series):
                errors.append("a read went back in time")
            if any(p.price != _close((p.date - DAY0).days) for p in (*series, latest, *window)):
                errors.append("a row was paired with the wrong date")
            if [p.date for p in window] != sorted({p.date for p in window}):
                errors.append("a window was out of order")
            seen = len(series)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read, daemon=True) for _ in range(4)]
        threads.append(threading.Thread(target=write, daemon=True))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(store.price_series("stock", "AAPL")) == days


# -- lazy decoding against an eager one --------------------------------------------

_lazy_reads = st.lists(st.tuples(st.sampled_from(["latest", "prices", "news", "has_news",
                                                  "walk", "write"]),
                                 st.integers(-3, 33), st.integers(-3, 33)),
                       min_size=1, max_size=12)


def _read(store, op, lo, hi):
    start, end = _day(lo), _day(hi)
    if op == "latest":
        return store.latest_price("stock", "AAPL", start)
    if op == "prices":
        return store.price_window("stock", "AAPL", start, end)
    if op == "news":
        return store.news_window("AAPL", start, end)
    if op == "walk":  # one date at a time, upwards, as a session reads
        return [store.latest_price("stock", "AAPL", _day(o)) for o in range(lo, hi + 1)]
    return store.has_news("AAPL", start)


@settings(max_examples=80, deadline=None)
@given(offsets=st.sets(st.integers(0, 30), max_size=25), reads=_lazy_reads)
def test_any_read_order_matches_an_eager_decode(offsets, reads):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        store = SnapshotStore(root)
        store.record_prices("stock", "AAPL", [PricePoint(_day(o), _close(o)) for o in offsets])
        store.record_news("AAPL", [(_day(o), _day_news(o)) for o in offsets])

        def decoded():
            eager = SnapshotStore(root)
            eager.price_series("stock", "AAPL")
            eager.news_window("AAPL", dt.date.min, dt.date.max)
            return eager

        eager = decoded()
        lazy = SnapshotStore(root)  # decodes as the reads below reach its rows
        for op, lo, hi in reads:
            if op == "write":  # merges a row into a partly decoded series
                day = lo % 31
                new = day not in offsets
                assert lazy.upsert_price("stock", "AAPL", _day(day), _close(day)) == new
                assert lazy.upsert_news("AAPL", _day(day), _day_news(day)) == new
                offsets = offsets | {day}
                eager = decoded()
                rows = _stored_rows(root / "prices" / "stock" / "AAPL.jsonl")
                assert [(r["date"], r["price"]) for r in rows] == [
                    (_day(o).isoformat(), _close(o)) for o in sorted(offsets)]
            else:
                assert _read(lazy, op, lo, hi) == _read(eager, op, lo, hi)
        assert lazy.price_series("stock", "AAPL") == eager.price_series("stock", "AAPL")
        assert lazy.price_series("stock", "AAPL") == tuple(
            PricePoint(_day(o), _close(o)) for o in sorted(offsets))
        assert lazy.news_window("AAPL", dt.date.min, dt.date.max) == tuple(
            item for o in sorted(offsets) for item in _day_news(o))


@pytest.mark.parametrize("order", ["forward", "backward"])
def test_a_walk_over_every_date_decodes_in_few_blocks(tmp_path, monkeypatch, order):
    dates = seed_stock_store(tmp_path, ("AAPL",), DAY0, 100)
    expected = SnapshotStore(tmp_path).price_series("stock", "AAPL")
    calls = []

    def counting_loads(text):
        calls.append(text)
        return json.loads(text)

    monkeypatch.setattr(dated, "json", SimpleNamespace(loads=counting_loads))
    store = SnapshotStore(tmp_path)
    walk = dates if order == "forward" else dates[::-1]
    got = [store.latest_price("stock", "AAPL", day) for day in walk]
    assert got == list(expected if order == "forward" else expected[::-1])
    assert len(calls) <= 2 * math.ceil(math.log2(len(dates))) + 2


def test_threads_reading_a_fresh_store_agree(tmp_path):
    tickers = ("AAPL", "MSFT")
    dates = seed_stock_store(tmp_path, tickers, DAY0, 60)

    def read(store, order):
        return sorted(
            (date, ticker,
             store.latest_price("stock", ticker, date),
             store.price_window("stock", ticker, date - dt.timedelta(days=10), date),
             store.news_window(ticker, date - dt.timedelta(days=3), date))
            for date in order for ticker in tickers)

    expected = read(SnapshotStore(tmp_path), dates)
    # each thread walks the dates downwards from its own start, then
    # from the top, so the threads keep growing the run below and above
    # what another has just decoded
    orders = [dates[::-1][k:] + dates[::-1][:k] for k in (0, 15, 30, 45)]
    errors: list[str] = []

    def worker(store, order, start):
        try:
            start.wait(timeout=30)
            if read(store, order) != expected:
                errors.append("a read differed from a single-threaded one")
        except Exception as exc:  # a torn decode can fail a read outright
            errors.append(repr(exc))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):  # each round shares one fresh store
            store, start = SnapshotStore(tmp_path), threading.Barrier(len(orders))
            threads = [threading.Thread(target=worker, args=(store, order, start), daemon=True)
                       for order in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old_interval)
    assert errors == []


def test_a_read_never_waits_for_another_threads_decode(tmp_path, monkeypatch):
    dates = seed_stock_store(tmp_path, ("AAPL",), DAY0, 40)
    expected = SnapshotStore(tmp_path).price_series("stock", "AAPL")
    store = SnapshotStore(tmp_path)
    store.price_dates("stock", "AAPL")  # indexed, nothing decoded
    main = threading.current_thread()
    decoding, other_done = threading.Event(), threading.Event()
    waited, other_read = [], []

    def pausing_loads(text):
        if threading.current_thread() is main and not decoding.is_set():
            decoding.set()
            waited.append(other_done.wait(timeout=5))
        return json.loads(text)

    def other():
        try:
            if decoding.wait(timeout=5):
                other_read.append(store.price_window("stock", "AAPL", dates[30], dates[35]))
        finally:
            other_done.set()

    monkeypatch.setattr(dated, "json", SimpleNamespace(loads=pausing_loads))
    thread = threading.Thread(target=other, daemon=True)
    thread.start()
    first = store.price_window("stock", "AAPL", dates[0], dates[5])
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert waited == [True]  # the other read ran to its end while this one decoded
    assert first == expected[:6] and other_read == [expected[30:36]]
    # the run this read stored replaced the other's, whose rows decode again
    assert store.price_series("stock", "AAPL") == expected


def test_a_read_keeps_the_run_it_grew_while_other_threads_replace_it(tmp_path, monkeypatch):
    dates = seed_stock_store(tmp_path, ("AAPL",), DAY0, 40)
    expected = SnapshotStore(tmp_path).price_series("stock", "AAPL")
    store = SnapshotStore(tmp_path)
    store.price_dates("stock", "AAPL")  # indexed, nothing decoded
    main = threading.current_thread()
    other_decoding, main_stored, other_done = (threading.Event() for _ in range(3))
    slot = dated.DatedRows._run
    waits, other_read = [], []

    def pausing_loads(text):  # the other thread decodes from the empty run...
        if threading.current_thread() is not main and not other_decoding.is_set():
            other_decoding.set()
            waits.append(main_stored.wait(timeout=5))
        return json.loads(text)

    def pausing_store(rows, run):  # ...and replaces the run this thread has just stored
        slot.__set__(rows, run)
        if threading.current_thread() is main and not main_stored.is_set():
            main_stored.set()
            waits.append(other_done.wait(timeout=5))

    def other():
        try:
            other_read.append(store.price_window("stock", "AAPL", dates[30], dates[35]))
        finally:
            other_done.set()

    monkeypatch.setattr(dated, "json", SimpleNamespace(loads=pausing_loads))
    monkeypatch.setattr(dated.DatedRows, "_run", property(slot.__get__, pausing_store))
    thread = threading.Thread(target=other, daemon=True)
    thread.start()
    assert other_decoding.wait(timeout=5)
    first = store.price_window("stock", "AAPL", dates[0], dates[5])
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert waits == [True, True]
    assert first == expected[:6] and other_read == [expected[30:36]]
    assert store.price_series("stock", "AAPL") == expected
