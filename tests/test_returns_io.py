import io
import math

import numpy as np
import pytest

import gts_tail as gt
from gts_tail.errors import DuplicateDate, NonPositivePrice, ParseError, TooShort


def _csv(text):
    return io.StringIO(text)


# --------------------------------------------------------------------------
# price ingestion
# --------------------------------------------------------------------------

def test_two_row_parse():
    p = gt.load_price_csv(_csv("date,price\n2020-01-01,100\n2020-01-02,110\n"))
    assert len(p) == 2
    assert p.prices[1] == 110.0


def test_unsorted_rows_sorted_stable():
    p = gt.load_price_csv(
        _csv("date,price\n2020-01-03,120\n2020-01-01,100\n2020-01-02,110\n")
    )
    assert [d.isoformat() for d in p.dates] == ["2020-01-01", "2020-01-02", "2020-01-03"]
    assert list(p.prices) == [100.0, 110.0, 120.0]


def test_zero_price_rejected():
    with pytest.raises(NonPositivePrice):
        gt.load_price_csv(_csv("date,price\n2020-01-01,0\n"))


def test_duplicate_date_rejected():
    with pytest.raises(DuplicateDate):
        gt.load_price_csv(_csv("date,price\n2020-01-01,1\n2020-01-01,2\n"))


def test_bad_header_and_bad_rows():
    with pytest.raises(ParseError):
        gt.load_price_csv(_csv("time,price\n2020-01-01,1\n"))
    with pytest.raises(ParseError):
        gt.load_price_csv(_csv("date,price\nnot-a-date,1\n"))
    with pytest.raises(ParseError):
        gt.load_price_csv(_csv("date,price\n2020-01-01,abc\n"))


def test_calendar_gap_warning():
    with pytest.warns(UserWarning, match="calendar gaps"):
        p = gt.load_price_csv(_csv("date,price\n2020-01-01,1\n2020-01-05,2\n"))
    assert p.calendar_gaps == 1


def test_currency_tag():
    p = gt.load_price_csv(_csv("date,price,currency\n2020-01-01,1,BTC\n2020-01-02,2,BTC\n"))
    assert p.currency == "BTC"


# --------------------------------------------------------------------------
# log returns
# --------------------------------------------------------------------------

def test_log_return_values():
    p = gt.load_price_csv(_csv("date,price\n2020-01-01,100\n2020-01-02,110\n2020-01-03,55\n"))
    r = gt.log_returns(p)
    assert r.n == len(p) - 1
    assert r.values[0] == pytest.approx(100 * math.log(1.1), abs=1e-5)
    assert r.values[1] == pytest.approx(-69.31472, abs=1e-5)


def test_constant_prices_zero_returns():
    p = gt.load_price_csv(_csv("date,price\n2020-01-01,5\n2020-01-02,5\n2020-01-03,5\n"))
    assert np.all(gt.log_returns(p).values == 0.0)


def test_scale_invariance():
    rows = "\n".join(f"2020-01-{d:02d},{100 + 3 * d}" for d in range(1, 20))
    p1 = gt.load_price_csv(_csv("date,price\n" + rows))
    rows2 = "\n".join(f"2020-01-{d:02d},{7.3 * (100 + 3 * d)}" for d in range(1, 20))
    p2 = gt.load_price_csv(_csv("date,price\n" + rows2))
    r1, r2 = gt.log_returns(p1), gt.log_returns(p2)
    assert np.max(np.abs(r1.values - r2.values)) <= 1e-12


def test_too_short():
    p = gt.load_price_csv(_csv("date,price\n2020-01-01,5\n"))
    with pytest.raises(TooShort):
        gt.log_returns(p)


# --------------------------------------------------------------------------
# summary stats
# --------------------------------------------------------------------------

def test_two_point_stats():
    s = gt.summary_stats(gt.ReturnSeries(values=[-1.0, 1.0]))
    assert s.mean == 0.0
    assert s.sd == pytest.approx(math.sqrt(2.0))
    assert (s.min, s.max, s.n) == (-1.0, 1.0, 2)


def test_constant_series_flags_undefined():
    s = gt.summary_stats(gt.ReturnSeries(values=[2.0, 2.0, 2.0]))
    assert s.sd == 0.0
    assert math.isnan(s.skewness)
    assert math.isnan(s.excess_kurtosis)


def test_sample_variance_matches_kappa2(btc_params, btc_sample_100k):
    k2 = gt.cumulant(btc_params, 2)
    s = gt.summary_stats(btc_sample_100k)
    assert abs(s.sd**2 - k2) <= 0.05 * k2


# --------------------------------------------------------------------------
# CSV round trip
# --------------------------------------------------------------------------

def test_returns_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    r = gt.ReturnSeries(values=rng.normal(size=257) * 7.3, source="x")
    path = tmp_path / "r.csv"
    gt.write_returns_csv(r, path)
    back = gt.load_returns_csv(path)
    assert np.array_equal(back.values, r.values)


def test_returns_csv_with_a_byte_order_mark(tmp_path):
    # Spreadsheet exports start with U+FEFF.
    path = tmp_path / "r.csv"
    path.write_bytes(b"\xef\xbb\xbfreturn\n1.5\n-2.25\n")
    assert list(gt.load_returns_csv(path).values) == [1.5, -2.25]


def test_price_csv_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(b"\xef\xbb\xbfdate,price\n2020-01-01,100\n2020-01-02,110\n")
    p = gt.load_price_csv(path)
    assert [d.isoformat() for d in p.dates] == ["2020-01-01", "2020-01-02"]
    assert list(p.prices) == [100.0, 110.0]


def test_returns_csv_header_checked(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("nope\n1.0\n")
    with pytest.raises(ParseError):
        gt.load_returns_csv(path)
