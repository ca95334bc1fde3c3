"""CSV round-trip of spot-price traces."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.traces.history import SpotPriceHistory
from repro.traces.io import dumps_csv, loads_csv, read_csv, write_csv


@pytest.fixture
def history():
    return SpotPriceHistory(
        prices=np.asarray([0.03, 0.031, 0.04, 0.0315]),
        slot_length=1.0 / 12.0,
        start_hour=5.0,
        instance_type="r3.xlarge",
    )


class TestRoundTrip:
    def test_string_roundtrip(self, history):
        parsed = loads_csv(dumps_csv(history))
        np.testing.assert_allclose(parsed.prices, history.prices)
        assert parsed.slot_length == history.slot_length
        assert parsed.start_hour == history.start_hour
        assert parsed.instance_type == history.instance_type

    def test_file_roundtrip(self, history, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(history, path)
        parsed = read_csv(path)
        np.testing.assert_allclose(parsed.prices, history.prices)
        assert parsed.instance_type == "r3.xlarge"

    def test_unlabeled_trace(self):
        history = SpotPriceHistory(prices=np.asarray([0.1, 0.2]))
        parsed = loads_csv(dumps_csv(history))
        assert parsed.instance_type is None


class TestMalformedInput:
    def test_empty_file(self):
        with pytest.raises(TraceError):
            loads_csv("")

    def test_header_only(self):
        with pytest.raises(TraceError):
            loads_csv("slot,time_hours,price\n")

    def test_wrong_header(self):
        with pytest.raises(TraceError):
            loads_csv("a,b,c\n0,0.0,0.1\n")

    def test_non_numeric_price(self):
        with pytest.raises(TraceError):
            loads_csv("slot,time_hours,price\n0,0.0,cheap\n")

    def test_wrong_column_count(self):
        with pytest.raises(TraceError):
            loads_csv("slot,time_hours,price\n0,0.0\n")

    def test_unknown_comment_keys_ignored(self):
        text = (
            "# exotic=thing\n# slot_length_hours=0.25\n"
            "slot,time_hours,price\n0,0.0,0.1\n"
        )
        parsed = loads_csv(text)
        assert parsed.slot_length == 0.25
        assert parsed.n_slots == 1


def _csv(rows):
    return "slot,time_hours,price\n" + "\n".join(rows) + "\n"


class TestRowIndexInErrors:
    """Errors name the offending 0-based data-row index."""

    def test_non_numeric_timestamp_names_the_row(self):
        text = _csv(["0,0.0,0.1", "1,later,0.1"])
        with pytest.raises(TraceError, match="data row 1"):
            loads_csv(text)

    def test_non_numeric_price_names_the_row(self):
        text = _csv(["0,0.0,0.1", "1,0.5,0.1", "2,1.0,cheap"])
        with pytest.raises(TraceError, match="data row 2"):
            loads_csv(text)

    def test_non_finite_price_names_the_row(self):
        text = _csv(["0,0.0,0.1", "1,0.5,inf"])
        with pytest.raises(TraceError, match="data row 1"):
            loads_csv(text)

    def test_out_of_order_timestamps_name_the_row(self):
        text = _csv(["0,0.0,0.1", "1,1.0,0.1", "2,0.5,0.1"])
        with pytest.raises(TraceError, match="data row 2.*repair=True"):
            loads_csv(text)

    def test_negative_price_names_the_row(self):
        text = _csv(["0,0.0,0.1", "1,0.5,-0.02"])
        with pytest.raises(TraceError, match="data row 1.*repair=True"):
            loads_csv(text)


class TestRepair:
    def test_repair_sorts_and_clips_with_warning(self):
        text = "# slot_length_hours=0.5\n" + _csv(
            ["0,0.0,0.3", "1,1.0,-0.1", "2,0.5,0.2"]
        )
        with pytest.warns(UserWarning, match="1 out-of-order.*1 negative"):
            parsed = loads_csv(text, repair=True)
        np.testing.assert_allclose(parsed.prices, [0.3, 0.2, 0.0])

    def test_repair_is_silent_on_clean_input(self, history):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parsed = loads_csv(dumps_csv(history), repair=True)
        np.testing.assert_allclose(parsed.prices, history.prices)

    def test_repair_does_not_mask_parse_errors(self):
        with pytest.raises(TraceError, match="non-numeric"):
            loads_csv(_csv(["0,0.0,cheap"]), repair=True)

    def test_read_csv_forwards_repair(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# slot_length_hours=0.5\n"
            + _csv(["0,0.0,0.3", "1,1.0,-0.1", "2,0.5,0.2"])
        )
        with pytest.raises(TraceError):
            read_csv(path)
        with pytest.warns(UserWarning):
            parsed = read_csv(path, repair=True)
        assert parsed.n_slots == 3


class TestSlotGaps:
    """Rows must cover consecutive slots from ``start_hour``."""

    @staticmethod
    def _without_row(history, row):
        lines = dumps_csv(history).splitlines()
        header = lines.index("slot,time_hours,price")
        del lines[header + 1 + row]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("repair", [False, True])
    def test_deleted_middle_row_names_the_row(self, history, repair):
        text = self._without_row(history, 1)
        with pytest.raises(TraceError, match="data row 1 .*consecutive slots"):
            loads_csv(text, repair=repair)

    @pytest.mark.parametrize("repair", [False, True])
    def test_deleted_first_row_names_the_row(self, history, repair):
        text = self._without_row(history, 0)
        with pytest.raises(TraceError, match="data row 0 .*start_hour"):
            loads_csv(text, repair=repair)

    def test_nan_timestamp_names_the_row(self):
        text = _csv(["0,0.0,0.1", "1,nan,0.1", "2,0.166667,0.1"])
        with pytest.raises(TraceError, match="data row 1 "):
            loads_csv(text)

    def test_sixty_day_roundtrip_is_bit_identical(self):
        rng = np.random.default_rng(11)
        history = SpotPriceHistory(
            prices=np.round(rng.uniform(0.02, 0.5, size=17_280), 4),
            slot_length=1.0 / 12.0,
            start_hour=5.0,
        )
        parsed = loads_csv(dumps_csv(history))
        assert parsed.n_slots == 17_280
        assert parsed.prices.tobytes() == history.prices.tobytes()
        assert parsed.slot_length == history.slot_length
        assert parsed.start_hour == history.start_hour
