"""Unit tests for the link-rate helper."""

import pytest

from repro.util.sizes import mbit_per_s


class TestLinkRates:
    def test_mbit(self):
        assert mbit_per_s(8) == 1_000_000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mbit_per_s(-1)
