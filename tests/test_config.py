"""Unit tests for TcpConfig validation."""

import pytest

from repro.config import TcpConfig
from repro.errors import ConfigurationError


class TestDefaults:
    def test_paper_packet_sizes(self):
        config = TcpConfig()
        assert config.mss_bytes == 1000
        assert config.ack_bytes == 40

    def test_delayed_ack_off_by_default(self):
        assert not TcpConfig().delayed_ack

    def test_dupack_threshold_is_three(self):
        assert TcpConfig().dupack_threshold == 3

    def test_default_validates(self):
        TcpConfig().validate()


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mss_bytes": 0},
            {"ack_bytes": 0},
            {"initial_cwnd": 0.5},
            {"receiver_window": 0},
            {"dupack_threshold": 0},
            {"min_rto": 0.0},
            {"min_rto": 2.0, "max_rto": 1.0},
            {"initial_rto": 0.0},
            {"timer_granularity": -0.1},
            {"max_burst": -1},
            {"sack_block_limit": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            TcpConfig(**kwargs).validate()


class TestFrozen:
    def test_frozen(self):
        config = TcpConfig()
        with pytest.raises(Exception):
            config.mss_bytes = 99
