"""Tests of the three engine profiles (Table 4 knobs)."""

import pytest

from repro.db.profiles import (
    BASELINE,
    LARGE,
    SMALL,
    engine_profile,
    mysql_like,
    postgres_like,
    sqlite_like,
)
from repro.errors import ConfigError


class TestKnobs:
    def test_settings_scale_memory(self):
        for factory in (postgres_like, sqlite_like, mysql_like):
            small = factory(SMALL)
            base = factory(BASELINE)
            large = factory(LARGE)
            assert (small.buffer_pool_bytes < base.buffer_pool_bytes
                    < large.buffer_pool_bytes)

    def test_sqlite_page_size_knob(self):
        assert sqlite_like(SMALL).page_size == 4 * 1024
        assert sqlite_like(BASELINE).page_size == 8 * 1024
        assert sqlite_like(LARGE).page_size == 16 * 1024

    def test_storage_kinds(self):
        assert postgres_like().table_storage == "heap"
        assert sqlite_like().table_storage == "clustered"
        assert mysql_like().table_storage == "clustered"

    def test_join_strategies(self):
        assert postgres_like().join_strategy == "hash"
        assert sqlite_like().join_strategy == "index_nl"

    def test_mysql_heaviest_interpreter(self):
        assert (mysql_like().state_other_per_row
                > postgres_like().state_other_per_row)
        assert (mysql_like().state_other_per_row
                > sqlite_like().state_other_per_row)

    def test_sqlite_most_hot_loads(self):
        assert (sqlite_like().state_loads_per_row
                > postgres_like().state_loads_per_row)

    def test_factory_lookup(self):
        assert engine_profile("mysql").name == "mysql"
        with pytest.raises(ConfigError):
            engine_profile("oracle")

    def test_invalid_setting(self):
        with pytest.raises(ConfigError):
            postgres_like("huge")
