"""Engine profiles: the PostgreSQL-, SQLite-, and MySQL-like configurations.

The paper profiles three real systems; this package models them as three
configurations of one executor, differing exactly along the axes the
paper uses to explain their breakdown differences (§3.2–§3.3):

* **sqlite_like** — everything is a clustered B-tree scanned
  sequentially; joins are index nested loops; the VDBE-style interpreter
  is lightweight (lowest per-tuple overhead).  → highest L1D share,
  lowest stall share.
* **postgres_like** — heap tables behind a shared buffer pool, hash
  joins and hash aggregation with a ``work_mem`` budget, secondary
  B-tree indexes.  The buffer/page indirection and hash structures
  reduce locality.  → middling L1D share, more L2/L3/stall.
* **mysql_like** — InnoDB-style clustered primary-key storage with
  secondary indexes that chase the primary key, plus the heaviest
  per-tuple interpreter overhead.  → lowest L1D share, highest E_other.

Knob settings mirror Table 4 (small / baseline / large), scaled 1:64
with the data tiers (DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

SMALL = "small"
BASELINE = "baseline"
LARGE = "large"
SETTINGS = (SMALL, BASELINE, LARGE)

HEAP = "heap"
CLUSTERED = "clustered"

HASH_JOIN = "hash"
INDEX_NL_JOIN = "index_nl"


@dataclass(frozen=True)
class EngineProfile:
    """Everything that distinguishes one engine flavour."""

    name: str
    setting: str
    #: Table organisation: heap or clustered B-tree.
    table_storage: str
    #: Preferred join algorithm.
    join_strategy: str
    #: Disk page size (bytes) — Table 4's page_size knobs.
    page_size: int
    #: Buffer pool / page cache capacity in bytes — Table 4's memory knobs.
    buffer_pool_bytes: int
    #: Sort/hash memory budget (PostgreSQL work_mem analogue).
    work_mem_bytes: int
    #: B-tree node size for tables and indexes.
    btree_node_bytes: int
    #: Interpreter overhead ('other' micro-ops) charged per scanned row.
    row_overhead_ops: int
    #: Interpreter overhead charged per row each operator produces.
    operator_overhead_ops: int
    #: Whether the planner considers secondary indexes for range filters.
    prefer_index_scan: bool
    #: Engine-state loads/stores per scanned tuple.  Interpretive engines
    #: execute hundreds of instructions per tuple against hot internal
    #: state (slot descriptors, operator nodes, the bytecode program) —
    #: the dominant source of the paper's L1D load/store energy (SQLite's
    #: sqlite3VdbeExec() alone issues ~70% of L1D loads, §4.2).
    state_loads_per_row: int = 1000
    state_stores_per_row: int = 500
    state_other_per_row: int = 300
    state_branch_per_row: int = 200
    state_cmp_per_row: int = 200
    state_add_per_row: int = 220
    #: Same, per tuple *produced* by a non-scan operator.
    op_loads_per_row: int = 120
    op_stores_per_row: int = 60
    #: Loads per tuple into a *larger* working set (buffer descriptors,
    #: catalog caches, compact page structures) that lives in L2/L3, not
    #: L1D — the weak-locality overhead the paper attributes to
    #: PostgreSQL/MySQL's complex data structures (§3.3).
    cold_loads_per_row: int = 4
    #: Size of that working set, as a multiple of the machine's L1D.
    cold_state_l1d_multiple: int = 24


def _pick(setting: str, small, baseline, large):
    if setting == SMALL:
        return small
    if setting == BASELINE:
        return baseline
    if setting == LARGE:
        return large
    raise ConfigError(f"unknown setting {setting!r}; use one of {SETTINGS}")


def postgres_like(setting: str = BASELINE) -> EngineProfile:
    """Table 4: shared_buffers 8MB/128MB/1GB, work_mem 4MB/64MB/512MB
    (scaled 1:64)."""
    return EngineProfile(
        name="postgresql",
        setting=setting,
        table_storage=HEAP,
        join_strategy=HASH_JOIN,
        page_size=8 * 1024,
        buffer_pool_bytes=_pick(setting, 128 * 1024, 2 * 1024 * 1024,
                                16 * 1024 * 1024),
        work_mem_bytes=_pick(setting, 64 * 1024, 1024 * 1024,
                             8 * 1024 * 1024),
        btree_node_bytes=4096,
        row_overhead_ops=3,
        operator_overhead_ops=2,
        prefer_index_scan=True,
        state_loads_per_row=480,
        state_stores_per_row=230,
        state_other_per_row=280,
        state_branch_per_row=250,
        state_cmp_per_row=200,
        state_add_per_row=250,
        op_loads_per_row=130,
        op_stores_per_row=65,
        cold_loads_per_row=22,
        cold_state_l1d_multiple=32,
    )


def sqlite_like(setting: str = BASELINE) -> EngineProfile:
    """Table 4: cache_size 2000/16000/65000 pages, page_size 4/8/16KB
    (cache pages scaled 1:64)."""
    page_size = _pick(setting, 4 * 1024, 8 * 1024, 16 * 1024)
    cache_pages = _pick(setting, 32, 256, 1024)
    return EngineProfile(
        name="sqlite",
        setting=setting,
        table_storage=CLUSTERED,
        join_strategy=INDEX_NL_JOIN,
        page_size=page_size,
        buffer_pool_bytes=cache_pages * page_size,
        work_mem_bytes=_pick(setting, 64 * 1024, 512 * 1024,
                             2 * 1024 * 1024),
        btree_node_bytes=page_size,
        row_overhead_ops=1,
        operator_overhead_ops=1,
        prefer_index_scan=False,  # sequential-scan tendency (§3.3)
        state_loads_per_row=980,
        state_stores_per_row=480,
        state_other_per_row=280,
        state_branch_per_row=200,
        state_cmp_per_row=200,
        state_add_per_row=220,
        op_loads_per_row=110,
        op_stores_per_row=55,
        cold_loads_per_row=2,
        cold_state_l1d_multiple=12,
    )


def mysql_like(setting: str = BASELINE) -> EngineProfile:
    """Table 4: innodb_buffer_pool 8MB/128MB/1GB, innodb_page_size
    4/8/16KB (buffer scaled 1:64)."""
    page_size = _pick(setting, 4 * 1024, 8 * 1024, 16 * 1024)
    return EngineProfile(
        name="mysql",
        setting=setting,
        table_storage=CLUSTERED,
        join_strategy=HASH_JOIN,
        page_size=page_size,
        buffer_pool_bytes=_pick(setting, 128 * 1024, 2 * 1024 * 1024,
                                16 * 1024 * 1024),
        work_mem_bytes=_pick(setting, 128 * 1024, 1024 * 1024,
                             8 * 1024 * 1024),
        btree_node_bytes=page_size,
        row_overhead_ops=6,
        operator_overhead_ops=4,
        prefer_index_scan=True,
        state_loads_per_row=560,
        state_stores_per_row=270,
        state_other_per_row=680,
        state_branch_per_row=300,
        state_cmp_per_row=220,
        state_add_per_row=260,
        op_loads_per_row=140,
        op_stores_per_row=70,
        cold_loads_per_row=10,
        cold_state_l1d_multiple=24,
    )


ENGINE_FACTORIES = {
    "postgresql": postgres_like,
    "sqlite": sqlite_like,
    "mysql": mysql_like,
}

ENGINES = tuple(ENGINE_FACTORIES)


def engine_profile(name: str, setting: str = BASELINE) -> EngineProfile:
    try:
        factory = ENGINE_FACTORIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown engine {name!r}; known: {', '.join(ENGINE_FACTORIES)}"
        ) from None
    return factory(setting)
