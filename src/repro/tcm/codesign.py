"""§4.2's system-level co-design: placing SQLite's hot data in DTCM.

The paper partitions the ARM1176JZF-S's 32 KB DTCM three ways:

* **database buffer (16 KB)** — page-cache memory managed by SQLite;
  modelled as relocating the hottest clustered-tree leaf pages (small
  tables first, mirroring the paper's even split across the queried
  tables);
* **special variables (4 KB)** — the hot structures of
  ``sqlite3VdbeExec()`` (query plan, cursors, heap heads), which issue
  ~70% of all L1D loads; modelled as relocating the engine's state
  region (see :class:`repro.db.operators.base.ExecContext`);
* **B-tree top layers (12 KB)** — the root and upper levels of the
  tables' trees, divided evenly across the tables of the current query.

Applying the co-design mutates the database in place; a separate plain
database serves as the baseline in the Figure 13 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.db.engine import Database
from repro.db.table import ClusteredTable
from repro.sim.machine import Machine

DATABASE_BUFFER_BYTES = 16 * 1024
SPECIAL_VARIABLES_BYTES = 4 * 1024
BTREE_LAYER_BYTES = 12 * 1024


@dataclass
class CodesignReport:
    """What the three strategies actually placed."""

    state_bytes: int = 0
    btree_nodes_relocated: int = 0
    leaf_nodes_relocated: int = 0


def scale_budgets(machine: Machine) -> tuple[int, int, int]:
    """The three §4.2 budgets, scaled with the machine's DTCM size."""
    if machine.tcm is None:
        raise ConfigError(f"{machine.config.name} has no DTCM")
    total = machine.tcm.region.size
    scale = total / (32 * 1024)
    return (
        int(DATABASE_BUFFER_BYTES * scale),
        int(SPECIAL_VARIABLES_BYTES * scale),
        int(BTREE_LAYER_BYTES * scale),
    )


def apply_codesign(db: Database, machine: Machine) -> CodesignReport:
    """Apply the three DTCM placement strategies to ``db`` in place."""
    if machine.tcm is None:
        raise ConfigError(f"{machine.config.name} has no DTCM")
    buffer_budget, vars_budget, btree_budget = scale_budgets(machine)
    report = CodesignReport()

    # Strategy 2: special variables — the VdbeExec state region.
    state = machine.tcm.alloc(
        min(vars_budget, db.state_region.size), label="tcm/special-vars"
    )
    db.set_state_region(state)
    report.state_bytes = state.size

    # Strategy 3: B-tree top layers.  The paper divides the budget so
    # that "more B tree data of small tables are loaded into DTCM";
    # greedy smallest-table-first achieves exactly that: tiny tables
    # place their whole tree, big tables place their top levels until
    # the budget runs out.
    clustered = [
        t for t in db.catalog.tables()
        if isinstance(t.storage, ClusteredTable)
    ]
    budget_left = btree_budget
    for table in sorted(clustered, key=lambda t: t.n_rows):
        if budget_left <= 0:
            break
        tree = table.storage.tree
        moved = tree.relocate_top_levels(machine.tcm, budget_left)
        report.btree_nodes_relocated += moved
        budget_left -= moved * tree.node_bytes

    # Strategy 1: database buffer — hottest leaf pages, smallest tables
    # first (their leaves are the most frequently revisited per byte).
    spent = 0
    for table in sorted(clustered, key=lambda t: t.n_rows):
        tree = table.storage.tree
        for leaf in tree.levels()[-1]:
            if spent + tree.node_bytes > buffer_budget:
                break
            if leaf.region.base >= machine.tcm.region.base:
                continue  # already placed by strategy 3
            leaf.region = machine.tcm.alloc(
                tree.node_bytes, label="tcm/db-buffer"
            )
            report.leaf_nodes_relocated += 1
            spent += tree.node_bytes
        else:
            continue
        break
    return report
