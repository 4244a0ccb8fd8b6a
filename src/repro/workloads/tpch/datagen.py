"""Deterministic TPC-H data generator at simulator-friendly scales.

The paper benchmarks 100 MB / 500 MB / 1 GB databases (plus a 10 MB one
for the ARM proof-of-concept).  Those byte sizes map here to row-count
tiers scaled ~1:400, with the machine's caches scaled alongside
(DESIGN.md §2), preserving the data:cache ratio that the paper's
hit-rate regimes depend on.

Value distributions follow the dbgen spec in shape: uniform order dates
over 1992–1998, 1–7 lineitems per order, ship = order + 1..121 days,
the standard categorical vocabularies (segments, priorities, ship
modes, brands, containers, return flags), and comment strings of
spec-like width.  Everything derives from one seed.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from datetime import date

from repro.errors import ConfigError
from repro.workloads.tpch import schema as S

logger = logging.getLogger(__name__)

SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")
PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW")
SHIP_MODES = ("REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB")
SHIP_INSTRUCT = ("DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN")
CONTAINERS = ("SM CASE", "SM BOX", "SM PACK", "SM PKG", "MED BAG", "MED BOX",
              "MED PKG", "MED PACK", "LG CASE", "LG BOX", "LG PACK", "LG PKG",
              "JUMBO BOX", "JUMBO CASE", "JUMBO PKG", "JUMBO PACK", "WRAP BAG",
              "WRAP BOX")
TYPE_SYLL_1 = ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")
TYPE_SYLL_2 = ("ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED")
TYPE_SYLL_3 = ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER")
NAME_WORDS = ("almond", "antique", "aquamarine", "azure", "beige", "bisque",
              "black", "blanched", "blue", "blush", "brown", "burlywood",
              "chartreuse", "chiffon", "chocolate", "coral", "cornflower",
              "cream", "cyan", "dark", "deep", "dim", "dodger", "drab",
              "firebrick", "floral", "forest", "frosted", "gainsboro",
              "ghost", "goldenrod", "green", "grey", "honeydew", "hot",
              "hotpink", "indian", "ivory", "khaki", "lace", "lavender")
REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
NATIONS = (
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
)

_START = date(1992, 1, 1).toordinal()
_END = date(1998, 8, 2).toordinal()


@dataclass(frozen=True)
class ScaleTier:
    """Row counts of one database size tier."""

    name: str
    customers: int
    orders: int
    parts: int
    suppliers: int

    def __post_init__(self) -> None:
        if min(self.customers, self.orders, self.parts, self.suppliers) < 4:
            raise ConfigError(f"tier {self.name!r} too small to be meaningful")


#: The paper's database sizes mapped to tiers (≈1:400 row scale).
TIERS = {
    "10MB": ScaleTier("10MB", customers=16, orders=60, parts=20, suppliers=10),
    "100MB": ScaleTier("100MB", customers=90, orders=550, parts=100, suppliers=25),
    "500MB": ScaleTier("500MB", customers=450, orders=2750, parts=500, suppliers=50),
    "1GB": ScaleTier("1GB", customers=900, orders=5500, parts=1000, suppliers=100),
}

BASELINE_TIER = "100MB"


def tier(name: str) -> ScaleTier:
    try:
        return TIERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown tier {name!r}; known: {', '.join(TIERS)}"
        ) from None


def _comment(rng: random.Random, width: int) -> str:
    words = []
    length = 0
    while length < width - 8:
        word = rng.choice(NAME_WORDS)
        words.append(word)
        length += len(word) + 1
    return " ".join(words)[: width - 1]


def _phone(rng: random.Random, nationkey: int) -> str:
    return (f"{10 + nationkey}-{rng.randrange(100, 999)}-"
            f"{rng.randrange(100, 999)}-{rng.randrange(1000, 9999)}")


class TpchData:
    """All eight generated tables as lists of row tuples."""

    def __init__(self, tier_name: str = BASELINE_TIER, seed: int = 20200330):
        spec = tier(tier_name)
        rng = random.Random(seed)
        self.tier = spec
        self.seed = seed

        self.region = [
            (i, REGIONS[i], _comment(rng, 40)) for i in range(len(REGIONS))
        ]
        self.nation = [
            (i, name, regionkey, _comment(rng, 40))
            for i, (name, regionkey) in enumerate(NATIONS)
        ]
        self.supplier = [
            (
                k,
                f"Supplier#{k:09d}",
                _comment(rng, 32),
                # spread suppliers across nations so nation-scoped joins
                # (Q5, Q11, Q20, Q21) have matches at every tier
                (k - 1) % len(NATIONS),
                _phone(rng, rng.randrange(len(NATIONS))),
                round(rng.uniform(-999.99, 9999.99), 2),
                _comment(rng, 56),
            )
            for k in range(1, spec.suppliers + 1)
        ]
        self.customer = [
            (
                k,
                f"Customer#{k:09d}",
                _comment(rng, 32),
                rng.randrange(len(NATIONS)),
                _phone(rng, rng.randrange(len(NATIONS))),
                round(rng.uniform(-999.99, 9999.99), 2),
                rng.choice(SEGMENTS),
                _comment(rng, 56),
            )
            for k in range(1, spec.customers + 1)
        ]
        self.part = [
            (
                k,
                " ".join(rng.sample(NAME_WORDS, 4)),
                f"Manufacturer#{1 + k % 5}",
                f"Brand#{1 + k % 5}{1 + (k // 5) % 5}",
                (f"{rng.choice(TYPE_SYLL_1)} {rng.choice(TYPE_SYLL_2)} "
                 f"{rng.choice(TYPE_SYLL_3)}"),
                rng.randrange(1, 51),
                rng.choice(CONTAINERS),
                round(900 + (k % 1000) + 0.01 * (k % 100), 2),
                _comment(rng, 16),
            )
            for k in range(1, spec.parts + 1)
        ]
        self.partsupp = []
        for k in range(1, spec.parts + 1):
            for j in range(4):
                suppkey = 1 + (k + j * (spec.suppliers // 4 + 1)) % spec.suppliers
                self.partsupp.append(
                    (
                        S.ps_key(k, suppkey),
                        k,
                        suppkey,
                        rng.randrange(1, 10000),
                        round(rng.uniform(1.0, 1000.0), 2),
                        _comment(rng, 40),
                    )
                )
        self.orders = []
        self.lineitem = []
        # dbgen leaves a third of customers without orders (Q13/Q22 rely
        # on that population existing).
        ordering_customers = max(1, spec.customers * 2 // 3)
        for okey in range(1, spec.orders + 1):
            custkey = rng.randrange(1, ordering_customers + 1)
            orderdate = rng.randrange(_START, _END - 151)
            n_lines = rng.randrange(1, 8)
            total = 0.0
            all_f = True
            any_f = False
            for line_no in range(1, n_lines + 1):
                partkey = rng.randrange(1, spec.parts + 1)
                # pick one of the part's four suppliers
                j = rng.randrange(4)
                suppkey = 1 + (partkey + j * (spec.suppliers // 4 + 1)) % spec.suppliers
                quantity = float(rng.randrange(1, 51))
                extended = round(quantity * (900 + partkey % 1000), 2)
                discount = round(rng.randrange(0, 11) / 100.0, 2)
                tax = round(rng.randrange(0, 9) / 100.0, 2)
                shipdate = orderdate + rng.randrange(1, 122)
                commitdate = orderdate + rng.randrange(30, 91)
                receiptdate = shipdate + rng.randrange(1, 31)
                today = date(1995, 6, 17).toordinal()
                if receiptdate <= today:
                    returnflag = rng.choice(("R", "A"))
                    linestatus = "F"
                    any_f = True
                else:
                    returnflag = "N"
                    linestatus = "O"
                    all_f = False
                self.lineitem.append(
                    (
                        S.l_key(okey, line_no), okey, partkey, suppkey, line_no,
                        quantity, extended, discount, tax,
                        returnflag, linestatus,
                        shipdate, commitdate, receiptdate,
                        rng.choice(SHIP_INSTRUCT), rng.choice(SHIP_MODES),
                        _comment(rng, 24),
                    )
                )
                total += extended * (1 + tax) * (1 - discount)
            status = "F" if all_f else ("O" if not any_f else "P")
            self.orders.append(
                (
                    okey, custkey, status, round(total, 2), orderdate,
                    rng.choice(PRIORITIES), f"Clerk#{rng.randrange(1, 1000):09d}",
                    0, _comment(rng, 40),
                )
            )

    def tables(self) -> dict[str, list]:
        return {
            "region": self.region,
            "nation": self.nation,
            "supplier": self.supplier,
            "customer": self.customer,
            "part": self.part,
            "partsupp": self.partsupp,
            "orders": self.orders,
            "lineitem": self.lineitem,
        }

    @property
    def n_rows_total(self) -> int:
        return sum(len(rows) for rows in self.tables().values())


def load_into(database, data: TpchData) -> None:
    """Create and populate all eight tables in ``database``."""
    for name, rows in data.tables().items():
        logger.info("loading %s: %d rows", name, len(rows))
        database.create_table(
            name,
            S.SCHEMAS[name],
            rows,
            primary_key=S.PRIMARY_KEYS[name],
            indexes=S.SECONDARY_INDEXES.get(name, ()),
        )
