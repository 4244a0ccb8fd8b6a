"""Unit tests for the expression layer (values + micro-op accounting)."""

import pytest

from repro.db import exprs as E
from repro.db.types import Column, FLOAT, INT, STR, Schema
from repro.errors import PlanError


SCHEMA = Schema([
    Column("a", INT), Column("b", FLOAT), Column("s", STR, 16),
    Column("d", INT),
])
ROW = (7, 2.5, "hello world", 730000)


def run(expr, machine, row=ROW):
    return expr.compile(SCHEMA, machine)(row)


class TestBasics:
    def test_col(self, machine):
        assert run(E.Col("a"), machine) == 7

    def test_unknown_col(self, machine):
        with pytest.raises(Exception):
            E.Col("zz").compile(SCHEMA, machine)

    def test_const(self, machine):
        assert run(E.Const(42), machine) == 42

    def test_cmp_operators(self, machine):
        assert run(E.Col("a") < E.Const(10), machine)
        assert run(E.Col("a") >= E.Const(7), machine)
        assert run(E.Col("a").eq(7), machine)
        assert run(E.Col("a").ne(8), machine)
        assert not run(E.Col("a") > E.Const(10), machine)

    def test_cmp_none_is_false(self, machine):
        schema = Schema([Column("x", INT)])
        expr = E.Cmp("<", E.Col("x"), E.Const(5))
        assert expr.compile(schema, machine)((None,)) is False

    def test_arith(self, machine):
        assert run(E.Col("a") + E.Const(3), machine) == 10
        assert run(E.Col("a") - E.Const(2), machine) == 5
        assert run(E.Col("b") * E.Const(2), machine) == 5.0
        assert run(E.Col("a") / E.Const(2), machine) == 3.5

    def test_arith_none_propagates(self, machine):
        schema = Schema([Column("x", FLOAT)])
        expr = E.Arith("*", E.Col("x"), E.Const(2))
        assert expr.compile(schema, machine)((None,)) is None

    def test_invalid_ops_rejected(self):
        with pytest.raises(PlanError):
            E.Cmp("~", E.Const(1), E.Const(2))
        with pytest.raises(PlanError):
            E.Arith("%", E.Const(1), E.Const(2))


class TestBoolean:
    def test_and_short_circuit(self, machine):
        expr = E.And(E.Col("a") > E.Const(100), E.Col("a") / E.Const(0))
        assert run(expr, machine) is False  # second arm never evaluated

    def test_or(self, machine):
        assert run(E.Or(E.Col("a").eq(0), E.Col("a").eq(7)), machine)

    def test_not(self, machine):
        assert run(E.Not(E.Col("a").eq(0)), machine)

    def test_between(self, machine):
        assert run(E.Between(E.Col("a"), 5, 9), machine)
        assert run(E.Between(E.Col("a"), 7, 7), machine)
        assert not run(E.Between(E.Col("a"), 8, 9), machine)

    def test_in_list(self, machine):
        assert run(E.InList(E.Col("a"), (1, 7, 9)), machine)
        assert not run(E.InList(E.Col("a"), (1, 2)), machine)


class TestStrings:
    def test_prefix(self, machine):
        assert run(E.StrPrefix(E.Col("s"), "hello"), machine)
        assert not run(E.StrPrefix(E.Col("s"), "world"), machine)

    def test_suffix(self, machine):
        assert run(E.StrSuffix(E.Col("s"), "world"), machine)

    def test_contains(self, machine):
        assert run(E.StrContains(E.Col("s"), "lo wo"), machine)
        assert not run(E.StrContains(E.Col("s"), "xyz"), machine)

    def test_slice(self, machine):
        assert run(E.StrSlice(E.Col("s"), 0, 5), machine) == "hello"


class TestMisc:
    def test_extract_year(self, machine):
        from datetime import date
        value = date(1994, 6, 1).toordinal()
        expr = E.ExtractYear(E.Col("a"))
        schema = Schema([Column("a", INT)])
        assert expr.compile(schema, machine)((value,)) == 1994

    def test_case_when(self, machine):
        expr = E.CaseWhen(E.Col("a") > E.Const(5), E.Const("big"),
                          E.Const("small"))
        assert run(expr, machine) == "big"

    def test_tuple_of(self, machine):
        expr = E.TupleOf(E.Col("a"), E.Col("b"))
        assert run(expr, machine) == (7, 2.5)


class TestAccounting:
    def test_cmp_charges_ops(self, machine):
        machine.reset_measurements()
        run(E.Col("a") < E.Const(3), machine)
        counters = machine.pmu.counters
        assert counters.n_cmp == 1 and counters.n_branch == 1

    def test_arith_charges_mul(self, machine):
        machine.reset_measurements()
        run(E.Col("b") * E.Const(2), machine)
        assert machine.pmu.counters.n_mul == 1

    def test_string_cost_scales_with_width(self, machine):
        machine.reset_measurements()
        run(E.StrPrefix(E.Col("s"), "h" * 20), machine)
        wide = machine.pmu.counters.n_cmp
        machine.reset_measurements()
        run(E.StrPrefix(E.Col("s"), "h"), machine)
        narrow = machine.pmu.counters.n_cmp
        assert wide > narrow

    def test_col_is_free(self, machine):
        machine.reset_measurements()
        run(E.Col("a"), machine)
        assert machine.pmu.counters.instructions == 0


class TestHelpers:
    def test_columns_used(self):
        expr = E.And(E.Col("a") < E.Col("b"),
                     E.StrPrefix(E.Col("s"), "x"),
                     E.CaseWhen(E.Col("d").eq(1), E.Const(1), E.Col("a")))
        assert E.columns_used(expr) == {"a", "b", "s", "d"}

    def test_children_rebuild(self):
        cmp = E.Col("a") < E.Col("b")
        both = E.And(cmp, E.Col("d").eq(1))
        assert E.children(cmp) == (E.Col("a"), E.Col("b"))
        assert E.children(both) == both.parts
        assert E.children(E.Between(E.Col("a"), 1, 2)) == (E.Col("a"),)
        assert E.with_children(cmp, E.children(cmp)) is cmp
        assert (E.with_children(cmp, [E.Col("d"), E.Col("b")])
                == (E.Col("d") < E.Col("b")))
        assert E.with_children(both, [cmp, cmp]) == E.And(cmp, cmp)

    def test_conjuncts_flatten(self):
        expr = E.And(E.Col("a").eq(1), E.And(E.Col("b").eq(2), E.Col("d").eq(3)))
        assert len(E.conjuncts(expr)) == 3

    def test_conjuncts_none(self):
        assert E.conjuncts(None) == []

    def test_and_all_roundtrip(self):
        parts = [E.Col("a").eq(1), E.Col("b").eq(2)]
        rebuilt = E.and_all(parts)
        assert len(E.conjuncts(rebuilt)) == 2

    def test_and_all_single(self):
        single = E.Col("a").eq(1)
        assert E.and_all([single]) is single

    def test_and_all_empty(self):
        assert E.and_all([]) is None


#: At least one expression of each node type, with both outcomes of
#: the boolean ones and both arms of ``CaseWhen``.
PEEK_EXPRS = [
    E.Col("s"), E.Const(42),
    E.Col("a") + E.Const(3), E.Col("a") - E.Const(2),
    E.Col("b") * E.Const(2), E.Col("a") / E.Const(2),
    E.Col("a") < E.Const(10), E.Col("a").ne(7),
    E.And(E.Col("a") > E.Const(1), E.Col("b") < E.Const(3)),
    E.Or(E.Col("a").eq(0), E.Col("a").eq(7)),
    E.Or(E.Col("a").eq(0), E.Col("a").eq(1)),
    E.Not(E.Col("a").eq(0)),
    E.Between(E.Col("a"), 5, 9), E.InList(E.Col("a"), (1, 7)),
    E.StrPrefix(E.Col("s"), "hello"), E.StrSuffix(E.Col("s"), "world"),
    E.StrContains(E.Col("s"), "lo wo"), E.StrSlice(E.Col("s"), 0, 5),
    E.ExtractYear(E.Col("d")), E.TupleOf(E.Col("a"), E.Col("b")),
    E.CaseWhen(E.Col("a") > E.Const(5), E.Const("big"), E.Const("small")),
    E.CaseWhen(E.Col("a") > E.Const(50), E.Const("big"), E.Const("small")),
]

NULL_ROW = (None,) * len(ROW)


def _outcome(expr, machine, row):
    """``expr``'s value on ``row``, or the type of error it raises."""
    try:
        return expr.compile(SCHEMA, machine)(row)
    except TypeError as exc:  # NULL into an ordering or a date
        return type(exc)


class TestPeekEval:
    """Peek evaluation — an expression compiled over
    :data:`~repro.db.exprs.UNCHARGED`, as statistics run predicates on
    their samples — computes what the machine-compiled evaluator
    computes and charges nothing."""

    @pytest.mark.parametrize("expr", PEEK_EXPRS, ids=repr)
    def test_matches_compiled(self, machine, expr):
        before = machine.pmu.counters.as_dict()
        peeked = run(expr, E.UNCHARGED)
        assert machine.pmu.counters.as_dict() == before
        assert peeked == run(expr, machine)

    @pytest.mark.parametrize("expr", PEEK_EXPRS)
    def test_null_matches_compiled(self, machine, expr):
        before = machine.pmu.counters.as_dict()
        peeked = _outcome(expr, E.UNCHARGED, NULL_ROW)
        assert machine.pmu.counters.as_dict() == before
        assert peeked == _outcome(expr, machine, NULL_ROW)

    def test_cases_cover_every_node_type(self):
        seen = set()
        stack = list(PEEK_EXPRS)
        while stack:
            expr = stack.pop()
            seen.add(type(expr))
            stack.extend(E.children(expr))
        nodes = {cls for cls in vars(E).values()
                 if isinstance(cls, type) and issubclass(cls, E.Expr)
                 and cls is not E.Expr}
        assert seen == nodes

    def test_unmodelled_node_raises(self):
        class Opaque(E.Expr):
            pass

        with pytest.raises(NotImplementedError):
            Opaque().compile(SCHEMA, E.UNCHARGED)
