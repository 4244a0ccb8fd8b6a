"""Typed expression trees with micro-op accounting.

Expressions are built against a schema (column references are resolved
to positions at plan-bind time) and compiled to Python closures over the
machine, so per-row evaluation is one function call.  Each operator
charges the machine for the compute micro-ops it models:

* comparisons: one ``cmp`` + one ``branch``;
* arithmetic: one ``add`` (add/sub) or ``mul`` (mul/div);
* boolean connectives: a ``branch`` per evaluated operand
  (short-circuit);
* string predicates: one ``cmp`` per 8 compared bytes.

Column references are free — the scan already loaded the column into a
"register" (the Python tuple), mirroring how a compiled query would keep
hot attributes in registers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

from repro.errors import PlanError
from repro.db.types import Schema
from repro.sim.machine import Machine

Evaluator = Callable[[tuple], object]

_CMP_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}

_ARITH_ADD = {"+", "-"}
_ARITH_MUL = {"*", "/"}


def _free(n: int) -> None:
    """A micro-op charge that costs nothing."""


#: Machine stand-in whose ``cmp``/``branch``/``add``/``mul``/``other``
#: charge nothing: an expression compiled against it computes what it
#: computes on a real machine, for statistics samples evaluated outside
#: any measured window.
UNCHARGED = SimpleNamespace(cmp=_free, branch=_free, add=_free,
                            mul=_free, other=_free)


class Expr:
    """Base expression node."""

    def compile(self, schema: Schema, machine: Machine) -> Evaluator:
        raise NotImplementedError

    # Operator sugar so plans read naturally.
    def __lt__(self, other): return Cmp("<", self, _lift(other))
    def __le__(self, other): return Cmp("<=", self, _lift(other))
    def __gt__(self, other): return Cmp(">", self, _lift(other))
    def __ge__(self, other): return Cmp(">=", self, _lift(other))
    def eq(self, other): return Cmp("=", self, _lift(other))
    def ne(self, other): return Cmp("!=", self, _lift(other))
    def __add__(self, other): return Arith("+", self, _lift(other))
    def __sub__(self, other): return Arith("-", self, _lift(other))
    def __mul__(self, other): return Arith("*", self, _lift(other))
    def __truediv__(self, other): return Arith("/", self, _lift(other))


def _lift(value) -> "Expr":
    return value if isinstance(value, Expr) else Const(value)


@dataclass(frozen=True)
class Col(Expr):
    """A column reference by name (resolved at compile time)."""

    name: str

    def compile(self, schema: Schema, machine: Machine) -> Evaluator:
        index = schema.index_of(self.name)
        return lambda row: row[index]


@dataclass(frozen=True)
class Const(Expr):
    value: object

    def compile(self, schema: Schema, machine: Machine) -> Evaluator:
        value = self.value
        return lambda row: value


@dataclass(frozen=True)
class Cmp(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _CMP_OPS:
            raise PlanError(f"unknown comparison {self.op!r}")

    def compile(self, schema: Schema, machine: Machine) -> Evaluator:
        lhs = self.left.compile(schema, machine)
        rhs = self.right.compile(schema, machine)
        fn = _CMP_OPS[self.op]
        cmp_op = machine.cmp
        branch = machine.branch

        def run(row: tuple) -> bool:
            cmp_op(1)
            branch(1)
            a = lhs(row)
            b = rhs(row)
            if a is None or b is None:
                return False  # SQL three-valued logic collapses to False
            return fn(a, b)

        return run


@dataclass(frozen=True)
class Arith(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _ARITH_ADD | _ARITH_MUL:
            raise PlanError(f"unknown arithmetic op {self.op!r}")

    def compile(self, schema: Schema, machine: Machine) -> Evaluator:
        lhs = self.left.compile(schema, machine)
        rhs = self.right.compile(schema, machine)
        op = self.op
        if op in _ARITH_ADD:
            cost = machine.add
            fn = (lambda a, b: a + b) if op == "+" else (lambda a, b: a - b)
        else:
            cost = machine.mul
            fn = (lambda a, b: a * b) if op == "*" else (lambda a, b: a / b)

        def run(row: tuple):
            cost(1)
            a = lhs(row)
            b = rhs(row)
            if a is None or b is None:
                return None  # NULL propagates through arithmetic
            return fn(a, b)

        return run


@dataclass(frozen=True)
class And(Expr):
    parts: tuple

    def __init__(self, *parts: Expr):
        object.__setattr__(self, "parts", tuple(parts))

    def compile(self, schema: Schema, machine: Machine) -> Evaluator:
        compiled = [p.compile(schema, machine) for p in self.parts]
        branch = machine.branch

        def run(row: tuple) -> bool:
            for part in compiled:
                branch(1)
                if not part(row):
                    return False
            return True

        return run


@dataclass(frozen=True)
class Or(Expr):
    parts: tuple

    def __init__(self, *parts: Expr):
        object.__setattr__(self, "parts", tuple(parts))

    def compile(self, schema: Schema, machine: Machine) -> Evaluator:
        compiled = [p.compile(schema, machine) for p in self.parts]
        branch = machine.branch

        def run(row: tuple) -> bool:
            for part in compiled:
                branch(1)
                if part(row):
                    return True
            return False

        return run


@dataclass(frozen=True)
class Not(Expr):
    part: Expr

    def compile(self, schema: Schema, machine: Machine) -> Evaluator:
        inner = self.part.compile(schema, machine)
        branch = machine.branch

        def run(row: tuple) -> bool:
            branch(1)
            return not inner(row)

        return run


@dataclass(frozen=True)
class Between(Expr):
    """lo <= expr <= hi (inclusive both ends, like SQL BETWEEN)."""

    part: Expr
    lo: object
    hi: object

    def compile(self, schema: Schema, machine: Machine) -> Evaluator:
        inner = self.part.compile(schema, machine)
        lo, hi = self.lo, self.hi
        cmp_op = machine.cmp
        branch = machine.branch

        def run(row: tuple) -> bool:
            cmp_op(2)
            branch(1)
            value = inner(row)
            return lo <= value <= hi

        return run


@dataclass(frozen=True)
class InList(Expr):
    part: Expr
    values: tuple

    def compile(self, schema: Schema, machine: Machine) -> Evaluator:
        inner = self.part.compile(schema, machine)
        values = frozenset(self.values)
        n = max(1, len(values).bit_length())
        cmp_op = machine.cmp
        branch = machine.branch

        def run(row: tuple) -> bool:
            cmp_op(n)
            branch(1)
            return inner(row) in values

        return run


@dataclass(frozen=True)
class StrPrefix(Expr):
    """``expr LIKE 'prefix%'``."""

    part: Expr
    prefix: str

    def compile(self, schema: Schema, machine: Machine) -> Evaluator:
        inner = self.part.compile(schema, machine)
        prefix = self.prefix
        n = max(1, (len(prefix) + 7) // 8)
        cmp_op = machine.cmp
        branch = machine.branch

        def run(row: tuple) -> bool:
            cmp_op(n)
            branch(1)
            return str(inner(row)).startswith(prefix)

        return run


@dataclass(frozen=True)
class StrContains(Expr):
    """``expr LIKE '%needle%'`` — costed as a scan over the value."""

    part: Expr
    needle: str
    width_hint: int = 32

    def compile(self, schema: Schema, machine: Machine) -> Evaluator:
        inner = self.part.compile(schema, machine)
        needle = self.needle
        n = max(1, self.width_hint // 8)
        cmp_op = machine.cmp
        branch = machine.branch

        def run(row: tuple) -> bool:
            cmp_op(n)
            branch(1)
            return needle in str(inner(row))

        return run


@dataclass(frozen=True)
class ExtractYear(Expr):
    """Year number of a date stored as a proleptic-Gregorian ordinal
    (``datetime.date.toordinal``; see workloads.tpch)."""

    part: Expr

    def compile(self, schema: Schema, machine: Machine) -> Evaluator:
        from datetime import date as _date

        inner = self.part.compile(schema, machine)
        mul = machine.mul

        def run(row: tuple) -> int:
            mul(1)
            return _date.fromordinal(int(inner(row))).year

        return run


@dataclass(frozen=True)
class StrSuffix(Expr):
    """``expr LIKE '%suffix'``."""

    part: Expr
    suffix: str

    def compile(self, schema: Schema, machine: Machine) -> Evaluator:
        inner = self.part.compile(schema, machine)
        suffix = self.suffix
        n = max(1, (len(suffix) + 7) // 8)
        cmp_op = machine.cmp
        branch = machine.branch

        def run(row: tuple) -> bool:
            cmp_op(n)
            branch(1)
            return str(inner(row)).endswith(suffix)

        return run


@dataclass(frozen=True)
class StrSlice(Expr):
    """``substring(expr from start+1 for stop-start)`` (0-based slice)."""

    part: Expr
    start: int
    stop: int

    def compile(self, schema: Schema, machine: Machine) -> Evaluator:
        inner = self.part.compile(schema, machine)
        start, stop = self.start, self.stop
        other = machine.other

        def run(row: tuple) -> str:
            other(1)
            return str(inner(row))[start:stop]

        return run


@dataclass(frozen=True)
class TupleOf(Expr):
    """A tuple of sub-expressions — the composite join-key construct."""

    parts: tuple

    def __init__(self, *parts: Expr):
        object.__setattr__(self, "parts", tuple(parts))

    def compile(self, schema: Schema, machine: Machine) -> Evaluator:
        compiled = [p.compile(schema, machine) for p in self.parts]
        other = machine.other

        def run(row: tuple) -> tuple:
            other(1)
            return tuple(fn(row) for fn in compiled)

        return run


@dataclass(frozen=True)
class CaseWhen(Expr):
    """``CASE WHEN cond THEN a ELSE b END``."""

    cond: Expr
    then: Expr
    otherwise: Expr

    def compile(self, schema: Schema, machine: Machine) -> Evaluator:
        cond = self.cond.compile(schema, machine)
        then = self.then.compile(schema, machine)
        other = self.otherwise.compile(schema, machine)
        branch = machine.branch

        def run(row: tuple):
            branch(1)
            return then(row) if cond(row) else other(row)

        return run


#: Nodes whose sub-expressions are one variadic ``parts`` tuple.
_VARIADIC = (And, Or, TupleOf)


def _child_fields(expr: Expr) -> list[str]:
    """Names of ``expr``'s fields that hold one sub-expression each."""
    return [f.name for f in fields(expr)
            if isinstance(getattr(expr, f.name), Expr)]


def children(expr: Expr) -> tuple:
    """The direct sub-expressions of ``expr``, in field order."""
    if isinstance(expr, _VARIADIC):
        return expr.parts
    return tuple(getattr(expr, name) for name in _child_fields(expr))


def with_children(expr: Expr, new: Sequence[Expr]) -> Expr:
    """``expr`` rebuilt over ``new`` (one per :func:`children` entry);
    ``expr`` itself when every child is unchanged."""
    if all(a is b for a, b in zip(children(expr), new)):
        return expr
    if isinstance(expr, _VARIADIC):
        return type(expr)(*new)
    return replace(expr, **dict(zip(_child_fields(expr), new)))


def columns_used(expr: Expr) -> set[str]:
    """Every column name referenced anywhere inside ``expr``."""
    if isinstance(expr, Col):
        return {expr.name}
    out: set[str] = set()
    for child in children(expr):
        out |= columns_used(child)
    return out


def conjuncts(expr: Optional[Expr]) -> list[Expr]:
    """Flatten an AND tree into its conjuncts (None -> [])."""
    if expr is None:
        return []
    if isinstance(expr, And):
        out: list[Expr] = []
        for part in expr.parts:
            out.extend(conjuncts(part))
        return out
    return [expr]


def and_all(parts: Sequence[Expr]) -> Optional[Expr]:
    """Rebuild an AND tree from conjuncts (inverse of :func:`conjuncts`)."""
    parts = [p for p in parts if p is not None]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return And(*parts)
