"""Typed unit vocabulary for the repo's counter and pricing quantities.

The paper's runtime interface (Section III-B2) moves two kinds of
counter readings over the network — cycle counts and committed
instruction counts — and the cloud layer (Section VI-B) prices
configurations in dollars per hour.  Mixing these up is a silent bug:
every one of them is a plain ``float`` at run time, so ``cycles +
instructions`` type-checks, runs, and produces garbage.

This module gives each quantity a name.  The aliases are
:data:`typing.Annotated` wrappers around ``float``/``int``, so they are
*zero-cost*: at run time and under mypy they behave exactly like the
underlying number.  Their payload — a :class:`Unit` marker — exists for
the benefit of the ``unit-mix`` lint rule
(:mod:`repro.analysis.numerics` hosts the numeric rules; the unit rule
lives in this module to keep the vocabulary and its checker together),
which flags ``+``/``-`` between values annotated with *different*
units inside a function.  Ratios are deliberately unrestricted:
dividing instructions by cycles is how IPC is *made*, so ``*`` and
``/`` never warn.

Usage::

    from repro.analysis.units import Cycles, Instructions

    def drain(cycles: Cycles, instructions: Instructions) -> float:
        return instructions / cycles          # fine: makes a ratio
        # cycles + instructions               # flagged by `unit-mix`

This module must stay import-light (stdlib ``typing`` only): domain
modules under ``arch/``/``sim/`` import it for annotations, so it must
never import them back.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Annotated, Dict, Iterator, List, Tuple, Union

from repro.analysis.core import FileContext, Finding, Rule, walk_functions


@dataclass(frozen=True)
class Unit:
    """Marker carried in ``Annotated`` metadata naming a quantity's unit."""

    name: str


CYCLES = Unit("cycles")
INSTRUCTIONS = Unit("instructions")
DOLLARS = Unit("dollars")
DOLLARS_PER_HOUR = Unit("dollars/hour")
INSTRUCTIONS_PER_CYCLE = Unit("instructions/cycle")

Cycles = Annotated[float, CYCLES]
"""A duration or timestamp measured in clock cycles."""

CycleCount = Annotated[int, CYCLES]
"""An integral cycle counter reading."""

Instructions = Annotated[float, INSTRUCTIONS]
"""A quantity of committed instructions."""

InstructionCount = Annotated[int, INSTRUCTIONS]
"""An integral committed-instruction counter reading."""

Dollars = Annotated[float, DOLLARS]
"""An absolute dollar amount."""

DollarsPerHour = Annotated[float, DOLLARS_PER_HOUR]
"""A rental cost rate, the unit of every ``cost_rate`` in the repo."""

InstructionsPerCycle = Annotated[float, INSTRUCTIONS_PER_CYCLE]
"""An IPC value: the ratio the performance model predicts."""

#: Annotation spelling (as written in source) -> unit name.  The lint
#: rule matches annotations *syntactically* — it sees source text, not
#: resolved objects — so the vocabulary is keyed by alias name.
UNIT_ALIASES: Dict[str, str] = {
    "Cycles": CYCLES.name,
    "CycleCount": CYCLES.name,
    "Instructions": INSTRUCTIONS.name,
    "InstructionCount": INSTRUCTIONS.name,
    "Dollars": DOLLARS.name,
    "DollarsPerHour": DOLLARS_PER_HOUR.name,
    "InstructionsPerCycle": INSTRUCTIONS_PER_CYCLE.name,
}


def _annotation_unit(annotation: ast.expr) -> Union[str, None]:
    """The unit named by an annotation expression, if any.

    Accepts ``Cycles``, ``units.Cycles``, ``Optional[Cycles]`` and the
    like: the first vocabulary alias mentioned anywhere in the
    annotation wins.
    """
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id in UNIT_ALIASES:
            return UNIT_ALIASES[node.id]
        if isinstance(node, ast.Attribute) and node.attr in UNIT_ALIASES:
            return UNIT_ALIASES[node.attr]
    return None


def _function_units(
    function: Union[ast.FunctionDef, ast.AsyncFunctionDef],
) -> Dict[str, str]:
    """Map of local name -> unit, from parameter and variable annotations."""
    units: Dict[str, str] = {}
    arguments = function.args
    every_arg = (
        list(arguments.posonlyargs)
        + list(arguments.args)
        + list(arguments.kwonlyargs)
        + ([arguments.vararg] if arguments.vararg else [])
        + ([arguments.kwarg] if arguments.kwarg else [])
    )
    for arg in every_arg:
        if arg.annotation is not None:
            unit = _annotation_unit(arg.annotation)
            if unit is not None:
                units[arg.arg] = unit
    for node in ast.walk(function):
        if isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            unit = _annotation_unit(node.annotation)
            if unit is not None:
                units[node.target.id] = unit
    return units


def _operand_unit(
    node: ast.expr, units: Dict[str, str]
) -> Union[Tuple[str, str], None]:
    """``(display_name, unit)`` when ``node`` is a unit-annotated name."""
    if isinstance(node, ast.Name) and node.id in units:
        return node.id, units[node.id]
    return None


class UnitMixRule(Rule):
    """``+``/``-`` between values annotated with different units.

    The check is intra-function and purely syntactic: only names whose
    unit is visible from an annotation in the same function participate,
    so it can never false-positive on unannotated code — annotating with
    the :mod:`repro.analysis.units` vocabulary is what opts a function
    in.
    """

    id = "unit-mix"
    description = (
        "additive arithmetic between values annotated with different "
        "repro.analysis.units units"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for function in walk_functions(context.nodes):
            units = _function_units(function)
            if len(set(units.values())) < 2:
                continue
            for node in ast.walk(function):
                if not isinstance(node, ast.BinOp):
                    continue
                if not isinstance(node.op, (ast.Add, ast.Sub)):
                    continue
                left = _operand_unit(node.left, units)
                right = _operand_unit(node.right, units)
                if left is None or right is None:
                    continue
                if left[1] == right[1]:
                    continue
                operator = "+" if isinstance(node.op, ast.Add) else "-"
                yield context.finding(
                    self,
                    node,
                    f"'{left[0]} {operator} {right[0]}' mixes units: "
                    f"{left[0]} is in {left[1]} but {right[0]} is in "
                    f"{right[1]} (multiply/divide to convert first)",
                )


RULES: List[Rule] = [UnitMixRule()]
