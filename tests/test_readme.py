"""README lint: the README documents behaviour and guarantees, not private
helpers.  It names no private identifier, carries no hand-measured "about N
MB" figure, cites memory budgets by the constants of tests/test_budgets.py,
and still names every command, long option and catalog entry."""

import argparse
import ast
import re
from pathlib import Path

import pytest

from ffspectra import list_entries
from ffspectra.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")

MAX_LINES = 500
MAX_SECTION_LINES = 80

# inline code spans and fenced blocks alike
_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
_SPAN = re.compile(r"`([^`\n]+)`")
_NAME = re.compile(r"(?<![A-Za-z0-9_])[A-Za-z_][A-Za-z0-9_]*")
_ABOUT = re.compile(r"\babout\s+\d[\d.,]*(?:\s*(?:to|-|–)\s*\d[\d.,]*)?\s*(?:MB|ms|µs|s)\b")
_BUDGET = re.compile(r"\b[A-Z][A-Z0-9_]*_BUDGET_MB\b")
_MB = re.compile(r"(?<![\w.])(\d+(?:\.\d+)?)\s*MB\b")


def _code_texts(text: str) -> list[str]:
    blocks = _FENCE.findall(text)
    return blocks + _SPAN.findall(_FENCE.sub("", text))


def _is_private(name: str) -> bool:
    dunder = name.startswith("__") and name.endswith("__") and len(name) > 4
    return name.startswith("_") and not dunder


def private_identifiers(text: str) -> list[str]:
    return [name for code in _code_texts(text) for name in _NAME.findall(code) if _is_private(name)]


def about_figures(text: str) -> list[str]:
    return _ABOUT.findall(text)


def _budget_constants() -> dict[str, object]:
    tree = ast.parse((ROOT / "tests" / "test_budgets.py").read_text(encoding="utf-8"))
    constants = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = node.value.value
    return constants


def budget_errors(text: str, constants: dict[str, object]) -> list[str]:
    errors = []
    for name in sorted(set(_BUDGET.findall(text))):
        value = constants.get(name)
        if not isinstance(value, (int, float)):
            errors.append(f"{name} is not a constant of tests/test_budgets.py")
            continue
        # the parenthesis right after the name, and a parenthesis around it
        n = r"\b" + name + r"\b"
        spans = re.findall(n + r"`?\s*\(([^()]*)\)", text) + re.findall(r"\(([^()]*" + n + r"[^()]*)\)", text)
        errors += [f"{name} is {value} MB, not {mb} MB" for span in spans for mb in _MB.findall(span)
                   if float(mb) != value]
    return errors


def _command_paths(parser: argparse.ArgumentParser, prefix=()):
    """(command path, long options) for every leaf of the parser."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        options = {s for a in parser._actions for s in a.option_strings if s.startswith("--")}
        yield " ".join(prefix), options - {"--help"}
        return
    for name, child in subparsers[0].choices.items():
        yield from _command_paths(child, (*prefix, name))


def _mentions(text: str, word: str) -> bool:
    return re.search(r"(?<![\w-])" + re.escape(word) + r"(?![\w-])", text) is not None


def test_readme_names_no_private_identifier():
    assert private_identifiers(README) == []


def test_readme_carries_no_hand_measured_figure():
    assert about_figures(README) == []


def test_readme_budgets_are_the_tested_constants():
    assert budget_errors(README, _budget_constants()) == []


def test_readme_names_every_command_option_and_entry():
    paths = dict(_command_paths(build_parser()))
    assert len(paths) == 10
    missing = [path for path in paths if not _mentions(README, path)]
    missing += sorted(opt for opt in set().union(*paths.values()) if not _mentions(README, opt))
    missing += [e.name for e in list_entries() if f"`{e.name}`" not in README]
    assert missing == []


def test_readme_stays_short():
    lines = README.splitlines()
    assert len(lines) <= MAX_LINES
    starts = [i for i, line in enumerate(lines) if line.startswith("## ")] + [len(lines)]
    long = [(lines[a], b - a) for a, b in zip(starts, starts[1:]) if b - a > MAX_SECTION_LINES]
    assert long == []


@pytest.mark.parametrize(
    "text,private",
    [
        ("`_in_m_order`", ["_in_m_order"]),
        ("`field._basis_products(params)`", ["_basis_products"]),
        ("`_modp.residue_product`", ["_modp"]),
        ("```python\nfrom ffspectra import _modp\n```\n", ["_modp"]),
        ("`__init__` and `__all__`", []),
        ("`0_4` is refused, and `x1x2` is a term", []),
        ("_columns outside a code span", []),
    ],
)
def test_private_identifier_rule(text, private):
    assert private_identifiers(text) == private


@pytest.mark.parametrize(
    "text,hits",
    [
        ("peaks at about 35 MB", 1),
        ("about 2 to 4 ms, about 45.5–45.7 MB and about 0.1 s", 3),
        ("about 3 µs more", 1),
        ("about 12 bytes per value, about one and a half buffers", 0),
    ],
)
def test_about_figure_rule(text, hits):
    assert len(about_figures(text)) == hits


@pytest.mark.parametrize(
    "text,errors",
    [
        ("under `FAST_BUDGET_MB` (52 MB)", 0),
        ("under `FAST_BUDGET_MB` (52 MB; it peaks at 45.6 MB)", 1),
        ("(the fast path, under `FAST_BUDGET_MB`, 50 MB)", 1),
        ("under `SLOW_BUDGET_MB`", 1),
        ("an interval [0, 60 MB) or (open\n\nunder `FAST_BUDGET_MB` (52 MB)", 0),
    ],
)
def test_budget_rule(text, errors):
    assert len(budget_errors(text, {"FAST_BUDGET_MB": 52})) == errors
