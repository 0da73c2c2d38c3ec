"""The README's table of work limits against the library: every constant it
names exists, and the limit it states first is that constant's value."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
HEADER = "| constant | limit | guards |"


def budget_rows() -> list[list[str]]:
    """The cells of each row of the work-limit table, split at the pipes
    that are not escaped (`\\|B\\|` stays in its cell)."""
    lines = [line.strip() for line in README.read_text().splitlines()]
    start = lines.index(HEADER) + 2  # past the header and its |---| rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]])
    return rows


def named_attribute(text: str):
    """(module, name) for a backticked `module.NAME` of u3kit, else None."""
    m = re.fullmatch(r"([a-z_0-9]+)\.([A-Za-z_]\w*)", text)
    return m.groups() if m else None


def test_budget_table_names_resolve():
    rows = budget_rows()
    assert len(rows) >= 5 and all(len(r) == 3 for r in rows)
    named = [ref for row in rows for span in re.findall(r"`([^`]*)`", " ".join(row))
             if (ref := named_attribute(span))]
    assert len(named) >= len(rows)
    for module, name in named:
        assert hasattr(importlib.import_module(f"u3kit.{module}"), name), f"{module}.{name}"


def test_budget_table_limits_are_the_constants():
    for constant, limit, _ in budget_rows():
        module, name = named_attribute(constant.strip("`"))
        first = re.search(r"\d[\d,]*", limit).group()
        value = getattr(importlib.import_module(f"u3kit.{module}"), name)
        assert int(first.replace(",", "")) == value, f"{module}.{name}: README says {first}, the code {value}"
