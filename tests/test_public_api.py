"""The lanepost names that the benchmark harness in perfbench/ uses.

The harness is read as text, so a rename or deletion in lanepost shows up
here, in the tier-1 suite, rather than as a failed benchmark run.
"""

import functools
import importlib
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))

_LP_CHAIN = re.compile(r"\blp((?:\.[A-Za-z_]\w*)+)")
_FROM_IMPORT = re.compile(r"^\s*from (lanepost(?:\.\w+)*) import ([\w, ]+)$", re.MULTILINE)


def references():
    """(file, dotted chain) for every `lp.a.b` chain and every name taken
    with `from lanepost... import`."""
    refs = set()
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        for chain in _LP_CHAIN.findall(text):
            refs.add((path.name, "lanepost" + chain))
        for module, names in _FROM_IMPORT.findall(text):
            for name in names.split(","):
                refs.add((path.name, f"{module}.{name.strip()}"))
    return sorted(refs)


def resolve(dotted):
    head, *attrs = dotted.split(".")
    return functools.reduce(getattr, attrs, importlib.import_module(head))


def test_harness_found():
    assert SOURCES, f"no harness sources under {PERFBENCH}"
    chains = {chain for _, chain in references()}
    assert "lanepost.BevInstance.from_points" in chains
    assert "lanepost.synthetic.NOISE_ID" in chains
    assert "lanepost.run_frame" in chains


@pytest.mark.parametrize("source,dotted", references())
def test_reference_resolves(source, dotted):
    resolve(dotted)
