"""The README's backticked dotted names resolve in the package, so a rename
in ``src/`` cannot leave the README pointing at nothing."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import greedyaug as ga

README = Path(__file__).resolve().parents[1] / "README.md"
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")

for module in pkgutil.iter_modules(ga.__path__):  # greedyaug.verify is not imported by the package
    importlib.import_module(f"greedyaug.{module.name}")


def readme_names() -> list[str]:
    """The backticked dotted names rooted at ``greedyaug`` or at a class it exports."""
    names = set(DOTTED.findall(README.read_text(encoding="utf-8")))
    return sorted(name for name in names if name.startswith("greedyaug.")
                  or isinstance(getattr(ga, name.split(".")[0], None), type))


def test_readme_names_cover_the_package_constants_and_orbit_api():
    assert {"greedyaug.core.MAX_STEPS", "greedyaug.flows.MAX_LP_COLUMNS",
            "greedyaug.families.FAMILIES", "greedyaug.core.Blocks",
            "SetFunctionOracle.scaled_reps", "Blocks.table"} <= set(readme_names())


@pytest.mark.parametrize("name", readme_names())
def test_readme_name_resolves(name):
    root, *path = name.split(".")
    target = getattr(ga, root) if root != "greedyaug" else ga
    for attr in path:
        assert hasattr(target, attr), f"README names {name}, but {attr!r} is not there"
        target = getattr(target, attr)
