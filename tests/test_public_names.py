"""Every public name resolves: each module's `__all__`, and each module
attribute that README.md cites in backticks, such as `geom.spans` or
`geom.Parallelepiped.slabs`, so deleting or renaming one fails here."""

import importlib
import pkgutil
import re
from pathlib import Path

import polarvol

README = Path(__file__).resolve().parents[1] / "README.md"
CITE = re.compile(r"(?<![\w.])(geom|volume|measure|analysis|experiments|rng)((?:\.[A-Za-z_]\w*)+)")


def _resolves(obj, names):
    for name in names:
        if name in getattr(obj, "__dataclass_fields__", {}):
            return True  # a dataclass field without a default is no class attribute
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_every_name_in_all_exists():
    names = [f"polarvol.{m.name}" for m in pkgutil.iter_modules(polarvol.__path__)]
    modules = [polarvol, *map(importlib.import_module, names)]
    missing = [f"{module.__name__}.{name}" for module in modules for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing, missing


def test_every_module_attribute_readme_cites_exists():
    cites = {match.group(0) for span in re.findall(r"`[^`]*`", README.read_text()) for match in CITE.finditer(span)}
    assert cites
    missing = [cite for cite in sorted(cites)
               if not _resolves(importlib.import_module(f"polarvol.{cite.split('.')[0]}"), cite.split(".")[1:])]
    assert not missing, missing
