"""Every public name of the ``emoreg`` package is read by the library.

A top-level function or class of module ``X`` counts as read when ``X``
itself reads the name, or another library module imports it from ``.X`` or
reads it off the imported module (``tz.linear``).  A public method or
property counts as read when any library module reads an attribute of that
name; types are not resolved, so this half of the guard can miss a method
that shares its name with one in use.  ``__init__.py`` is not counted: a
re-export runs nothing.  ``ALLOWED`` names the exceptions, each with its
reason.
"""

import ast
from pathlib import Path

from emoreg import tensor as tz

SRC = Path(__file__).resolve().parents[1] / "src" / "emoreg"

ALLOWED = {
    "tensor.tsum": "the tests' finite-difference losses sum their outputs; moving them to "
                   "tmean would shrink every loss below the fixed 1e-4 floor and loosen "
                   "the check",
    "tensor.finite_difference_check": "acceptance criterion 1 and demo 01 check gradients "
                                      "with it",
    "train.linear_baseline_ccc": "the README documents it as the synthetic data's sanity "
                                 "floor; demo 02 and acceptance criterion 6 call it",
}


def references(sources: dict, module: str) -> tuple:
    """``(names, attributes)``: the names of ``module`` read by the library
    modules in ``sources`` (file name -> text), and every attribute name any
    of them reads."""
    names, attributes = set(), set()
    for name, text in sources.items():
        if name == "__init__.py":
            continue
        tree = ast.parse(text)
        attributes |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        if name == f"{module}.py":
            names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            continue
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module:
                names |= {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
                aliases |= {a.asname or a.name for a in node.names if a.name == module}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                  and isinstance(n.value, ast.Name) and n.value.id in aliases}
    return names, attributes


def public_names(source: str) -> list:
    """Public top-level functions and classes defined in ``source``, and the
    public methods and properties of those classes as ``Class.method``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [f"{node.name}.{m.name}" for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return names


def unread(sources: dict, module: str) -> list:
    """``module``'s public names that no library code reads, as ``module.name``."""
    names, attributes = references(sources, module)
    return [f"{module}.{name}" for name in public_names(sources[f"{module}.py"])
            if name not in names and name.partition(".")[2] not in attributes]


def test_detects_an_unreferenced_name():
    sources = {
        "tensor.py": "def add(a): return a\ndef used(a): return add(a)\ndef unused(a): pass\n"
                     "class Rng:\n    def child(self): pass\n    @property\n"
                     "    def spare(self): pass\n",
        "model.py": "import numpy as np\nfrom . import tensor as tz\nfrom .tensor import Rng\n"
                    "y = tz.used(Rng().child()) + np.unused\n",
        "__init__.py": "from .tensor import unused\nRng.spare\n",
    }
    assert unread(sources, "tensor") == ["tensor.unused", "tensor.Rng.spare"]
    assert unread(sources, "model") == []


def test_every_public_tensor_name_is_run_by_the_library():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert [name for name in unread(sources, "tensor") if name not in ALLOWED] == []


def test_every_public_name_in_the_package_is_read_by_the_library():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    modules = sorted(name[:-3] for name in sources if name != "__init__.py")
    found = [name for module in modules for name in unread(sources, module)]
    assert [name for name in found if name not in ALLOWED] == []
    # An allowlist entry is dropped once the library reads the name or it is gone.
    assert sorted(ALLOWED) == sorted(name for name in found if name in ALLOWED)


def test_unfused_ops_and_unused_operators_are_gone():
    # The model's relu and GEMMs run inside the fused nodes and ``linear``.
    for name in ("relu", "matmul", "neg", "_TAPE_STACK", "_push_tape", "_pop_tape"):
        assert not hasattr(tz, name), name
    for name in ("__matmul__", "__neg__", "__radd__", "__rsub__", "__rmul__", "ndim"):
        assert not hasattr(tz.Tensor, name), name
