"""Every public function and class of ``emoreg.tensor`` is run by the library.

A name counts as run when ``tensor.py`` itself reads it, or another library
module imports it from ``.tensor`` or reads it off the imported module
(``tz.linear``).  ``__init__.py`` is not counted: a re-export runs nothing.
``ALLOWED`` names the exceptions, each with its reason.
"""

import ast
from pathlib import Path

from emoreg import tensor as tz

SRC = Path(__file__).resolve().parents[1] / "src" / "emoreg"

ALLOWED = {
    "tsum": "the tests' finite-difference losses sum their outputs; moving them to tmean "
            "would shrink every loss below the fixed 1e-4 floor and loosen the check",
    "finite_difference_check": "acceptance criterion 1 and demo 01 check gradients with it",
}


def tensor_references(sources: dict) -> set:
    """Names of ``emoreg.tensor`` read by the modules in ``sources`` (file name -> text)."""
    used = set()
    for name, text in sources.items():
        if name == "__init__.py":
            continue
        tree = ast.parse(text)
        if name == "tensor.py":
            used |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            continue
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "tensor":
                used |= {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
                aliases |= {a.asname or a.name for a in node.names if a.name == "tensor"}
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name) and n.value.id in aliases}
    return used


def public_names(source: str) -> list:
    """Public top-level functions and classes defined in ``source``."""
    return [n.name for n in ast.parse(source).body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")]


def test_detects_an_unreferenced_name():
    sources = {
        "tensor.py": "def add(a): return a\ndef used(a): return add(a)\ndef unused(a): pass\n",
        "model.py": "import numpy as np\nfrom . import tensor as tz\nfrom .tensor import Rng\n"
                    "y = tz.used(Rng) + np.unused\n",
        "__init__.py": "from .tensor import unused\n",
    }
    assert tensor_references(sources) >= {"add", "used", "Rng"}
    assert "unused" not in tensor_references(sources)


def test_every_public_tensor_name_is_run_by_the_library():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    public, used = public_names(sources["tensor.py"]), tensor_references(sources)
    assert [name for name in public if name not in used and name not in ALLOWED] == []
    # An allowlist entry is dropped once the library runs the name or it is gone.
    assert [name for name in ALLOWED if name not in public or name in used] == []


def test_unfused_ops_and_unused_operators_are_gone():
    # The model's relu and GEMMs run inside the fused nodes and ``linear``.
    for name in ("relu", "matmul", "neg", "_TAPE_STACK", "_push_tape", "_pop_tape"):
        assert not hasattr(tz, name), name
    for name in ("__matmul__", "__neg__", "__radd__", "__rsub__", "__rmul__", "ndim"):
        assert not hasattr(tz.Tensor, name), name
