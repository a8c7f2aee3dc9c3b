"""The names the benchmark reaches in ``semiortho`` exist.

``perfbench/tracer.py`` wraps each ``(module, path)`` of its ``LAYERS`` in
every ``--trace 1`` run, and a missing method raises KeyError there;
``perfbench/worker.py`` calls the library as ``so.<name>``.  Both files are
read as source and left alone."""

import ast
import sys
from pathlib import Path

import semiortho
import semiortho.cli  # noqa: F401  (the tracer wraps cli layers too)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    path = PERFBENCH / name
    return ast.parse(path.read_text(), str(path))


def test_every_traced_layer_resolves():
    layers = next(node.value for node in _tree("tracer.py").body if isinstance(node, ast.Assign)
                  and [ast.unparse(t) for t in node.targets] == ["LAYERS"])
    missing = []
    for entry in layers.elts:
        module_name, path = (ast.literal_eval(e) for e in entry.elts[1:3])
        owner = sys.modules.get(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        # as Tracer.install looks it up: a method from the class's own __dict__
        found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        if owner is None or not found:
            missing.append(f"{module_name}:{path}")
    assert len(layers.elts) > 20 and not missing


def test_every_worker_library_name_exists():
    tree = _tree("worker.py")
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "so"}
    assert len(names) > 20
    assert sorted(n for n in names if not hasattr(semiortho, n)) == []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("semiortho."):
            module = sys.modules[node.module]
            assert all(hasattr(module, alias.name) for alias in node.names)
