"""The package runs on the standard library alone: pyproject.toml declares
no runtime dependency, and every module of src/semiortho imports only
standard-library modules and semiortho itself.  README's "Library layout"
table names each of those modules once.  The CLI turns a library ValueError
into exit 2 in main alone."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.findall(r"^dependencies\s*=\s*(.*)$", project, re.M) == ["[]"]


def test_imports_name_the_standard_library_or_semiortho():
    allowed = sys.stdlib_module_names | {"semiortho"}
    modules = sorted((ROOT / "src" / "semiortho").glob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # level > 0: relative
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert not foreign


def test_readme_layout_table_names_every_module():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `semiortho\.(\w+)` \|", table, re.M)
    modules = sorted(path.stem for path in (ROOT / "src" / "semiortho").glob("*.py"))
    assert sorted(listed) == [m for m in modules if m != "__init__"]


def test_cli_maps_library_value_errors_in_main_alone():
    tree = ast.parse((ROOT / "src" / "semiortho" / "cli.py").read_text())
    handlers = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]
    rewraps = [h.lineno for h in handlers if h.name and len(h.body) == 1
               and isinstance(h.body[0], ast.Raise)
               and ast.unparse(h.body[0].exc) == f"CliError(str({h.name}))"]
    assert not rewraps  # each such handler would only repeat main's
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = {ast.unparse(t) for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)
              for t in getattr(node.type, "elts", [node.type])}
    assert {"CliError", "ValueError"} <= caught
