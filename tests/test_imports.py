"""Import layout of the package, read from the sources with `ast`: the
moment kernel is a leaf, scipy sits in one module, and no module reaches
into another's private names or the private fields of its laws."""
import ast
import pathlib
import sys

from khinchin_lab.exactprob import SymmetricAtomLaw

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "khinchin_lab"
MODULES = sorted(SRC.glob("*.py"))


def _imports(path):
    """(top-level module, names) of each import in a source file; a relative
    import's module is "khinchin_lab"."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out += [(alias.name.split(".")[0], []) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            top = "khinchin_lab" if node.level else node.module.split(".")[0]
            out.append((top, [alias.name for alias in node.names]))
    return out


def test_exactprob_imports_only_the_standard_library_and_numpy():
    tops = {top for top, _ in _imports(SRC / "exactprob.py")} - {"__future__"}
    assert "json" not in tops
    assert tops - {"numpy"} <= set(sys.stdlib_module_names), tops


def test_scipy_is_imported_by_lemmas_alone():
    users = [path.name for path in MODULES
             if any(top == "scipy" for top, _ in _imports(path))]
    assert users == ["lemmas.py"]


def test_no_module_imports_a_private_name_of_another():
    private = [(path.name, name) for path in MODULES for top, names in _imports(path)
               if top == "khinchin_lab" for name in names if name.startswith("_")]
    assert private == []


def test_no_module_reads_the_private_fields_of_a_law():
    private = {name for name in [*SymmetricAtomLaw.__slots__, *vars(SymmetricAtomLaw)]
               if name.startswith("_") and not name.startswith("__")}
    reads = [(path.name, node.attr) for path in MODULES if path.name != "exactprob.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in private]
    assert reads == []
