"""Import layout of the package, read from the sources with `ast`: the
moment kernel is a leaf, scipy sits in one module, no module reaches into
another's private names or the private fields of its laws, each `__all__`
lists names its module defines, and every definition is reached by a
program.  One fresh interpreter checks what `import khinchin_lab` loads."""
import ast
import os
import pathlib
import subprocess
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


def test_importing_the_package_loads_every_layer_and_scipy():
    # the benchmark's import rows time `import khinchin_lab` and read the
    # import of scipy.special out of it
    code = "import sys, khinchin_lab; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)}).stdout
    layers = ["exactprob", "haagerup", "lemmas", "quadrature", "reports", "schur"]
    assert {"scipy.special", *(f"khinchin_lab.{m}" for m in layers)} <= set(out.split())


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def test_every_public_name_is_defined_in_its_module():
    # defined, not imported: each public name has one module that lists it
    missing = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        missing += [(path.name, name) for node in tree.body if _is_all(node)
                    for name in ast.literal_eval(node.value) if name not in defined]
    assert missing == []


class _Module:
    """A source file's top-level definitions, the names and modules of
    khinchin_lab that its imports bind, and the statements that run when it
    is imported; a script (name None) is all statements."""

    def __init__(self, name, path):
        self.name, self.defs, self.names, self.modules, self.body = name, {}, {}, {}, []
        for node in ast.parse(path.read_text()).body:
            if name and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
            elif isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.startswith("khinchin_lab")):
                source = (node.module or "").removeprefix("khinchin_lab").lstrip(".")
                for alias in node.names:
                    if source:
                        self.names[alias.asname or alias.name] = (source, alias.name)
                    else:
                        self.modules[alias.asname or alias.name] = alias.name
            elif not (isinstance(node, ast.Import) or _is_all(node)):
                self.body.append(node)


def _unreachable():
    """(module, name) of each top-level definition in src/ that neither
    `cli.main`, the scripts, module-level code nor a function the benchmark
    tracer wraps (`perfbench/spans.py` `_WRAPPED`) reaches.  A reference is
    a bare name or `module.name`, followed through the imports that bind
    it."""
    modules = {path.stem: _Module(path.stem, path) for path in MODULES}

    def resolve(module, name):
        while name not in module.defs:
            if name not in module.names or module.names[name][0] not in modules:
                return None
            source, name = module.names[name]
            module = modules[source]
        return module.name, name

    def references(module, nodes):
        for node in (sub for top in nodes for sub in ast.walk(top)):
            if isinstance(node, ast.Name):
                yield resolve(module, node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in module.modules):
                yield resolve(modules[module.modules[node.value.id]], node.attr)

    spans = ast.parse((SRC.parents[1] / "perfbench" / "spans.py").read_text())
    wrapped = next(ast.literal_eval(node.value) for node in spans.body
                   if isinstance(node, ast.Assign) and node.targets[0].id == "_WRAPPED")
    todo = [("cli", "main")]
    todo += [resolve(modules[m], name) for m, names in wrapped.items() for name in names]
    scripts = [_Module(None, path) for path in (SRC.parents[1] / "scripts").glob("*.py")]
    for module in [*modules.values(), *scripts]:
        todo += references(module, module.body)
    reached = set()
    while todo:
        ref = todo.pop()
        if ref is not None and ref not in reached:
            reached.add(ref)
            todo += references(modules[ref[0]], [modules[ref[0]].defs[ref[1]]])
    return sorted({(m, name) for m, module in modules.items() for name in module.defs}
                  - reached)


def test_every_definition_is_reached_by_a_program():
    assert _unreachable() == []
