"""Module boundaries of the package, read from its sources with `ast`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "queenscheck"


def _imports(path):
    """(module, name imported from it or None) for each import in path;
    modules of the package are named without the package."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("queenscheck.")
            if module in ("", "queenscheck"):  # from . import unify
                out.extend((alias.name, None) for alias in node.names)
            else:
                out.extend((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.extend((alias.name.removeprefix("queenscheck."), None)
                       for alias in node.names)
    return out


def test_no_module_imports_a_private_name():
    bad = [f"{path.name}: {module}.{name}"
           for path in sorted(SRC.glob("*.py"))
           for module, name in _imports(path)
           if name is not None and name.startswith("_")]
    assert bad == []


def test_no_module_draws_random_numbers():
    # every verdict is a function of the check's arguments
    bad = [path.name for path in sorted(SRC.glob("*.py"))
           if "random" in [module.split(".")[0] for module, _ in _imports(path)]]
    assert bad == []


def test_only_terms_runs_generated_code():
    # terms compiles the atom builders; no other module turns text into code
    bad = [path.name for path in sorted(SRC.glob("*.py")) if path.name != "terms.py"
           for node in ast.walk(ast.parse(path.read_text()))
           if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
           and node.func.id in ("exec", "eval", "compile")]
    assert bad == []


def test_checkers_do_not_import_unify():
    # verify and herbrand build and match clause instances on slot
    # templates; unification belongs to the resolution engine
    for name in ("verify.py", "herbrand.py"):
        assert "unify" not in [module for module, _ in _imports(SRC / name)]


def test_only_specs_and_queens_name_the_program_predicates():
    # the checkers read the program's predicates through the level mapping
    # and the spec sets, so that they work on any mapping and any program
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("specs.py", "queens.py"):
            continue
        strings = {node.value for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        assert not strings & {"pqs", "pq"}, path.name
    assert not {"PQS", "PQ"} & {name for _, name in _imports(SRC / "verify.py")}


def test_one_binding_store():
    # the engine and the unifier bind variables in place, in cells, and
    # always run the occurs scan: no function takes a separate store of
    # bindings, or a switch for the occur-check
    for name in ("unify.py", "engine.py"):
        params = [arg.arg for node in ast.walk(ast.parse((SRC / name).read_text()))
                  if isinstance(node, (ast.FunctionDef, ast.Lambda))
                  for arg in (*node.args.posonlyargs, *node.args.args,
                              *node.args.kwonlyargs)]
        assert not {"bindings", "occur_check"} & set(params), name


@pytest.mark.parametrize("module, caller", [
    ("parser.py", "_Parser.term"), ("unify.py", "try_unify_atoms"), ("engine.py", "_run"),
], ids=["parser.py", "unify.py", "engine.py"])
def test_parser_calls_form_no_cycle(module, caller):
    # the parser reads terms with an explicit stack, and the unifier and the
    # engine walk terms and templates with explicit stacks or generated flat
    # code, so no function or method of them may reach itself again through
    # calls. A call on self goes to its own class; a call on another
    # receiver goes to every method of that name, which can add a cycle but
    # never hide one; a call through super() leaves the module, whose
    # classes subclass none of each other
    tree = ast.parse((SRC / module).read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    owner = {node: node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    owner.update((f, f"{node.name}.{f.name}") for node in tree.body
                 if isinstance(node, ast.ClassDef)
                 for f in node.body if isinstance(f, ast.FunctionDef))
    by_name = {}
    for name in owner.values():
        by_name.setdefault(name.rpartition(".")[2], set()).add(name)
    calls = {}
    for fn, name in owner.items():
        out = calls[name] = set()
        for call in ast.walk(fn):
            f = call.func if isinstance(call, ast.Call) else None
            if isinstance(f, ast.Name):
                out.add(f"{f.id}.__init__" if f.id in classes else f.id)
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                    and f.value.id == "self":
                out.add(f"{name.rpartition('.')[0]}.{f.attr}")
            elif isinstance(f, ast.Attribute) and not (
                    isinstance(f.value, ast.Call) and getattr(f.value.func, "id", "") == "super"):
                out |= by_name.get(f.attr, set())
    assert caller in calls
    cyclic = []
    for start in calls:
        seen, todo = set(), [start]
        while todo:
            for callee in calls.get(todo.pop(), ()):
                if callee not in seen:
                    seen.add(callee)
                    todo.append(callee)
        if start in seen:
            cyclic.append(start)
    assert cyclic == []


#: Public names with no caller in the package, each kept for a reason.
NO_SRC_CALLER = {
    "brute_force": "the tests' oracle for the engine's solutions",
    "check_covered": "the coverage-witness API of the checkers",
    "parse_term": "the parser's entry for a single term",
}


def test_every_public_name_has_a_src_caller():
    # no public function, class or constant exists only for its own tests:
    # each module-level definition is named in the package outside itself,
    # and each module-level constant is read somewhere in the package
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"]
    names = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Name)]
    read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
    uncalled = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                own = set(map(id, ast.walk(node)))
                if not any(n.id == node.name and id(n) not in own for n in names):
                    uncalled.append(node.name)
            elif isinstance(node, ast.Assign):
                uncalled += [t.id for t in node.targets
                             if isinstance(t, ast.Name) and t.id[0] != "_" and t.id not in read]
    assert sorted(uncalled) == sorted(NO_SRC_CALLER)
