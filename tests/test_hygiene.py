"""Source hygiene, by an AST scan: no module imports a name it never uses,
src/ imports only at module level, and every top-level definition in src/
is referenced from src/ or perfbench/: imported from its module, read as
an attribute of that module, loaded in its own module where no local name
shadows it, or named by a string constant such as an __all__ entry.  A
name that only tests use belongs in tests/.  Likewise every parameter with
a default, of a src/ function that src/ or perfbench/ calls, is passed by
one of those calls: a value that only tests set is not an option.  Every
name that perfbench/ hooks or imports resolves on a plain import of
unitring."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "unitring").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(node):
    """Identifiers a node uses: names, attributes, and string constants that
    are identifiers or dotted names (__all__ entries, tracer hooks)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(part.isidentifier() for part in parts):
                out.update(parts)
    return out


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_no_unused_imports():
    unused = []
    for path in SRC + TESTS:
        tree = _tree(path)
        used = _references(tree)  # an import statement holds no Name nodes
        for lineno, name in _imported_names(tree):
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{lineno}: {name}")
    assert not unused, "imported but never used:\n" + "\n".join(unused)


# Scopes whose parameters and assignments shadow a module's globals.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
MODULES = {path.stem for path in SRC}


def _source_module(node):
    """The unitring module an ImportFrom reads: its name, "" for the
    package itself, None outside unitring."""
    if node.level:
        return node.module or ""
    if node.module == "unitring":
        return ""
    if node.module and node.module.startswith("unitring."):
        return node.module[len("unitring."):]
    return None


def _module_aliases(tree):
    """Local names bound to unitring modules (`from . import fpoly`)."""
    return {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and _source_module(node) == ""
        for alias in node.names
        if alias.name in MODULES
    }


def _local_names(scope):
    """Names a function, lambda or comprehension binds in its own scope."""
    names = set()
    if hasattr(scope, "args"):
        a = scope.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
        names |= {x.arg for x in params if x}
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _names(nodes):
    return [node.id for node in nodes if isinstance(node, ast.Name)]


def _strings(nodes):
    return [e.value for e in nodes if isinstance(e, ast.Constant) and isinstance(e.value, str)]


def _hook_target(node):
    """The function or class a tracer hook ("unitring.module", "name", ...)
    names, else None."""
    head = _strings(node.elts[:2])
    if len(head) == 2 and head[0].startswith("unitring."):
        return head[1].split(".")[0]
    return None


def _definition_references(stmt, module, aliases):
    """(module, name) pairs a top-level statement references: names it
    imports from a unitring module, attributes it reads off a module alias,
    and globals of its own module (None outside src/) that it loads where no
    enclosing scope shadows them; plus (None, name) for the names that an
    __all__ list or a tracer hook ("unitring.module", "name", ...) spells
    out as strings."""
    out = set()

    def visit(node, shadowed):
        if isinstance(node, ast.ImportFrom) and _source_module(node):
            out.update((_source_module(node), alias.name) for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            out.add((aliases[node.value.id], node.attr))
        elif (module and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
              and node.id not in shadowed):
            out.add((module, node.id))
        elif isinstance(node, ast.Assign) and "__all__" in _names(node.targets):
            out.update((None, name) for name in _strings(getattr(node.value, "elts", ())))
        elif isinstance(node, ast.Tuple) and _hook_target(node):
            out.add((None, _hook_target(node)))
        if isinstance(node, _SCOPES):
            shadowed = shadowed | _local_names(node)
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed)

    visit(stmt, frozenset())
    return out


def _unreferenced(sources):
    """Top-level functions and classes of the src/ modules among `sources`
    ({path: text}) that no other top-level statement references."""
    statements = []
    for path, text in sources.items():
        tree = ast.parse(text, filename=str(path))
        module = path.stem if path in SRC else None
        aliases = _module_aliases(tree)
        for stmt in tree.body:
            statements.append((path, stmt, _definition_references(stmt, module, aliases)))
    out = []
    for path, stmt, _ in statements:
        if path not in SRC or not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        keys = {(path.stem, stmt.name), (None, stmt.name)}
        if not any(keys & refs for _, other, refs in statements if other is not stmt):
            out.append(f"{path.relative_to(ROOT)}:{stmt.lineno}: {stmt.name}")
    return out


def _sources():
    """The files whose references keep a src/ definition: tests/ is not one."""
    return {path: path.read_text(encoding="utf-8") for path in SRC + PERFBENCH}


def test_every_src_definition_is_referenced():
    unreferenced = _unreferenced(_sources())
    assert not unreferenced, "defined but never referenced:\n" + "\n".join(unreferenced)


def test_shadowed_name_is_not_a_reference():
    # `excluded` is a local variable or parameter in cli, density and tower;
    # none of those uses refers to a module function of that name.
    sources = _sources()
    tower = ROOT / "src" / "unitring" / "tower.py"
    sources[tower] += "\n\ndef excluded(order):\n    return ()\n"
    assert [line.rsplit(": ", 1)[1] for line in _unreferenced(sources)] == ["excluded"]


def _calls(tree):
    """(callee, positional count, *args given, keyword names, **kwargs
    given) for each call in a module.  The callee is the called name or
    attribute; `cls(...)` inside a class calls that class."""
    out = []

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            keywords = {k.arg for k in node.keywords}
            out.append((owner if name == "cls" else name,
                        sum(not isinstance(a, ast.Starred) for a in node.args),
                        any(isinstance(a, ast.Starred) for a in node.args),
                        keywords, None in keywords))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return out


def _defaulted_parameters(tree):
    """(qualname, callee, line, [(parameter, position or None)]) for each
    top-level function and method of a module that has parameters with
    defaults.  The callee is the name a call uses, the class name for an
    __init__; the position is the parameter's among a call's positional
    arguments (None for keyword-only), so a method's self or cls takes none."""
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, ast.ClassDef) else None
        for f in stmt.body if owner else [stmt]:
            if not isinstance(f, ast.FunctionDef):
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
            skip = 1 if owner and not static else 0
            a = f.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            params = [(x.arg, i - skip) for i, x in enumerate(positional) if i >= first]
            params += [(x.arg, None) for x, d in zip(a.kwonlyargs, a.kw_defaults) if d]
            if params:
                qualname = f"{owner}.{f.name}" if owner else f.name
                callee = owner if f.name == "__init__" else f.name
                yield qualname, callee, f.lineno, params


def _unset_parameters(sources):
    """Defaulted parameters of the src/ functions among `sources` ({path:
    text}) that some call in `sources` reaches by name but none passes."""
    trees = {path: ast.parse(text, filename=str(path)) for path, text in sources.items()}
    calls = {}
    for tree in trees.values():
        for name, *call in _calls(tree):
            calls.setdefault(name, []).append(call)
    return [
        f"{path.relative_to(ROOT)}:{line}: {qualname}({name})"
        for path, tree in trees.items() if path in SRC
        for qualname, callee, line, params in _defaulted_parameters(tree) if callee in calls
        for name, pos in params
        if not any(name in keywords or kwargs or (pos is not None and (npos > pos or star))
                   for npos, star, keywords, kwargs in calls[callee])
    ]


def test_every_src_parameter_is_set_outside_tests():
    unset = _unset_parameters(_sources())
    assert not unset, "parameters that no call in src/ or perfbench/ passes:\n" + "\n".join(unset)


def test_parameter_only_tests_set_is_flagged():
    # widen is called from src/ without margin, as a test might call it with
    # one: the gate flags margin until a call in src/ or perfbench/ passes it.
    sources = _sources()
    intervals = ROOT / "src" / "unitring" / "intervals.py"
    sources[intervals] += ("\n\ndef widen(x, margin=0):\n    return x + margin\n"
                           "\n\ndef unit(x):\n    return widen(x)\n")
    assert [line.rsplit(": ", 1)[1] for line in _unset_parameters(sources)] == ["widen(margin)"]
    run = ROOT / "perfbench" / "run.py"
    sources[run] += "\nwiden(1, margin=2)\n"
    assert _unset_parameters(sources) == []


def test_no_private_imports_between_src_modules():
    # A module's underscore names are its own; tests may still import them.
    private = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {alias.name}"
        for path in SRC
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, "private names imported from another module:\n" + "\n".join(private)


def test_src_imports_only_at_module_level():
    nested = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in SRC
        for tree in [_tree(path)]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    ]
    assert not nested, "import below module level:\n" + "\n".join(nested)


def _resolve(module, dotted):
    """The object module.dotted names, or None; a missing attribute of a
    package may be its submodule."""
    owner = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(owner, part, None)
        if obj is None and hasattr(owner, "__path__"):
            try:
                obj = importlib.import_module(f"{owner.__name__}.{part}")
            except ImportError:
                pass
        if obj is None:
            return None
        owner = obj
    return owner


def test_benchmark_hooks_and_imports_resolve():
    # A hook whose target is gone makes a traced run print null for every
    # metric that hook feeds, so each target must resolve; the tracer itself
    # is read, not installed.
    tracer = _tree(ROOT / "perfbench" / "tracer.py")
    [hooks] = [ast.literal_eval(node.value) for node in tracer.body
               if isinstance(node, ast.Assign) and _names(node.targets) == ["HOOKS"]]
    wanted = [(module, attr) for module, attr, _, _ in hooks]
    wanted += [(node.module, alias.name)
               for path in PERFBENCH
               for node in ast.walk(_tree(path))
               if isinstance(node, ast.ImportFrom) and node.level == 0
               and (node.module or "").split(".")[0] == "unitring"
               for alias in node.names]
    wanted.append(("unitring.intfactor", "primes"))
    assert len(hooks) >= 20
    missing = [f"{module}.{attr}" for module, attr in wanted if _resolve(module, attr) is None]
    assert not missing, "benchmark names that do not resolve:\n" + "\n".join(missing)
