"""Every public name in the package is reached by the program itself.

A public top-level function or public method defined in
``src/loopchains`` must be named, as an AST ``Name`` or ``Attribute``,
somewhere in ``src/`` or ``bench/`` outside its own definition.  A name
only tests reach is an oracle (it belongs in ``tests/oracle_*.py``) or
dead code, and either way it is one more name a reader of the package
has to learn.

Names resolve by module: a function ``f`` of module ``m`` is reached by
``f`` read inside ``m``, by ``f`` (or its alias) read where another
module imports it from ``m``, or by ``m.f``.  A method is reached by
any attribute of its name, whatever the receiver, including
``getattr(x, "name", ...)``.

Every defaulted parameter of a public function, method or class is
likewise passed by some call in ``src/`` or ``bench/``, the callee
matched by the called name: a setting only tests flip is one more
configuration of the package, and the exempt ones say why they stay.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "loopchains"

# IntMatrix.from_rows is the matrix-literal constructor: it rejects
# ragged rows, and the tests build their matrices with it.
EXEMPT = {"exactalg.IntMatrix.from_rows"}


def _public_functions(body):
    return [n for n in body
            if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")]


def _definitions():
    """{qualified name: (module, function) or method name} for every
    public top-level function and public method."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        for node in _public_functions(tree.body):
            out[f"{module}.{node.name}"] = (module, node.name)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for node in _public_functions(cls.body):
                    out[f"{module}.{cls.name}.{node.name}"] = node.name
    return out


def _references(path, in_package):
    """The (module, function) pairs and the attribute names ``path``
    reads, each outside the definition of that name."""
    tree = ast.parse(path.read_text())
    functions = {}  # local name -> (module, function)
    modules = {}  # local name -> module
    if in_package:
        functions.update((n.name, (path.stem, n.name)) for n in tree.body
                         if isinstance(n, ast.FunctionDef))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if in_package and node.level == 1:
            source = node.module
        elif node.level == 0 and (node.module or "").startswith("loopchains."):
            source = node.module.split(".", 1)[1]
        else:
            source = None
        for alias in node.names:
            local = alias.asname or alias.name
            if source is not None:
                functions[local] = (source, alias.name)
            elif node.module == "loopchains" or in_package and node.level:
                modules[local] = alias.name
    reached, attributes = set(), set()

    def visit(node, inside):
        if isinstance(node, ast.FunctionDef):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id in functions \
                and functions[node.id][1] not in inside:
            reached.add(functions[node.id])
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            attributes.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                reached.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id == "getattr" and len(node.args) > 1 and \
                isinstance(node.args[1], ast.Constant):
            attributes.add(node.args[1].value)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return reached, attributes


def test_every_public_name_is_reached_outside_the_tests():
    reached, attributes = set(), set()
    for paths, in_package in ((PACKAGE.glob("*.py"), True),
                              ((ROOT / "bench").glob("*.py"), False)):
        for path in paths:
            r, a = _references(path, in_package)
            reached |= r
            attributes |= a
    unreached = sorted(
        name for name, key in _definitions().items()
        if name not in EXEMPT
        and (key not in reached if isinstance(key, tuple)
             else key not in attributes))
    assert unreached == []


# The defaulted parameters that only tests set, each with its reason.
NEGATIVE_CONTROL = ("a negative control: the only way a test can make "
                    "this certificate fail")
OPTION_EXEMPT = {
    "boxquot.box_slash(clamp_threshold)": NEGATIVE_CONTROL,
    "boxquot.box_dot(center)": NEGATIVE_CONTROL,
    "hochschild.TableDGA(weights)":
        "the weight-rejection tests of bounded_words, cyclic_words and "
        "hh_truncated reach those checks only through it",
    "boxquot.random_cube(ambient)":
        "the coarse-cube property test draws 1-D values",
}


def _options():
    """[(qualified option, callee name, parameter, positional index or
    None)] for every defaulted parameter of a public function, public
    method or public class constructor.  The index counts from the first
    argument a call writes, so it skips a method's self or cls."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        defs = [(node.name, node.name, node, 0)
                for node in _public_functions(tree.body)]
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                if node.name == "__init__":
                    defs.append((cls.name, cls.name, node, 1))
                elif not node.name.startswith("_"):
                    defs.append((f"{cls.name}.{node.name}", node.name, node,
                                 0 if static else 1))
        for qualname, callee, node, skip in defs:
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            out += [(f"{module}.{qualname}({a.arg})", callee, a.arg,
                     i - skip)
                    for i, a in enumerate(positional) if i >= first]
            out += [(f"{module}.{qualname}({a.arg})", callee, a.arg, None)
                    for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]
    return out


def _calls():
    """{callee name: [(positional count, keyword names, has *args)]} for
    every call in ``src/`` and ``bench/``, the callee named by the called
    name or attribute; a ``**kw`` shows as the keyword name None."""
    calls = {}
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            starred = sum(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append((
                len(node.args) - starred, {k.arg for k in node.keywords},
                starred > 0))
    return calls


def test_every_option_is_set_by_the_program():
    # a defaulted parameter that no call in the program passes is a
    # setting only tests flip: one more configuration for a reader to
    # learn, and code the program never runs.  A call passes it by
    # keyword, by position, or through *args or **kw
    calls = _calls()
    unset = sorted(
        option for option, callee, parameter, index in _options()
        if not any(parameter in keywords or None in keywords
                   or index is not None and (index < count or starred)
                   for count, keywords, starred in calls.get(callee, ())))
    # the exemptions must stay test-only, or they go
    assert unset == sorted(OPTION_EXEMPT)
