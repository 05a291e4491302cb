"""Guard against dead parameters: every parameter of every module-level
function and method in the package is read in its body (reads inside
nested functions and lambdas count; the nested callbacks' own parameters
are not checked), and every defaulted parameter is passed by some call in
src/ or a perfbench workload, so no default is a knob that only a test
turns.  No option hides in a dict parameter either: `param.get("key",
default)` does not occur in src/.  And the CLI's subcommands compute while
`run` alone writes: no `_cmd_*` takes more than its config or touches a
file.  Every public function, class and method has a program caller: a
module of the package or a perfbench workload refers to it; a test alone
does not.  Likewise every public field (annotated in a class body, stored
on `self.` or stored ad hoc on another name) has a program reader that
reads it as an attribute, and every UPPERCASE module constant has one that
refers to it by name, attribute or import."""

import ast
from collections import Counter
from pathlib import Path

import maslab

SRC = Path(maslab.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

# parameters kept although unread, with the reason
EXEMPT = {
    "regularity.holder_estimate(spec)": "perfbench/workloads.py passes it positionally",
}

# defaulted parameters kept although no program call passes them, with the
# reason
DEFAULT_EXEMPT = {
    "cli.main(argv)": "the console script calls main() with none; tests pass argv",
    "kernels.evaluate(kernel_rule)": "acceptance criterion 1 evaluates the midpoint rule",
}

# public names kept although no module or perfbench workload refers to them,
# with the reason
CALLER_EXEMPT = {
    "kernels.second_difference": "acceptance criterion 2 checks its symmetry and invariances",
    "barriers.build_barrier": "acceptance criterion 3 builds the barriers it verifies",
    "barriers.verify_subsolution": "acceptance criterion 3 is its subsolution check",
    "solver.comparison_check": "acceptance criterion 5 is its comparison principle",
}


def _defs(tree):
    """Module-level functions and the methods of module-level classes, each
    with the name a call uses: the class's for __init__."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((node.name if n.name == "__init__" else n.name, n)
                        for n in node.body if isinstance(n, ast.FunctionDef))


def _unread_parameters() -> set:
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for _, fn in _defs(ast.parse(path.read_text())):
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            reads = {n.id for stmt in fn.body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out |= {f"{path.stem}.{fn.name}({p})" for p in params
                    if p not in reads and p not in ("self", "cls")}
    return out


def test_every_parameter_is_read():
    assert _unread_parameters() - EXEMPT.keys() == set()


def test_exemptions_are_still_needed():
    # an exempt parameter that is read again, or deleted, leaves the list
    assert EXEMPT.keys() <= _unread_parameters()


def _program_files() -> list:
    """The files whose calls and reads count: the package's modules and the
    non-test files of perfbench/."""
    return sorted(SRC.glob("*.py")) + sorted(
        p for p in (ROOT / "perfbench").rglob("*.py") if not p.name.startswith("test_"))


def _passed() -> dict:
    """Called name -> what its program calls pass: keyword names, argument
    positions, "*" for a starred argument (every position) and "**" for a
    mapping (every parameter)."""
    out = {}
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                got = out.setdefault(f.id if isinstance(f, ast.Name)
                                     else getattr(f, "attr", None), set())
                got |= {"*" if isinstance(x, ast.Starred) else i
                        for i, x in enumerate(node.args)}
                got |= {k.arg or "**" for k in node.keywords}
    return out


def _unpassed_defaults() -> set:
    passed = _passed()
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for name, fn in _defs(ast.parse(path.read_text())):
            a = fn.args
            got = passed.get(name, set())
            pos = [p.arg for p in a.posonlyargs + a.args if p.arg not in ("self", "cls")]
            first = len(pos) - len(a.defaults)
            unpassed = [p for i, p in enumerate(pos[first:], first)
                        if not got & {p, i, "*", "**"}]
            unpassed += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                         if d is not None and not got & {p.arg, "**"}]
            out |= {f"{path.stem}.{fn.name}({p})" for p in unpassed}
    return out


def _caller_exempt_defaults(unpassed) -> set:
    """The unpassed defaults of CALLER_EXEMPT functions: only acceptance
    criteria call those, so no program call can pass their defaults."""
    return {d for d in unpassed if d.partition("(")[0] in CALLER_EXEMPT}


def test_every_default_is_passed_somewhere():
    # a default that no program call overrides is a constant: write it as one
    unpassed = _unpassed_defaults()
    assert unpassed - DEFAULT_EXEMPT.keys() - _caller_exempt_defaults(unpassed) == set()
    assert DEFAULT_EXEMPT.keys() <= unpassed


def _dict_options() -> set:
    """Every `<parameter>.get("<literal>", <default>)` in src/, with the
    function whose parameter it reads."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
            params |= {p.arg for p in (a.vararg, a.kwarg) if p is not None}
            for call in ast.walk(fn):
                f = call.func if isinstance(call, ast.Call) else None
                if (isinstance(f, ast.Attribute) and f.attr == "get"
                        and isinstance(f.value, ast.Name) and f.value.id in params
                        and len(call.args) == 2 and isinstance(call.args[0], ast.Constant)
                        and isinstance(call.args[0].value, str)):
                    out.add(f"{path.stem}.{getattr(fn, 'name', '<lambda>')}: "
                            f"{f.value.id}.get({call.args[0].value!r}, ...)")
    return out


def test_no_option_hides_in_a_dict():
    # an option read with a default out of a dict parameter is a keyword
    # that no signature shows and no check rejects when misspelt
    assert _dict_options() == set()


def _command_writes() -> dict:
    """Each `_cmd_*` of cli.py -> what breaks the outcome contract in it: a
    parameter other than `cfg`, or a use of `open`, `os` or a `_write*` writer."""
    out = {}
    for fn in ast.parse((SRC / "cli.py").read_text()).body:
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_"):
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
            out[fn.name] = sorted({p for p in params if p != "cfg"}
                                  | {n for n in names if n in ("open", "os")
                                     or n.startswith("_write")})
    return out


def test_commands_compute_and_run_alone_writes():
    # a subcommand returns (passed, files); a second write path, say one that
    # writes a report on its own failure, would bypass exit 1's "nothing
    # written" and the manifest of exits 0 and 2
    from maslab.cli import _DISPATCH
    found = _command_writes()
    assert sorted(found) == sorted(f.__name__ for f in _DISPATCH.values())
    assert {name: got for name, got in found.items() if got} == {}


def _public_defs(tree):
    """Module-level public functions and classes and the public methods of
    those classes: (qualified name, node, is a method)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, False
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{m.name}", m, True) for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def _references(tree) -> Counter:
    """("name", id) per ast.Name read and per name a `from ... import` binds,
    ("attr", attr) per ast.Attribute read."""
    out = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out["name", n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out["attr", n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            out.update(("name", a.name) for a in n.names)
    return out


def _uncalled(src: Path, callers) -> set:
    """The public names of src/*.py that no file of callers refers to outside
    their own definition.  A function or class is referred to by name, by
    attribute or by import; a method by attribute only."""
    total = Counter()
    for path in callers:
        total += _references(ast.parse(path.read_text()))
    out = set()
    for path in sorted(src.glob("*.py")):
        for name, node, method in _public_defs(ast.parse(path.read_text())):
            own, bare = _references(node), name.rpartition(".")[2]
            keys = [("attr", bare)] if method else [("name", bare), ("attr", bare)]
            if not any(total[k] > own[k] for k in keys):
                out.add(f"{path.stem}.{name}")
    return out


def _program_uncalled() -> set:
    return _uncalled(SRC, _program_files())


def test_every_public_name_has_a_program_caller():
    # a public function that only tests call is an API nothing uses: delete
    # it, or exempt it above with the reason it stays
    assert _program_uncalled() - CALLER_EXEMPT.keys() == set()


def test_caller_exemptions_are_still_needed():
    # an exempt name that gains a program caller, or is deleted, leaves the list
    assert CALLER_EXEMPT.keys() <= _program_uncalled()


def test_uncalled_scanner_reports_an_unreferenced_function(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def orphan():\n    return used()\n\n\n"
        "def loop(k):\n    return loop(k - 1) if k else 0\n\n\n"
        "def _private():\n    return 0\n\n\n"
        "class Thing:\n    def run(self):\n        return 0\n")
    (tmp_path / "caller.py").write_text(
        "from mod import Thing\n\nThing().run()\n")
    found = _uncalled(tmp_path, [tmp_path / "mod.py", tmp_path / "caller.py"])
    # loop refers only to itself; used, Thing and Thing.run have callers
    assert found == {"mod.orphan", "mod.loop"}


def _built_from(fn, var):
    """The class `var` is built from in fn (`var = Class(...)`), if any."""
    for n in ast.walk(fn):
        if (isinstance(n, ast.Assign) and isinstance(n.value, ast.Call)
                and isinstance(n.value.func, ast.Name)
                and any(isinstance(t, ast.Name) and t.id == var for t in n.targets)):
            return n.value.func.id
    return None


def _stores(fn, cls, module):
    """(qualified name, attribute) per public `name.attr = ...` in fn: a
    `self.` store belongs to cls, an ad hoc one to the class its name was
    built from, else to `module.function.name`."""
    for n in ast.walk(fn):
        if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                and isinstance(n.value, ast.Name) and not n.attr.startswith("_")):
            var = n.value.id
            owner = (cls if var == "self" and cls
                     else _built_from(fn, var) or f"{module}.{fn.name}.{var}")
            yield f"{owner}.{n.attr}", n.attr


def _public_fields(tree, module):
    """(qualified name, bare name, is a constant) per public field of a
    module: the annotated fields of its classes, the attributes its
    functions and methods store, and its UPPERCASE module constants."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((f"{module}.{t.id}", t.id, True) for t in targets
                        if isinstance(t, ast.Name) and t.id.isupper()
                        and not t.id.startswith("_"))
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if (isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name)
                        and not m.target.id.startswith("_")):
                    yield f"{node.name}.{m.target.id}", m.target.id, False
                elif isinstance(m, ast.FunctionDef):
                    yield from ((q, a, False) for q, a in _stores(m, node.name, module))
        elif isinstance(node, ast.FunctionDef):
            yield from ((q, a, False) for q, a in _stores(node, None, module))


def _unread(src: Path, readers) -> set:
    """The public fields and constants of src/*.py that no file of readers
    reads.  A field is read as an attribute only, so a local variable of the
    same name does not count; a constant by name, attribute or import."""
    total = Counter()
    for path in readers:
        total += _references(ast.parse(path.read_text()))
    out = set()
    for path in sorted(src.glob("*.py")):
        for name, bare, constant in _public_fields(ast.parse(path.read_text()), path.stem):
            keys = [("attr", bare)] + ([("name", bare)] if constant else [])
            if not any(total[k] for k in keys):
                out.add(name)
    return out


def test_every_public_field_has_a_program_reader():
    # a field or constant that only tests read is state nothing uses: stop
    # storing it, and let the tests compute what they check from results
    assert _unread(SRC, _program_files()) == set()


def test_unread_scanner_reports_unread_fields_and_constants(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass\n\n"
        "LIMIT = 3\nUNUSED = 4\n\n\n"
        "@dataclass\nclass Report:\n    kept: int\n    dropped: int\n\n\n"
        "class Solver:\n"
        "    def __init__(self):\n"
        "        self.size = LIMIT\n        self.spare = 0\n        self._private = 0\n\n\n"
        "def fit():\n"
        "    m = Solver()\n    m.radius = 1.0\n    m.scale = 2.0\n    return m\n")
    (tmp_path / "caller.py").write_text(
        "from mod import Report, fit\n\n"
        "def use(r: Report):\n"
        "    dropped = spare = radius = 0\n"
        "    return r.kept + fit().size + fit().scale + dropped + spare + radius\n")
    found = _unread(tmp_path, [tmp_path / "mod.py", tmp_path / "caller.py"])
    # kept, size, scale and LIMIT are read; dropped, spare and radius have
    # only local variables as namesakes, and nothing refers to UNUSED
    assert found == {"Report.dropped", "Solver.spare", "Solver.radius", "mod.UNUSED"}
