"""Guard against dead parameters: every parameter of every module-level
function and method in the package is read in its body (reads inside
nested functions and lambdas count; the nested callbacks' own parameters
are not checked), and every defaulted parameter is passed by some call in
src/, tests/ or perfbench/, so no default is a knob that nothing turns.
No option hides in a dict parameter either: `param.get("key", default)`
does not occur in src/.  And the CLI's subcommands compute while `run`
alone writes: no `_cmd_*` takes more than its config or touches a file.
Every public function, class and method has a program caller: a module of
the package or a perfbench workload refers to it; a test alone does not."""

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

# defaulted parameters kept although no call passes them, with the reason
DEFAULT_EXEMPT = {}

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


def _passed() -> dict:
    """Called name -> what its calls pass: keyword names, argument positions,
    "*" for a starred argument (every position) and "**" for a mapping
    (every parameter)."""
    out = {}
    for path in sorted(p for d in ("src", "tests", "perfbench")
                       for p in (ROOT / d).rglob("*.py")):
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


def test_every_default_is_passed_somewhere():
    # a default that no call overrides is a constant: write it as one
    unpassed = _unpassed_defaults()
    assert unpassed - DEFAULT_EXEMPT.keys() == set()
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
    """("name", id) per ast.Name and per name a `from ... import` binds,
    ("attr", attr) per ast.Attribute."""
    out = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out["name", n.id] += 1
        elif isinstance(n, ast.Attribute):
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
    callers = sorted(SRC.glob("*.py")) + sorted(
        p for p in (ROOT / "perfbench").rglob("*.py") if not p.name.startswith("test_"))
    return _uncalled(SRC, callers)


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
