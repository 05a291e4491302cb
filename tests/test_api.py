"""Guard against dead parameters: every parameter of every module-level
function and method in the package is read in its body (reads inside
nested functions and lambdas count; the nested callbacks' own parameters
are not checked), and every defaulted parameter is passed by some call in
src/, tests/ or perfbench/, so no default is a knob that nothing turns.
No option hides in a dict parameter either: `param.get("key", default)`
does not occur in src/.  And the CLI's subcommands compute while `run`
alone writes: no `_cmd_*` takes more than its config or touches a file."""

import ast
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
