"""Every name the package defines is used by the package or the benchmark.

The check parses ``src/hinrec/*.py`` and ``bench/*.py`` and collects each
top-level function, class, method and UPPER_CASE constant that
``src/hinrec`` defines (dunder names excluded). Each must be named
somewhere in ``src/hinrec`` or ``bench/`` outside its own definition. A
function, class or constant counts as named by a name, an attribute, an
import, or a string constant (``bench/tracing.py`` wraps functions by
their string names). A method or property counts as named only by an
attribute, a keyword argument or a string constant, so a parameter or a
local variable that shares its name does not keep it alive. Tests do not
count, so code that only tests reach fails here, and neither do the
package's re-exports in ``__init__.py``: exporting a name does not make
the pipeline call it.

Every :class:`~hinrec.config.RunConfig` field must likewise be read, as
an attribute, somewhere in ``src/hinrec`` outside ``config.py`` or in
``bench/``, so a setting whose last reader is deleted fails here too.

A setting has one home as well: no function or method in ``src/hinrec``
gives a default to a parameter named after a ``RunConfig`` field, since
such a default is a second copy of the setting's value that the pipeline,
which passes the setting, never reads. The same holds for the former
settings that are now module constants beside their one reader
(:data:`MOVED_SETTINGS`): a default on a parameter of that name would be a
second copy of the constant.

It matches names only, not call graphs. A dead cluster whose members name
each other (a save method calling a helper that a load method also calls)
passes, and so does a method that shares its name with a live method or
attribute of another class (``HinGraph.node_type`` passed while only tests
called it, because ``SideBundle.node_type`` is read).
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hinrec"
BENCH = ROOT / "bench"
# Former RunConfig fields that became module constants: evaluation.DENSITY_THRESHOLD,
# search_env.MAX_STEPS, and recommender's FANOUT, ATT_HIDDEN, DROPOUT, LR and BATCH.
MOVED_SETTINGS = {"density_threshold", "max_steps", "fanout", "att_hidden", "dropout", "rec_lr", "rec_batch"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _definitions(tree: ast.Module) -> list[tuple[str, str, ast.AST]]:
    """(qualified name, bare name, defining node) of each checked definition in a module."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.name, node))
            if isinstance(node, ast.ClassDef):
                out += [(f"{node.name}.{f.name}", f.name, f) for f in node.body if isinstance(f, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    out.append((target.id, target.id, node))
    return [d for d in out if not (d[1].startswith("__") and d[1].endswith("__"))]


def _uses(tree: ast.AST, member: bool = False) -> Counter:
    """How often each name, attribute, imported name or identifier string occurs in ``tree``.

    With ``member``, only the uses that can reach a class member count:
    attributes, keyword arguments and identifier strings.
    """
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names[node.value] += 1
        elif member:
            if isinstance(node, ast.keyword) and node.arg:
                names[node.arg] += 1
        elif isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
    return names


def unreached() -> list[str]:
    """Qualified names of package definitions that nothing outside their own body names."""
    modules = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
    benches = [_parse(path) for path in sorted(BENCH.glob("*.py"))]
    out = []
    for member in (False, True):
        uses = {stem: _uses(tree, member) for stem, tree in modules.items()}
        bench = sum((_uses(tree, member) for tree in benches), Counter())
        for stem, tree in modules.items():
            elsewhere = bench + sum((u for other, u in uses.items() if other != stem), Counter())
            for qualified, name, node in _definitions(tree):
                if ("." in qualified) != member:
                    continue
                if not elsewhere[name] and uses[stem][name] == _uses(node, member)[name]:
                    out.append(f"{stem}.{qualified}")
    return sorted(out)


def unread_settings() -> list[str]:
    """RunConfig fields that no attribute access outside ``config.py`` reads."""
    from dataclasses import fields

    from hinrec.config import RunConfig

    trees = [_parse(path) for path in sorted(PACKAGE.glob("*.py")) if path.stem != "config"]
    trees += [_parse(path) for path in sorted(BENCH.glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f.name for f in fields(RunConfig) if f.name not in read]


def defaulted_settings() -> list[str]:
    """``module.function(parameter)`` for each parameter named after a RunConfig field or a
    moved setting that has a default."""
    from dataclasses import fields

    from hinrec.config import RunConfig

    settings = {f.name for f in fields(RunConfig)} | MOVED_SETTINGS
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                out += [f"{path.stem}.{node.name}({arg.arg})" for arg in defaulted if arg.arg in settings]
    return out


def test_every_package_name_is_reached_outside_tests():
    assert unreached() == []


def test_every_setting_is_read_outside_config():
    assert unread_settings() == []


def test_no_signature_copies_a_settings_default():
    assert defaulted_settings() == []


def test_moved_settings_are_constants_and_not_fields():
    from dataclasses import fields

    from hinrec import evaluation, recommender, search_env
    from hinrec.config import RunConfig

    assert not MOVED_SETTINGS & {f.name for f in fields(RunConfig)}
    homes = {"density_threshold": evaluation.DENSITY_THRESHOLD, "max_steps": search_env.MAX_STEPS,
             "fanout": recommender.FANOUT, "att_hidden": recommender.ATT_HIDDEN, "dropout": recommender.DROPOUT,
             "rec_lr": recommender.LR, "rec_batch": recommender.BATCH}
    assert homes == {"density_threshold": 0.5, "max_steps": 4, "fanout": 20, "att_hidden": 32, "dropout": 0.1,
                     "rec_lr": 0.01, "rec_batch": 1024}  # the fields' former defaults
    assert set(homes) == MOVED_SETTINGS


def test_the_probe_failures_old_name_is_the_fault_it_raises():
    from hinrec import recommender, search_env

    assert search_env.ProbeFailure is recommender.AllPathsRejected
