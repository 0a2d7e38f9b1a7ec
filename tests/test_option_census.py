"""Every constructor option is one the program sets, or a named test seam.

An AST pass over ``src/repro``: for each top-level public class with its
own ``__init__``, the parameters that have a default.  (Dataclass fields
are records, reports and policies, not constructor options, and are out
of scope.)  A parameter is *set* when some call in ``src/``,
``benchmarks/``, ``examples/`` or ``perfbench/`` passes it, by keyword or
by position.  A call is attributed to a class by the name it calls
(``Cls(...)`` / ``mod.Cls(...)``): ``cls(...)`` inside a class counts for
that class, ``super().__init__(...)`` for its bases, and a call that
forwards ``**kwargs`` sets every parameter.  A class registered with
``@register_engine`` is built by ``make_engine``, which forwards its
``**kwargs``.  A class without its own ``__init__`` is constructed through
the nearest base that has one.

An option nothing in the program sets is configuration space no figure,
sweep or served request visits: it becomes the constant it always was,
or it is listed in :data:`TEST_SEAMS` with the reason a test needs it at
another value.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
CALLER_TREES = ("src", "benchmarks", "examples", "perfbench")

#: (class, parameter) -> why a test needs it at a value the program never passes
TEST_SEAMS: Dict[Tuple[str, str], str] = {
    ("BackupSyncer", "max_lag"): "the syncer tests bound the backlog to see back-pressure",
    ("BackupSyncer", "poll_interval"): "the syncer tests poll fast to finish in milliseconds",
    ("ChainClient", "retry"): "the gateway tests hand a caller ladder that differs from the cluster's",
    ("ChainCluster", "degrade_after"): "the hardening tests trip the breaker after one ladder",
    ("ChainCluster", "max_backup_lag"): "the hardening and record tests force back-pressure stalls",
    ("ChainCluster", "write_quorum"): "the hardening tests demand more replicas than the chain has",
    ("ChainCrashExplorer", "f"): "the chain sweep tests size the chain",
    ("ChainCrashExplorer", "n_writes"): "the chain sweep tests size the write stream",
    ("ClusterGateway", "retry"): "the gateway tests hand a caller ladder that differs from the cluster's",
    ("PairsWorkload", "n_objects"): "the property sweeps draw the object count",
    ("PairsWorkload", "txs"): "the property sweeps and explorer tests draw the transactions",
    ("PlacementService", "device"): "the journal tests crash the device they hand in",
    ("PlacementService", "log_bytes"): "the journal tests fill a small log to force checkpoints",
    ("ProcedureStore", "log_bytes"): "the journal and procedure tests fill a small log",
    ("ReproServer", "admission"): "the server tests shed load at a tiny in-flight limit",
    ("ServeCrashExplorer", "device_seed"): "the serve sweep tests replay one scenario's seed",
    ("ServeCrashExplorer", "durable"): "the serve sweep tests show volatile frames lose work",
    ("ServeCrashExplorer", "workload"): "the serve sweep tests pick the procedure mix",
    ("SimNetwork", "hop_latency_ns"): "the transport tests time deliveries on a round hop",
    ("StripedLockTable", "timeout"): "the lock property tests bound a deadlock to fail fast",
}


class _ClassInfo:
    def __init__(self, name: str, bases: List[str], params: List[str],
                 defaulted: Set[str], own_init: bool, registered: bool):
        self.name = name
        self.bases = bases
        self.params = params          # constructor parameters in order, self excluded
        self.defaulted = defaulted
        self.own_init = own_init
        self.registered = registered  # built by make_engine(name, **kwargs)


def _base_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _constructor(node: ast.ClassDef) -> Optional[Tuple[List[str], Set[str]]]:
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            args = item.args
            positional = [a.arg for a in args.posonlyargs + args.args][1:]
            defaulted = set(positional[len(positional) - len(args.defaults):]
                            if args.defaults else [])
            defaulted |= {
                a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            }
            return positional + [a.arg for a in args.kwonlyargs], defaulted
    return None


def _registered(node: ast.ClassDef) -> bool:
    return any(
        isinstance(dec, ast.Call) and _base_name(dec.func) == "register_engine"
        for dec in node.decorator_list
    )


def public_classes() -> Dict[str, _ClassInfo]:
    """Every top-level public class of ``src/repro``, by name."""
    found: Dict[str, _ClassInfo] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            ctor = _constructor(node)
            bases = [b for b in map(_base_name, node.bases) if b]
            params, defaulted = ctor if ctor is not None else ([], set())
            found[node.name] = _ClassInfo(node.name, bases, params, defaulted,
                                          ctor is not None, _registered(node))
    return found


def _owner(classes: Dict[str, _ClassInfo], name: str) -> Optional[_ClassInfo]:
    """The class whose ``__init__`` a call to ``name`` runs."""
    seen: Set[str] = set()
    while name in classes and name not in seen:
        seen.add(name)
        info = classes[name]
        if info.own_init:
            return info
        if not info.bases:
            return None
        name = info.bases[0]
    return None


class _Calls(ast.NodeVisitor):
    """Attribute every call in one file to the class it constructs."""

    def __init__(self, classes: Dict[str, _ClassInfo], set_: Set[Tuple[str, str]]):
        self.classes = classes
        self.set = set_
        self.class_stack: List[ast.ClassDef] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node)
        self.generic_visit(node)
        self.class_stack.pop()

    def _targets(self, call: ast.Call) -> List[str]:
        func = call.func
        if isinstance(func, ast.Name) and func.id == "cls" and self.class_stack:
            return [self.class_stack[-1].name]
        if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and _base_name(func.value.func) == "super" and self.class_stack):
            return [b for b in map(_base_name, self.class_stack[-1].bases) if b]
        name = _base_name(func)
        return [name] if name else []

    def visit_Call(self, node: ast.Call) -> None:
        for target in self._targets(node):
            info = _owner(self.classes, target)
            if info is None:
                continue
            if any(k.arg is None for k in node.keywords):
                self.set.update((info.name, p) for p in info.params)
                continue
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    self.set.update((info.name, p) for p in info.params[i:])
                    break
                if i < len(info.params):
                    self.set.add((info.name, info.params[i]))
            for kw in node.keywords:
                self.set.add((info.name, kw.arg))
        self.generic_visit(node)


def program_setters(classes: Dict[str, _ClassInfo]) -> Set[Tuple[str, str]]:
    found: Set[Tuple[str, str]] = {
        (owner.name, p)
        for info in classes.values() if info.registered
        for owner in [_owner(classes, info.name)] if owner is not None
        for p in owner.params
    }
    for tree in CALLER_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            _Calls(classes, found).visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def unset_options() -> List[Tuple[str, str]]:
    classes = public_classes()
    set_ = program_setters(classes)
    return sorted(
        (info.name, p)
        for info in classes.values() if info.own_init
        for p in info.defaulted
        if (info.name, p) not in set_
    )


def settable_values() -> int:
    """How many defaulted constructor parameters the public classes take."""
    return sum(len(info.defaulted) for info in public_classes().values() if info.own_init)


def test_every_unset_option_is_a_named_test_seam():
    unset = [opt for opt in unset_options() if opt not in TEST_SEAMS]
    assert unset == [], "options nothing in the program sets: " + ", ".join(
        f"{cls}({param}=)" for cls, param in unset
    )


def test_every_test_seam_is_still_an_option_nothing_sets():
    stale = sorted(set(TEST_SEAMS) - set(unset_options()))
    assert stale == [], f"seams the program now sets, or that are gone: {stale}"


if __name__ == "__main__":
    for cls, param in unset_options():
        print(f"{cls}({param}=)")
    print("settable values:", settable_values())
