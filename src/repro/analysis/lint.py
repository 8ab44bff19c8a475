"""AST-based linter for the repo's own correctness invariants.

Generic linters cannot see the contracts this codebase depends on -- that
every mutator invalidates its caches, that hot paths stay columnar, that
float accumulation is deterministically ordered, that the cached columnar
view is never written to.  This module checks them statically::

    python -m repro.analysis.lint src/

Rule catalogue
--------------
R1  Every public mutator on a cache-carrying class (``Community``,
    ``UserPairMatrix``) that writes backing state must invalidate the
    cache: call its invalidation hook (``self._mutated()`` /
    ``self._invalidate()``) or assign the cache attribute directly
    (``self._csr = None``).
R2  Modules marked with a ``repro: hot-path`` comment may not call the
    per-row/dict APIs (``entries()``, ``iter_ratings()``,
    ``direct_connections()``, ...) where a columnar equivalent exists.
R3  Numeric modules may not drive float accumulation (``+=`` loops,
    ``sum(...)``) from ``set``/``frozenset`` iteration -- set order is
    unspecified, so the accumulated float would be nondeterministic.
R4  :class:`repro.community.CommunityColumns` attributes are write-once:
    no assignment to its public attributes outside ``__init__``, neither
    inside the class nor on a ``columns()`` view held by a consumer.
R5  Modules of the strict-typed packages (``repro.matrix``,
    ``repro.community``, ``repro.propagation``, ``repro.reputation``,
    ``repro.obs``, ``repro.engine``, ``repro.shard``) must annotate
    every function parameter and return type (the local, always-runnable
    mirror of the ``mypy --strict`` CI gate).
R6  ``span(...)`` calls (the :mod:`repro.obs` timing API) must be entered
    through the context-manager protocol: the call must be a ``with``
    item (or be handed to ``enter_context(...)``).  A bare call leaks an
    un-closed span and skews every ancestor's self-time.  There is no
    ``start_span``/``stop_span`` pair; calling one is reported too.

A finding can be waived with a trailing ``repro: allow(<rule>)`` comment
on the offending line (or a standalone one on the line directly above),
ideally followed by a justification::

    triples = community.rating_triples(c)  # repro: allow(R2): legacy path

Waivers are deliberate, greppable exceptions; the CI gate runs this
linter over ``src/`` and fails on any unwaived finding.
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = ["Finding", "RULES", "lint_source", "lint_paths", "main"]


RULES: dict[str, str] = {
    "R1": "mutators on cache-carrying classes must invalidate their caches",
    "R2": "hot-path modules must use columnar APIs, not per-row iteration",
    "R3": "no float accumulation driven by set iteration in numeric modules",
    "R4": "CommunityColumns attributes are write-once outside __init__",
    "R5": "strict-typed packages must fully annotate every function",
    "R6": "obs spans must be context-managed (with-item or enter_context)",
}

_WAIVER_RE = re.compile(r"#\s*repro:\s*allow\(\s*([A-Z0-9,\s]+?)\s*\)")
_HOT_PATH_RE = re.compile(r"#\s*repro:\s*hot-path\b")

#: Cache protocols of R1: class name -> (invalidation hooks, cache attrs).
#: A write to a non-cache ``self._*`` attribute (or a mutating call on one)
#: inside a *public* method counts as a backing-state write; the method
#: must then call a hook or assign a cache attribute.  Private helpers are
#: exempt -- they are only reachable from already-invalidated contexts.
_CACHE_PROTOCOLS: dict[str, tuple[frozenset[str], frozenset[str]]] = {
    "Community": (
        frozenset({"_mutated"}),
        frozenset({"_version", "_columns"}),
    ),
    "UserPairMatrix": (
        frozenset({"_invalidate"}),
        frozenset({"_csr"}),
    ),
}

#: Methods whose call on a private ``self._*`` object mutates it.
_MUTATING_METHODS = frozenset(
    {
        "insert",
        "append",
        "extend",
        "add",
        "update",
        "delete",
        "remove",
        "pop",
        "popitem",
        "clear",
        "setdefault",
        "discard",
    }
)

#: R2: per-row / dict-materialising calls and their columnar replacements.
_SLOW_CALLS: dict[str, str] = {
    "entries": "UserPairMatrix.entries_arrays()",
    "support": "UserPairMatrix.support_keys()",
    "iter_ratings": "Community.columns() rating columns",
    "iter_reviews": "Community.columns() review columns",
    "direct_connections": "CommunityColumns.direct_connection_arrays()",
    "rating_triples": "CommunityColumns.ratings_slice() + srt_* columns",
}

#: In-repo calls that return ``set`` objects (R3 tracking).
_SET_RETURNING_CALLS = frozenset(
    {"support", "intersect_support", "subtract_support"}
)

_NUMERIC_PACKAGES = frozenset(
    {
        "matrix",
        "community",
        "reputation",
        "propagation",
        "trust",
        "affinity",
        "metrics",
        "shard",
    }
)
_TYPED_PACKAGES = frozenset(
    {"matrix", "community", "propagation", "reputation", "obs", "engine", "shard"}
)

#: R4: the write-once columnar view class and its constructor entry points.
_COLUMNS_CLASS = "CommunityColumns"
_COLUMNS_PRODUCERS = frozenset({"columns", "from_community"})


@dataclass(frozen=True)
class Finding:
    """One lint violation."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """``path:line:col: RULE message`` (editor-clickable)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class _ModuleContext:
    path: str
    waivers: dict[int, frozenset[str]]
    hot_path: bool
    numeric: bool
    typed: bool
    findings: list[Finding] = field(default_factory=list)

    def report(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        waived = self.waivers.get(line, frozenset()) | self.waivers.get(
            line - 1, frozenset()
        )
        if rule in waived:
            return
        self.findings.append(
            Finding(path=self.path, line=line, col=col, rule=rule, message=message)
        )


# --------------------------------------------------------------------- comments


def _scan_comments(source: str) -> tuple[dict[int, frozenset[str]], bool]:
    """Waiver map (line -> waived rules) and the hot-path marker flag."""
    waivers: dict[int, frozenset[str]] = {}
    hot_path = False
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            if _HOT_PATH_RE.search(token.string):
                hot_path = True
            match = _WAIVER_RE.search(token.string)
            if match:
                rules = frozenset(
                    rule.strip() for rule in match.group(1).split(",") if rule.strip()
                )
                line = token.start[0]
                waivers[line] = waivers.get(line, frozenset()) | rules
    except tokenize.TokenError:
        pass
    return waivers, hot_path


def _module_scopes(path: str) -> tuple[bool, bool]:
    """(numeric, typed) package membership of ``path``.

    Files outside a ``repro`` package tree (fixtures, snippets) are
    treated as numeric so the determinism rule stays testable on them.
    """
    parts = Path(path).parts
    if "repro" not in parts:
        return True, False
    subpackage = parts[parts.index("repro") + 1] if parts.index("repro") + 1 < len(parts) else ""
    return subpackage in _NUMERIC_PACKAGES, subpackage in _TYPED_PACKAGES


# ------------------------------------------------------------------- small AST


def _is_self_attr(node: ast.AST) -> str | None:
    """The attribute name when ``node`` is ``self.<attr>`` (else None)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _assign_targets(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def _iter_function_scopes(
    tree: ast.Module,
) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
    """Every accumulation scope: the module plus each (async) function."""
    yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body


def _walk_scope(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk a scope's statements without descending into nested functions.

    Nested (and method) bodies are their own scopes -- they are visited by
    their own :func:`_iter_function_scopes` entry, so pruning them here
    keeps every node attributed to exactly one scope.
    """
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # a nested scope: yielded as a node, body not entered
        stack.extend(ast.iter_child_nodes(node))


def _is_int_constant(node: ast.AST) -> bool:
    """Whether ``node`` is a plain integer literal (order-free accumulation)."""
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    )


# ------------------------------------------------------------------------- R1


def _check_r1(tree: ast.Module, ctx: _ModuleContext) -> None:
    for class_node in ast.walk(tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        protocol = _CACHE_PROTOCOLS.get(class_node.name)
        if protocol is None:
            continue
        hooks, cache_attrs = protocol
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name.startswith("_"):
                continue
            writes, invalidates = _scan_method_state(method, cache_attrs, hooks)
            if writes and not invalidates:
                ctx.report(
                    method,
                    "R1",
                    f"mutator {class_node.name}.{method.name}() writes backing "
                    f"state but never invalidates the cache (call "
                    f"self.{sorted(hooks)[0]}() or assign a cache attribute "
                    f"{sorted(cache_attrs)})",
                )


def _scan_method_state(
    method: ast.AST, cache_attrs: frozenset[str], hooks: frozenset[str]
) -> tuple[bool, bool]:
    """Whether a method body (writes backing state, invalidates the cache)."""
    writes = False
    invalidates = False
    for node in ast.walk(method):
        for target in _assign_targets(node):
            base = target.value if isinstance(target, ast.Subscript) else target
            attr = _is_self_attr(base)
            if attr is None or not attr.startswith("_"):
                continue
            if attr in cache_attrs:
                invalidates = True
            else:
                writes = True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            hook_attr = _is_self_attr(node.func)
            if hook_attr in hooks:
                invalidates = True
            elif node.func.attr in _MUTATING_METHODS:
                owner = node.func.value
                owner_attr = _is_self_attr(owner)
                if owner_attr is None and isinstance(owner, ast.Attribute):
                    owner_attr = _is_self_attr(owner.value)
                if owner_attr is not None and owner_attr.startswith("_"):
                    if owner_attr not in cache_attrs:
                        writes = True
    return writes, invalidates


# ------------------------------------------------------------------------- R2


def _check_r2(tree: ast.Module, ctx: _ModuleContext) -> None:
    if not ctx.hot_path:
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            replacement = _SLOW_CALLS.get(node.func.attr)
            if replacement is not None:
                ctx.report(
                    node,
                    "R2",
                    f"hot-path module calls .{node.func.attr}(); use the "
                    f"columnar equivalent ({replacement})",
                )


# ------------------------------------------------------------------------- R3


def _set_names_in_scope(body: Sequence[ast.stmt]) -> set[str]:
    """Names bound to set-valued expressions anywhere in the scope."""
    names: set[str] = set()
    for node in _walk_scope(body):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value, names):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if _is_set_expr(node.value, names) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _is_set_expr(node: ast.AST, set_names: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_RETURNING_CALLS
        ):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


def _check_r3(tree: ast.Module, ctx: _ModuleContext) -> None:
    if not ctx.numeric:
        return
    for _scope, body in _iter_function_scopes(tree):
        set_names = _set_names_in_scope(body)
        for node in _walk_scope(body):
            if isinstance(node, ast.For) and _is_set_expr(node.iter, set_names):
                for inner in ast.walk(node):
                    if (
                        isinstance(inner, ast.AugAssign)
                        and isinstance(inner.op, (ast.Add, ast.Sub))
                        and not _is_int_constant(inner.value)
                    ):
                        ctx.report(
                            inner,
                            "R3",
                            "float accumulation inside a loop over a set -- "
                            "set order is unspecified; iterate sorted(...) "
                            "or an insertion-ordered sequence",
                        )
            if isinstance(node, ast.Call) and _is_sum_call(node):
                for arg in node.args:
                    if isinstance(
                        arg, (ast.GeneratorExp, ast.ListComp)
                    ) and arg.generators:
                        if _is_set_expr(
                            arg.generators[0].iter, set_names
                        ) and not _is_int_constant(arg.elt):
                            ctx.report(
                                node,
                                "R3",
                                "sum() over a set-driven generator -- set "
                                "order is unspecified; sum a sorted(...) or "
                                "insertion-ordered sequence (or math.fsum)",
                            )
                    elif _is_set_expr(arg, set_names):
                        ctx.report(
                            node,
                            "R3",
                            "sum() over a set -- set order is unspecified; "
                            "sum a sorted(...) or insertion-ordered "
                            "sequence (or math.fsum)",
                        )


def _is_sum_call(node: ast.Call) -> bool:
    if isinstance(node.func, ast.Name) and node.func.id == "sum":
        return True
    return isinstance(node.func, ast.Attribute) and node.func.attr == "sum"


# ------------------------------------------------------------------------- R4


def _check_r4(tree: ast.Module, ctx: _ModuleContext) -> None:
    for class_node in ast.walk(tree):
        if isinstance(class_node, ast.ClassDef) and class_node.name == _COLUMNS_CLASS:
            _check_r4_inside_class(class_node, ctx)
    for _scope, body in _iter_function_scopes(tree):
        _check_r4_consumers(body, ctx)


def _check_r4_inside_class(class_node: ast.ClassDef, ctx: _ModuleContext) -> None:
    for method in class_node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if method.name == "__init__":
            continue
        for node in ast.walk(method):
            for target in _assign_targets(node):
                base = target.value if isinstance(target, ast.Subscript) else target
                attr = _is_self_attr(base)
                if attr is not None and not attr.startswith("_"):
                    ctx.report(
                        node,
                        "R4",
                        f"{_COLUMNS_CLASS}.{attr} is write-once; it may only be "
                        f"assigned in __init__ (lazy memo attributes must be "
                        f"underscore-prefixed)",
                    )


def _columns_names_in_scope(body: Sequence[ast.stmt]) -> set[str]:
    names: set[str] = set()
    for node in _walk_scope(body):
        if isinstance(node, ast.Assign) and _is_columns_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _is_columns_expr(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Name) and node.func.id == _COLUMNS_CLASS:
        return True
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in _COLUMNS_PRODUCERS
    )


def _check_r4_consumers(body: Sequence[ast.stmt], ctx: _ModuleContext) -> None:
    columns_names = _columns_names_in_scope(body)
    for node in _walk_scope(body):
        for target in _assign_targets(node):
            base = target.value if isinstance(target, ast.Subscript) else target
            if not isinstance(base, ast.Attribute):
                continue
            owner = base.value
            owned = (
                isinstance(owner, ast.Name) and owner.id in columns_names
            ) or _is_columns_expr(owner)
            if owned:
                ctx.report(
                    node,
                    "R4",
                    f"assignment to {_COLUMNS_CLASS} attribute "
                    f".{base.attr} -- the cached columnar view is shared "
                    f"and write-once; rebuild via Community mutators "
                    f"instead",
                )


# ------------------------------------------------------------------------- R5


def _check_r5(tree: ast.Module, ctx: _ModuleContext) -> None:
    if not ctx.typed:
        return
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        missing: list[str] = []
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        if positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        for arg in positional + list(args.kwonlyargs):
            if arg.annotation is None:
                missing.append(arg.arg)
        for star in (args.vararg, args.kwarg):
            if star is not None and star.annotation is None:
                missing.append(star.arg)
        if node.returns is None:
            missing.append("return")
        if missing:
            ctx.report(
                node,
                "R5",
                f"function {node.name}() in a strict-typed package is missing "
                f"annotations for: {', '.join(missing)}",
            )


# ------------------------------------------------------------------------- R6

#: Calls that would bypass the span context-manager protocol entirely.
_SPAN_FORBIDDEN = frozenset({"start_span", "stop_span"})


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _check_r6(tree: ast.Module, ctx: _ModuleContext) -> None:
    managed: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.context_expr, ast.Call):
                    managed.add(id(item.context_expr))
        elif isinstance(node, ast.Call) and _call_name(node) == "enter_context":
            for arg in node.args:
                if isinstance(arg, ast.Call):
                    managed.add(id(arg))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name in _SPAN_FORBIDDEN:
            ctx.report(
                node,
                "R6",
                f"there is no {name}() API; time the region with "
                f"`with obs.span(...):` so the span always closes",
            )
        elif name == "span" and id(node) not in managed:
            ctx.report(
                node,
                "R6",
                "span(...) must be a with-item (or passed to "
                "enter_context(...)); a bare call leaks an un-closed span",
            )


# ------------------------------------------------------------------ entry points


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one module's source text; returns unwaived findings."""
    waivers, hot_path = _scan_comments(source)
    numeric, typed = _module_scopes(path)
    ctx = _ModuleContext(
        path=path, waivers=waivers, hot_path=hot_path, numeric=numeric, typed=typed
    )
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        ctx.findings.append(
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                rule="E0",
                message=f"syntax error: {exc.msg}",
            )
        )
        return ctx.findings
    _check_r1(tree, ctx)
    _check_r2(tree, ctx)
    _check_r3(tree, ctx)
    _check_r4(tree, ctx)
    _check_r5(tree, ctx)
    _check_r6(tree, ctx)
    ctx.findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return ctx.findings


def _python_files(paths: Iterable[str]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                if "__pycache__" not in file.parts:
                    yield file
        else:
            yield path


def lint_paths(paths: Iterable[str]) -> list[Finding]:
    """Lint files and directory trees; returns all unwaived findings."""
    findings: list[Finding] = []
    for file in _python_files(paths):
        findings.extend(lint_source(file.read_text(encoding="utf-8"), str(file)))
    return findings


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: ``python -m repro.analysis.lint [paths...]``."""
    parser = argparse.ArgumentParser(
        prog="repro.analysis.lint",
        description="Check the repo-specific invariants R1-R6.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories to lint"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    options = parser.parse_args(argv)
    if options.list_rules:
        for rule, description in RULES.items():
            print(f"{rule}  {description}")
        return 0
    findings = lint_paths(options.paths)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
