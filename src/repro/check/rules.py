"""The pluggable lint-rule registry.

A rule is a function ``(FileContext) -> Iterable[Finding]`` registered
under a stable kebab-case name with :func:`rule`.  The driver in
:mod:`repro.check.lint` parses each file once and hands every rule the
same :class:`FileContext`; rules walk the AST and emit findings, which
the driver then filters against inline waivers.

Every rule here encodes an invariant this repo has been bitten by (or
is structurally exposed to), not general style — style is ruff's job.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

#: Modules allowed to mutate ``Tensor.data`` in place.  Both sit
#: *outside* the differentiable region:
#:
#: - ``repro/nn/tensor.py`` — the Tensor constructor itself;
#: - ``repro/nn/optim.py``  — optimizer parameter updates (applied
#:   between steps, never inside a recorded graph).
#:
#: Every entry must hold at least one ``.data`` write
#: (``tests/check/test_lint_rules.py``), so an entry cannot outlive the
#: writes it exempts.  Any other site needs an inline waiver with a
#: justification.
TENSOR_DATA_WHITELIST: Tuple[str, ...] = (
    "repro/nn/tensor.py",
    "repro/nn/optim.py",
)

#: Legacy numpy global-state samplers (the pre-Generator API).  Calling
#: any of these either mutates hidden global state or draws from it.
_LEGACY_SAMPLERS = frozenset({
    "seed", "rand", "randn", "randint", "random_integers", "random",
    "random_sample", "ranf", "sample", "choice", "shuffle", "permutation",
    "uniform", "normal", "standard_normal", "exponential", "poisson",
    "binomial", "beta", "gamma", "RandomState", "get_state", "set_state",
})

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                     ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict",
                            "OrderedDict", "Counter", "deque", "bytearray"})


@dataclass(frozen=True)
class Finding:
    """One lint/audit finding, pointing at a file line."""

    rule: str
    path: str
    line: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message}

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class FileContext:
    """Everything a rule needs about one parsed source file."""

    path: str          # display path (repo-relative where possible)
    module_path: str   # forward-slash path used for whitelist matching
    source: str
    lines: List[str]
    tree: ast.Module

    def finding(self, rule_name: str, node: ast.AST, message: str) -> Finding:
        return Finding(rule_name, self.path, getattr(node, "lineno", 1),
                       message)

    @functools.cached_property
    def scopes(self) -> List[Scope]:
        """The module's top-level code and every function in it."""
        return _scopes(self.tree)


@dataclass
class Rule:
    """A registered lint rule."""

    name: str
    description: str
    check: Callable[[FileContext], Iterable[Finding]] = field(repr=False)


#: Registry of all lint rules, in registration order.
RULES: Dict[str, Rule] = {}

#: Finding ids emitted by the driver itself (waiver bookkeeping,
#: unparseable files).  They are not waivable and carry no check
#: function, but ``--list-rules`` and waiver validation know them.
META_RULES: Dict[str, str] = {
    "syntax-error": "file could not be parsed",
    "waiver-missing-justification":
        "a repro-check waiver must explain itself after the rule name",
    "unused-waiver": "a waiver that suppresses nothing must be removed",
    "unknown-waiver-rule": "a waiver names a rule that does not exist",
}


def rule(name: str, description: str):
    """Decorator registering a rule function under ``name``."""

    def decorate(fn: Callable[[FileContext], Iterable[Finding]]) -> Rule:
        if name in RULES or name in META_RULES:
            raise ValueError(f"duplicate rule name: {name}")
        entry = Rule(name, description, fn)
        RULES[name] = entry
        return entry

    return decorate


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for an attribute chain, '' when it is not a plain chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_mutable(expr: ast.AST) -> bool:
    """A list/dict/set literal, comprehension or constructor call."""
    return isinstance(expr, _MUTABLE_LITERALS) or (
        isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
        and expr.func.id in _MUTABLE_CALLS)


def _calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
@rule("builtin-hash",
      "builtin hash() is randomised per process (PYTHONHASHSEED); use a "
      "stable digest (zlib.crc32 / hashlib) for seeds and cache keys")
def _builtin_hash(ctx: FileContext) -> Iterator[Finding]:
    for call in _calls(ctx.tree):
        if isinstance(call.func, ast.Name) and call.func.id == "hash":
            yield ctx.finding(
                "builtin-hash", call,
                "builtin hash() is process-randomised; derive seeds and "
                "cache keys from a stable digest instead",
            )


@rule("unseeded-rng",
      "no global-state numpy RNG (np.random.seed / legacy samplers) and "
      "no default_rng() without an explicit seed argument")
def _unseeded_rng(ctx: FileContext) -> Iterator[Finding]:
    for call in _calls(ctx.tree):
        name = _dotted(call.func)
        if not name:
            continue
        head, _, leaf = name.rpartition(".")
        if head in ("np.random", "numpy.random") and leaf in _LEGACY_SAMPLERS:
            yield ctx.finding(
                "unseeded-rng", call,
                f"{name}() uses numpy's hidden global RNG state; pass an "
                "explicitly seeded np.random.Generator instead",
            )
        elif leaf == "default_rng" and head in ("", "np.random",
                                                "numpy.random"):
            seeded = bool(call.args) or any(
                kw.arg == "seed" for kw in call.keywords)
            if not seeded:
                yield ctx.finding(
                    "unseeded-rng", call,
                    "default_rng() without a seed is entropy-seeded and "
                    "unreproducible; make the seed an explicit argument",
                )


@rule("bare-except",
      "no bare `except:` and no blanket `except Exception/BaseException`; "
      "name the exceptions the code can actually handle")
def _bare_except(ctx: FileContext) -> Iterator[Finding]:
    def broad(expr: ast.AST) -> bool:
        return isinstance(expr, ast.Name) and expr.id in ("Exception",
                                                          "BaseException")

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield ctx.finding("bare-except", node,
                              "bare `except:` swallows every error, "
                              "including the silent-corruption ones this "
                              "repo worries about; catch specific types")
        elif broad(node.type) or (
                isinstance(node.type, ast.Tuple)
                and any(broad(e) for e in node.type.elts)):
            yield ctx.finding("bare-except", node,
                              "blanket `except Exception` hides numerics "
                              "bugs; catch the specific exceptions this "
                              "block can recover from")


@rule("mutable-default",
      "no mutable default arguments (list/dict/set literals or "
      "constructors); they are shared across calls")
def _mutable_default(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        for default in list(args.defaults) + [d for d in args.kw_defaults
                                              if d is not None]:
            if _is_mutable(default):
                label = getattr(node, "name", "<lambda>")
                yield ctx.finding(
                    "mutable-default", default,
                    f"mutable default argument in `{label}` is shared "
                    "across calls; default to None and build inside",
                )


@rule("tensor-data-mutation",
      "no in-place mutation of `<x>.data` outside the audited whitelist; "
      "autograd records values at op creation, so later mutation silently "
      "corrupts gradients")
def _tensor_data_mutation(ctx: FileContext) -> Iterator[Finding]:
    if any(ctx.module_path.endswith(allowed)
           for allowed in TENSOR_DATA_WHITELIST):
        return

    def is_data_target(target: ast.AST) -> bool:
        if isinstance(target, ast.Attribute) and target.attr == "data":
            return True
        if isinstance(target, ast.Subscript):
            return is_data_target(target.value)
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(is_data_target(e) for e in target.elts)
        return False

    for node in ast.walk(ctx.tree):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if is_data_target(target):
                yield ctx.finding(
                    "tensor-data-mutation", node,
                    "in-place write to a `.data` buffer outside the "
                    "audited kernels; route the update through autograd "
                    "ops or waive with a justification",
                )


# ----------------------------------------------------------------------
# Determinism and crash-safety rules, checked one function at a time
# ----------------------------------------------------------------------
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Callables returning a numpy Generator (or a legacy RandomState).
_GENERATOR_CTORS = frozenset({"default_rng", "RandomState", "Generator"})

#: Draw methods of ``numpy.random.Generator`` (and legacy RandomState).
_GENERATOR_DRAWS = frozenset({
    "random", "standard_normal", "normal", "uniform", "integers",
    "randint", "choice", "shuffle", "permutation", "permuted",
    "exponential", "poisson", "binomial", "beta", "gamma", "bytes",
    "rand", "randn",
})

_ARTIFACT_SUFFIXES = (".json", ".jsonl", ".npz")


@dataclass
class Scope:
    """One function, or the module's top-level code (``<module>``)."""

    name: str               # ``Class.method``, ``outer.inner``, ...
    body: List[ast.stmt]    # its statements (a function's nested defs too)
    nodes: List[ast.AST]    # the nodes it owns: nested definitions excluded

    @functools.cached_property
    def bindings(self) -> Dict[str, List[Tuple[int, str]]]:
        """name -> ``(line, kind)`` of each binding here, in line order
        (the kinds are :func:`_kind`'s)."""
        found: List[Tuple[int, str, str]] = []
        for node in self.nodes:
            pairs: List[Tuple[ast.AST, str]] = []
            if isinstance(node, ast.Assign):
                pairs = [(t, _kind(node.value)) for t in node.targets]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                pairs = [(node.target, _kind(node.value))]
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                pairs = [(node.target, "")]
            elif isinstance(node, ast.withitem) and node.optional_vars:
                pairs = [(node.optional_vars, _kind(node.context_expr))]
            for target, kind in pairs:
                if isinstance(target, ast.Name):
                    found.append((target.lineno, target.id, kind))
        table: Dict[str, List[Tuple[int, str]]] = {}
        for line, name, kind in sorted(found):
            table.setdefault(name, []).append((line, kind))
        return table


def _scopes(tree: ast.Module) -> List[Scope]:
    module = Scope("<module>", [s for s in tree.body
                                if not isinstance(s, _DEFS)], [])
    scopes = [module]

    def visit(body: List[ast.stmt], owned: List[ast.AST],
              prefix: str) -> None:
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = Scope(prefix + node.name, node.body, [])
                scopes.append(scope)
                visit(node.body, scope.nodes, f"{scope.name}.")
            elif isinstance(node, ast.ClassDef):
                # Class-level statements belong to no scope; methods do.
                visit(node.body, [], f"{prefix}{node.name}.")
            else:
                owned.append(node)
                stack.extend(ast.iter_child_nodes(node))

    visit(tree.body, module.nodes, "")
    return scopes


def _kind(expr: ast.AST) -> str:
    """What a value is, as far as these rules care: ``rng``, ``file``,
    ``set``, ``as_completed`` or ''."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "set"
    if not isinstance(expr, ast.Call):
        return ""
    leaf = _dotted(expr.func).rpartition(".")[2]
    if leaf in _GENERATOR_CTORS:
        return "rng"
    if leaf == "as_completed":
        return "as_completed"
    name = expr.func.id if isinstance(expr.func, ast.Name) else ""
    if name in ("set", "frozenset"):
        return "set"
    return "file" if name == "open" else ""


def _kind_at(expr: ast.AST, scope: Scope, line: int) -> str:
    """:func:`_kind` of ``expr``; a name takes the kind of its last
    binding in ``scope`` before ``line``."""
    if not isinstance(expr, ast.Name):
        return _kind(expr)
    earlier = [kind for at, kind in scope.bindings.get(expr.id, ())
               if at < line]
    return earlier[-1] if earlier else ""


def _module_globals(tree: ast.Module) -> Iterator[Tuple[ast.AST, str,
                                                        ast.AST]]:
    """``(statement, name, value)`` of each top-level name binding."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                yield node, target.id, node.value


@rule("rng-stream",
      "RNG draw order must be deterministic: no module-level numpy "
      "Generator, and no draws inside iteration over a set or "
      "as_completed")
def _rng_stream(ctx: FileContext) -> Iterator[Finding]:
    for node, name, value in _module_globals(ctx.tree):
        if _kind(value) == "rng":
            yield ctx.finding(
                "rng-stream", node,
                f"module-level Generator `{name}` is shared by every "
                "caller (and copied into every worker), so its draw "
                "order depends on who runs first; construct it from an "
                "explicit seed where it is used",
            )
    for scope in ctx.scopes:
        for loop in scope.nodes:
            if not isinstance(loop, (ast.For, ast.AsyncFor)):
                continue
            kind = _kind_at(loop.iter, scope, loop.lineno)
            if kind not in ("set", "as_completed"):
                continue
            for node in (n for s in loop.body for n in ast.walk(s)):
                if isinstance(node, ast.Call) and isinstance(
                        node.func, ast.Attribute) and \
                        node.func.attr in _GENERATOR_DRAWS:
                    yield ctx.finding(
                        "rng-stream", node,
                        f"RNG draw inside iteration over {kind} in "
                        f"`{scope.name}`; iteration order is not fixed, so "
                        "the draw sequence is nondeterministic",
                    )


@rule("parallel-safety",
      "nothing mutable crosses a worker boundary by accident: no lambda "
      "handed to a pool that captures a mutable module global or self, "
      "and no live Generator or open file submitted to a process pool")
def _parallel_safety(ctx: FileContext) -> Iterator[Finding]:
    mutable = {name for _, name, value in _module_globals(ctx.tree)
               if _is_mutable(value)}
    pools: Dict[str, bool] = {}   # pool variable -> is a process pool
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.withitem):
            target, value = node.optional_vars, node.context_expr
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        else:
            continue
        leaf = _dotted(getattr(value, "func", value)).rpartition(".")[2]
        if isinstance(target, ast.Name) and leaf in (
                "ProcessPoolExecutor", "ThreadPoolExecutor", "Pool"):
            pools[target.id] = leaf != "ThreadPoolExecutor"

    for scope in ctx.scopes:
        for call in scope.nodes:
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            receiver = func.value.id if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) else ""
            leaf = _dotted(func).rpartition(".")[2]
            if isinstance(func, ast.Attribute) and call.args and (
                    func.attr in ("submit", "apply_async")
                    or (func.attr == "map" and receiver in pools)):
                target = call.args[0]
                # A receiver of unknown kind counts as a process pool.
                payload = call.args[1:] + [kw.value for kw in call.keywords] \
                    if pools.get(receiver, True) else []
            elif leaf in ("Thread", "Process"):
                target = next((kw.value for kw in call.keywords
                               if kw.arg == "target"), None)
                payload = []
            else:
                continue
            if isinstance(target, ast.Lambda):
                params = {a.arg for a in ast.walk(target.args)
                          if isinstance(a, ast.arg)}
                loads = {n.id for n in ast.walk(target.body)
                         if isinstance(n, ast.Name)
                         and isinstance(n.ctx, ast.Load)}
                for name in sorted((loads - params) & (mutable | {"self"})):
                    yield ctx.finding(
                        "parallel-safety", target,
                        f"closure handed to a worker in `{scope.name}` "
                        f"captures mutable shared state `{name}`; pass "
                        "an immutable snapshot as an argument instead",
                    )
            for arg in payload:
                kind = _kind_at(arg, scope, call.lineno)
                if kind == "rng":
                    yield ctx.finding(
                        "parallel-safety", arg,
                        f"live Generator submitted to a process pool in "
                        f"`{scope.name}`; send a seed and construct the "
                        "generator in the worker",
                    )
                elif kind == "file":
                    yield ctx.finding(
                        "parallel-safety", arg,
                        f"open file submitted to a process pool in "
                        f"`{scope.name}`; pass the path and open it in the "
                        "worker",
                    )


def _artifact_write(call: ast.Call) -> str:
    """Describe the run-artifact write this call performs, or ''."""
    name = _dotted(call.func)
    head, _, leaf = name.rpartition(".")
    if leaf in ("savez", "savez_compressed", "save") and \
            head in ("np", "numpy"):
        return f"{name}()"
    if name == "json.dump":
        return "json.dump()"
    if leaf != "open":
        return ""
    mode = ""
    if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
        mode = str(call.args[1].value)
    for kw in call.keywords:
        if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
            mode = str(kw.value.value)
    if "w" in mode and any(
            isinstance(n, ast.Constant) and isinstance(n.value, str)
            and n.value.endswith(_ARTIFACT_SUFFIXES)
            for n in ast.walk(call)):
        return f"open(..., '{mode}')"
    return ""


@rule("artifact-atomicity",
      "run artifacts (*.json / *.jsonl / *.npz) must be written via the "
      "stage-then-os.replace pattern (atomic_write / atomic_savez); a "
      "crash mid-write must not corrupt the artifact")
def _artifact_atomicity(ctx: FileContext) -> Iterator[Finding]:
    for scope in ctx.scopes:
        # A function's nested definitions count as its own code here.
        calls = [n for s in scope.body for n in ast.walk(s)
                 if isinstance(n, ast.Call)]
        if any(_dotted(call.func) == "os.replace"
               or _dotted(call.func).rpartition(".")[2] in (
                   "atomic_savez", "atomic_write")
               or (isinstance(call.func, ast.Attribute)
                   and call.func.attr == "replace" and len(call.args) == 1
                   and not call.keywords)     # Path.replace(target)
               for call in calls):
            continue
        for call in calls:
            what = _artifact_write(call)
            if what:
                yield ctx.finding(
                    "artifact-atomicity", call,
                    f"{what} in `{scope.name}` writes a run artifact without "
                    "the stage-then-os.replace pattern; route it through "
                    "the atomic helpers so a crash cannot leave a torn "
                    "file",
                )


@rule("trace-safety",
      "no backward() under no_grad(): gradients recorded with grad mode "
      "off are silently wrong")
def _trace_safety(ctx: FileContext) -> Iterator[Finding]:
    for scope in ctx.scopes:
        for node in scope.nodes:
            if not isinstance(node, (ast.With, ast.AsyncWith)) or not any(
                    isinstance(item.context_expr, ast.Call)
                    and _dotted(item.context_expr.func)
                    .rpartition(".")[2] == "no_grad"
                    for item in node.items):
                continue
            for call in (n for s in node.body for n in ast.walk(s)):
                if isinstance(call, ast.Call) and isinstance(
                        call.func, ast.Attribute) and \
                        call.func.attr == "backward":
                    yield ctx.finding(
                        "trace-safety", call,
                        f"backward() under no_grad() in `{scope.name}`; "
                        "gradients recorded under no_grad are silently "
                        "wrong",
                    )
