"""Turning config trees into live experiment object graphs.

The registry maps component tags to schemas (argument names, defaults,
factory).  Instantiation runs the full pipeline: ``{EXP}`` placeholder
substitution, per-node default filling (including ``use-global`` defaults
read from the experiment's ExpGlobal), reference planning, and bottom-up
construction.  A ``!Ref {path: ...}`` resolves to the *same* instance as
its target path, in either document direction; only true constructor
cycles are errors.

Every component instance records its tag and resolved arguments, which is
what :func:`dump_spec` walks to emit a re-runnable spec with all scalar
defaults materialized and shared instances preserved as Refs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .configlang import (ALIAS, MAPPING, SCALAR, SEQUENCE, ConfigNode, Loc,
                         iter_nodes, node_at_path)
from .tensor import Runtime


class ResolveError(Exception):
    def __init__(self, message: str, path: str = "", loc: Optional[Loc] = None):
        where = f" at '{path}'" if path else ""
        if loc:
            where += f" (line {loc[0]}, col {loc[1]})"
        super().__init__(message + where)
        self.message = message
        self.path = path
        self.loc = loc


REQUIRED = object()


@dataclass(frozen=True)
class UseGlobal:
    """Default marker: read the value from the named ExpGlobal field."""

    key: str


@dataclass
class Arg:
    name: str
    default: Any = REQUIRED


@dataclass
class ComponentSchema:
    """How to build one component tag from its config arguments."""

    tag_name: str
    args: list[Arg]
    factory: Callable

    def __post_init__(self):
        names = [a.name for a in self.args]
        if len(names) != len(set(names)):
            raise ValueError(f"schema '{self.tag_name}' has duplicate argument names")


class Registry:
    def __init__(self):
        self._schemas: dict[str, ComponentSchema] = {}

    def register(self, schema: ComponentSchema) -> "Registry":
        if schema.tag_name in self._schemas:
            raise ResolveError(f"component tag '{schema.tag_name}' already registered")
        self._schemas[schema.tag_name] = schema
        return self

    def get(self, tag: str) -> Optional[ComponentSchema]:
        return self._schemas.get(tag)

    def tags(self) -> list[str]:
        return list(self._schemas)


@dataclass
class BuildContext:
    """Handed to every component factory."""

    path: str
    exp_global: Any
    runtime: Optional[Runtime]
    registry: Registry


@dataclass
class ComponentGraph:
    nodes: dict[str, Any] = field(default_factory=dict)
    shared: set = field(default_factory=set)

    def shared_pairs(self) -> set:
        """Sharing structure as unordered path pairs."""
        return {frozenset(pair) for pair in self.shared}


# ---------------------------------------------------------------------------
# pipeline steps
# ---------------------------------------------------------------------------


def substitute_placeholders(root: ConfigNode, exp_name: str) -> ConfigNode:
    """Replace every ``{EXP}`` inside string scalars with the experiment name."""
    out = root.copy()
    for node in iter_nodes(out):
        if node.kind == SCALAR and isinstance(node.value, str):
            node.value = node.value.replace("{EXP}", exp_name)
    return out


def fill_defaults(node: ConfigNode, schema: ComponentSchema, exp_global) -> dict[str, Any]:
    """Resolve a tagged mapping's arguments against its schema.

    Present arguments stay as their ConfigNode; absent ones become their
    schema default, with ``use-global`` defaults read from ``exp_global``.
    Unknown and missing-required arguments are errors carrying the node's
    location.
    """
    if node.tag != schema.tag_name:
        raise ResolveError(f"node tagged '{node.tag}' does not match schema "
                           f"'{schema.tag_name}'", loc=node.loc)
    known = {a.name for a in schema.args}
    for key, child in node.children:
        if key not in known:
            raise ResolveError(f"unknown argument '{key}' for !{schema.tag_name}",
                               loc=node.key_locs.get(key, child.loc))
    out: dict[str, Any] = {}
    for arg in schema.args:
        present = node.get(arg.name)
        if present is not None:
            out[arg.name] = present
        elif isinstance(arg.default, UseGlobal):
            out[arg.name] = getattr(exp_global, arg.default.key)
        elif arg.default is REQUIRED:
            raise ResolveError(f"missing required argument '{arg.name}' for "
                               f"!{schema.tag_name}", loc=node.loc)
        else:
            out[arg.name] = arg.default
    return out


def _is_ref(node: ConfigNode) -> bool:
    return node.kind == MAPPING and node.tag == "Ref"


def read_path(node: ConfigNode, owner: str) -> str:
    """The string ``path:`` argument of a ``!Ref``, overwrite or search slot."""
    path_node = node.get("path") if node.kind == MAPPING else None
    if path_node is None or path_node.kind != SCALAR or not isinstance(path_node.value, str):
        raise ResolveError(f"{owner} requires a string 'path' argument",
                           loc=(path_node or node).loc)
    return path_node.value


@dataclass
class ReferencePlan:
    schedule: list[str]
    aliases: set
    nodes: dict[str, ConfigNode]


def resolve_references(root: ConfigNode) -> ReferencePlan:
    """Compute a dependency-ordered instantiation schedule, the alias set and
    the node at every scheduled path.

    Children come before parents and every Ref's target before the Ref.
    Dangling paths and constructor cycles are errors.
    """
    paths: dict[str, ConfigNode] = {}

    def collect(node: ConfigNode, path: str) -> None:
        paths[path] = node
        if _is_ref(node):
            return
        if node.kind == MAPPING:
            for key, child in node.children:
                collect(child, f"{path}.{key}" if path else key)
        elif node.kind == SEQUENCE:
            for i, child in enumerate(node.children):
                collect(child, f"{path}.{i}" if path else str(i))

    collect(root, "")
    schedule: list[str] = []
    aliases: set = set()
    state: dict[str, int] = {}
    chain: list[str] = []

    def visit(path: str) -> None:
        if state.get(path) == 1:
            return
        if state.get(path) == 0:
            cycle = chain[chain.index(path):] + [path]
            raise ResolveError("reference cycle: " + " -> ".join(p or "<root>" for p in cycle))
        state[path] = 0
        chain.append(path)
        node = paths[path]
        if _is_ref(node):
            target = read_path(node, "!Ref")
            if target not in paths:
                raise ResolveError(f"reference to unknown path '{target}'",
                                   path=path, loc=node.loc)
            visit(target)
            aliases.add((path, target))
        elif node.kind == MAPPING:
            for key, _ in node.children:
                visit(f"{path}.{key}" if path else key)
        elif node.kind == SEQUENCE:
            for i in range(len(node.children)):
                visit(f"{path}.{i}" if path else str(i))
        chain.pop()
        state[path] = 1
        schedule.append(path)

    visit("")
    return ReferencePlan(schedule=schedule, aliases=aliases, nodes=paths)


# ---------------------------------------------------------------------------
# instantiation
# ---------------------------------------------------------------------------


def _build_component(node: ConfigNode, path: str, built: dict, exp_global,
                     runtime, registry: Registry, graph: ComponentGraph):
    schema = registry.get(node.tag)
    if schema is None:
        raise ResolveError(f"unregistered tag {node.tag}", path=path, loc=node.loc)
    try:
        argmap = fill_defaults(node, schema, exp_global)
    except ResolveError as err:
        if not err.path:
            raise ResolveError(err.message, path=path, loc=err.loc) from err
        raise
    kwargs: dict[str, Any] = {}
    for name, value in argmap.items():
        if isinstance(value, ConfigNode):
            kwargs[name] = built[f"{path}.{name}" if path else name]
        else:
            kwargs[name] = value
    ctx = BuildContext(path=path, exp_global=exp_global, runtime=runtime,
                       registry=registry)
    try:
        instance = schema.factory(ctx, **kwargs)
    except ResolveError:
        raise
    except Exception as err:
        raise ResolveError(f"failed to construct !{node.tag}: {err}",
                           path=path, loc=node.loc) from err
    instance._cfg_tag = node.tag
    instance._cfg_args = kwargs
    graph.nodes[path] = instance
    return instance


def instantiate_graph(root: ConfigNode, registry: Registry, exp_name: str,
                      seed_override: Optional[int] = None):
    """Build a live experiment from a single-experiment subtree.

    Pipeline: placeholder substitution, ExpGlobal construction (which fixes
    the seed), reference planning, then bottom-up construction following
    the plan.  The returned experiment carries ``name``, ``runtime`` and
    ``graph`` attributes.
    """
    if root.kind != MAPPING or root.tag != "Experiment":
        raise ResolveError("experiment root must be a mapping tagged !Experiment",
                           loc=root.loc)
    for node in iter_nodes(root):
        if node.kind == ALIAS:
            raise ResolveError("tree still contains unresolved aliases; run "
                               "resolve_anchors first", loc=node.loc)
    tree = substitute_placeholders(root, exp_name)
    graph = ComponentGraph()
    built: dict[str, Any] = {}

    eg_node = tree.get("exp_global")
    if eg_node is None:
        eg_node = ConfigNode.mapping(tag="ExpGlobal")
        tree.set("exp_global", eg_node)
    if eg_node.kind != MAPPING or eg_node.tag != "ExpGlobal":
        raise ResolveError("exp_global must be tagged !ExpGlobal", loc=eg_node.loc)
    for key, child in eg_node.children:
        built[f"exp_global.{key}"] = _plain_value(child, f"exp_global.{key}")
    exp_global = _build_component(eg_node, "exp_global", built, None, None,
                                  registry, graph)
    built["exp_global"] = exp_global

    runtime = Runtime(seed_override if seed_override is not None else exp_global.seed)
    plan = resolve_references(tree)
    graph.shared = set(plan.aliases)

    for path in plan.schedule:
        if path in built:
            continue
        node = plan.nodes[path]
        if _is_ref(node):
            built[path] = built[read_path(node, "!Ref")]
            graph.nodes[path] = built[path]
        elif node.kind == MAPPING and node.tag is not None:
            built[path] = _build_component(node, path, built, exp_global, runtime,
                                           registry, graph)
        elif node.kind == MAPPING:
            built[path] = {key: built[f"{path}.{key}" if path else key]
                           for key, _ in node.children}
        elif node.kind == SEQUENCE:
            built[path] = [built[f"{path}.{i}" if path else str(i)]
                           for i in range(len(node.children))]
        else:
            built[path] = _plain_value(node, path)

    exp = built[""]
    exp.name = exp_name
    exp.runtime = runtime
    exp.graph = graph
    return exp


def _plain_value(node: ConfigNode, path: str):
    if node.kind == SCALAR:
        return node.value
    raise ResolveError("unexpected structured value", path=path, loc=node.loc)


# ---------------------------------------------------------------------------
# dumping
# ---------------------------------------------------------------------------


def is_component(value: Any) -> bool:
    return hasattr(value, "_cfg_tag")


def dump_spec(exp) -> ConfigNode:
    """Emit the experiment as a config tree with every argument explicit.

    The first occurrence of a shared instance (document order) gets the
    full definition; later occurrences become ``!Ref {path: ...}``, which
    preserves the alias structure through a save/load round trip.
    """
    seen: dict[int, str] = {}

    def emit(value: Any, path: str) -> ConfigNode:
        if is_component(value):
            if id(value) in seen:
                return ConfigNode.mapping(
                    [("path", ConfigNode.scalar(seen[id(value)]))], tag="Ref")
            seen[id(value)] = path
            pairs = []
            for name, arg in value._cfg_args.items():
                if value._cfg_tag == "Experiment" and name in ("load", "overwrite") and arg is None:
                    continue
                pairs.append((name, emit(arg, f"{path}.{name}" if path else name)))
            return ConfigNode.mapping(pairs, tag=value._cfg_tag)
        if isinstance(value, dict):
            return ConfigNode.mapping(
                [(k, emit(v, f"{path}.{k}" if path else k)) for k, v in value.items()])
        if isinstance(value, (list, tuple)):
            return ConfigNode.sequence(
                [emit(v, f"{path}.{i}" if path else str(i)) for i, v in enumerate(value)])
        if value is None or isinstance(value, (bool, int, float, str)):
            return ConfigNode.scalar(value)
        raise ResolveError(f"cannot dump value of type {type(value).__name__}", path=path)

    return emit(exp, "")


# ---------------------------------------------------------------------------
# overwrites
# ---------------------------------------------------------------------------


@dataclass
class Overwrite:
    path: str
    val: ConfigNode
    loc: Optional[Loc] = None


def apply_overwrites(root: ConfigNode, overwrites: list[Overwrite]) -> ConfigNode:
    """Apply dotted-path overwrites in order; returns a new tree.

    The path's prefix must address an existing node; the final segment may
    name a new child of an existing mapping.  Sequence segments are
    zero-based indices of existing elements.  Errors carry the overwrite's
    location.
    """
    tree = root.copy()
    for ow in overwrites:
        if "" in ow.path.split("."):
            raise ResolveError(f"overwrite path '{ow.path}' has an empty segment", loc=ow.loc)
        prefix, _, last = ow.path.rpartition(".")
        parent = node_at_path(tree, prefix)
        if parent is None or parent.kind not in (MAPPING, SEQUENCE):
            raise ResolveError(f"overwrite path '{ow.path}' does not address a mapping "
                               f"or sequence at '{prefix}'", loc=ow.loc)
        value = ow.val.copy()
        if parent.kind == MAPPING:
            parent.set(last, value)
        elif not last.isdigit() or int(last) >= len(parent.children):
            raise ResolveError(f"overwrite path '{ow.path}': sequence index "
                               f"'{last}' out of range", loc=ow.loc)
        else:
            parent.children[int(last)] = value
    return tree


def parse_overwrites(node: ConfigNode) -> list[Overwrite]:
    """Read an ``overwrite:`` block (list of ``{path, val}`` mappings)."""
    if node.kind != SEQUENCE:
        raise ResolveError("overwrite block must be a sequence", loc=node.loc)
    out = []
    for item in node.children:
        path = read_path(item, "an overwrite")
        if item.get("val") is None:
            raise ResolveError("each overwrite needs 'path' and 'val'", loc=item.loc)
        out.append(Overwrite(path=path, val=item.get("val"), loc=item.loc))
    return out
