"""Config-language front end: parsing, anchor resolution, serialization.

Experiment files use a small indentation-based language (a strict YAML
subset).  Supported constructs:

* block mappings (``key: value``, nesting by indentation)
* block sequences (``- item``), including compact ``- key: value`` items;
  a sequence may sit at the same indent as its parent key
* flow mappings ``{key: value, ...}`` on a single line, ``{}`` when empty
* ``[]`` for an empty sequence (the only flow-sequence form accepted)
* plain or quoted keys, read alike in flow and block mappings; a quoted
  key is exactly one quoted string before its ``:``
* scalars: ints, floats, booleans (``true``/``True``/...), ``null``/``~``,
  plain and quoted strings; the atom type is inferred at parse time
* ``# comment`` to end of line: a ``#`` opens a comment only after a space
  or tab and outside a quoted scalar; a quote inside a plain scalar
  (``it's``) is an ordinary character
* ``!ComponentTag`` on any value; ``&anchor`` / ``*alias`` textual reuse
* several top-level experiment keys per file; ``---`` separates concatenated
  documents, which are merged into a single root mapping; a document that
  is just ``{}`` is empty

Rejected on purpose: tabs in indentation, duplicate keys, multi-line
strings, merge keys, non-empty flow sequences.  ``serialize_config`` emits
canonical 2-space indentation (``{}`` for an empty root) and its output
reparses to a tree that is ``deep_equal`` to the input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

Loc = tuple[int, int]

SCALAR = "scalar"
SEQUENCE = "sequence"
MAPPING = "mapping"
ALIAS = "alias"


class ParseError(Exception):
    """Config text that does not conform to the documented subset."""

    def __init__(self, message: str, loc: Loc):
        super().__init__(f"line {loc[0]}, col {loc[1]}: {message}")
        self.message = message
        self.loc = loc


@dataclass
class ConfigNode:
    """One node of the parsed config tree.

    ``children`` holds ``(key, node)`` pairs for mappings and bare nodes for
    sequences.  ``value`` carries the inferred atom for scalars and the
    target name for (unresolved) aliases.  Every node records the 1-based
    ``(line, col)`` where it started.
    """

    kind: str
    loc: Loc = (0, 0)
    tag: Optional[str] = None
    anchor: Optional[str] = None
    value: Any = None
    children: list = field(default_factory=list)
    key_locs: dict = field(default_factory=dict)

    # -- constructors used by the resolver/dumper and by tests ------------

    @staticmethod
    def scalar(value: Any, tag: str | None = None, loc: Loc = (0, 0)) -> "ConfigNode":
        return ConfigNode(SCALAR, loc=loc, tag=tag, value=value)

    @staticmethod
    def mapping(pairs=(), tag: str | None = None, loc: Loc = (0, 0)) -> "ConfigNode":
        return ConfigNode(MAPPING, loc=loc, tag=tag, children=list(pairs))

    @staticmethod
    def sequence(items=(), tag: str | None = None, loc: Loc = (0, 0)) -> "ConfigNode":
        return ConfigNode(SEQUENCE, loc=loc, tag=tag, children=list(items))

    # -- accessors ---------------------------------------------------------

    def keys(self) -> list[str]:
        assert self.kind == MAPPING
        return [k for k, _ in self.children]

    def get(self, key: str) -> Optional["ConfigNode"]:
        assert self.kind == MAPPING
        for k, node in self.children:
            if k == key:
                return node
        return None

    def set(self, key: str, node: "ConfigNode") -> None:
        assert self.kind == MAPPING
        for i, (k, _) in enumerate(self.children):
            if k == key:
                self.children[i] = (key, node)
                return
        self.children.append((key, node))

    def copy(self, *, loc: Loc | None = None, drop_anchor: bool = False) -> "ConfigNode":
        """Deep copy; optionally force every loc and strip anchors."""
        new_loc = loc if loc is not None else self.loc
        if self.kind == MAPPING:
            kids = [(k, n.copy(loc=loc, drop_anchor=drop_anchor)) for k, n in self.children]
        elif self.kind == SEQUENCE:
            kids = [n.copy(loc=loc, drop_anchor=drop_anchor) for n in self.children]
        else:
            kids = []
        return ConfigNode(
            self.kind,
            loc=new_loc,
            tag=self.tag,
            anchor=None if drop_anchor else self.anchor,
            value=self.value,
            children=kids,
            key_locs={} if loc is not None else dict(self.key_locs),
        )


def deep_equal(a: ConfigNode, b: ConfigNode) -> bool:
    """Structural equality over kind, tag, atom value and children.

    Source locations and anchor names are presentation metadata and are
    ignored; atom comparison is type-strict (``1`` != ``1.0`` != ``"1"``).
    """
    if a.kind != b.kind or a.tag != b.tag:
        return False
    if a.kind == SCALAR:
        return type(a.value) is type(b.value) and a.value == b.value
    if a.kind == ALIAS:
        return a.value == b.value
    if a.kind == MAPPING:
        if a.keys() != b.keys():
            return False
        return all(deep_equal(x, y) for (_, x), (_, y) in zip(a.children, b.children))
    if len(a.children) != len(b.children):
        return False
    return all(deep_equal(x, y) for x, y in zip(a.children, b.children))


def iter_nodes(root: ConfigNode) -> Iterator[ConfigNode]:
    """Yield nodes in document order (pre-order)."""
    yield root
    if root.kind == MAPPING:
        for _, child in root.children:
            yield from iter_nodes(child)
    elif root.kind == SEQUENCE:
        for child in root.children:
            yield from iter_nodes(child)


# ---------------------------------------------------------------------------
# scalar atoms
# ---------------------------------------------------------------------------

_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")
# ``!Tag`` or ``&anchor`` before a value
_PREFIX_RE = re.compile(r"(?:!([A-Za-z_][A-Za-z0-9_]*)|&([A-Za-z_][A-Za-z0-9_-]*))(?=\s|$)")
_ALIAS_RE = re.compile(r"^\*([A-Za-z_][A-Za-z0-9_-]*)$")


def infer_atom(text: str) -> Any:
    """Deterministic atom inference for a plain (unquoted) scalar."""
    if text in ("null", "~"):
        return None
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    if _INT_RE.match(text):
        return int(text)
    if _FLOAT_RE.match(text):
        return float(text)
    return text


# ---------------------------------------------------------------------------
# lexing helpers
# ---------------------------------------------------------------------------


@dataclass
class _Line:
    number: int      # 1-based
    indent: int      # count of leading spaces
    text: str        # content after the indent, a trailing comment included


# A comment opens at a ``#`` after a space or tab, or at the start of the
# text.  (The ``#`` comes first in the pattern so that search scans fast.)
_COMMENT_RE = re.compile(r"#(?<![^ \t]#)")


def _content_end(text: str, i: int) -> int:
    """Where the content from ``text[i]`` ends: before the first comment and the
    whitespace ahead of it, else at the line end.  Quoted scalars are the
    caller's to skip."""
    m = _COMMENT_RE.search(text, i)
    return max(i, len(text[:m.start()].rstrip())) if m else len(text)


def _at_end(text: str, i: int) -> bool:
    """True when ``text[i:]`` holds nothing but whitespace and a comment."""
    return _content_end(text, i) <= i


def _lex(text: str) -> list[_Line]:
    lines: list[_Line] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        content = raw.rstrip()
        if _at_end(content, 0):
            continue  # blank line or whole-line comment
        indent = len(content) - len(content.lstrip(" \t"))
        if "\t" in content[:indent]:
            raise ParseError("tab character in indentation", (number, content.index("\t") + 1))
        lines.append(_Line(number, indent, content[indent:]))
    return lines


_QUOTED_RE = {"'": re.compile(r"'([^']*)'"), '"': re.compile(r'"((?:[^"\\]|\\.)*)"')}
_ESCAPE_RE = re.compile(r"\\(.)")


def _read_quoted(text: str, i: int, loc: Loc) -> tuple[str, int]:
    """Read the quoted string that opens at ``text[i]`` -> (value, index past it).

    Single quotes take no escapes; double quotes take ``\\\\`` and ``\\"``.
    """
    m = _QUOTED_RE[text[i]].match(text, i)
    if m is None:
        raise ParseError("unterminated quoted string", loc)
    value = m[1]
    if text[i] == '"' and "\\" in value:
        if any(ch not in '\\"' for ch in _ESCAPE_RE.findall(value)):
            raise ParseError("unsupported escape in string", loc)
        value = _ESCAPE_RE.sub(r"\1", value)
    return value, m.end()


_KEY_COLON_RE = re.compile(r"\s*:(?= |$)")


def _read_key(text: str, i: int, loc: Loc) -> Optional[tuple[str, int]]:
    """Read ``key:`` at ``text[i:]`` -> (key, index past the colon); None if no key.

    The colon must be followed by a space or the end of the content.  A
    key that begins with a quote is exactly one quoted string before its
    colon; a plain key runs to the first such colon and may not be empty.
    """
    if text.startswith(('"', "'"), i):
        key, end = _read_quoted(text, i, loc)
        m = _KEY_COLON_RE.match(text, end, _content_end(text, end))
        return (key, m.end()) if m else None
    m = _KEY_COLON_RE.search(text, i, _content_end(text, i))
    if m is None:
        return None
    key = text[i:m.start()].strip()
    if not key:
        raise ParseError("empty mapping key", loc)
    return key, m.end()


def _skip_spaces(text: str, i: int) -> int:
    """Index past the spaces at ``text[i]``; ``i`` itself when only a comment follows."""
    if _at_end(text, i):
        return i
    while i < len(text) and text[i] == " ":
        i += 1
    return i


def _is_token(text: str, token: str) -> bool:
    """True when ``text`` is ``token``, maybe followed by a comment."""
    return text.startswith(token) and _at_end(text, len(token))


def _is_dash(text: str) -> bool:
    return text.startswith("- ") or _is_token(text, "-")


def _loc(line: _Line, i: int) -> Loc:
    """Location of ``line.text[i]``."""
    return (line.number, line.indent + 1 + i)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser:
    """Recursive descent over lexed lines.

    Positions inside a line are indices into ``line.text`` (see ``_loc``).
    """

    def __init__(self, lines: list[_Line]):
        self.lines = lines
        self.pos = 0

    def peek(self) -> Optional[_Line]:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def next(self) -> _Line:
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def _parse_entry(self, node: ConfigNode, line: _Line, i: int, stops: str,
                     indent: int) -> int:
        """Add the ``key: value`` entry at ``line.text[i:]`` to ``node``; returns
        the index past the value."""
        key_loc = _loc(line, i)
        split = _read_key(line.text, i, key_loc)
        if split is None:
            raise ParseError("expected 'key: value'", key_loc)
        key, i = split
        if key in node.key_locs:
            raise ParseError(f"duplicate key '{key}'", key_loc)
        child, i = self._parse_value(line, i, stops, indent)
        node.children.append((key, child))
        node.key_locs[key] = key_loc
        return i

    def _parse_value(self, line: _Line, i: int, stops: str, indent: int,
                     in_seq: bool = False) -> tuple[ConfigNode, int]:
        """Read the value at ``line.text[i:]``; returns (node, index past it).

        A flow value (``stops`` = ``",}"``) ends before the first stop
        character.  A block value (``stops`` = ``""``) runs to a comment or
        the line end; when nothing follows its key or dash, it is the
        more-indented block on the next lines (or a same-indent sequence
        under a mapping key), else null.  ``in_seq`` marks a sequence item,
        which may also be a compact ``- key: value`` mapping.  ``indent`` is
        the indent of the enclosing block.
        """
        text = line.text
        i = _skip_spaces(text, i)
        tag = anchor = None
        while m := _PREFIX_RE.match(text, i):
            if m[1]:
                if tag is not None:
                    raise ParseError("duplicate tag", _loc(line, i))
                tag = m[1]
            else:
                if anchor is not None:
                    raise ParseError("duplicate anchor", _loc(line, i))
                anchor = m[2]
            i = _skip_spaces(text, m.end())
        loc = _loc(line, i)
        if text.startswith("{", i):
            node, i = self._parse_flow_mapping(line, i)
        elif text.startswith(('"', "'"), i):
            value, i = _read_quoted(text, i, loc)
            node = ConfigNode.scalar(value, loc=loc)
        elif in_seq and _read_key(text, i, loc) is not None:
            node = self._parse_mapping(line.indent + i, first=(line, i))
            i = len(text)
        else:
            end = _content_end(text, i)
            j = i if stops else end
            while j < end and text[j] not in stops:
                j += 1
            if stops and j == end:
                raise ParseError("unterminated flow mapping", loc)
            raw, i = text[i:j].strip(), j
            m = _ALIAS_RE.match(raw)
            if m:
                if tag or anchor:
                    raise ParseError("alias cannot carry a tag or anchor", loc)
                return ConfigNode(ALIAS, loc=loc, value=m[1]), i
            if raw == "[]":
                node = ConfigNode.sequence(loc=loc)
            elif raw.startswith("["):
                raise ParseError("non-empty flow sequences are not supported", loc)
            elif raw:
                node = ConfigNode.scalar(infer_atom(raw), loc=loc)
            elif stops and tag is None and anchor is None:
                raise ParseError("empty value in flow mapping", loc)
            elif not stops and (nxt := self.peek()) is not None and (
                    nxt.indent > indent
                    or (not in_seq and nxt.indent == indent and _is_dash(nxt.text))):
                node = self._parse_block(nxt.indent)
            else:
                node = ConfigNode.scalar(None, loc=loc)
        if not stops and not _at_end(text, i):
            raise ParseError("trailing content after value", _loc(line, i))
        node.tag = tag
        node.anchor = anchor
        return node, i

    def _parse_flow_mapping(self, line: _Line, i: int) -> tuple[ConfigNode, int]:
        """``{...}`` starting at ``line.text[i] == '{'``; returns (node, index past '}')."""
        text = line.text
        node = ConfigNode.mapping(loc=_loc(line, i))
        i += 1
        while True:
            i = _skip_spaces(text, i)
            if _at_end(text, i):
                raise ParseError("unterminated flow mapping", node.loc)
            if text[i] == "}":
                return node, i + 1
            if node.children:
                if text[i] != ",":
                    raise ParseError("expected ',' or '}' in flow mapping", _loc(line, i))
                i = _skip_spaces(text, i + 1)
            i = self._parse_entry(node, line, i, ",}", line.indent)

    def _parse_block(self, indent: int) -> ConfigNode:
        line = self.peek()
        assert line is not None
        if _is_dash(line.text):
            return self._parse_sequence(indent)
        return self._parse_mapping(indent)

    def _parse_mapping(self, indent: int, first: tuple[_Line, int] | None = None) -> ConfigNode:
        """Block mapping whose keys sit at exactly ``indent``.

        ``first`` = (line, i) starts it with the rest of a compact
        ``- key: ...`` sequence item, whose key sits at column ``indent``.
        """
        start = first[0] if first else self.peek()
        assert start is not None
        node = ConfigNode.mapping(loc=(start.number, indent + 1))
        while True:
            if first is not None:
                line, i = first
                first = None
            else:
                nxt = self.peek()
                if nxt is None or nxt.indent < indent:
                    break
                if nxt.indent > indent:
                    raise ParseError("inconsistent indentation", (nxt.number, nxt.indent + 1))
                if _is_dash(nxt.text):
                    break
                line, i = self.next(), 0
            self._parse_entry(node, line, i, "", indent)
        return node

    def _parse_sequence(self, indent: int) -> ConfigNode:
        start = self.peek()
        assert start is not None
        node = ConfigNode.sequence(loc=(start.number, indent + 1))
        while True:
            nxt = self.peek()
            if nxt is None or nxt.indent < indent or not _is_dash(nxt.text):
                break
            if nxt.indent > indent:
                raise ParseError("inconsistent indentation", (nxt.number, nxt.indent + 1))
            line = self.next()
            child, _ = self._parse_value(line, 1, "", line.indent, in_seq=True)
            node.children.append(child)
        return node


def parse_config(text: str) -> ConfigNode:
    """Parse config text into a ConfigNode tree.

    The root is always a mapping of top-level entries; ``---`` document
    separators concatenate into that single root mapping.
    """
    lines = _lex(text)
    root = ConfigNode.mapping(loc=(1, 1))
    chunk: list[_Line] = []
    chunks: list[list[_Line]] = []
    for line in lines:
        if line.indent == 0 and _is_token(line.text, "---"):
            chunks.append(chunk)
            chunk = []
        else:
            chunk.append(line)
    chunks.append(chunk)
    for chunk in chunks:
        if not chunk:
            continue
        if chunk[0].indent != 0:
            raise ParseError("top-level content must start at column 1",
                             (chunk[0].number, chunk[0].indent + 1))
        if len(chunk) == 1 and _is_token(chunk[0].text, "{}"):
            continue  # the empty document, as serialize_config writes it
        parser = _Parser(chunk)
        if _is_dash(chunk[0].text):
            raise ParseError("top level must be a mapping", (chunk[0].number, 1))
        doc = parser._parse_mapping(0)
        leftover = parser.peek()
        if leftover is not None:
            raise ParseError("content after end of document", (leftover.number, leftover.indent + 1))
        for key, child in doc.children:
            if root.get(key) is not None:
                raise ParseError(f"duplicate key '{key}'", doc.key_locs[key])
            root.children.append((key, child))
            root.key_locs[key] = doc.key_locs[key]
    return root


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------


def resolve_anchors(root: ConfigNode) -> ConfigNode:
    """Replace every alias with a deep copy of its anchored subtree.

    Anchors are file-scoped and must be defined before use.  Copies carry
    the alias's location (keeping locations nondecreasing in document
    order) and drop anchor metadata; the anchor definitions themselves keep
    theirs.  Returns a new tree.
    """
    table: dict[str, ConfigNode] = {}

    def walk(node: ConfigNode) -> ConfigNode:
        if node.kind == ALIAS:
            target = table.get(node.value)
            if target is None:
                raise ParseError(f"undefined anchor '{node.value}'", node.loc)
            return target.copy(loc=node.loc, drop_anchor=True)
        if node.kind == MAPPING:
            out = ConfigNode(MAPPING, loc=node.loc, tag=node.tag, anchor=node.anchor,
                             key_locs=dict(node.key_locs))
            out.children = [(k, walk(c)) for k, c in node.children]
        elif node.kind == SEQUENCE:
            out = ConfigNode(SEQUENCE, loc=node.loc, tag=node.tag, anchor=node.anchor)
            out.children = [walk(c) for c in node.children]
        else:
            out = node.copy()
        if out.anchor:
            table[out.anchor] = out
        return out

    return walk(root)


# ---------------------------------------------------------------------------
# serializer
# ---------------------------------------------------------------------------

_PLAIN_SAFE_FIRST = set("!&*{}[]#\"'%@`|>,")


def _needs_quotes(text: str, in_flow: bool) -> bool:
    if text == "" or text != text.strip():
        return True
    if not isinstance(infer_atom(text), str):
        return True
    if text[0] in _PLAIN_SAFE_FIRST or text == "-" or text.startswith("- "):
        return True
    if ": " in text or text.endswith(":") or _COMMENT_RE.search(text):
        return True
    if in_flow and any(ch in text for ch in ",{}"):
        return True
    return False


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _single_line(text: str) -> str:
    """Refuse every line break that ``_lex`` splits at (``str.splitlines``),
    a trailing one included; else return ``text``."""
    if "".join(text.splitlines()) != text:
        raise ValueError(f"multi-line strings cannot be serialized: {text!r}")
    return text


def _emit_atom(value: Any, in_flow: bool) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, float)):
        return repr(value)
    text = _single_line(str(value))
    return _quote(text) if _needs_quotes(text, in_flow) else text


def _tag_prefix(node: ConfigNode) -> str:
    return f"!{node.tag} " if node.tag else ""


def _flow_eligible(node: ConfigNode) -> bool:
    if node.kind != MAPPING:
        return False
    if not node.children:
        return True
    if len(node.children) > 2:
        return False
    return all(c.kind == SCALAR and c.tag is None for _, c in node.children)


def _emit_key(key: str) -> str:
    key = _single_line(key)
    if (key == "" or key != key.strip() or ":" in key or _COMMENT_RE.search(key)
            or key[0] in _PLAIN_SAFE_FIRST or key.startswith("- ") or key == "-"):
        return _quote(key)
    return key


def _emit_flow(node: ConfigNode) -> str:
    if not node.children:
        return "{}"
    inner = ", ".join(f"{_emit_key(k)}: {_emit_atom(c.value, True)}"
                      for k, c in node.children)
    return "{" + inner + "}"


def _emit_block(node: ConfigNode, indent: int, out: list[str]) -> None:
    pad = " " * indent
    if node.kind == MAPPING:
        for key, child in node.children:
            head = f"{pad}{_emit_key(key)}:"
            _emit_value(child, head, indent, out)
    else:
        for child in node.children:
            _emit_value(child, f"{pad}-", indent, out)


def _emit_value(node: ConfigNode, head: str, indent: int, out: list[str]) -> None:
    if node.kind == SCALAR:
        out.append(f"{head} {_tag_prefix(node)}{_emit_atom(node.value, False)}")
    elif node.kind == ALIAS:
        raise ValueError("cannot serialize a tree with unresolved aliases")
    elif node.kind == MAPPING:
        if _flow_eligible(node):
            out.append(f"{head} {_tag_prefix(node)}{_emit_flow(node)}")
        else:
            if node.tag:
                out.append(f"{head} !{node.tag}")
            else:
                out.append(head)
            _emit_block(node, indent + 2, out)
    else:  # sequence
        if not node.children:
            out.append(f"{head} {_tag_prefix(node)}[]")
        else:
            if node.tag:
                out.append(f"{head} !{node.tag}")
            else:
                out.append(head)
            _emit_block(node, indent + 2, out)


def serialize_config(root: ConfigNode) -> str:
    """Serialize a tree (no unresolved aliases) back to config text."""
    if root.kind == MAPPING and not root.children:
        return "{}\n"
    if root.kind != MAPPING:
        raise ValueError("document root must be a mapping")
    out: list[str] = []
    _emit_block(root, 0, out)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# path navigation (shared by resolver and overwrites)
# ---------------------------------------------------------------------------


def node_at_path(root: ConfigNode, path: str) -> Optional[ConfigNode]:
    """Follow a dotted path (``a.b.0.c``); returns None if it dangles."""
    node = root
    if path == "":
        return node
    for seg in path.split("."):
        if node.kind == MAPPING:
            node = node.get(seg)
            if node is None:
                return None
        elif node.kind == SEQUENCE:
            if not seg.isdigit() or int(seg) >= len(node.children):
                return None
            node = node.children[int(seg)]
        else:
            return None
    return node
