"""Recursive-descent parser for the YAML subset.

The parser works on logical lines: each carries its indentation depth,
its content, and its 1-based source line number (for error messages).
"""

from __future__ import annotations

import re
import typing as _t


class YamlError(ValueError):
    """Raised for any syntax error, annotated with the source line."""

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class _Line(_t.NamedTuple):
    indent: int
    content: str
    number: int


_BOOL_TRUE = {"true", "True", "TRUE", "yes", "Yes", "on", "On"}
_BOOL_FALSE = {"false", "False", "FALSE", "no", "No", "off", "Off"}
_NULLS = {"null", "Null", "NULL", "~", ""}

_INT_RE = re.compile(r"^[+-]?\d+$")
# Floats require a dot (PyYAML/K8s style): "1e3" stays a string, which
# keeps Kubernetes resource quantities like "1e3" intact.
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+)([eE][+-]?\d+)?$")


def parse_scalar(text: str) -> _t.Any:
    """Interpret a plain (unquoted) scalar string."""
    text = text.strip()
    if text in _NULLS:
        return None
    if text in _BOOL_TRUE:
        return True
    if text in _BOOL_FALSE:
        return False
    if _INT_RE.match(text):
        return int(text)
    if _FLOAT_RE.match(text):
        return float(text)
    return text


def _strip_comment(content: str) -> str:
    """Remove a trailing ``#`` comment, honouring quoted strings."""
    in_single = in_double = False
    for i, ch in enumerate(content):
        if ch == "'" and not in_double:
            in_single = not in_single
        elif ch == '"' and not in_single:
            in_double = not in_double
        elif ch == "#" and not in_single and not in_double:
            if i == 0 or content[i - 1] in " \t":
                return content[:i].rstrip()
    return content.rstrip()


def _unquote(text: str, line: int) -> _t.Any:
    """Decode a scalar that may be quoted."""
    text = text.strip()
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        body = text[1:-1]
        # Handle the escape sequences K8s manifests actually use.
        return (
            body.replace('\\"', '"')
            .replace("\\n", "\n")
            .replace("\\t", "\t")
            .replace("\\\\", "\\")
        )
    if len(text) >= 2 and text[0] == "'" and text[-1] == "'":
        return text[1:-1].replace("''", "'")
    if text.startswith(("'", '"')):
        raise YamlError(f"unterminated quoted scalar: {text!r}", line)
    return parse_scalar(text)


# ---------------------------------------------------------------------------
# Flow-style ([...] and {...}) parsing
# ---------------------------------------------------------------------------


def _split_flow_items(body: str, line: int) -> list[str]:
    """Split a flow body on top-level commas."""
    items: list[str] = []
    depth = 0
    in_single = in_double = False
    current: list[str] = []
    for ch in body:
        if ch == "'" and not in_double:
            in_single = not in_single
        elif ch == '"' and not in_single:
            in_double = not in_double
        if not in_single and not in_double:
            if ch in "[{":
                depth += 1
            elif ch in "]}":
                depth -= 1
                if depth < 0:
                    raise YamlError("unbalanced brackets in flow value", line)
            elif ch == "," and depth == 0:
                items.append("".join(current))
                current = []
                continue
        current.append(ch)
    if in_single or in_double:
        raise YamlError("unterminated quote in flow value", line)
    if depth != 0:
        raise YamlError("unbalanced brackets in flow value", line)
    tail = "".join(current).strip()
    if tail or items:
        items.append("".join(current))
    return [item.strip() for item in items if item.strip() or item != ""]


def _parse_flow(text: str, line: int) -> _t.Any:
    """Parse a flow-style value (``[...]``, ``{...}``, or scalar)."""
    text = text.strip()
    if text.startswith("[") and not text.endswith("]"):
        raise YamlError(f"unterminated flow sequence: {text!r}", line)
    if text.startswith("{") and not text.endswith("}"):
        raise YamlError(f"unterminated flow mapping: {text!r}", line)
    if text.startswith("[") and text.endswith("]"):
        body = text[1:-1].strip()
        if not body:
            return []
        return [_parse_flow(item, line) for item in _split_flow_items(body, line)]
    if text.startswith("{") and text.endswith("}"):
        body = text[1:-1].strip()
        result: dict[str, _t.Any] = {}
        if not body:
            return result
        for item in _split_flow_items(body, line):
            key, sep, value = item.partition(":")
            if not sep:
                raise YamlError(f"expected 'key: value' in flow mapping: {item!r}", line)
            result[str(_unquote(key, line))] = _parse_flow(value, line)
        return result
    return _unquote(text, line)


# ---------------------------------------------------------------------------
# Block parsing
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, lines: list[_Line]) -> None:
        self._lines = lines
        self._pos = 0

    def _peek(self) -> _Line | None:
        return self._lines[self._pos] if self._pos < len(self._lines) else None

    def _advance(self) -> _Line:
        line = self._lines[self._pos]
        self._pos += 1
        return line

    def parse_node(self, indent: int) -> _t.Any:
        """Parse the node starting at the current position."""
        line = self._peek()
        if line is None or line.indent < indent:
            return None
        if line.content.startswith("- ") or line.content == "-":
            return self._parse_sequence(line.indent)
        if self._looks_like_mapping_entry(line.content):
            return self._parse_mapping(line.indent)
        # A bare scalar or flow value as the whole node.
        self._advance()
        return self._parse_value_possibly_block(line.content, line)

    def _parse_sequence(self, indent: int) -> list[_t.Any]:
        items: list[_t.Any] = []
        while True:
            line = self._peek()
            if line is None or line.indent < indent:
                break
            if line.indent > indent:
                raise YamlError("unexpected indentation in sequence", line.number)
            if not (line.content.startswith("- ") or line.content == "-"):
                break
            self._advance()
            rest = line.content[1:].lstrip() if line.content != "-" else ""
            if not rest:
                # The item is a nested block on following lines.
                items.append(self.parse_node(indent + 1))
            elif rest.startswith("- ") or rest == "-":
                # Nested sequence written inline: "- - 1".  Re-insert the
                # remainder as a virtual line two columns deeper and let
                # the ordinary sequence parser consume it together with
                # its continuation lines.
                dash_offset = len(line.content) - len(rest)
                self._lines.insert(
                    self._pos,
                    _Line(line.indent + dash_offset, rest, line.number),
                )
                items.append(self.parse_node(line.indent + dash_offset))
            elif self._looks_like_mapping_entry(rest):
                items.append(self._parse_inline_mapping_item(rest, line))
            else:
                items.append(self._parse_value_possibly_block(rest, line))
        return items

    def _parse_inline_mapping_item(self, rest: str, line: _Line) -> dict:
        """A ``- key: value`` item: first pair inline, siblings below."""
        key, value_text = self._split_key(rest, line.number)
        mapping: dict[str, _t.Any] = {}
        # Effective indent of inline keys is the dash column + 2.
        child_indent = line.indent + 2
        if value_text:
            mapping[key] = self._parse_value_possibly_block(value_text, line)
        else:
            nxt = self._peek()
            if nxt is not None and nxt.indent > child_indent:
                mapping[key] = self.parse_node(nxt.indent)
            else:
                mapping[key] = None
        # Remaining keys of this mapping sit at child_indent.
        while True:
            nxt = self._peek()
            if nxt is None or nxt.indent != child_indent:
                break
            if nxt.content.startswith("- ") or nxt.content == "-":
                break
            if not self._looks_like_mapping_entry(nxt.content):
                break
            self._advance()
            k, v = self._split_key(nxt.content, nxt.number)
            mapping[k] = self._finish_mapping_value(v, nxt, child_indent)
        return mapping

    def _parse_mapping(self, indent: int) -> dict[str, _t.Any]:
        mapping: dict[str, _t.Any] = {}
        while True:
            line = self._peek()
            if line is None or line.indent < indent:
                break
            if line.indent > indent:
                raise YamlError("unexpected indentation in mapping", line.number)
            if line.content.startswith("- ") or line.content == "-":
                break
            if not self._looks_like_mapping_entry(line.content):
                raise YamlError(
                    f"expected 'key: value', got {line.content!r}", line.number
                )
            self._advance()
            key, value_text = self._split_key(line.content, line.number)
            if key in mapping:
                raise YamlError(f"duplicate mapping key {key!r}", line.number)
            mapping[key] = self._finish_mapping_value(value_text, line, indent)
        return mapping

    def _finish_mapping_value(
        self, value_text: str, line: _Line, indent: int
    ) -> _t.Any:
        if value_text:
            return self._parse_value_possibly_block(value_text, line)
        nxt = self._peek()
        if nxt is None:
            return None
        if nxt.indent > indent:
            return self.parse_node(nxt.indent)
        if nxt.indent == indent and (
            nxt.content.startswith("- ") or nxt.content == "-"
        ):
            # Sequences are commonly indented level with their key.
            return self._parse_sequence(indent)
        return None

    def _parse_value_possibly_block(self, text: str, line: _Line) -> _t.Any:
        if text == "|" or text.startswith("|"):
            return self._parse_literal_block(line)
        return _parse_flow(text, line.number)

    def _parse_literal_block(self, opener: _Line) -> str:
        """Collect a ``|`` literal block scalar."""
        chunks: list[str] = []
        block_indent: int | None = None
        while True:
            line = self._peek()
            if line is None or line.indent <= opener.indent:
                break
            if block_indent is None:
                block_indent = line.indent
            self._advance()
            chunks.append(" " * (line.indent - block_indent) + line.content)
        return "\n".join(chunks) + ("\n" if chunks else "")

    @staticmethod
    def _looks_like_mapping_entry(content: str) -> bool:
        """Whether ``content`` starts with a ``key:`` prefix."""
        in_single = in_double = False
        for i, ch in enumerate(content):
            if ch == "'" and not in_double:
                in_single = not in_single
            elif ch == '"' and not in_single:
                in_double = not in_double
            elif ch == ":" and not in_single and not in_double:
                return i + 1 == len(content) or content[i + 1] in " \t"
            elif ch in "[{" and not in_single and not in_double:
                return False
        return False

    @staticmethod
    def _split_key(content: str, number: int) -> tuple[str, str]:
        in_single = in_double = False
        for i, ch in enumerate(content):
            if ch == "'" and not in_double:
                in_single = not in_single
            elif ch == '"' and not in_single:
                in_double = not in_double
            elif ch == ":" and not in_single and not in_double:
                if i + 1 == len(content) or content[i + 1] in " \t":
                    key = str(_unquote(content[:i], number))
                    return key, content[i + 1 :].strip()
        raise YamlError(f"expected 'key: value', got {content!r}", number)


def _logical_lines(text: str) -> list[_Line]:
    lines: list[_Line] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise YamlError("tabs are not allowed in indentation", number)
        stripped = _strip_comment(raw)
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip(" "))
        lines.append(_Line(indent, stripped.strip(), number))
    return lines


def load(text: str) -> _t.Any:
    """Parse a single-document YAML string.

    Raises :class:`YamlError` if the stream contains more than one
    document.
    """
    docs = load_all(text)
    if len(docs) > 1:
        raise YamlError(f"expected a single document, found {len(docs)}")
    return docs[0] if docs else None


def load_all(text: str) -> list[_t.Any]:
    """Parse a multi-document YAML string (documents split on ``---``)."""
    documents: list[_t.Any] = []
    current: list[str] = []
    chunks: list[str] = []
    for raw in text.splitlines():
        if raw.strip() == "---":
            chunks.append("\n".join(current))
            current = []
        elif raw.strip() == "...":
            continue
        else:
            current.append(raw)
    chunks.append("\n".join(current))

    for chunk in chunks:
        lines = _logical_lines(chunk)
        if not lines:
            continue
        parser = _Parser(lines)
        doc = parser.parse_node(0)
        leftover = parser._peek()
        if leftover is not None:
            raise YamlError(
                f"trailing content {leftover.content!r}", leftover.number
            )
        documents.append(doc)
    return documents
