"""Block-style YAML emitter for the subset in :mod:`repro.yamlite`.

Guarantees round-tripping through :func:`repro.yamlite.load` for any
tree of dicts, lists, strings, numbers, booleans, and ``None``.
"""

from __future__ import annotations

import re
import typing as _t

_PLAIN_SAFE = re.compile(r"^[A-Za-z_][A-Za-z0-9_./-]*$")

#: Strings that would be re-parsed as a non-string scalar, or as a
#: document marker, and therefore must be quoted on output.
_AMBIGUOUS = {
    "true", "True", "TRUE", "false", "False", "FALSE",
    "yes", "Yes", "no", "No", "on", "On", "off", "Off",
    "null", "Null", "NULL", "~", "", "---", "...",
}

_NUMERIC_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _format_scalar(value: _t.Any) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return _format_string(value)
    raise TypeError(f"cannot emit scalar of type {type(value).__name__}")


def _format_string(value: str) -> str:
    if (
        value not in _AMBIGUOUS
        and not _NUMERIC_RE.match(value)
        and "\n" not in value
        and (_PLAIN_SAFE.match(value) or _plain_safe_relaxed(value))
    ):
        return value
    escaped = (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\t", "\\t")
    )
    return f'"{escaped}"'


def _plain_safe_relaxed(value: str) -> bool:
    """Plain-style safety for strings with spaces (e.g. image names)."""
    if value != value.strip():
        return False
    if value[0] in "!&*?|>%@`\"'#-[]{},:":
        return False
    for i, ch in enumerate(value):
        if ch in "#":
            return False
        if ch == ":" and (i + 1 == len(value) or value[i + 1] in " \t"):
            return False
        if ch in "[]{},\n\t":
            return False
    return True


def _emit(value: _t.Any, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append(f"{pad}{{}}")
            return
        for key, item in value.items():
            key_text = _format_string(str(key))
            if isinstance(item, dict) and item:
                out.append(f"{pad}{key_text}:")
                _emit(item, indent + 1, out)
            elif isinstance(item, list) and item:
                out.append(f"{pad}{key_text}:")
                _emit(item, indent + 1, out)
            elif isinstance(item, dict):
                out.append(f"{pad}{key_text}: {{}}")
            elif isinstance(item, list):
                out.append(f"{pad}{key_text}: []")
            else:
                out.append(f"{pad}{key_text}: {_format_scalar(item)}")
    elif isinstance(value, list):
        if not value:
            out.append(f"{pad}[]")
            return
        for item in value:
            if isinstance(item, (dict, list)) and item:
                nested: list[str] = []
                _emit(item, 0, nested)
                # First nested line joins the dash; the rest indent under it.
                out.append(f"{pad}- {nested[0]}")
                for extra in nested[1:]:
                    out.append(f"{pad}  {extra}")
            elif isinstance(item, dict):
                out.append(f"{pad}- {{}}")
            elif isinstance(item, list):
                out.append(f"{pad}- []")
            else:
                out.append(f"{pad}- {_format_scalar(item)}")
    else:
        out.append(f"{pad}{_format_scalar(value)}")


def dump(value: _t.Any) -> str:
    """Serialize ``value`` as block-style YAML text."""
    out: list[str] = []
    _emit(value, 0, out)
    return "\n".join(out) + "\n"
