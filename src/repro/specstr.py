"""One parser for the ``key=value,...`` spec strings of ``--chaos``,
``--retry`` and ``--slo``."""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Type


def parse_spec(text: str, kind: str, fields: Mapping[str, str],
               error: Type[ValueError],
               types: Optional[Mapping[str, Callable]] = None
               ) -> Dict[str, object]:
    """Parse ``text`` into ``{field: value}``.

    ``fields`` maps each spec key to its field name, and a value converts
    through ``types[field]`` (default ``float``).  An unknown key or a bad
    value raises ``error``, naming the ``kind`` of spec.
    """
    types = types or {}
    values: Dict[str, object] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        key = key.strip()
        field = fields.get(key)
        if not sep or field is None:
            raise error(f"bad {kind} spec entry {part!r}; known keys: "
                        f"{', '.join(fields)}")
        try:
            values[field] = types.get(field, float)(raw)
        except ValueError as exc:
            raise error(
                f"bad {kind} spec value for {key}: {raw!r}") from exc
    return values
