"""The one reader of the tab-separated text inputs.

UTF-8, one record per line, fields split on tabs. Lines that are blank
or whose first non-blank character is ``#`` are skipped; there are no
inline comments. Errors name the path and the 1-based line.
"""

from __future__ import annotations

from .errors import FormatError


def decode_error(path: str) -> FormatError:
    """The error for a file that is not UTF-8, naming its first bad line.

    Text mode decodes in chunks and cannot say which line failed, so the
    bytes are decoded again, whole, on this error path only.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start] + b"x").splitlines())  # line ends as text mode splits them
        return FormatError(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})", path=path, line=line)
    return FormatError("not UTF-8", path=path)


def records(path: str, fields: int = 0, layout: str = ""):
    """Yield ``(line number, fields)`` per record line. With ``fields``
    set, a line with another field count fails, quoting ``layout``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                first = line[0]  # only a line that starts blank needs stripping to be judged
                if first == "#" or (first.isspace() and (line.isspace() or line.lstrip().startswith("#"))):
                    continue
                parts = line.rstrip("\n").split("\t")
                if fields and len(parts) != fields:
                    raise FormatError(f"expected {layout}, got {len(parts)} tab-separated fields",
                                      path=path, line=lineno)
                yield lineno, parts
    except UnicodeDecodeError:
        raise decode_error(path) from None


def id_error(image_id: str, path: str, lineno: int, what: str = "image id") -> FormatError:
    """The error for an id that is empty or repeated; callers test inline."""
    message = f"duplicate {what} {image_id!r}" if image_id else f"empty {what}"
    return FormatError(message, path=path, line=lineno)


def read_id_lists(path: str, item: str, known=None) -> dict[str, list[str]]:
    """``<id>\\t<item>(,<item>)*`` lines as {id: items}, in file order (see ``id_lists``)."""
    return id_lists(records(path, 2, f"'<id>\\t<{item},{item},...>'"), path, item, known)


def id_lists(rows, path: str, item: str, known=None, what: str = "image id",
             check=None) -> dict[str, list[str]]:
    """``(line number, (id, "<item>,<item>,..."))`` rows as {id: items}, in order.

    Ids are non-empty and unique, and pass ``check(id, path, line)`` when
    it is given. Items are stripped, lowercased, non-empty, in ``known``
    when it is given, and de-duplicated in first-seen order. ``what``
    names an id and ``item`` an item in errors.
    """
    lists: dict[str, list[str]] = {}
    for lineno, (key, field) in rows:
        if check is not None:
            check(key, path, lineno)
        if not key or key in lists:
            raise id_error(key, path, lineno, what)
        items = []
        for name in field.split(","):
            name = name.strip().lower()
            if not name:
                raise FormatError(f"empty {item}", path=path, line=lineno)
            if known is not None and name not in known:
                raise FormatError(f"unknown {item} {name!r}", path=path, line=lineno)
            items.append(name)
        lists[key] = items if len(items) == 1 else list(dict.fromkeys(items))
    return lists
