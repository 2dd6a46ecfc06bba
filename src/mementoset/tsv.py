"""Header-checked, tab-delimited tables: the manifest and the URI-R table.

Cells hold URIs, ids and enum values, never a tab or an LF (``model.kept_uri``).
``read_utf8`` and ``numbered_lines`` read every line-based file the package reads.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import ParseError

Row = TypeVar("Row")


def write_tsv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """The header line, then one line per row."""
    lines = ["\t".join(header), *("\t".join(cells) for cells in rows)]
    Path(path).write_text("\n".join(lines) + "\n", "utf-8")


def read_utf8(path: str | Path, name: str) -> str:
    """The text of the file at ``path`` less one leading BOM; ParseError("<name>
    is not UTF-8") with the 1-based line of the first byte that is not."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name} is not UTF-8", data.count(b"\n", 0, exc.start) + 1) from None


def numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """Each line of ``text`` with its 1-based number. A line ends at LF only,
    as every writer here ends one, and one CR before the LF is dropped."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        yield lineno, line.removesuffix("\r")


def read_tsv(
    path: str | Path,
    header: Sequence[str],
    parse: Callable[[list[str]], Row],
    name: str,
) -> list[Row]:
    """Rows after the header, each built by ``parse`` from its cells.

    Blank lines of ``numbered_lines`` are skipped. Bytes that are not UTF-8,
    a wrong or missing header, a wrong column count or a ``ValueError``
    from ``parse`` raise ParseError with the 1-based line.
    """
    rows = []
    lines = numbered_lines(read_utf8(path, name))
    _, first = next(lines)
    if tuple(first.split("\t")) != tuple(header):
        raise ParseError(f"bad {name} header {first!r}", 1)
    for lineno, line in lines:
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != len(header):
            raise ParseError(f"expected {len(header)} columns", lineno)
        try:
            rows.append(parse(cells))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    return rows
