"""Text arguments that are either a filesystem path or an open stream."""

from __future__ import annotations

from contextlib import nullcontext


def text_stream(target, mode: str = "r"):
    """Context manager giving a text stream for ``target`` in mode "r" or "w".

    An open stream (with ``read`` for "r", ``write`` for "w") is used as is
    and left open.  A path is opened as UTF-8 and closed on exit: written
    with "\\n" line ends, read without newline translation (line splitting
    and the csv module handle "\\r\\n" themselves) and past a leading
    byte-order mark, which spreadsheet exports write.
    """
    if hasattr(target, "write" if mode == "w" else "read"):
        return nullcontext(target)
    encoding, newline = ("utf-8", "\n") if mode == "w" else ("utf-8-sig", "")
    return open(target, mode, encoding=encoding, newline=newline)
