"""The one atomic text writer of the package, and its CSV number format.

Every artifact the CLI and the trajectory writers produce goes through
``write_text``, so each output file appears whole or not at all.
"""

from __future__ import annotations

import os
import tempfile


def write_text(path, text):
    """Write text atomically: a temp file in the target directory is renamed
    over the destination.  Newlines are LF regardless of platform."""
    dirname = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=dirname, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header, rows):
    """CSV text with every number at full double precision (17 digits)."""
    lines = [",".join(header)]
    lines += [",".join(f"{float(x):.17g}" for x in row) for row in rows]
    return "\n".join(lines) + "\n"
