"""Whole-file writes that leave either the old file or the new one.

`atomic_open(path)` hands out a hidden temp file in the same directory and
renames it over `path` when the block ends without an exception. On an
exception the temp file is removed and `path` is untouched. The rename is
atomic within one directory, so a run stopped at any point leaves no
truncated artifact, only whole files of the old run or the new one.
"""

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path):
    """Open a text file for writing that replaces `path` on a clean exit.

    The temp name, `.<name>.<pid>.tmp`, is hidden, so no `*` glob matches
    it, and carries the process id, so two processes never share one.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
