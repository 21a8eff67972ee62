"""Whole-file writes that leave either the old file or the new one.

`atomic_open(path)` hands out a hidden temp file in the same directory and
renames it over `path` when the block ends without an exception. On an
exception the temp file is removed and `path` is untouched. The rename is
atomic within one directory, so a run stopped at any point leaves no
truncated artifact, only whole files of the old run or the new one.
Every file the package writes goes through it, the epoch log included.
Two nested blocks, with the outer file's text written before the inner
block opens, write both files before either is renamed: a pair stopped
while writing keeps both old files, and only a kill between the two
renames can split it. `canonical_json` is the one encoder of the JSON
artifacts (checkpoints, eval records, the epoch log): sorted keys, no
spaces, so equal documents give equal bytes.
"""

import contextlib
import json
import os


def canonical_json(doc):
    """`doc` as canonical JSON text: sorted keys, no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


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
