"""Fuzz of the documents `cpnslab eval` reads: a checkpoint and a table.

Every input is a mutation of a tiny valid pair: a three-extractor
checkpoint and a three-row table it can score. Whatever the mutation, the
command keeps its contract: it exits 0 with one JSON document on stdout
(no NaN or Infinity in it), or exits 2 with one `cpnslab:` line on
stderr. The runs are in-process and derandomized, so the suite sees the
same cases every time.
"""

import contextlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpnslab import cli
from cpnslab import data as dt
from cpnslab import model as mdl

FUZZ = settings(derandomize=True, deadline=None, max_examples=150,
                database=None)

# what a mutated field of the checkpoint becomes
VALUES = [None, True, False, 0, -1, 0.5, -2.5, 1e308, float("nan"),
          float("inf"), 2**64, 10**30, "", "x", "CPNSLAB1", "a\nb", [],
          [1, 2], [[0, 1]], [None], {}, {"shape": [1], "data": [0.0]}]
# what a header token, a feature or a label of the table becomes
HEADER_TOKENS = ["", "cpns-tab", "v2", "dims=", "dims=x", "dims=0",
                 "dims=-1", "dims=1", "dims=3", "dims=2.0",
                 "dims=99999999999999999999", "classes=0", "classes=-2",
                 "classes=1", "classes=1e3", "classes=99999999999999999999"]
FEATURES = ["nan", "inf", "-inf", "1e999", "x", "0x10", "--1", "1e308",
            "-0", "1_0"]
LABELS = ["-1", "3", "99999999999999999999", "1.5", "x", "nan", "+0"]
SIDECARS = [b"causal\nnoise\n", b"causal\nspecial\n", b"causal\n",
            b"causal\nnoise\nnoise\n", b"\xffcausal\nnoise\n", b""]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """(directory, checkpoint bytes, table bytes) of the valid pair."""
    root = tmp_path_factory.mktemp("eval-fuzz")
    model = mdl.ExpandableModel(input_dim=2, feature_dim=2, hidden_dims=(2,),
                                seed=0)
    for _ in range(3):
        model.expand(1)
    mdl.save_checkpoint(model, root / "model.ckpt")
    x = np.random.default_rng(0).normal(size=(3, 2))
    dt.save_table(str(root / "table.txt"), x, [0, 1, 2], 3)
    return (root, (root / "model.ckpt").read_bytes(),
            (root / "table.txt").read_bytes())


def _refuse(constant):
    raise ValueError(f"{constant} in the output")


def _eval(root, ckpt, table, sidecar=None):
    """Write the pair (and the table's `.factors` sidecar, if any), run
    `eval` on it and hold the result to the command's contract."""
    paths = [str(root / "model.ckpt"), str(root / "table.txt")]
    for path, body in zip(paths, (ckpt, table)):
        with open(path, "wb") as fh:
            fh.write(body)
    factors = paths[1] + ".factors"
    if sidecar is None:
        if os.path.exists(factors):
            os.remove(factors)
    else:
        with open(factors, "wb") as fh:
            fh.write(sidecar)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["eval", *paths])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), (code, err)
    if code == 2:
        assert not out
        assert err.startswith("cpnslab:") and err.count("\n") == 1
        assert err.endswith("\n")
    else:
        assert not err
        json.loads(out, parse_constant=_refuse)
    return code


def _paths(node, path=()):
    """The path of every value in a JSON document, the root first."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield from _paths(value, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def test_the_pristine_pair_scores(pristine):
    root, ckpt, table = pristine
    assert _eval(root, ckpt, table) == 0
    assert _eval(root, ckpt, table, SIDECARS[0]) == 0


@pytest.mark.parametrize("dims", [2**60, 2**63 - 1, 2**63, 10**20])
def test_a_header_too_wide_for_any_array_exits_two(pristine, dims):
    # no numpy array is this wide, not even one without rows, so the
    # header itself is refused
    root, ckpt, _ = pristine
    table = f"cpns-tab v1 dims={dims} classes=3\n".encode()
    assert _eval(root, ckpt, table) == 2


@FUZZ
@given(data=st.data())
def test_a_mutated_checkpoint_exits_zero_or_two(pristine, data):
    root, ckpt, table = pristine
    doc = json.loads(ckpt)
    paths = list(_paths(doc))
    kind = data.draw(st.sampled_from(["replace", "delete", "truncate"]))
    if kind == "truncate":
        body = ckpt[:data.draw(st.integers(0, len(ckpt) - 1))]
    else:
        path = data.draw(st.sampled_from(paths[1:] if kind == "delete"
                                         else paths))
        if not path:
            doc = data.draw(st.sampled_from(VALUES))
        elif kind == "delete":
            del _at(doc, path[:-1])[path[-1]]
        else:
            _at(doc, path[:-1])[path[-1]] = data.draw(st.sampled_from(VALUES))
        body = json.dumps(doc).encode()
    _eval(root, body, table)


def _mutate_table(lines, mutation, data):
    """One mutation of the table's lines. A byte-level one returns the
    mutated bytes instead, and ends the edits."""
    text = "\n".join(lines).encode()
    if mutation == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    if mutation == "non-UTF-8":
        at = data.draw(st.integers(0, len(text)))
        return text[:at] + b"\xff\xfe" + text[at:]
    if mutation == "no rows":
        return lines[:1]
    lines = list(lines)
    if mutation.startswith("header"):
        header = lines[0].split()
        if mutation == "header token":
            header[data.draw(st.integers(0, len(header) - 1))] = data.draw(
                st.sampled_from(HEADER_TOKENS))
        else:  # one token fewer or one more
            header = (header[:-1] if data.draw(st.booleans())
                      else [*header, "x=1"])
        lines[0] = " ".join(header)
        return lines
    if len(lines) == 1:  # no row left to edit
        return lines
    row = data.draw(st.integers(1, len(lines) - 1))
    fields = lines[row].split()
    if mutation == "field count":
        fields = fields[:-1] if data.draw(st.booleans()) else [*fields, "0.5"]
    elif mutation == "feature" and len(fields) > 1:
        fields[data.draw(st.integers(1, len(fields) - 1))] = data.draw(
            st.sampled_from(FEATURES))
    elif mutation == "label":
        fields[0] = data.draw(st.sampled_from(LABELS))
    lines[row] = " ".join(fields)
    return lines


@FUZZ
@given(data=st.data())
def test_a_mutated_table_exits_zero_or_two(pristine, data):
    root, ckpt, table = pristine
    body = table.decode().splitlines()
    mutations = data.draw(st.lists(st.sampled_from(
        ["header token", "header length", "no rows", "field count",
         "feature", "label", "truncate", "non-UTF-8"]),
        min_size=1, max_size=2))
    for mutation in mutations:
        if isinstance(body, bytes):
            break
        body = _mutate_table(body, mutation, data)
    if not isinstance(body, bytes):
        body = ("\n".join(body) + "\n").encode()
    sidecar = data.draw(st.none() | st.sampled_from(SIDECARS))
    _eval(root, ckpt, body, sidecar)
