"""docs/formats.md's "Experiment config" part agrees with the config classes.

Each config class has a section there. Every field of a class is named in
its section, every key the part names in backticks is a field of some
class, and every default the part writes as a JSON literal in parentheses
right after its key equals the class default.
"""

import dataclasses
import json
import os
import re

import pytest

from cpnslab import data as dt
from cpnslab import experiment as ex
from cpnslab import risk as rk
from cpnslab import trainer as tr

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "docs", "formats.md"), encoding="utf-8") as fh:
    DOC = fh.read()


def _between(start, end):
    i = DOC.index(start)
    return DOC[i:DOC.index(end, i + len(start))]


PART = _between("## Experiment config", "\n## ")

# class -> its section of PART, from one marker up to the next
SECTIONS = {
    ex.ExperimentConfig: ("## Experiment config", "### `data`"),
    dt.SyntheticScmConfig: ('- `kind: "synthetic"`', '- `kind: "table"`'),
    ex.TableDataConfig: ('- `kind: "table"`', "### `model`"),
    ex.ModelConfig: ("### `model`", "### `train`"),
    tr.TrainConfig: ("### `train`", "### `metrics`"),
    rk.GenConfig: ("### `train`", "### `metrics`"),
    ex.MetricsConfig: ("### `metrics`", "### Method naming"),
}

# backticked words of PART that are not config keys: `kind` picks the data
# section's class, and the rest are values or CSV method names
NOT_KEYS = {"kind", "true", "false", "null", "method", "cpns", "baseline"}

KEY = re.compile(r"`([A-Za-z_]\w*)`")


def _section(cls):
    return _between(*SECTIONS[cls])


def _documented_defaults(text):
    """{key: value} for each "`key` (<JSON literal>" in `text` whose
    literal ends at a ')', ';' or ','; "(required)" and prose are not
    literals."""
    decoder = json.JSONDecoder()
    out = {}
    for match in re.finditer(r"`([A-Za-z_]\w*)`\s*\(", text):
        try:
            value, end = decoder.raw_decode(text, match.end())
        except json.JSONDecodeError:
            continue
        if text[end:end + 1] in (")", ";", ","):
            out[match.group(1)] = value
    return out


def _class_default(f):
    if f.default is not dataclasses.MISSING:
        value = f.default
    elif f.default_factory is not dataclasses.MISSING:
        value = f.default_factory()
    else:
        return dataclasses.MISSING
    return value if dataclasses.is_dataclass(value) else json.loads(
        json.dumps(value))


@pytest.mark.parametrize("cls", list(SECTIONS), ids=lambda c: c.__name__)
def test_every_field_is_named_in_its_section(cls):
    named = set(KEY.findall(_section(cls)))
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in named]
    assert not missing


def test_every_key_named_is_a_field():
    fields = {f.name for cls in SECTIONS for f in dataclasses.fields(cls)}
    assert set(KEY.findall(PART)) - NOT_KEYS - fields == set()


@pytest.mark.parametrize("cls", list(SECTIONS), ids=lambda c: c.__name__)
def test_every_written_default_is_the_class_default(cls):
    defaults = {f.name: _class_default(f) for f in dataclasses.fields(cls)}
    written = {k: v for k, v in _documented_defaults(_section(cls)).items()
               if k in defaults}
    # a section class (a dataclass default) is a section of its own
    plain = {k: v for k, v in defaults.items()
             if v is not dataclasses.MISSING and not dataclasses.is_dataclass(v)}
    assert written == plain
