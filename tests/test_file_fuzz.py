"""One-field mutations of every input file kind, run through `cli.main` in-process.

Each kind starts from a valid file.  The fields to mutate, and what counts as
a change of type, come from the `read_json` shape the reader declares.  A
mutation the shape rejects (a wrong type, a missing required key or an extra
key) must end in exit code 1 and exactly one `error: <file>: ` line.  Any
other mutation may pass or fail, but never with a traceback, and a failure
is one `error: ` line or the report's own errors, and a success prints nothing
on stderr but the one `warning: ` line of an emptied index.  Two runs give the
same bytes.

`HYPOTHESIS_PROFILE=wide` (tests/conftest.py) searches ten times as many
examples.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouplab.cli import ACTION_SHAPE, BETA_SHAPE, SPEC_SHAPE, TOWER_SHAPE, main
from grouplab.corpus import GROUP_SHAPE, INDEX_SHAPE, Corpus, save_corpus

_S3 = {"name": "S3", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
# kind -> (file name, valid payload, declared shape, CLI arguments; "{dir}" is the file's directory
# and "{small}" a corpus of Z2, Z4 and S3)
_KINDS = {
    "group-generators": ("S3.json", _S3, GROUP_SHAPE, ["neumann", "--corpus", "{dir}"]),
    "group-table": ("Z3.json", {"name": "Z3", "order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
                    GROUP_SHAPE, ["neumann", "--corpus", "{dir}"]),
    "index": ("index.json", [{"name": "S3", "order": 6, "file": "S3.json"}], INDEX_SHAPE,
              ["neumann", "--corpus", "{dir}"]),
    "tower-chain": ("tower.json", {"group": "Z4", "chain": [[0, 1, 2, 3], [0, 2], [0]]}, TOWER_SHAPE,
                    ["inverse-system", "--corpus", "{small}", "--tower-file", "{dir}/tower.json"]),
    "tower-levels": ("tower.json", {"levels": ["Z2", "Z4"], "projections": [[0, 1, 0, 1]]}, TOWER_SHAPE,
                     ["inverse-system", "--corpus", "{small}", "--tower-file", "{dir}/tower.json"]),
    "action": ("action.json", {"group": "Z2", "p": 3, "dim": 2, "matrices": {"1": [[0, 1], [1, 0]]},
                               "v": [1, 0]}, ACTION_SHAPE,
               ["ring-from-module", "--corpus", "{small}", "--action-file", "{dir}/action.json"]),
    "beta": ("beta.json", {"0": 1, "1": 2, "2": 6}, BETA_SHAPE,
             ["verify-inequalities", "--corpus", "{small}", "--group", "S3", "--beta-table",
              "{dir}/beta.json"]),
    "spec-base": ("bp.json", {"base_group": "S3", "atoms": 2}, SPEC_SHAPE,
                  ["boolean-power", "--corpus", "{small}", "--spec", "{dir}/bp.json"]),
    "spec-field": ("bp.json", {"field": "GF4", "atoms": 2, "constraints": [{"points": [0], "subfield": "GF2"}]},
                   SPEC_SHAPE, ["boolean-power", "--corpus", "{small}", "--spec", "{dir}/bp.json"]),
}
# one value of each JSON type; a type mutation takes one whose type the shape does not declare
_TYPES = {"null": None, "bool": True, "float": 1.5, "string": "x", "integer": 7, "array": [], "object": {}}


def _json_type(shape) -> str:
    if shape is str:
        return "string"
    if isinstance(shape, int):
        return "array" if shape else "integer"
    return "array" if isinstance(shape, list) else "object"


def _form(shape, value: dict):
    """The object shape that `value` is read by: the form whose first key it carries."""
    forms = shape if isinstance(shape, tuple) else (shape,)
    return next(f for f in forms if next(iter(f)) in value)


def _fields(value, shape, path=(), required=None):
    """(path, shape, required) of `value` and of every field in it that the shape declares;
    `required` is None for what is not a member of an object, so cannot go missing."""
    yield path, shape, required
    if isinstance(shape, list):
        for i, item in enumerate(value):
            yield from _fields(item, shape[0], path + (i,))
    elif isinstance(shape, dict) and int in shape:
        for key, item in value.items():
            yield from _fields(item, shape[int], path + (key,), False)
    elif isinstance(shape, (dict, tuple)):
        for key, sub in _form(shape, value).items():
            name = key.rstrip("?")
            if name in value:
                yield from _fields(value[name], sub, path + (name,), name == key)


def _values(shape) -> st.SearchStrategy:
    """Values of the JSON type `shape` declares, valid or not for the field."""
    small = st.integers(-2, 4) | st.just(10**12)  # atoms above 4 would build powers of thousands of elements
    if shape is str:
        return st.sampled_from(["", "nope", "S3", "Z2", "GF2", "S3.json"])
    if shape == 0:
        return small
    if shape == 1:
        return st.lists(small, max_size=5)
    if shape == 2:
        return st.lists(st.lists(small, min_size=2, max_size=2), max_size=3)
    return st.just([] if isinstance(shape, list) else {})  # a list or object: emptied


@pytest.fixture(scope="module")
def small(tmp_path_factory, corpus) -> Path:
    root = tmp_path_factory.mktemp("small")
    save_corpus(Corpus({name: corpus[name] for name in ("Z2", "Z4", "S3")}), root)
    return root


def _main(argv: list[str]) -> tuple[int, str, bytes]:
    """Exit code, stderr and report bytes of one in-process run."""
    out, err = Path(argv[-1]), io.StringIO()
    out.unlink(missing_ok=True)
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), out.read_bytes() if out.exists() else b""


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


@pytest.mark.parametrize("kind", sorted(_KINDS))
@settings(derandomize=True, deadline=None, max_examples=max(1, settings.default.max_examples // 5))
@given(data=st.data())
def test_one_field_mutation_fails_cleanly(small, kind, data):
    fname, valid, shape, argv = _KINDS[kind]
    op = data.draw(st.sampled_from(["type", "value", "missing", "extra"]))
    fields = [f for f in _fields(valid, shape) if op in ("type", "value")
              or (op == "missing" and f[2] is not None) or (op == "extra" and _json_type(f[1]) == "object")]
    path, field_shape, required = data.draw(st.sampled_from(fields))
    payload = copy.deepcopy(valid)
    if op == "missing":
        del _at(payload, path[:-1])[path[-1]]
    elif op == "extra":
        _at(payload, path)["extra"] = 1
    else:
        if op == "type":
            value = data.draw(st.sampled_from([v for t, v in _TYPES.items() if t != _json_type(field_shape)]))
        else:
            value = data.draw(_values(field_shape))
        if path:
            _at(payload, path[:-1])[path[-1]] = value
        else:
            payload = value
    rejected = op in ("type", "extra") or (op == "missing" and required)
    with tempfile.TemporaryDirectory() as tmp:
        if kind == "index":
            (Path(tmp) / "S3.json").write_text(json.dumps(_S3))
        (Path(tmp) / fname).write_text(json.dumps(payload))
        args = [a.format(dir=tmp, small=small) for a in argv] + ["--out", f"{tmp}/report"]
        first, second = _main(args), _main(args)
    code, err, _ = first
    assert first == second, (payload, first, second)
    assert code in (0, 1, 2) and "Traceback" not in err, (payload, first)
    lines = err.splitlines()
    if rejected:
        assert code == 1 and len(lines) == 1 and lines[0].startswith(f"error: {fname}: "), (payload, err)
    elif code == 1:
        assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), (payload, err)
    else:  # an index that lists no file leaves the corpus empty, which the CLI warns of
        empty = kind == "index" and payload == []
        assert err == (f"warning: corpus directory {tmp} is empty\n" if empty else ""), (payload, err)
