"""Mutated instance and schedule JSON: parsing gives an object or one
ValueError, and the CLI answers a bad file with exit 1 and one error line."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hffs.cli import main
from hffs.instance_gen import GenSpec, generate
from hffs.model import (
    instance_from_json,
    instance_to_json,
    schedule_from_json,
    schedule_to_json,
    serial_schedule,
    validate_instance,
)

INSTANCE = generate(GenSpec(group=2, jobs=3, stages=2, variant=1, seed=3))
INSTANCE_DOC = json.loads(instance_to_json(INSTANCE))
SCHEDULE_DOC = json.loads(schedule_to_json(serial_schedule(INSTANCE)))

# Replacement values of every JSON type; a replacement never has the type
# of the value it replaces.
OTHER_VALUES = (None, True, 0, -1, 2.5, "x", [], [1], {}, {"a": 1})


def paths(doc, prefix=()):
    """Every path into ``doc`` (the root excluded), parents first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def json_type(value):
    return "int" if type(value) is int else type(value).__name__


@st.composite
def mutated(draw, doc):
    """``doc`` after one to three mutations: a key or element deleted, a
    value replaced by one of another JSON type, or an array truncated."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        candidates = list(paths(doc))
        if not candidates:
            break
        path = draw(st.sampled_from(candidates))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, value = path[-1], parent[path[-1]]
        kind = draw(st.sampled_from(("delete", "retype", "truncate")))
        if kind == "truncate" and isinstance(value, list) and value:
            del value[draw(st.integers(0, len(value) - 1)):]
        elif kind == "retype":
            choices = [v for v in OTHER_VALUES if json_type(v) != json_type(value)]
            parent[key] = json.loads(json.dumps(draw(st.sampled_from(choices))))
        else:
            del parent[key]
    return doc


def without(doc, field, key):
    """A copy of ``doc`` whose object ``field`` lacks ``key``."""
    doc = json.loads(json.dumps(doc))
    del doc[field][key]
    return doc


def parsed_or_value_error(parse, text):
    """The parsed object, or the ValueError the parser raised (any other
    exception escapes and fails the test)."""
    try:
        return parse(text)
    except ValueError as exc:
        return exc


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(code, out, err):
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=mutated(INSTANCE_DOC))
@example(doc=without(INSTANCE_DOC, "workers_max", "s1"))  # was a KeyError
def test_mutated_instance_json(doc):
    text = json.dumps(doc)
    inst = parsed_or_value_error(instance_from_json, text)
    with tempfile.TemporaryDirectory() as tmp:
        inst_path = os.path.join(tmp, "inst.json")
        sched_path = os.path.join(tmp, "sched.json")
        with open(inst_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(sched_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(SCHEDULE_DOC))
        bad = isinstance(inst, ValueError) or validate_instance(inst)
        for argv in (("bounds", inst_path), ("validate", inst_path, sched_path)):
            code, out, err = run_cli(*argv)
            if bad:
                assert_one_error_line(code, out, err)
            else:
                assert code in (0, 1) and err == ""


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=mutated(SCHEDULE_DOC))
def test_mutated_schedule_json(doc):
    text = json.dumps(doc)
    sched = parsed_or_value_error(schedule_from_json, text)
    with tempfile.TemporaryDirectory() as tmp:
        inst_path = os.path.join(tmp, "inst.json")
        sched_path = os.path.join(tmp, "sched.json")
        with open(inst_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(INSTANCE_DOC))
        with open(sched_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, out, err = run_cli("validate", inst_path, sched_path)
        if isinstance(sched, ValueError):
            assert_one_error_line(code, out, err)
        else:  # parsed: the validator lists what the mutation broke
            assert code in (0, 1) and err == ""


@settings(max_examples=100, deadline=None, derandomize=True)
@given(which=st.sampled_from(("instance", "schedule")), cut=st.integers(0, 10**6))
def test_truncated_json_text_is_one_value_error(which, cut):
    parse, doc = ((instance_from_json, INSTANCE_DOC) if which == "instance"
                  else (schedule_from_json, SCHEDULE_DOC))
    text = json.dumps(doc)
    result = parsed_or_value_error(parse, text[: cut % len(text)])
    assert isinstance(result, ValueError)


def id_fields(doc):
    """(path, field) of every id in an instance document: the field is the
    name the parser's error gives."""
    yield from ((("jobs", i), "jobs") for i in range(len(doc["jobs"])))
    yield from ((("stages", i), "stages") for i in range(len(doc["stages"])))
    for name, row_name, keys in (
        ("machines", "machine", ("id", "stage")),
        ("transport", "transport", ("from", "to")),
        ("proc_time", "proc_time", ("job", "stage")),
    ):
        for i in range(len(doc[name])):
            yield from (((name, i, k), f"{row_name}.{k}") for k in keys)
    for j, elig in doc["eligible_stages"].items():
        yield from ((("eligible_stages", j, i), f"eligible_stages.{j}") for i in range(len(elig)))


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def test_non_string_ids_are_one_value_error():
    """A null or integer id is rejected by the name of its field, never read
    as its str(); the CLI answers with one error line."""
    cases = [("instance", replaced(INSTANCE_DOC, path, v), field)
             for path, field in id_fields(INSTANCE_DOC) for v in (None, 0, 7)]
    cases += [("schedule", replaced(SCHEDULE_DOC, ("machine_of", key), v), "machine_of")
              for key in SCHEDULE_DOC["machine_of"] for v in (None, 0, 7)]
    parsers = {"instance": instance_from_json, "schedule": schedule_from_json}
    with tempfile.TemporaryDirectory() as tmp:
        files = {which: os.path.join(tmp, f"{which}.json") for which in parsers}
        for which, doc, field in cases:
            result = parsed_or_value_error(parsers[which], json.dumps(doc))
            assert isinstance(result, ValueError) and str(result).startswith(f"{field}: ")
            docs = {"instance": INSTANCE_DOC, "schedule": SCHEDULE_DOC, which: doc}
            for name, path in files.items():
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(docs[name]))
            assert_one_error_line(*run_cli("validate", files["instance"], files["schedule"]))
