"""Golden test: every README console example and JSON shape, replayed through cli.main, and the quick tour."""

import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from test_cli import SIZE_PROBES

from instanton3 import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def console_examples():
    """(argv, pipe, expected stdout) for each ``$ instanton3 ...`` line of a console block."""
    examples = []
    for block in re.findall(r"^```console\n(.*?)^```$", README, re.M | re.S):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if not chunk:
                continue
            command, _, expected = chunk.partition("\n")
            command, _, pipe = command.removeprefix("$ ").partition(" | ")
            prog, *argv = shlex.split(command)
            assert prog == "instanton3"
            examples.append((argv, pipe, expected))
    return examples


EXAMPLES = console_examples()


def json_shapes():
    """{subcommand: shape text} from the bullet list under "JSON output"."""
    section = README.split("## JSON output", 1)[1].split("\n## ", 1)[0]
    return {name: " ".join(shape.split()) for name, shape in re.findall(r"^- `([\w-]+)`: `([^`]*)`", section, re.M)}


def shape_keys(shape):
    """The quoted keys of a shape: (top level, inside its list of objects)."""
    nested = re.search(r"\[\{(.*?)\}", shape)
    top = shape if nested is None else shape.replace(nested.group(0), "")
    return set(re.findall(r'"(\w+)"', top)), set(re.findall(r'"(\w+)"', nested.group(1))) if nested else set()


def run_cli(capsys, argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_readme_has_an_example_per_subcommand():
    assert [argv[0] for argv, _, _ in EXAMPLES] == ["chi", "table", "spectra", "verify-paper"]


@pytest.mark.parametrize("argv,pipe,expected", EXAMPLES, ids=[" ".join(a) for a, _, _ in EXAMPLES])
def test_console_example_replays_byte_for_byte(capsys, argv, pipe, expected):
    rc, out, err = run_cli(capsys, argv)
    assert (rc, err) == (cli.EXIT_OK, "")
    if pipe:
        assert pipe == "tail -1"
        out = out.splitlines(keepends=True)[-1]
    assert out == expected


def test_json_shapes_list_every_subcommand():
    assert sorted(json_shapes()) == sorted(argv[0] for argv, _, _ in EXAMPLES)


@pytest.mark.parametrize("argv", [argv for argv, _, _ in EXAMPLES], ids=[a[0] for a, _, _ in EXAMPLES])
def test_json_output_has_the_documented_keys(capsys, argv):
    top, nested = shape_keys(json_shapes()[argv[0]])
    rc, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    assert rc == cli.EXIT_OK
    payload = json.loads(out)
    assert set(payload) == top
    listed = [v for v in payload.values() if isinstance(v, list) and v and isinstance(v[0], dict)]
    assert len(listed) == (1 if nested else 0)
    for entries in listed:
        assert all(set(entry) == nested for entry in entries)


QUICK_TOUR = re.search(r"^## Library quick tour\n+```python\n(.*?)^```$", README, re.M | re.S).group(1)


def test_quick_tour_runs_and_its_value_comments_hold(capsys):
    namespace = {"Fraction": Fraction}
    exec(QUICK_TOUR, namespace)
    table = next(expected for argv, _, expected in EXAMPLES if argv[0] == "table")
    assert capsys.readouterr().out == table
    checked = 0
    for line in QUICK_TOUR.splitlines():
        expr, _, comment = line.partition("#")
        if not comment:
            continue
        try:
            want = eval(comment, namespace)
        except SyntaxError:  # "16, via the geometric construction": the value is the leading 16
            want = eval(comment.split(",", 1)[0], namespace)
        assert eval(expr, namespace) == want, line
        checked += 1
    assert checked == 5


def test_input_bounds_name_each_owner_the_size_probes_call():
    # One owner per rule: the "checked by" column lists exactly the functions
    # and types that the size probes of tests/test_cli.py drive with huge values.
    section = README.split("| input | bound | checked by |", 1)[1].split("\n\n", 1)[0]
    column = {name for row in section.splitlines()[1:] for name in re.findall(r"`(\w+)`", row.rsplit("|", 2)[1])}
    assert column == {key.split()[0] for key in SIZE_PROBES}
