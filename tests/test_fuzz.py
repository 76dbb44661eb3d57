"""Property tests: malformed input to an entry point raises a
``HypersplineError`` and nothing else.

Each test draws arguments of the wrong shape, size or type (ragged
nesting, text, complex, None, NaN and inf, bools, integers beyond int64
and past Python's 4,300-digit string limit),
file contents or command lines, and accepts either a successful call or
a typed error (exit code 2 from the command line). Runs are
derandomized and keep no example database, so every run draws the same
examples.
"""

import contextlib
import io
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hyperspline import (
    Axis,
    BoundaryPolicy,
    ElementRef,
    HypersplineError,
    Interpolator,
    RegularGrid,
    write_grid_csv,
    write_results_csv,
)
from hyperspline.cli import main
from hyperspline.grid import locate, locate_points, neighborhood_block
from hyperspline.io import load_grid_csv, load_points_csv

AXES = [Axis(0.0, 1.0, 4)] * 3
GRID = RegularGrid(AXES, np.arange(64.0))
# a spacing below 1, so that dividing a huge coordinate by it overflows
FINE_GRID = RegularGrid([Axis(0.0, 0.25, 4)] * 3, np.arange(64.0))

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# integers past Python's 4,300-digit limit on converting them to text,
# which no error message may try to show as digits
past_digit_limit = st.tuples(st.integers(4300, 5000),
                             st.sampled_from([1, -1])).map(
    lambda t: t[1] * 10 ** t[0])
big_integers = st.one_of(st.integers(min_value=-2 ** 70, max_value=2 ** 70),
                         past_digit_limit)

scalars = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    big_integers,
    st.booleans(),
    st.complex_numbers(max_magnitude=1e3),
    st.text(max_size=3),
    st.none(),
)

# nested lists of mixed depth and length
ragged = st.recursive(st.lists(scalars, max_size=5),
                      lambda inner: st.lists(inner, max_size=4),
                      max_leaves=70)

arrays = hnp.arrays(
    dtype=st.one_of(hnp.scalar_dtypes(), st.just(np.dtype(object))),
    shape=hnp.array_shapes(min_dims=0, max_dims=4, max_side=5))


def near_size(count):
    """Real samples of about ``count`` entries, NaN and inf included."""
    floats = st.floats(allow_nan=True, allow_infinity=True)
    return st.one_of(st.lists(floats, min_size=count - 1,
                              max_size=count + 1),
                     st.lists(st.lists(floats, min_size=1, max_size=3),
                              min_size=count - 1, max_size=count + 1))


# query points: malformed ones and rows of three arbitrary scalars
query_points = st.one_of(scalars, ragged, arrays,
                         st.lists(scalars, min_size=3, max_size=3))


# origins and spacings near the float64 limit, where a last vertex
# overflows
huge = st.floats(min_value=1e300, max_value=1.7976931348623157e308)
huge = st.one_of(huge, huge.map(lambda x: -x))


@SETTINGS
@given(origin=st.one_of(scalars, st.integers(-2 ** 1100, 2 ** 1100), huge),
       spacing=st.one_of(scalars, huge),
       count=st.one_of(scalars, st.integers(4, 2 ** 70), past_digit_limit))
def test_axis_raises_only_typed_errors(origin, spacing, count):
    try:
        axis = Axis(origin, spacing, count)
    except HypersplineError:
        return
    # an accepted axis has finite vertices, its last one included
    assert math.isfinite(axis.coordinate(0))
    assert math.isfinite(axis.coordinate(axis.count - 1))


@SETTINGS
@given(index=st.one_of(scalars, ragged, arrays,
                       st.lists(st.one_of(st.integers(-5, 5), scalars),
                                max_size=5)),
       component=st.one_of(scalars, st.integers(-2, 2)))
def test_vertex_value_raises_only_typed_errors(index, component):
    try:
        GRID.vertex_value(index, component)
    except HypersplineError:
        pass


@SETTINGS
@given(axes=st.one_of(st.just(AXES), scalars, ragged, arrays,
                      st.lists(st.one_of(st.just(AXES[0]), scalars),
                               max_size=5)),
       values=st.one_of(scalars, ragged, arrays, near_size(64),
                        near_size(128)),
       components=st.one_of(st.integers(-1, 3), st.floats(), st.text(),
                            st.none(), st.booleans(), big_integers))
def test_grid_raises_only_typed_errors(axes, values, components):
    try:
        RegularGrid(axes, values, components=components)
    except HypersplineError:
        pass


@SETTINGS
@given(grid=st.one_of(st.just(GRID), scalars, ragged, arrays),
       policy=st.one_of(st.sampled_from(list(BoundaryPolicy)),
                        st.sampled_from([p.value for p in BoundaryPolicy]),
                        scalars, ragged, arrays))
def test_interpolator_raises_only_typed_errors(grid, policy):
    try:
        Interpolator(grid, policy)
    except HypersplineError:
        pass


# policies: both members, both values and what is neither
policies_or_junk = st.one_of(st.sampled_from(list(BoundaryPolicy)),
                             st.sampled_from([p.value for p in BoundaryPolicy]),
                             scalars, ragged, arrays)
# elements with 2 to 4 base entries, small ones (some out of range) and
# huge ones, and junk
elements = st.one_of(scalars, st.lists(st.one_of(st.integers(-1, 3),
                                                 big_integers),
                                       min_size=2, max_size=4).map(
    lambda base: ElementRef(tuple(base))))


@SETTINGS
@given(policy=policies_or_junk, point=query_points,
       points=st.one_of(query_points,
                        st.lists(st.lists(scalars, min_size=3, max_size=3),
                                 max_size=3)),
       elem=elements)
def test_grid_functions_raise_only_typed_errors(policy, point, points, elem):
    # strict admits only base (1, 1, 1) on GRID, so most elements drawn
    # are out of its range
    calls = [lambda: GRID.element_base_range(policy),
             lambda: GRID.queryable_domain(policy),
             lambda: GRID.element_counts(policy),
             lambda: locate(GRID, point, policy),
             lambda: locate_points(GRID, points, policy),
             lambda: neighborhood_block(GRID, elem, policy),
             lambda: neighborhood_block(GRID, elem, BoundaryPolicy.STRICT)]
    for call in calls:
        try:
            call()
        except HypersplineError:
            pass


@pytest.fixture(scope="module")
def interp():
    return Interpolator(GRID)


@pytest.fixture(scope="module")
def ghost_interp():
    return Interpolator(GRID, BoundaryPolicy.LINEAR_GHOST)


@pytest.fixture(scope="module")
def fine_interp():
    return Interpolator(FINE_GRID)


@SETTINGS
@given(elem=st.one_of(ragged, arrays, elements,
                      st.lists(st.integers(0, 2), max_size=5).map(
                          lambda base: ElementRef(tuple(base)))))
def test_coefficients_raise_only_typed_errors(ghost_interp, elem):
    # linear-ghost admits bases 0..2 on 4 vertices; a base of -1 or 3
    # raises ElementOutOfRangeError, a HypersplineError
    try:
        ghost_interp.coefficients(elem)
    except HypersplineError:
        pass


@SETTINGS
@given(point=query_points)
def test_point_queries_raise_only_typed_errors(interp, point):
    for query in (interp.eval, interp.eval_with_gradient):
        try:
            query(point)
        except HypersplineError:
            pass


@SETTINGS
@given(point=st.one_of(st.just([1.5] * 3), query_points),
       orders=st.one_of(scalars, ragged, arrays,
                        st.lists(st.one_of(st.integers(-1, 4), scalars),
                                 min_size=3, max_size=3)))
def test_derivative_raises_only_typed_errors(interp, point, orders):
    try:
        interp.derivative(point, orders)
    except HypersplineError:
        pass


@SETTINGS
@given(base=st.one_of(scalars, ragged, arrays))
def test_element_ref_raises_only_typed_errors(base):
    try:
        ElementRef(base)
    except HypersplineError:
        pass


@SETTINGS
@given(elem=st.one_of(ragged, elements,
                      st.lists(st.just(1), max_size=5).map(
                          lambda base: ElementRef(tuple(base)))),
       u=st.one_of(st.just([0.5] * 3), query_points))
def test_eval_local_raises_only_typed_errors(interp, elem, u):
    # strict admits only base 1 on 4 vertices; any other base raises
    # ElementOutOfRangeError, a HypersplineError
    try:
        interp.eval_local(elem, u)
    except HypersplineError:
        pass


@SETTINGS
@given(batch=st.one_of(query_points,
                       st.lists(st.lists(scalars, min_size=3, max_size=3),
                                max_size=4),
                       st.lists(st.lists(st.floats(), min_size=3,
                                         max_size=3), max_size=4)))
def test_eval_batch_raises_only_typed_errors(interp, fine_interp, batch):
    for query in (interp.eval_batch, fine_interp.eval_batch):
        try:
            query(batch)
        except HypersplineError:
            pass


@pytest.fixture(scope="module")
def result(interp):
    return interp.eval_batch(np.full((2, 3), 1.5))


@SETTINGS
@given(index=st.one_of(scalars, ragged, arrays, st.slices(4),
                       st.integers(-4, 4)))
def test_batch_index_raises_only_typed_errors(result, index):
    # past the points the error is also an IndexError, so iteration stops
    try:
        result[index]
    except HypersplineError:
        pass


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "results.csv"


@SETTINGS
@given(points=st.one_of(st.just(np.full((2, 3), 1.5)), scalars, ragged,
                        arrays, near_size(6),
                        st.lists(st.lists(scalars, min_size=3, max_size=3),
                                 min_size=2, max_size=2)),
       component_names=st.one_of(st.just(("f",)), scalars, ragged,
                                 st.lists(st.text(max_size=2), max_size=3)))
def test_results_writer_raises_only_typed_errors(points, component_names,
                                                 result, out_path):
    try:
        write_results_csv(out_path, points, result, component_names)
    except HypersplineError:
        pass


# anything but a path; positive integers are left out, since a writer
# that took one for a file descriptor would write into the test process
# (test_io covers them with a pipe)
not_paths = st.one_of(st.none(), st.booleans(), st.floats(),
                      st.complex_numbers(max_magnitude=1e3),
                      st.integers(-2 ** 70, -1),
                      past_digit_limit.map(lambda k: -abs(k)), ragged, arrays)


@SETTINGS
@given(data=st.data(),
       grid=st.one_of(st.just(GRID), scalars, ragged, arrays))
def test_grid_writer_raises_only_typed_errors(out_path, data, grid):
    # out_path is a file; its directory, and a file in a missing one,
    # cannot be written
    path = data.draw(st.one_of(
        st.sampled_from([out_path, out_path.parent,
                         out_path.parent / "missing" / "grid.csv"]),
        not_paths))
    try:
        write_grid_csv(path, grid)
    except HypersplineError:
        pass


# component names: any text, and the characters a CSV header treats
# specially
name_text = st.one_of(
    st.text(max_size=4),
    st.text(st.sampled_from(',"\r\n \t\x0c\x85\x00#xyzt'), max_size=3),
    st.sampled_from(["x", "y", "z", "t", "f", "", "a b"]))


@SETTINGS
@given(dim=st.sampled_from([3, 4]),
       names=st.lists(name_text, min_size=1, max_size=3))
def test_accepted_component_names_round_trip(out_path, dim, names):
    # a grid named ['a,b'], [' a'] or, in 3D, ['t'] wrote a file that
    # did not read back with its names, or at all
    axes = [Axis(0.0, 1.0, 4)] * dim
    try:
        grid = RegularGrid(axes, np.zeros((4 ** dim, len(names))),
                           components=len(names), component_names=names)
    except HypersplineError:
        return
    write_grid_csv(out_path, grid)
    assert load_grid_csv(out_path).component_names == tuple(names)


# a valid 4x4x4 grid CSV whose lines the file strategies below mutate
GRID_LINES = ["x,y,z,f"] + [f"{i % 4},{i // 4 % 4},{i // 16},{i}.5"
                            for i in range(64)]

cells = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 5).map(str),
    st.sampled_from(["", " ", "nan", "-inf", '"1"', '"', "'", "1_0", "#",
                     "0x1", "x", "y", "z", "t", "f", "\x00"]),
    st.text(max_size=3))
csv_lines = st.lists(cells, max_size=6).map(",".join)


@st.composite
def mutated_grid(draw):
    """GRID_LINES with rows dropped, duplicated, replaced or inserted."""
    lines = list(GRID_LINES)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["drop", "duplicate", "replace", "insert"]))
        if op == "insert" or i == len(lines):
            lines.insert(i, draw(st.one_of(st.just(""), csv_lines)))
        elif op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = draw(csv_lines)
    return "\n".join(lines).encode("utf-8")


file_bytes = st.one_of(
    st.binary(max_size=300),
    st.lists(csv_lines, max_size=8).map(
        lambda lines: "\r\n".join(lines).encode("utf-8")),
    mutated_grid(),
    mutated_grid().map(lambda b: b[:40] + b"\xff" + b[40:]))


def with_x(row, x):
    """GRID_LINES with the x coordinate of data row ``row`` set to ``x``."""
    lines = list(GRID_LINES)
    lines[row + 1] = ",".join([x] + lines[row + 1].split(",")[1:])
    return "\n".join(lines).encode("utf-8")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


@SETTINGS
@given(data=file_bytes)
# errors raised while the x axis is inferred, which the drawn files
# rarely reach: an irregular axis and a non-finite coordinate
@example(data=with_x(1, "1.25"))
@example(data=with_x(1, "nan"))
def test_file_loaders_raise_only_typed_errors(files, data):
    # and each error, raised once the file is open, names the file
    path = files / "drawn.csv"
    path.write_bytes(data)
    for load in (load_grid_csv, lambda p: load_points_csv(p, 3),
                 lambda p: load_points_csv(p, 4)):
        try:
            load(path)
        except HypersplineError as exc:
            assert str(exc).startswith(f"{path}: ")


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory):
    """Valid grid paths (3D, 4D), other input paths (malformed, a points
    file, missing, a directory) and output paths (a file, a directory,
    one in a missing directory)."""
    root = tmp_path_factory.mktemp("cli")
    write_grid_csv(root / "g3.csv", RegularGrid(AXES, np.arange(64.0)))
    write_grid_csv(root / "g4.csv",
                   RegularGrid([Axis(0.0, 1.0, 4)] * 4, np.arange(256.0)))
    (root / "bad.csv").write_bytes(b"x,y,z,f\n1,2,3\n")
    (root / "pts.csv").write_text("x,y,z\n1.5,1.5,1.5\n9,9,9\n")
    paths = ([root / "g3.csv", root / "g4.csv"],
             [root / "bad.csv", root / "pts.csv", root / "missing.csv", root],
             [root / "out.csv", root, root / "missing" / "out.csv"])
    return [[str(p) for p in group] for group in paths]


# option values: mostly well formed (3 or 4 numbers, counts, a policy,
# a file), sometimes malformed, never text that starts with "-" (argparse
# reads "--h..." as --help and exits 0). Hypothesis favours the first of
# several choices, so the well-formed one comes first throughout.
junk = st.one_of(st.sampled_from(["", ",", "1,,2", "nan,1,1", "1e999,1,1",
                                  "3,4,4"]),
                 st.text(max_size=6).filter(lambda t: not t.startswith("-")))
numbers = st.lists(st.floats(0, 4), min_size=3, max_size=4).map(
    lambda xs: ",".join(map(repr, xs)))
counts = st.lists(st.integers(4, 7), min_size=3, max_size=4).map(
    lambda ns: ",".join(map(str, ns)))
policies = st.sampled_from(["strict", "linear-ghost"])
# a few points for bench, small seeds and ones beyond int64; both may
# be negative
point_counts = st.integers(-5, 20)
seeds = st.one_of(st.integers(-5, 5), st.integers(-2 ** 70, 2 ** 70))
# each command's options; sample's first two are required
COMMANDS = {"info": [], "query": ["--point", "--points", "--out", "--policy"],
            "sample": ["--counts", "--out", "--min", "--max", "--policy"],
            "validate": ["--seed"], "bench": ["--n", "--seed", "--policy"]}


@st.composite
def command_lines(draw, paths):
    grids, inputs, outs = paths
    # paths are never junk: a drawn name would be written to
    values = {"--point": numbers,
              "--points": st.sampled_from(inputs[1:2] + grids + inputs + outs),
              "--out": st.sampled_from(outs),
              "--counts": counts, "--min": numbers, "--max": numbers,
              "--policy": policies, "--n": point_counts.map(str),
              "--seed": st.one_of(seeds.map(str), st.integers(4300, 5000).map(
                  lambda n: "1" + "0" * n))}
    command = draw(st.sampled_from(sorted(COMMANDS)))
    # validate always gets a grid, the tiny 3D one or a bad one: without
    # one it runs the full built-in suite, about 1.6 s
    argv = [command] + draw(st.sampled_from(
        [[grids[0]]] + [[path] for path in inputs] if command == "validate"
        else [[path] for path in grids + inputs] + [[]]))
    own = COMMANDS[command]
    flags = own[:2] if command == "sample" else []
    # now and then (always for info) an option of another command
    pool = draw(st.sampled_from([own, sorted(values)] if own
                                else [sorted(values)]))
    flags += draw(st.lists(st.sampled_from(pool), max_size=4 if own else 1))
    for flag in flags:
        value = values[flag]
        if flag not in ("--points", "--out"):
            value = st.one_of(value, junk)
        argv += [flag, draw(value)]
    return argv


def run_cli(argv) -> int:
    """``main(argv)``'s exit code, its output swallowed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            assert exc.code == 2
            return exc.code


@SETTINGS
@given(data=st.data())
def test_cli_exits_only_with_its_codes(cli_paths, data):
    assert run_cli(data.draw(command_lines(cli_paths))) in (0, 1, 2)


@settings(SETTINGS, max_examples=50)
@given(command=st.sampled_from(["bench", "validate"]), n=point_counts,
       seed=seeds, policy=policies)
def test_bench_and_validate_reject_negative_numbers(cli_paths, command, n,
                                                    seed, policy):
    # well-formed command lines on the tiny 3D grid: a negative count
    # or seed is an input error, anything else a run that passes
    argv = [command, cli_paths[0][0], "--seed", str(seed)]
    if command == "bench":
        argv += ["--n", str(n), "--policy", policy]
    else:
        n = 0
    assert run_cli(argv) == (2 if min(n, seed) < 0 else 0)


def test_failing_property_test_reports_its_example(tmp_path):
    # under the suite's settings a warning raised while hypothesis built
    # its failure report became a pytest INTERNALERROR, losing the example
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "@settings(database=None, derandomize=True)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", str(tmp_path / "test_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
