"""The block-wise table writer against the row-at-a-time path it replaced.

The reference is a copy of the earlier writer: ``csv.writer`` over rows
of cells passed through the cell rule for CSV, and one ``json.dumps`` of
the row dicts for JSON.  Both must give the same bytes for any table.
"""

import contextlib
import csv
import io
import json
import math
import os
import select
import stat
import struct
import tty

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_outputs import COMMANDS
import oqmetro.cli
from oqmetro.cli import SCHEMA_VERSION, _Gapped, _write_table


def reference_fmt(v):
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def reference_table(fmt, name, header, rows):
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(f"# {SCHEMA_VERSION} {name}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(reference_fmt, row) for row in rows)
        return buf.getvalue()
    payload = {
        "schema": f"{SCHEMA_VERSION} {name}",
        "rows": [dict(zip(header, map(reference_fmt, row))) for row in rows],
    }
    return json.dumps(payload, indent=1) + "\n"


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308,
               -1e308, 1.7976931348623157e308, 1e16, 1e-5, 0.1,
               math.inf, -math.inf, math.nan)
CELLS = st.one_of(
    st.floats(), st.sampled_from(EDGE_FLOATS), st.none(), st.booleans(),
    st.integers(), st.sampled_from(("theta", "phi", "mle", "lep", "None")),
)
# an array column's cells: -0.0 next to 0.0, nan of two payloads, and
# any float
ARRAY_FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS + (
    struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0001))[0],))
NAMES = ("theta", "phi", "advantage", "negativity", "lambda", "oqfi", "qfi",
         "positive")


@st.composite
def tables(draw):
    """A header, the blocks handed to the writer and the rows they stand for.

    A column is a list of cells, one cell repeated down its block, or the
    very list the block before had at that position.
    """
    header = draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=5,
                           unique=True))
    previous = [None] * len(header)
    blocks, rows = [], []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 5))
        block = []
        for j in range(len(header)):
            kind = draw(st.sampled_from(("list", "cell", "again")))
            if kind == "cell":
                block.append(draw(CELLS))
            elif kind == "again" and isinstance(previous[j], list) \
                    and len(previous[j]) == n:
                block.append(previous[j])
            else:
                block.append(draw(st.lists(CELLS, min_size=n, max_size=n)))
        # a block of single cells alone is one row
        length = n if any(isinstance(c, list) for c in block) else 1
        columns = [c if isinstance(c, list) else [c] * length for c in block]
        rows.extend(zip(*columns))
        blocks.append(block)
        previous = block
    return header, blocks, rows


@st.composite
def grid_tables(draw):
    """A header, grid blocks handed to the writer and the rows they stand
    for.

    A grid block has ``outer`` rows of ``inner`` points each, row-major.
    A column is a tuple with one cell per outer row, a list with one cell
    per inner point (tiled down the outer rows), a flat list with one cell
    per row, one cell repeated down the block, or the very list the block
    before had at that position, in whichever list role its length fits.
    A list may be a 1-d float ndarray instead, of ``ARRAY_FLOATS`` cells,
    and either may be handed as a ``_Gapped`` column of its cells at some
    positions, whose other cells are empty.
    The writer reads the inner points off the shortest list, so a block
    of more than one outer row and point holds an inner list whenever it
    holds a flat one, and a block without lists is one point per row.
    """
    header = draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=5,
                           unique=True))
    previous = [None] * len(header)
    previous_cells = previous
    blocks, rows = [], []
    for _ in range(draw(st.integers(0, 4))):
        kinds = [draw(st.sampled_from(("outer", "inner", "grid", "cell",
                                       "again"))) for _ in header]
        outer = draw(st.integers(0, 3)) if "outer" in kinds else 1
        inner = draw(st.integers(0, 4))
        roles, reused = [], []
        for kind, before in zip(kinds, previous):
            again = (kind == "again"
                     and isinstance(before, (list, np.ndarray, _Gapped))
                     and len(before) in (inner, outer * inner))
            if kind == "again":  # a fresh inner list when none fits
                kind = "grid" if again and len(before) != inner else "inner"
            roles.append(kind)
            reused.append(again)
        if "grid" in roles and "inner" not in roles and outer * inner != inner:
            first = roles.index("grid")
            roles[first], reused[first] = "inner", False
        if "inner" not in roles and "grid" not in roles:
            inner = 1
        sizes = {"outer": outer, "inner": inner, "grid": outer * inner}
        block, block_cells = [], []
        for role, again, before, before_cells in zip(roles, reused, previous,
                                                     previous_cells):
            if again:
                col, cells = before, before_cells
            elif role == "cell":
                col = cells = draw(CELLS)
            else:
                array = role != "outer" and draw(st.booleans())
                cells = draw(st.lists(ARRAY_FLOATS if array else CELLS,
                                      min_size=sizes[role],
                                      max_size=sizes[role]))
                col = (np.array(cells, dtype=float) if array
                       else tuple(cells) if role == "outer" else cells)
                if role != "outer" and draw(st.booleans()):
                    present = draw(st.lists(st.booleans(), min_size=len(cells),
                                            max_size=len(cells)))
                    values = [v for v, p in zip(cells, present) if p]
                    col = _Gapped(np.array(values, dtype=float) if array
                                  else values, np.array(present, dtype=bool))
                    cells = [v if p else None for v, p in zip(cells, present)]
            block.append(col)
            block_cells.append(cells)
        for o in range(outer):
            for p in range(inner):
                rows.append(tuple(
                    col[o] if role == "outer" else col[p] if role == "inner"
                    else col[o * inner + p] if role == "grid" else col
                    for col, role in zip(block_cells, roles)))
        blocks.append(block)
        previous, previous_cells = block, block_cells
    return header, blocks, rows


def _written(fmt, header, blocks):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_table(None, fmt, "t", header, iter(blocks))
    return out.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table=tables(), fmt=st.sampled_from(("csv", "json")))
def test_block_writer_matches_the_row_writer(table, fmt):
    header, blocks, rows = table
    assert _written(fmt, header, blocks) == reference_table(fmt, "t", header,
                                                            rows)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table=grid_tables(), fmt=st.sampled_from(("csv", "json")))
def test_grid_blocks_match_the_row_writer(table, fmt):
    header, blocks, rows = table
    assert _written(fmt, header, blocks) == reference_table(fmt, "t", header,
                                                            rows)



@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_map_array_columns_take_one_orjson_call_per_block(monkeypatch, fmt):
    """On the benchmark map each of the 6 blocks serializes its negativity
    (all 4,056 cells) and its advantage (the 8,051 defined cells in all)
    with one orjson call each, and the cell rule formats only the 13
    cells where orjson's layout differs from repr's."""
    sizes, fixed = [], []
    dumps, float_texts = orjson.dumps, oqmetro.cli._float_texts

    def counted_dumps(obj, *args, **kwargs):
        sizes.append(len(obj))
        return dumps(obj, *args, **kwargs)

    def counted(rule, col):
        def rule_seen(values):
            fixed.extend(values)
            return rule(values)

        return float_texts(rule_seen, col)

    monkeypatch.setattr(orjson, "dumps", counted_dumps)
    monkeypatch.setattr(oqmetro.cli, "_float_texts", counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        argv = list(COMMANDS["advantage-map"]) + ["--format", fmt]
        assert oqmetro.cli.main(argv) == 0
    assert len(sizes) == 12 and sizes[1::2] == [4056] * 6
    assert sum(sizes[::2]) == 8051
    assert len(fixed) == 13
    assert all(1e-11 <= abs(v) < 1e-4 for v in fixed)


def _bits(words) -> np.ndarray:
    return np.asarray(words, dtype=np.uint64).view(np.float64)


def _layout_floats():
    """Chunks of float64 values for the array path: seeded random bit
    patterns, every power of two and decade each with its neighbours one
    ulp away, signed zeros, infinities, NaNs of two payloads, and values
    around the bounds where orjson's layout departs from repr's."""
    rng = np.random.default_rng(20260823)
    for _ in range(8):
        yield _bits(rng.integers(0, 2**64, 2**17, dtype=np.uint64))
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    decades = np.array([float(f"1e{e}") for e in range(-323, 309)])
    bounds = np.concatenate([np.geomspace(b / 10, b * 10, 2_001)
                             for b in (1e-11, 1e-4, 1e15)])
    exact = np.concatenate([powers, decades, bounds])
    around = np.concatenate([exact, np.nextafter(exact, 0),
                             np.nextafter(exact, np.inf)])
    special = np.concatenate([
        [0.0, math.inf], _bits([0x7FF8_0000_0000_0000, 0xFFF8_0000_0000_0001])])
    yield np.concatenate([around, -around, special, -special[:2]])


def test_array_texts_are_the_cell_rules_texts():
    """One orjson call per array column gives, cell for cell, the text of
    the rules it replaces: ``str`` for CSV and ``json.dumps`` with
    'inf'/'-inf' for JSON.  An orjson whose layout changes fails here."""
    for col in _layout_floats():
        values = col.tolist()
        assert oqmetro.cli._texts(oqmetro.cli._csv_cells, col) == list(
            map(str, values))
        # json.dumps of the list writes each cell as json.dumps of it
        cells = json.dumps([reference_fmt(v) for v in values],
                           separators=(",", ":"))
        assert oqmetro.cli._texts(oqmetro.cli._json_cells, col) == cells[
            1:-1].split(",")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_file_is_replaced_whole_or_left_as_it_was(tmp_path, fmt):
    """With a path, blocks go to a temporary file beside the target: a
    block that raises leaves the target as it was and no temporary file,
    and a finished table replaces the target with the stdout bytes."""
    target = tmp_path / f"table.{fmt}"
    target.write_text("earlier output\n")
    header, blocks = ["x", "y"], [[(1.0, 2.0), [3.0, -0.0]], [("a",), [None]]]

    def refused():
        yield blocks[0]
        # the first block's text has gone to a temporary file, not memory
        assert [p.suffix for p in tmp_path.iterdir() if p != target] == [".tmp"]
        raise ValueError("refused block")

    with pytest.raises(ValueError, match="refused block"):
        _write_table(str(target), fmt, "t", header, refused())
    assert target.read_text() == "earlier output\n"
    assert list(tmp_path.iterdir()) == [target]
    _write_table(str(target), fmt, "t", header, iter(blocks))
    assert target.read_text() == _written(fmt, header, blocks)
    assert list(tmp_path.iterdir()) == [target]


def test_out_through_a_symlink_replaces_the_file_it_names(tmp_path):
    """The link stays a link, and the file keeps its permission bits."""
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("earlier output\n")
    real.chmod(0o640)
    link.symlink_to(real)
    blocks = [[(1.0, 2.0), [3.0]]]
    _write_table(str(link), "csv", "t", ["x", "y"], iter(blocks))
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text() == _written("csv", ["x", "y"], blocks)
    assert stat.S_IMODE(real.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


def test_out_to_a_device_is_written_in_place():
    """A device cannot be replaced by a file: its text is written to it."""
    master, terminal = os.openpty()
    try:
        tty.setraw(terminal)
        name = os.ttyname(terminal)
        blocks = [[(1.0, 2.0), [3.0]]]
        _write_table(name, "csv", "t", ["x", "y"], iter(blocks))
        assert stat.S_ISCHR(os.stat(name).st_mode)
        want = _written("csv", ["x", "y"], blocks).encode()
        got = b""
        while len(got) < len(want) and select.select([master], [], [], 5)[0]:
            got += os.read(master, len(want))
    finally:
        os.close(master)
        os.close(terminal)
    assert got == want

