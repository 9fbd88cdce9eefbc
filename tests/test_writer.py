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
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_outputs import COMMANDS
import oqmetro.cli
from oqmetro.cli import SCHEMA_VERSION, _write_table


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
# an array column's cells: -0.0 next to 0.0, and nan of two payloads
ARRAY_FLOATS = st.sampled_from(EDGE_FLOATS + (
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
    A list may be a 1-d float ndarray instead, of ``ARRAY_FLOATS`` cells.
    The writer reads the inner points off the shortest list, so a block
    of more than one outer row and point holds an inner list whenever it
    holds a flat one, and a block without lists is one point per row.
    """
    header = draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=5,
                           unique=True))
    previous = [None] * len(header)
    blocks, rows = [], []
    for _ in range(draw(st.integers(0, 4))):
        kinds = [draw(st.sampled_from(("outer", "inner", "grid", "cell",
                                       "again"))) for _ in header]
        outer = draw(st.integers(0, 3)) if "outer" in kinds else 1
        inner = draw(st.integers(0, 4))
        roles, reused = [], []
        for kind, before in zip(kinds, previous):
            again = (kind == "again" and isinstance(before, (list, np.ndarray))
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
        block = []
        for role, again, before in zip(roles, reused, previous):
            if again:
                block.append(before)
            elif role == "cell":
                block.append(draw(CELLS))
            elif role != "outer" and draw(st.booleans()):
                block.append(np.array(draw(st.lists(
                    ARRAY_FLOATS, min_size=sizes[role], max_size=sizes[role]))))
            else:
                cells = draw(st.lists(CELLS, min_size=sizes[role],
                                      max_size=sizes[role]))
                block.append(tuple(cells) if role == "outer" else cells)
        for o in range(outer):
            for p in range(inner):
                rows.append(tuple(
                    col[o] if role == "outer" else col[p] if role == "inner"
                    else col[o * inner + p] if role == "grid" else col
                    for col, role in zip(block, roles)))
        blocks.append(block)
        previous = block
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



def test_distinct_negativity_values_formatted_once(monkeypatch):
    """On the benchmark map the CSV rule formats each block's distinct
    negativity values once: 16,315 of the 24,336 cells."""
    seen = []
    texts = oqmetro.cli._texts

    def counted(rule, col):
        if not isinstance(col, np.ndarray):
            return texts(rule, col)

        def rule_seen(values):
            seen.append(len(values))
            return rule(values)

        return texts(rule_seen, col)

    monkeypatch.setattr(oqmetro.cli, "_texts", counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert oqmetro.cli.main(list(COMMANDS["advantage-map"])) == 0
    assert len(seen) == 6 and sum(seen) == 16315


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

