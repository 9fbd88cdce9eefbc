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

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table=tables(), fmt=st.sampled_from(("csv", "json")))
def test_block_writer_matches_the_row_writer(table, fmt):
    header, blocks, rows = table
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_table(None, fmt, "t", header, iter(blocks))
    assert out.getvalue() == reference_table(fmt, "t", header, rows)

