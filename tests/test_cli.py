import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cells, probe
from test_outputs import COMMANDS as OUTPUT_COMMANDS
import oqmetro.cli
import oqmetro.fisher
import oqmetro.oq
from oqmetro.cli import (
    ESTIMATE_FIELDS,
    _estimate_rows,
    _write_table,
    build_parser,
    main,
    parse_values,
)
from oqmetro.estimation import TrialConfig, run_trials
from oqmetro.fisher import advantage, oqfi, qfi_pure
from oqmetro.measurement import (
    bloch_povm,
    build_hovm,
    busch_compatible,
    hovm_is_povm,
    mutually_unbiased_pair,
    sequential_povm,
)
from oqmetro.oq import POSITIVITY_TOL, negativity, oq_values
from oqmetro.probe import Target, amplitudes


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# oqmetro-csv v1")
    reader = csv.DictReader(lines[1:])
    return list(reader)


class TestParsing:
    def test_single_value(self):
        assert parse_values("0.5") == [0.5]

    def test_pi_arithmetic(self):
        assert parse_values("pi/2") == [math.pi / 2]
        assert parse_values("-pi/4,+2*pi-1") == [-math.pi / 4, 2 * math.pi - 1]

    def test_comma_list(self):
        assert parse_values("0,pi/6,pi/4") == [0.0, math.pi / 6, math.pi / 4]

    def test_range(self):
        vals = parse_values("0:1:0.25")
        np.testing.assert_allclose(vals, [0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("spec", [
        "().__class__", "__import__('os')", "2**3", "1j", "True", "pi()",
        "1/0", "x", "", "1 if 1 else 0", "[1]",
        pytest.param("-" * 10_000 + "1", id="nested-too-deep"),
    ])
    def test_rejects_anything_but_arithmetic(self, spec):
        with pytest.raises(ValueError):
            parse_values(spec)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.text(alphabet="0123456789.+-*/()pie_ jx,", max_size=20))
    def test_any_text_parses_or_raises_value_error(self, spec):
        try:
            vals = parse_values(spec)
        except ValueError:
            return
        assert all(isinstance(v, float) for v in vals)

    def test_non_arithmetic_argument_exits_2(self, capsys):
        assert main(["advantage-map", "--lambda", "().__class__"]) == 2
        assert "not a number" in capsys.readouterr().err

    def test_range_length_is_bounded(self, monkeypatch):
        monkeypatch.setattr(oqmetro.cli, "MAX_RANGE_POINTS", 10)
        assert len(parse_values("0:10:1")) == 11
        with pytest.raises(ValueError, match="more than 10 points"):
            parse_values("0:10.5:1")

    @pytest.mark.parametrize("spec", ["0:inf:1", "0:1:nan", "-inf:0:1",
                                      "0:1:inf"])
    def test_non_finite_range_is_refused(self, spec):
        with pytest.raises(ValueError, match="is not finite"):
            parse_values(spec)

    def test_overlong_range_exits_2_at_once(self, capsys):
        # about 3e12 points: refused before anything is allocated
        start = time.perf_counter()
        assert main(["advantage-map", "--theta", "0:3:1e-12"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "more than 1000000 points" in capsys.readouterr().err

    def test_grid_size_is_bounded(self, monkeypatch, capsys):
        monkeypatch.setattr(oqmetro.cli, "MAX_RANGE_POINTS", 10)
        # 5 x 2 x 1 and 5 x 2 points pass
        assert main(["fi-sweep", "--lambda", "0:0.8:0.2", "--theta", "1,2"]) == 0
        assert main(["advantage-map", "--theta", "0.2:1:0.2",
                     "--phi", "0,1"]) == 0
        capsys.readouterr()

        def no_grid(*args):
            raise AssertionError("built before the grid size was checked")

        monkeypatch.setattr(oqmetro.cli, "check_angles", no_grid)
        # no range exceeds the bound, but 3 x 2 x 2 and 3 x 4 points do
        assert main(["fi-sweep", "--lambda", "0:0.4:0.2", "--theta", "1,2",
                     "--phi", "0,1"]) == 2
        assert main(["advantage-map", "--theta", "0.5:1.5:0.5",
                     "--phi", "0.2:0.8:0.2"]) == 2
        err = capsys.readouterr().err
        assert err.count("error: grid has more than 10 points") == 2

    def test_overlong_grid_exits_2_at_once(self, capsys):
        # two ranges of 1,000,001 points each, so a grid of about 1e12
        start = time.perf_counter()
        assert main(["advantage-map", "--theta", "0:3:3e-6",
                     "--phi", "0:3:3e-6"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "grid has more than 1000000 points" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["0:1", "0:1:0.1:2", ":"])
    def test_malformed_range_names_its_form(self, spec):
        with pytest.raises(ValueError, match="expected start:stop:step"):
            parse_values(spec)

    @pytest.mark.parametrize("argv,form", [
        (["fi-sweep", "--lambda", "0:1"], "start:stop:step"),
        (["estimate", "--n", "100", "--trials", "2", "--domain", "0.7"],
         "lo:hi"),
        (["estimate", "--n", "100", "--trials", "2", "--domain", "0:1:2"],
         "lo:hi"),
    ])
    def test_malformed_range_argument_exits_2(self, capsys, argv, form):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"expected {form}, got" in err
        assert "unpack" not in err


class TestFiSweep:
    def test_polar_qfi_column_constant(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "fi-sweep", "--target", "theta", "--theta", "pi/2",
            "--phi", "0,pi/6,pi/4,pi/3", "--lambda", "0:0.6:0.1",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert all(float(r["qfi"]) == pytest.approx(1.0, abs=1e-12) for r in rows)

    def test_azimuthal_qfi_reference(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "fi-sweep", "--target", "phi", "--theta", "7*pi/10",
            "--phi", "pi/4", "--lambda", "0:0.5:0.25", "--out", str(out),
        ]) == 0
        for r in read_csv(out):
            assert float(r["qfi"]) == pytest.approx(0.654, abs=1e-3)

    def test_closed_form_point(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["fi-sweep", "--theta", "pi/2", "--phi", "0",
              "--lambda", "0.5", "--out", str(out)])
        (row,) = read_csv(out)
        assert float(row["oqfi"]) == pytest.approx(1 / 3, abs=1e-12)
        assert row["positive"] == "True"

    def test_negative_region_leaves_oqfi_empty(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["fi-sweep", "--theta", "pi/4", "--phi", "0",
              "--lambda", "1.0", "--out", str(out)])
        (row,) = read_csv(out)
        assert row["positive"] == "False"
        assert row["oqfi"] == ""
        assert float(row["negativity"]) > 0.2

    def test_divergence_renders_inf_token(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["fi-sweep", "--theta", "pi/2", "--phi", "0",
              "--lambda", "1.0", "--out", str(out)])
        (row,) = read_csv(out)
        assert row["oqfi"] == "inf"

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        main(["fi-sweep", "--theta", "pi/2", "--phi", "0",
              "--lambda", "1.0", "--format", "json", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["schema"].startswith("oqmetro-csv v1")
        assert payload["rows"][0]["oqfi"] == "inf"


def per_lambda_sweep(argv):
    """The fi-sweep table as the earlier per-sharpness loop wrote it: one
    measurement build and one kernel call per sharpness value."""
    args = build_parser().parse_args(argv)
    target = Target.POLAR if args.target == "theta" else Target.AZIMUTHAL
    grid = np.meshgrid(parse_values(args.theta), parse_values(args.phi),
                       indexing="ij")
    theta, phi = (g.ravel() for g in grid)
    psi, dpsi = amplitudes(theta, phi, target)
    thetas, phis = theta.tolist(), phi.tolist()
    qfi = qfi_pure(psi, dpsi).tolist()
    blocks = []
    for lam in parse_values(args.lam):
        a, b = mutually_unbiased_pair(lam)
        w = build_hovm(a, b, sequential_povm(a, b))
        neg = negativity(oq_values(w, psi))
        positive = neg <= POSITIVITY_TOL
        info = oqfi(*cells(w, psi[:, positive], dpsi[:, positive]))
        gapped = np.empty(positive.shape, dtype=object)  # all None
        gapped[positive] = info
        blocks.append([lam, thetas, phis, args.target, gapped.tolist(),
                       qfi, neg.tolist(), positive.tolist()])
    _write_table(None, args.format, "fi-sweep",
                 ["lambda", "theta", "phi", "target", "oqfi", "qfi",
                  "negativity", "positive"], blocks)


class TestFiSweepStack:
    """The stacked sweep writes what one build per sharpness value wrote."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("target", ["theta", "phi"])
    @pytest.mark.parametrize("grid", [
        ["--lambda", "0:1:0.05", "--theta", "0:pi:0.3", "--phi", "0:6.2:0.4"],
        ["--lambda=-0.9,0,0.7071067801865476,0.7071067821865476,0.995,1",
         "--theta", "0,0.1,pi/4,pi/2,pi", "--phi", "0,pi/3,2*pi-0.01"],
        ["--lambda=-1:1:0.25", "--theta", "pi/2", "--phi", "0"],
        ["--lambda", "0.5", "--theta", "0.2:3:0.7", "--phi", "1.1"],
        ["--lambda", "1:0:0.1", "--theta", "0.2,0.4"],
        ["--lambda", "0.3,0.9", "--theta", "1:0:0.1"],
        # more sharpness values than one kernel call takes
        ["--lambda", "0:1:0.0002", "--theta", "pi/2", "--phi", "0"],
    ], ids=["ranges", "edges", "one-point", "one-lambda", "no-lambda",
            "no-point", "chunk-edge"])
    def test_matches_per_lambda_loop(self, capsys, grid, target, fmt):
        argv = ["fi-sweep", "--target", target, "--format", fmt] + grid
        per_lambda_sweep(argv)
        want = capsys.readouterr().out.splitlines(keepends=True)
        assert main(argv) == 0
        # lists of lines: pytest reports the first differing line at once
        assert capsys.readouterr().out.splitlines(keepends=True) == want

    def test_measurements_built_once_per_run(self, monkeypatch, capsys):
        calls = {"sequential_povm": 0, "build_hovm": 0}
        for name in calls:
            def counted(*args, name=name, build=getattr(oqmetro.cli, name)):
                calls[name] += 1
                return build(*args)

            monkeypatch.setattr(oqmetro.cli, name, counted)
        assert main(["fi-sweep", "--theta", "0.5,1.5", "--phi", "0,1"]) == 0
        assert calls == {"sequential_povm": 1, "build_hovm": 1}

    # stdout, stderr and exit code as the per-sharpness loop gave them
    @pytest.mark.parametrize("argv, out, err, code", [
        (["--lambda", "0:1.2:0.1"], "", "error: Bloch norm 1.100000 > 1\n", 2),
        (["--lambda=-0.5"],
         "# oqmetro-csv v1 fi-sweep\n"
         "lambda,theta,phi,target,oqfi,qfi,negativity,positive\n"
         "-0.5,1.5707963267948966,0.0,theta,0.33333333333333315,1.0,0.0,True\n",
         "", 0),
        (["--lambda", "1.0"],
         "# oqmetro-csv v1 fi-sweep\n"
         "lambda,theta,phi,target,oqfi,qfi,negativity,positive\n"
         "1.0,1.5707963267948966,0.0,theta,inf,1.0,0.0,True\n",
         "", 0),
    ], ids=["norm-exceeded", "negative-sharpness", "infinite-oqfi"])
    def test_refusal_and_edge_rows_are_unchanged(self, capsys, argv, out, err,
                                                 code):
        assert main(["fi-sweep"] + argv) == code
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_refused_later_block_writes_nothing(self, tmp_path, capsys, fmt,
                                                to_file):
        # 4 sharpness values per block of 961 probe points: the blocks up to
        # lambda 1.0 are fine, and the one holding 1.01 is refused
        argv = ["fi-sweep", "--lambda", "0:1.2:0.01", "--theta", "0:3:0.1",
                "--phi", "0:3:0.1", "--format", fmt]
        out = tmp_path / f"sweep.{fmt}"
        assert main(argv + (["--out", str(out)] if to_file else [])) == 2
        assert capsys.readouterr() == ("", "error: Bloch norm 1.010000 > 1\n")
        assert not out.exists()


def _same_cell(text, value):
    """Whether a CSV cell and a JSON cell hold the same value."""
    if value is None:
        return text == ""
    if isinstance(value, (bool, str)):  # a bool, a token or 'inf'/'-inf'
        return text == str(value)
    return float(text) == value


class TestFormats:
    @pytest.mark.parametrize("stem", ["smoke-advantage-map", "smoke-fi-sweep"])
    def test_json_rows_match_csv_rows(self, capsys, stem):
        argv = list(OUTPUT_COMMANDS[stem])
        assert main(argv + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert main(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == lines[0].removeprefix("# ")
        csv_rows = list(csv.DictReader(lines[1:]))
        assert len(payload["rows"]) == len(csv_rows) > 0
        for csv_row, json_row in zip(csv_rows, payload["rows"]):
            assert list(json_row) == list(csv_row)
            for key, text in csv_row.items():
                assert _same_cell(text, json_row[key]), (key, text)


class TestAdvantageMap:
    def test_break_even_cell(self, tmp_path):
        out = tmp_path / "map.csv"
        lam = math.sqrt(2 / 3)
        main(["advantage-map", "--lambda", repr(lam), "--theta", "pi/2",
              "--phi", "0", "--out", str(out)])
        (row,) = read_csv(out)
        assert float(row["advantage"]) == pytest.approx(0.0, abs=1e-12)

    def test_compatible_region_bounded(self, tmp_path):
        out = tmp_path / "map.csv"
        main(["advantage-map", "--lambda", "0.6",
              "--theta", "0.3:2.8:0.5", "--phi", "0.3:2.8:0.5",
              "--out", str(out)])
        for row in read_csv(out):
            if row["advantage"]:
                assert float(row["advantage"]) <= math.log10(0.5) + 1e-9

    def test_sharp_grid_has_advantage_next_to_negativity(self, tmp_path):
        out = tmp_path / "map.csv"
        main(["advantage-map", "--lambda", "0.99",
              "--theta", "0.1:3.0:0.1", "--phi", "0.1:3.0:0.1",
              "--out", str(out)])
        rows = read_csv(out)
        assert any(r["advantage"] and float(r["advantage"]) > 0 for r in rows)
        assert any(r["advantage"] == "" for r in rows)
        # blue (negative-advantage) cells are still written
        assert any(r["advantage"] and float(r["advantage"]) < 0 for r in rows)

    def test_zero_qfi_cells_stay_empty(self, tmp_path):
        # the azimuthal quantum information vanishes at the pole theta=0
        out = tmp_path / "map.csv"
        assert main(["advantage-map", "--target", "phi", "--theta", "0,0.5",
                     "--phi", "0.3", "--lambda", "0.5",
                     "--out", str(out)]) == 0
        pole, other = read_csv(out)
        assert pole["advantage"] == "" and float(pole["negativity"]) <= 1e-10
        assert float(other["advantage"]) < 0

    def test_out_of_range_angle_exits_2(self, capsys):
        assert main(["advantage-map", "--theta", "0.5,4", "--phi", "0"]) == 2
        assert "theta=4.0 outside [0, pi]" in capsys.readouterr().err

    def test_each_row_evaluated_once(self, monkeypatch, capsys):
        calls = dict.fromkeys(("amplitudes", "oq_values", "qfi_pure",
                               "oq_slopes"), 0)
        # wherever a name is bound, so calls made inside fisher count too
        for module in (oqmetro.cli, oqmetro.fisher):
            for name in calls:
                if not hasattr(module, name):
                    continue

                def counted(*args, name=name, fn=getattr(module, name)):
                    calls[name] += 1
                    return fn(*args)

                monkeypatch.setattr(module, name, counted)
        argv = ["advantage-map", "--lambda", "0.99", "--theta",
                "0.5,1.0,1.5", "--phi", "0.1:3.0:0.1"]
        # 3 rows of 30 points fit in one block at the default budget
        assert main(argv) == 0
        assert calls == {"amplitudes": 1, "oq_values": 1, "qfi_pure": 1,
                         "oq_slopes": 1}
        # 2 rows per block: ceil(3 / 2) kernel calls
        calls.update(dict.fromkeys(calls, 0))
        monkeypatch.setattr(oqmetro.oq, "BLOCK_POINTS", 60)
        assert main(argv) == 0
        assert calls == {"amplitudes": 2, "oq_values": 2, "qfi_pure": 2,
                         "oq_slopes": 2}

    def test_information_only_at_positive_points(self, monkeypatch, capsys):
        # cell slopes and quantum information are computed only where the
        # advantage can be defined: 8,051 of the benchmark map's 24,336
        # points.  Kets come with their slopes, at every point
        points = dict.fromkeys(("qfi_pure", "oq_slopes", "amplitudes"), 0)
        for name in points:

            def counted(*args, name=name, fn=getattr(oqmetro.cli, name)):
                # the points of kets built with their slopes (given a
                # target), else dpsi's points
                points[name] += (math.prod(args[-1].shape[1:])
                                 if name != "amplitudes"
                                 else np.broadcast(*args[:2]).size
                                 if len(args) == 3 else 0)
                return fn(*args)

            monkeypatch.setattr(oqmetro.cli, name, counted)
        assert main(list(OUTPUT_COMMANDS["advantage-map"])) == 0
        assert points == {"qfi_pure": 8051, "oq_slopes": 8051,
                          "amplitudes": 24336}

    @pytest.mark.parametrize("target, theta, zero_qfi", [
        (Target.POLAR, "0.02:3.12:0.03", 0),
        (Target.AZIMUTHAL, "0.02:3.12:0.03", 0),
        # the poles are positive points where the azimuthal QFI vanishes:
        # 94 at theta = 0 and 94 at theta = pi
        (Target.AZIMUTHAL, "0:pi:pi/40", 188),
    ], ids=["theta", "phi", "phi-poles"])
    def test_advantage_is_the_per_point_value_bit_for_bit(self, capsys, target,
                                                          theta, zero_qfi):
        # the information chain runs on kets built at the positive points;
        # masked kets psi[:, defined], which are not C-contiguous, can move
        # the last bit of a cell slope and so of the advantage.  A cell is
        # empty exactly where the point is negative or its QFI vanishes.
        argv = ["advantage-map", "--target", target.value, "--lambda", "0.995",
                "--theta", theta, "--phi", "0.02:3.12:0.03"]
        assert main(argv) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()[1:]))
        assert any(float(r["negativity"]) > POSITIVITY_TOL for r in rows)
        a, b = mutually_unbiased_pair(0.995)
        w = build_hovm(a, b, sequential_povm(a, b))
        got, want, vanished = [], [], 0
        for row in rows:
            if float(row["negativity"]) > POSITIVITY_TOL:
                assert row["advantage"] == ""
                continue
            psi, dpsi = probe(float(row["theta"]), float(row["phi"]), target)
            qfi = qfi_pure(psi, dpsi)
            if qfi <= 0:
                assert row["advantage"] == ""
                vanished += 1
                continue
            got.append(float(row["advantage"]))
            want.append(advantage(*cells(w, psi, dpsi), qfi))
        assert len(got) > 1000
        assert vanished == zero_qfi
        assert np.array_equal(np.array(got).view(np.int64),
                              np.array(want).view(np.int64))

    def test_one_writer_block_per_kernel_call(self, monkeypatch, capsys):
        # the benchmark map's 156 theta rows of 156 points make 6 kernel
        # calls of at most 26 rows, and each hands the writer one block
        sizes = []
        write_table = oqmetro.cli._write_table

        def counted(path, fmt, name, header, blocks):
            def seen():
                for block in blocks:
                    sizes.append(len(block[0]) * len(block[1]))
                    yield block

            return write_table(path, fmt, name, header, seen())

        monkeypatch.setattr(oqmetro.cli, "_write_table", counted)
        assert main(list(OUTPUT_COMMANDS["advantage-map"])) == 0
        assert sizes == [26 * 156] * 6

    def test_empty_phi_range_writes_the_header(self, capsys):
        assert main(["advantage-map", "--theta", "0.2,0.4",
                     "--phi", "1:0:0.1"]) == 0
        assert capsys.readouterr().out == (
            "# oqmetro-csv v1 advantage-map\n"
            "theta,phi,advantage,negativity\n")


# Every LEP variance of these runs is 0.0 and -0.2007 respectively.
LEP_ZERO_VARIANCE = [
    "estimate", "--target", "phi", "--lambda", "1.0", "--theta", "pi/2",
    "--phi", "0.5", "--n", "1", "--trials", "3", "--seed", "443",
    "--domain", "0:pi",
]
LEP_NEGATIVE_VARIANCE = [
    "estimate", "--target", "theta", "--lambda", "0.95", "--theta", "pi",
    "--phi", "0.5", "--n", "5", "--trials", "8", "--seed", "22",
    "--domain", "0.2:1.2",
]


class TestEstimate:
    ARGS = [
        "estimate", "--target", "theta", "--lambda", "0.85",
        "--theta", "1.2", "--phi", "1.0", "--n", "2000", "--trials", "4",
        "--seed", "5", "--domain", "0.8:1.6",
    ]

    def test_runs_and_has_advantage_column(self, tmp_path):
        out = tmp_path / "est.csv"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 2
        assert {r["estimator"] for r in rows} == {"mle", "lep"}
        assert all("advantage" in r for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(self.ARGS + ["--out", str(out1)])
        main(self.ARGS + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_polar_domain_off_the_sphere_exits_2(self, capsys):
        code = main([
            "estimate", "--theta", "0.05", "--phi", "0.5", "--n", "2000",
            "--trials", "4", "--domain=-0.5:1.5",
        ])
        assert code == 2
        assert "theta=-0.5 outside [0, pi]" in capsys.readouterr().err

    def test_azimuthal_domain_may_cross_zero(self, tmp_path):
        out = tmp_path / "est.csv"
        assert main([
            "estimate", "--target", "phi", "--lambda", "0.6", "--theta", "1.2",
            "--phi", "0.2", "--n", "5000", "--trials", "6", "--seed", "5",
            "--domain=-0.5:0.5", "--out", str(out),
        ]) == 0
        assert [r["estimator"] for r in read_csv(out)] == ["mle", "lep"]

    def test_negative_point_leaves_its_rows_empty(self, tmp_path, capsys):
        # phi=0.3 is a negative-OQ point, phi=1.0 a positive one
        out = tmp_path / "est.csv"
        code = main([
            "estimate", "--target", "phi", "--lambda", "0.9", "--theta", "1.2",
            "--phi", "0.3,1.0", "--domain=-0.5:1.5", "--n", "10000",
            "--trials", "20", "--seed", "3", "--out", str(out),
        ])
        assert code == 3
        assert "point theta=1.2 phi=0.3: negativity" in capsys.readouterr().err
        rows = read_csv(out)
        assert [(r["phi0"], r["estimator"]) for r in rows] == [
            ("0.3", "mle"), ("0.3", "lep"), ("1.0", "mle"), ("1.0", "lep"),
        ]
        results = ("mean_estimate", "emp_var", "pred_var", "omission_rate",
                   "ratio", "advantage")
        for r in rows[:2]:
            assert (r["target"], r["theta0"], r["lambda"], r["n"], r["trials"]) == (
                "phi", "1.2", "0.9", "10000", "20")
            assert all(r[k] == "" for k in results)
        assert all(r[k] != "" for r in rows[2:] for k in r)

    def test_lep_omits_trials_without_usable_slope(self, tmp_path):
        # the parity mean is even in phi, so its slope vanishes at phi=0
        # inside the domain; a trial whose standard error is wider than the
        # domain is omitted instead of inflating the predicted variance
        out = tmp_path / "est.csv"
        assert main([
            "estimate", "--target", "phi", "--lambda", "0.6", "--theta", "1.2",
            "--phi", "0.2", "--domain=-0.5:0.5", "--n", "5000", "--trials", "6",
            "--seed", "5", "--out", str(out),
        ]) == 0
        lep = next(r for r in read_csv(out) if r["estimator"] == "lep")
        assert float(lep["omission_rate"]) > 0
        assert float(lep["pred_var"]) < 1

    @pytest.mark.parametrize("argv", [LEP_ZERO_VARIANCE, LEP_NEGATIVE_VARIANCE],
                             ids=["zero", "negative"])
    def test_lep_without_positive_variance_exits_3(self, capsys, argv):
        # the model parity mean m of a quasiprobability can reach or pass 1
        # in magnitude, so the predicted variance (1 - m^2) / (n slope^2) is
        # zero or negative: every LEP trial is omitted, and the point keeps
        # its rows with empty result cells
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert "lep: fewer than 2 trials completed" in err
        assert "Traceback" not in err
        rows = list(csv.DictReader(out.splitlines()[1:]))
        assert [r["estimator"] for r in rows] == ["mle", "lep"]
        assert all(r[k] == "" for r in rows for k in ESTIMATE_FIELDS[7:])

    def test_empty_range_exits_2(self):
        assert main(["estimate", "--theta", "1:0:0.1", "--phi", "0",
                     "--n", "100", "--trials", "2"]) == 2

    @pytest.mark.parametrize("extra", [[], ["--inject-expected"]])
    def test_zero_samples_is_config_error(self, capsys, extra):
        code = main([
            "estimate", "--lambda", "0.9", "--theta", "1.0", "--phi", "2.3",
            "--trials", "3", "--domain", "0.7:1.3", "--n", "0",
        ] + extra)
        assert code == 2
        assert "n must be positive" in capsys.readouterr().err

    def test_json_cells_keep_their_types(self, tmp_path):
        out = tmp_path / "est.json"
        assert main(self.ARGS + ["--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["estimator"] for r in rows] == ["mle", "lep"]
        for r in rows:
            assert list(r) == ESTIMATE_FIELDS
            assert r["target"] == "theta"
            assert type(r["n"]) is int and type(r["trials"]) is int
            assert all(type(r[k]) is float for k in ESTIMATE_FIELDS[7:])
            assert (r["theta0"], r["phi0"], r["lambda"]) == (1.2, 1.0, 0.85)

    def test_json_cells_of_a_failed_point_are_null(self, tmp_path):
        out = tmp_path / "est.json"
        assert main([
            "estimate", "--lambda", "1.0", "--theta", "pi/2", "--phi", "0",
            "--n", "1000", "--trials", "4", "--seed", "1",
            "--domain", "1.2:2.0", "--format", "json", "--out", str(out),
        ]) == 3
        for r in json.loads(out.read_text())["rows"]:
            assert r["n"] == 1000 and r["lambda"] == 1.0
            assert all(r[k] is None for k in ESTIMATE_FIELDS[7:])

    def test_csv_rows_schema(self):
        cfg = TrialConfig(1.2, 1.0, Target.POLAR, 0.85, 2000, 5, 99,
                          domain=(0.8, 1.6))
        rows = _estimate_rows(cfg, run_trials(cfg))
        assert len(rows) == 2
        assert rows[0][6] == "mle" and rows[1][6] == "lep"
        assert all(len(r) == len(ESTIMATE_FIELDS) == 13 for r in rows)
        empty = _estimate_rows(cfg, None)
        assert [r[:7] for r in empty] == [r[:7] for r in rows]
        assert all(v is None for r in empty for v in r[7:])

    def test_single_trial_is_config_error(self, tmp_path):
        code = main([
            "estimate", "--lambda", "0.85", "--theta", "1.2", "--phi", "1.0",
            "--n", "100", "--trials", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_all_omitted_exits_3(self, tmp_path, capsys):
        # full sharpness at the equator: two cells are exactly zero and the
        # assembled counts fluctuate negative in essentially every trial
        out = tmp_path / "x.csv"
        code = main([
            "estimate", "--lambda", "1.0", "--theta", "pi/2", "--phi", "0",
            "--n", "1000", "--trials", "4", "--seed", "1",
            "--domain", "1.2:2.0", "--out", str(out),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "fewer than 2 trials completed" in err
        # the omitted trials are counted per cause
        assert "mle: fewer than 2 trials completed (4 negative W-counts)" in err
        rows = read_csv(out)
        assert [r["estimator"] for r in rows] == ["mle", "lep"]
        assert all(r["mean_estimate"] == r["advantage"] == "" for r in rows)

    def test_domain_narrower_than_half_a_grid_step_exits_2(self, capsys):
        # a one-point grid would give every trial the same estimate
        code = main([
            "estimate", "--lambda", "0.85", "--theta", "1.2", "--phi", "1.0",
            "--n", "2000", "--trials", "5", "--seed", "4",
            "--domain", "1.2:1.2004",
        ])
        assert code == 2
        assert "narrower than half the grid step" in capsys.readouterr().err

    @pytest.mark.parametrize("domain", ["1:0", "1.2:1.2"])
    def test_empty_domain_exits_2(self, capsys, domain):
        code = main(["estimate", "--lambda", "0.85", "--theta", "1.2",
                     "--phi", "1.0", "--n", "2000", "--trials", "5",
                     "--domain", domain])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: domain must be a nondegenerate interval\n")

    def test_n_beyond_int64_exits_2(self, capsys):
        argv = ["estimate", "--n", "99999999999999999999", "--trials", "2"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "n must be at most 9223372036854775807" in err

    def test_trials_over_all_points_bounded(self, monkeypatch, capsys):
        monkeypatch.setattr(oqmetro.cli, "MAX_RANGE_POINTS", 10)
        argv = ["estimate", "--lambda", "0.85", "--theta", "1.2,1.3",
                "--phi", "1.0", "--n", "2000", "--seed", "5",
                "--domain", "0.8:1.6", "--trials"]
        assert main(argv + ["6"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "more than 10 trials in all" in err
        assert main(argv + ["5"]) == 0

    @pytest.mark.parametrize("domain", ["0:1e6", "-inf:1"])
    def test_phi_domain_beyond_one_period_exits_2(self, capsys, domain):
        assert main(["estimate", "--target", "phi", "--lambda", "0.85",
                     "--theta", "1.2", "--phi", "1.0", "--n", "2000",
                     "--trials", "3", f"--domain={domain}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "phi domain" in err

    def test_phi_domain_of_one_period_is_searched(self, capsys):
        assert main(["estimate", "--target", "phi", "--lambda", "0.85",
                     "--theta", "1.2", "--phi", "1.0", "--n", "2000",
                     "--trials", "3", "--seed", "5",
                     "--domain", "0:2*pi"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [r.split(",")[6] for r in rows] == ["mle", "lep"]

    @pytest.mark.parametrize("argv,why", [
        (["--target", "theta", "--lambda", "0.5", "--theta", "1.2", "--phi",
          "2.3", "--domain=0.2:1.2", "--n", "1"],
         "lep: injection evaluation omitted: standard error wider than the domain"),
        (["--target", "theta", "--lambda", "0.99", "--theta", "pi", "--phi",
          "0.5", "--domain=0.7:1.3", "--n", "10000"],
         "lep: injection evaluation omitted: no positive predicted variance"),
        (["--target", "phi", "--lambda", "0.3", "--theta", "1.0", "--phi",
          "2.3", "--domain=-0.5:0.5", "--n", "2000"],
         "mle: injection evaluation omitted: flat likelihood"),
        (["--target", "phi", "--lambda", "1.0", "--theta", "pi/2", "--phi",
          "0", "--domain=0:pi", "--n", "2000"],
         # rounding leaves no negative W-count; the parity mean is +-1
         "lep: injection evaluation omitted: no positive predicted variance"),
    ], ids=["too-wide", "no-variance", "flat", "rounding"])
    def test_inject_refusal_names_its_rule(self, capsys, argv, why):
        # the single noiseless evaluation says which rule omitted it
        assert main(["estimate", *argv, "--trials", "2",
                     "--inject-expected"]) == 3
        out, err = capsys.readouterr()
        assert err.endswith(f": {why}\n") and err.count("\n") == 1
        rows = list(csv.DictReader(out.splitlines()[1:]))
        assert all(r[k] == "" for r in rows for k in ESTIMATE_FIELDS[7:])

    def test_inject_expected_matches_advantage(self, tmp_path):
        out = tmp_path / "est.csv"
        main(self.ARGS + ["--inject-expected", "--out", str(out)])
        rows = read_csv(out)
        mle = next(r for r in rows if r["estimator"] == "mle")
        assert float(mle["ratio"]) == pytest.approx(float(mle["advantage"]),
                                                    abs=1e-3)


class TestCompat:
    def test_incompatible_pair(self, capsys):
        assert main(["compat", "--mu", "0,0,0.9", "--nu", "0.9,0,0"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["busch"] is False
        assert verdict["hovm_povm"] is False
        assert verdict["boundary_lambda"] == pytest.approx(
            1 / math.sqrt(2), abs=1e-6
        )

    def test_boundary_is_the_closed_form(self, capsys):
        # 1/sqrt(2) to the last digit, as the README example shows
        assert main(["compat", "--mu", "0,0,0.9", "--nu", "0.9,0,0"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["boundary_lambda"] == math.sqrt(0.5)

    def test_compatible_pair(self, capsys):
        assert main(["compat", "--mu", "0,0,0.5", "--nu", "0.5,0,0"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["busch"] is True and verdict["hovm_povm"] is True

    def test_predicates_always_agree(self, capsys):
        rng = np.random.default_rng(8)
        for _ in range(25):
            v = rng.normal(size=3)
            v = v / np.linalg.norm(v) * rng.uniform(0, 1)
            u = rng.normal(size=3)
            u = u / np.linalg.norm(u) * rng.uniform(0, 1)
            mu = ",".join(str(float(x)) for x in v)
            nu = ",".join(str(float(x)) for x in u)
            assert main(["compat", f"--mu={mu}", f"--nu={nu}"]) == 0
            verdict = json.loads(capsys.readouterr().out)
            assert verdict["busch"] == verdict["hovm_povm"]

    @pytest.mark.parametrize("lam", ["0.70710678119", "0.7071067812",
                                     "0.7071067813"])
    def test_just_past_the_boundary_agrees(self, capsys, lam):
        # within the PSD tolerance of 1/sqrt(2): both predicates accept
        assert main(["compat", "--mu", f"0,0,{lam}", "--nu", f"{lam},0,0"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["busch"] is True and verdict["hovm_povm"] is True

    @pytest.mark.parametrize("size", ["1e-160", "1e-200", "1e-300"])
    def test_boundary_of_tiny_vectors(self, capsys, size):
        # the squares of these entries underflow; the boundary depends on
        # the directions only
        assert main(["compat", "--mu", f"{size},0,0", "--nu", f"0,{size},0"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["boundary_lambda"] == math.sqrt(0.5)

    def test_norm_violation_exits_2(self):
        assert main(["compat", "--mu", "1.2,0,0", "--nu", "0,0,0.5"]) == 2

    @pytest.mark.parametrize("mu, nu, shown", [
        ("1.2,0,0", "0,0,0.5", "1.200000"),
        ("0,0,0.5", "1.2,0,0", "1.200000"),
        ("0,0,0.5", "0.8,0.8,0", "1.131371"),
        ("1.2,0,0", "0.8,0.8,0", "1.200000"),
    ], ids=["mu", "nu", "nu-2", "both"])
    def test_norm_violation_names_the_norm(self, capsys, mu, nu, shown):
        assert main(["compat", f"--mu={mu}", f"--nu={nu}"]) == 2
        assert capsys.readouterr() == ("", f"error: Bloch norm {shown} > 1\n")

    @pytest.mark.parametrize("argv", [
        ["compat", "--mu", "1e200,0,0", "--nu", "0,0,1"],
        ["fi-sweep", "--lambda", "1e200"],
        ["compat", "--mu", "0,0,1", "--nu", "1e200,0,0"],
    ])
    def test_overflowed_norm_is_refused_with_its_value(self, capsys, argv):
        # the squares overflow; the refusal still shows the finite norm
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: Bloch norm {1e200:.6f} > 1\n")

    @pytest.mark.parametrize("mu, nu", [("0,0,0.9", "0.9,0"),
                                        ("0,0", "0.9,0,0"),
                                        ("0,0,0.9", "0.9,0,0,0"),
                                        ("0,0", "1.2,0,0")])
    def test_unequal_lengths_are_refused_by_name(self, capsys, mu, nu):
        assert main(["compat", f"--mu={mu}", f"--nu={nu}"]) == 2
        assert capsys.readouterr() == (
            "", "error: bloch vector must have 3 components\n")

    @pytest.mark.parametrize("mu, nu", [
        ("-0.4364596652108049,0.4723588508323151,0.2963407900460984",
         "0.33514746273836393,0.03238554791000455,0.6229487472234813"),
        ("-0.6034715229572112,-0.13349306651349346,-0.3950623412989652",
         "0.6579637044731497,0.04364343371752953,-0.32132778533672623"),
    ], ids=["pair-1", "pair-2"])
    def test_one_verdict_within_rounding_of_the_tolerance(self, capsys, mu, nu):
        # pairs whose assembled HOVM fails hovm_is_povm while Busch's closed
        # form of its least eigenvalues passes: compat gives one verdict
        mu_v, nu_v = (np.array(v.split(","), dtype=float) for v in (mu, nu))
        a, b = bloch_povm(mu_v), bloch_povm(nu_v)
        assert busch_compatible(mu_v, nu_v)
        assert not hovm_is_povm(build_hovm(a, b, sequential_povm(a, b)))
        assert main(["compat", f"--mu={mu}", f"--nu={nu}"]) == 0
        out, err = capsys.readouterr()
        verdict = json.loads(out)
        assert verdict["busch"] is True and verdict["hovm_povm"] is True
        assert err == ""


# Token pools for the exit-code contract, as (typical, edge or malformed)
# values per option.  Every list or range holds at most three values, so no
# run exceeds about ten probe points, five trials or 1e4 samples; the huge
# sample and trial counts are refused before anything is sampled.
_ANGLE_EDGES = ("0", "pi", "-0.1", "4", "nan", "inf", "1:0:0.1", "0:1",
                "0:inf:1", "0:1:nan", "0:1:-1", "x", "")
_GRID_OPTIONS = {
    "target": (("theta", "phi"), ()),
    "lambda": (("0.9", "0.8", "pi/4", "0.95", "1.0"),
               ("0", "1", "1.0001", "-0.5", "nan", "inf", "0.5,0.9",
                "0:1:0.5", "0:1", "1/0", "x", "")),
    "theta": (("pi/2", "1.0", "0.5,1.0", "0.6:1.2:0.3"), _ANGLE_EDGES),
    "phi": (("0", "2.3", "0.5,1.0", "0.5:1.5:0.5"),
            _ANGLE_EDGES + ("2*pi", "2*pi-0.01")),
}
_OPTIONS = {
    "fi-sweep": _GRID_OPTIONS,
    "advantage-map": _GRID_OPTIONS,
    "estimate": {
        **_GRID_OPTIONS,
        "n": (("2000", "10000", "1", "5"),
              ("0", "-1", "1", "2", "1e4", "x", "", "99999999999999999999")),
        "trials": (("2", "3", "5"), ("-1", "0", "1", "x",
                                     "99999999999999999999")),
        "seed": (("0", "7", "99999999999999999999999"), ("-1", "x")),
        "domain": (("0.7:1.3", "0:pi", "0.2:2.5"),
                   ("-0.5:0.5", "0.7", "1.2:1.2004", "1.3:0.7", "nan:1",
                    "0:inf", "-3:-1", "0:1:2", "a:b", ":")),
    },
    "compat": {
        "mu": (("0,0,0.9", "0.9,0,0", "0.5,0.5,0"),
               ("0,0,0", "1,0,0", "1.2,0,0", "nan,0,0", "inf,0,0", "0,0",
                "0,0,0,0", "x,0,0", "")),
    },
}
_OPTIONS["compat"]["nu"] = _OPTIONS["compat"]["mu"]


@st.composite
def _commands(draw):
    """A subcommand with a typical value for every option, then zero, one
    or two options replaced by an edge or malformed value."""
    name = draw(st.sampled_from(sorted(_OPTIONS)))
    options = _OPTIONS[name]
    values = {opt: draw(st.sampled_from(good))
              for opt, (good, _) in options.items()}
    faulty = [opt for opt, (_, bad) in options.items() if bad]
    for opt in draw(st.lists(st.sampled_from(faulty), max_size=2, unique=True)):
        values[opt] = draw(st.sampled_from(options[opt][1]))
    argv = [name] + [f"--{opt}={v}" for opt, v in values.items()]
    if name == "estimate" and draw(st.booleans()):
        argv.append("--inject-expected")
    return argv


class TestExitCodeContract:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(argv=_commands())
    @example(argv=["estimate", "--lambda", "0.9", "--theta", "1.0", "--phi",
                   "2.3", "--trials", "3", "--domain", "0.7:1.3", "--n", "0"])
    @example(argv=["estimate", "--lambda", "0.9", "--theta", "1.0", "--phi",
                   "2.3", "--trials", "3", "--domain", "0.7:1.3", "--n", "0",
                   "--inject-expected"])
    @example(argv=LEP_ZERO_VARIANCE)
    @example(argv=LEP_NEGATIVE_VARIANCE)
    def test_every_input_ends_in_a_documented_exit_code(self, argv):
        """0, 2 or 3 from ``main``, or argparse's exit 2; nothing escapes."""
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
                assert code == 2, argv
        assert code in (0, 2, 3), argv

    @pytest.mark.parametrize("argv", [
        ["fi-sweep", "--lambda", "0.5"],
        ["advantage-map", "--theta", "1", "--phi", "1"],
        ["estimate", "--n", "100", "--trials", "2", "--domain", "1.3:1.8"],
        ["compat", "--mu", "0,0,0.9", "--nu", "0.9,0,0"],
    ])
    def test_unwritable_out_path_exits_2(self, tmp_path, capsys, argv):
        # the error names the path given, not a temporary file beside it
        out = tmp_path / "missing" / "x.csv"
        assert main(argv + ["--out", str(out)]) == 2
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.splitlines()[-1] == (
            f"error: [Errno 2] No such file or directory: '{out}'")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["compat", "--mu", "0,0,0.9", "--nu", "-0.9,0,0"],
        ["fi-sweep", "--lambda", "-1:1:0.5"],
        ["fi-sweep", "--theta", "-pi/2"],
    ])
    def test_detached_value_starting_with_minus_exits_2(self, capsys, argv):
        """argparse reads a detached value that starts with "-" and is not a
        plain number as an option, so the README asks for ``--nu=-0.9,0,0``."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


class TestOneParserPerProcess:
    """``build_parser`` is cached, so every ``main`` call of a process
    shares one parser; parsing must leave nothing in it."""

    ESTIMATE = ["estimate", "--lambda", "0.85", "--theta", "1.2", "--phi",
                "1.0", "--n", "2000", "--trials", "4", "--domain", "0.8:1.6"]
    SEQUENCE = [
        ESTIMATE + ["--seed", "5"],
        ESTIMATE,  # the default seed again, not the 5 of the call before
        ["fi-sweep", "--format", "json"],
        ["fi-sweep"],
        ["fi-sweep", "--lambda", "1.5"],  # refused by main: exit 2
        ["fi-sweep", "--format", "xml"],  # refused by argparse: exit 2
        ["fi-sweep", "--lambda", "0.5", "--target", "phi"],
    ]

    @staticmethod
    def run(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    def test_shared_parser_carries_no_state(self, capsys):
        fresh = []
        for argv in self.SEQUENCE:
            build_parser.cache_clear()
            fresh.append(self.run(capsys, argv))
        build_parser.cache_clear()
        parser = build_parser()
        shared = [self.run(capsys, argv) for argv in self.SEQUENCE]
        assert build_parser() is parser
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, 2, 0]
        assert shared == fresh
        assert shared[0][1] != shared[1][1]  # the two seeds draw differently


def loaded_by_cli_import(module: str, *runs: tuple) -> bool:
    """Whether a fresh interpreter has ``module`` loaded after
    ``import oqmetro.cli`` from this checkout and a ``main`` call on each
    of ``runs``, with their output discarded."""
    src = Path(oqmetro.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import contextlib, io, sys, oqmetro.cli\n"
            f"for argv in {[list(r) for r in runs]!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert oqmetro.cli.main(argv) == 0\n"
            f"print({module!r} in sys.modules, oqmetro.cli.__file__)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, path = proc.stdout.split()
    assert Path(path).resolve() == Path(oqmetro.cli.__file__).resolve()
    return loaded == "True"


def test_import_leaves_numpy_random_unimported():
    # numpy.random costs about 13 ms of import; only estimate needs it
    assert not loaded_by_cli_import("numpy.random")


def test_import_leaves_json_unimported():
    # json costs about 2 ms of import; only JSON output and compat need it
    assert not loaded_by_cli_import("json")


def test_lists_only_runs_leave_orjson_unimported():
    # orjson costs about 5 ms of import, json with it; only the array
    # columns of advantage-map need it
    assert not loaded_by_cli_import("orjson", OUTPUT_COMMANDS["smoke-fi-sweep"],
                                    OUTPUT_COMMANDS["smoke-estimate"])
    assert loaded_by_cli_import("orjson",
                                OUTPUT_COMMANDS["smoke-advantage-map"])
