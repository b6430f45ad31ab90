import hashlib
import json
import math
import sys
from contextlib import contextmanager

import pytest

from curvecross.chain import ChainReport
from curvecross.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_USAGE,
    main,
)
from curvecross.curves import load_curve, save_curve
from curvecross.exact import asymptote_ratio, mean_intersections_exact

from _support import circle_at, unit_circle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExact:
    def test_single_value(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--N", "1", "--r", "0")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert (doc["numerator"], doc["denominator"]) == ("512", "225")
        assert doc["approx"] == pytest.approx(512 / 225)

    def test_zero_degree_any_order(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--N", "0", "--r", "3")
        assert code == EXIT_OK
        assert json.loads(out)["numerator"] == "0"

    def test_sweep_csv(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--sweep", "1..10", "--r", "0")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "N,numerator,denominator,approx,asymptote_ratio"
        assert len(lines) == 11
        ratios = [float(line.split(",")[4]) for line in lines[1:]]
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)

    def test_sweep_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "exact", "--sweep", "1..3", "--out", str(out_file))
        assert code == EXIT_OK
        assert len(out_file.read_text().strip().splitlines()) == 4

    def test_requires_target(self, capsys):
        code, _, err = run_cli(capsys, "exact")
        assert code == EXIT_USAGE

    def test_rejects_negative_degree(self, capsys):
        code, _, _ = run_cli(capsys, "exact", "--N", "-3")
        assert code == EXIT_USAGE

    def test_rejects_both_targets(self, capsys):
        code, out, err = run_cli(capsys, "exact", "--N", "3", "--sweep", "1..2")
        assert code == EXIT_USAGE
        assert out == ""
        assert "not both" in err


@contextmanager
def long_int_strings():
    """Let this test convert ints of more than 4300 digits, as the CLI does."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def sweep_rows(out: str) -> list[list[str]]:
    lines = out.strip().splitlines()
    assert lines[0] == "N,numerator,denominator,approx,asymptote_ratio"
    return [line.split(",") for line in lines[1:]]


# sha256 of the CSV that `exact --sweep` prints, recorded when every row
# still multiplied out its own factorials: the rows are exact rationals in
# lowest terms, so they must not change by a byte
SWEEP_SHA256 = {
    ("1..300", 0): "3abaf0f733be4a5a01e466ba026261f13bc328f9f8753b44da1af3bd91c83808",
    ("1..300", 1): "55018be286c9f0dd9c71e277e9cc664bd5e78645355d6780e0e396837750017f",
    ("1..300", 2): "27af844370a94620bb86efa0679d2827729b644d4eeabc3c720724841d7b8135",
    ("998..1000", 1): "ce266d0dcef9b41b7542428370b9a26c90a60a30f3824b9ab088404da0dd5826",
}


class TestExactSweep:
    @pytest.mark.parametrize("span, r", sorted(SWEEP_SHA256))
    def test_output_is_pinned(self, capsys, span, r):
        code, out, _ = run_cli(capsys, "exact", "--sweep", span, "--r", str(r))
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_SHA256[span, r]

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    @pytest.mark.parametrize("span", ["0..40", "1..40", "37..60", "23"])
    def test_rows_match_one_degree_calls(self, capsys, span, r):
        code, out, _ = run_cli(capsys, "exact", "--sweep", span, "--r", str(r))
        assert code == EXIT_OK
        rows = sweep_rows(out)
        lo, _, hi = span.partition("..")
        assert [int(row[0]) for row in rows] == list(range(int(lo), int(hi or lo) + 1))
        for n, num, den, approx, ratio in rows:
            mv = mean_intersections_exact(int(n), r)
            assert (num, den) == (str(mv.exact.numerator), str(mv.exact.denominator))
            assert approx == f"{mv.approx:.17g}"
            wanted = f"{asymptote_ratio(int(n)):.12g}" if (r == 0 and int(n) >= 1) else ""
            assert ratio == wanted


class TestLongExactValues:
    """Exact means past CPython's 4300-digit int/str limit are printed in
    full, and the limit is back in force afterwards."""

    def test_single_value(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "exact", "--N", "1000", "--r", "1")
        assert code == EXIT_OK
        assert sys.get_int_max_str_digits() == limit
        doc = json.loads(out)
        mv = mean_intersections_exact(1000, 1)
        with long_int_strings():
            assert len(doc["numerator"]) > 4300
            assert int(doc["numerator"]) == mv.exact.numerator
            assert int(doc["denominator"]) == mv.exact.denominator

    def test_sweep(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "exact", "--sweep", "998..1000", "--r", "1")
        assert code == EXIT_OK
        assert sys.get_int_max_str_digits() == limit
        rows = sweep_rows(out)
        assert [int(row[0]) for row in rows] == [998, 999, 1000]
        with long_int_strings():
            for n, num, den, approx, _ in rows:
                mv = mean_intersections_exact(int(n), 1)
                assert (int(num), int(den)) == (mv.exact.numerator, mv.exact.denominator)
                assert float(approx) == mv.approx and math.isfinite(mv.approx)

    def test_user_input_keeps_the_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, _, err = run_cli(capsys, "exact", "--N", "1" * (limit + 1))
        assert code == EXIT_USAGE
        assert "invalid int value" in err
        assert sys.get_int_max_str_digits() == limit


class TestSample:
    def test_files_round_trip(self, capsys, tmp_path):
        out_dir = tmp_path / "curves"
        code, _, _ = run_cli(
            capsys, "sample", "--N", "2", "--count", "3", "--seed", "7",
            "--out", str(out_dir),
        )
        assert code == EXIT_OK
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["master_seed"] == 7
        assert manifest["N"] == 2 and manifest["r"] == 0
        assert len(manifest["files"]) == 3
        from curvecross.curves import norm
        from curvecross.sampling import SeedSpec, sample_unit_ball_curve

        for entry in manifest["files"]:
            curve, r = load_curve(out_dir / entry["path"])
            assert r == 0
            assert norm(curve, 0) <= 1.0 + 1e-12
            again = sample_unit_ball_curve(2, 0, SeedSpec(7, entry["stream_index"]))
            assert curve == again  # files reproduce the stream bit-for-bit


class TestCount:
    def test_two_circles(self, capsys, tmp_path):
        fa = tmp_path / "a.json"
        fb = tmp_path / "b.json"
        save_curve(fa, unit_circle(), 0)
        save_curve(fb, circle_at(1.5, 0.0), 0)
        code, out, _ = run_cli(capsys, "count", str(fa), str(fb))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["count"] == 2
        assert doc["degenerate"] is False
        assert len(doc["solutions"]) == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "count", str(tmp_path / "no.json"), str(tmp_path / "no2.json"))
        assert code == EXIT_IO
        assert "i/o error" in err

    def test_schema_violation(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"degree": 1, "x": 3}')
        code, _, err = run_cli(capsys, "count", str(bad), str(bad))
        assert code == EXIT_IO
        assert "schema error" in err

    @pytest.mark.parametrize("literal", ["1" + "0" * 400, "1e400", "-1e400", "NaN"])
    def test_coefficient_beyond_float_range(self, capsys, tmp_path, literal):
        # an integer too large for a float overflowed uncaught; 1e400 and NaN
        # parsed to inf and nan and exited 1 as usage errors
        bad = tmp_path / "bad.json"
        bad.write_text('{"degree": 1, "r": 0, "x": {"a": [0, %s], "b": [0]}, '
                       '"y": {"a": [0, 0], "b": [1]}}' % literal)
        code, _, err = run_cli(capsys, "count", str(bad), str(bad))
        assert code == EXIT_IO
        assert 'schema error: "x": a[1] is not finite as a float' in err


class TestSimulate:
    def test_summary_contract_and_determinism(self, capsys, tmp_path):
        args = ["simulate", "--N", "1", "--samples", "300", "--seed", "42",
                "--csv", str(tmp_path / "rows.csv")]
        code, out1, _ = run_cli(capsys, *args)
        assert code == EXIT_OK
        code, out2, _ = run_cli(capsys, *args)
        assert code == EXIT_OK
        a, b = json.loads(out1), json.loads(out2)
        for doc in (a, b):
            doc["manifest"].pop("wall_time_s")
        assert a == b
        assert {"mean", "stderr", "ci95", "exact", "z_score", "histogram",
                "degenerate_discards", "samples_used", "manifest"} <= a.keys()
        assert a["manifest"]["command"] == "simulate"
        rows = (tmp_path / "rows.csv").read_text().strip().splitlines()
        assert rows[0] == "sample_index,count,degenerate"
        assert len(rows) == 301

    def test_constant_curves(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--N", "0", "--samples", "100")
        assert code == EXIT_OK
        assert json.loads(out)["mean"] == 0.0

    def test_bad_distribution(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--N", "1", "--samples", "10",
                             "--distribution", "cauchy")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_every_sample_discarded(self, capsys, workers):
        # a Newton tolerance no residual can meet flags every pair degenerate
        code, out, err = run_cli(capsys, "simulate", "--N", "1", "--samples", "5",
                                 "--newton-tol", "1e-300", "--seed", "1", "--workers", workers)
        assert code == EXIT_TOLERANCE
        assert out == ""
        assert err == "error: every sample was discarded as degenerate (N=1, 5 samples)\n"


class TestVerify:
    def test_passes_and_reports(self, capsys, tmp_path):
        out_file = tmp_path / "chain.json"
        code, out, _ = run_cli(capsys, "verify", "--N", "1..1", "--out", str(out_file))
        assert code == EXIT_OK
        assert "assembled_mean_N1" in out
        doc = json.loads(out_file.read_text())
        assert doc["passed"] is True

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--N", "1..1", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["passed"] is True
        assert any(s["name"] == "buffon_mean_abs_sin" for s in doc["steps"])

    def test_tolerance_failure_exit_code(self, capsys, monkeypatch):
        import curvecross.cli as cli_module

        failing = ChainReport()
        failing.add("synthetic", 1.0, 2.0, 1e-8)
        monkeypatch.setattr(cli_module, "run_chain", lambda *a, **k: failing)
        code, _, _ = run_cli(capsys, "verify", "--N", "1..1")
        assert code == EXIT_TOLERANCE

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--N", "3..1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("attempts", ["-5", "-1"])
    def test_rejects_negative_slice_draws(self, capsys, attempts):
        code, out, err = run_cli(capsys, "verify", "--N", "1", "--fiber-attempts", attempts)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error:") and "fiber_attempts" in err

    @pytest.mark.parametrize("seed,accepted", [(1, 1), (6, 0)])
    def test_too_few_slice_draws(self, capsys, seed, accepted):
        code, _, err = run_cli(capsys, "verify", "--N", "1", "--fiber-attempts", "2",
                               "--seed", str(seed))
        assert code == EXIT_USAGE
        assert err.startswith("usage error:")
        assert f"accepted {accepted} of 2 attempts" in err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "bogus")[0] == EXIT_USAGE

    def test_missing_required(self, capsys):
        assert run_cli(capsys, "simulate")[0] == EXIT_USAGE
