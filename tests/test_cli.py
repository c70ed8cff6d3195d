"""CLI exit codes and output formats, driven through main() directly."""

import csv
import io

import pytest

from msdfrac import StudyError, cli


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_relaxation_csv_parses(capsys):
    code, out, _ = _run(
        capsys,
        ["relaxation", "--alpha", "0.5", "--n", "1", "--M", "64", "--M", "128", "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["model", "alpha", "n", "r", "M", "error", "rate"]
    assert [r[4] for r in rows[1:]] == ["64", "128"]
    assert rows[1][6] == ""
    assert float(rows[2][6]) > 0.0


def test_pretty_output_has_theory_line(capsys):
    code, out, _ = _run(capsys, ["relaxation", "--alpha", "0.5", "--M", "64", "--M", "128"])
    assert code == 0
    assert "theory rate" in out
    assert "relaxation" in out


def test_out_file_matches_csv_stdout(tmp_path, capsys):
    target = tmp_path / "report.csv"
    args = ["volterra", "--alpha", "0.75", "--n", "1", "--M", "64", "--M", "128"]
    code, _, _ = _run(capsys, args + ["--out", str(target)])
    assert code == 0
    code, out, _ = _run(capsys, args + ["--format", "csv"])
    assert code == 0
    assert target.read_text() == out


def test_invalid_alpha_exits_2(capsys):
    code, _, err = _run(capsys, ["relaxation", "--alpha", "1.5", "--M", "64", "--M", "128"])
    assert code == 2
    assert "order" in err


def test_non_doubling_ms_exit_2(capsys):
    code, _, err = _run(capsys, ["relaxation", "--alpha", "0.5", "--M", "64", "--M", "100"])
    assert code == 2
    assert "double" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["poisson", "--alpha", "0.5"])
    assert exc.value.code == 2


def test_bad_table_id_exits_2(capsys):
    code, _, err = _run(capsys, ["table", "--id", "9"])
    assert code == 2
    assert "table" in err


def test_solver_failure_exits_3(capsys, monkeypatch):
    def explode(spec, Ms):
        raise StudyError("relaxation solve failed at M=64: boom")

    monkeypatch.setattr(cli, "run_study", explode)
    code, _, err = _run(capsys, ["relaxation", "--alpha", "0.5", "--M", "64", "--M", "128"])
    assert code == 3
    assert "boom" in err


def test_fraction_collocation_nodes(capsys):
    code, out, _ = _run(
        capsys,
        [
            "volterra",
            "--alpha", "0.5",
            "--n", "1",
            "--c", "2/3,1",
            "--M", "64",
            "--M", "128",
            "--format", "csv",
        ],
    )
    assert code == 0
    assert out.count("\n") == 3


def test_zero_denominator_in_c_exits_2(capsys):
    # 1/0 used to escape as a ZeroDivisionError traceback with exit 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["volterra", "--alpha", "0.5", "--c", "1/0", "--M", "8", "--M", "16"])
    assert exc.value.code == 2
    assert "--c" in capsys.readouterr().err


def test_collocation_count_follows_c(capsys):
    # --c fixes the number of collocation points per step
    code, out, err = _run(
        capsys, ["volterra", "--alpha", "0.5", "--c", "0.2,0.6,1", "--M", "64", "--M", "128"]
    )
    assert code == 0, err
    assert "q=3" in out


def test_diffusion_wave_runs(capsys):
    code, out, _ = _run(
        capsys,
        ["diffusion-wave", "--gamma", "1.5", "--M", "32", "--M", "64", "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][0] == "diffusion-wave"
    assert rows[1][1] == "1.5"


def test_integro_decimal_step_counts(capsys):
    # M = 100 gives uniform steps that differ in the last bit; the
    # convolution quadrature must still accept the mesh
    code, out, err = _run(capsys, ["integro", "--alpha", "0.5", "--M", "100", "--M", "200"])
    assert code == 0, err
    assert "integro" in out
