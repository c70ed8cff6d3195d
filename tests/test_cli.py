"""CLI exit codes and output formats, driven through main() directly."""

import csv
import inspect
import io
import warnings

import pytest

from msdfrac import (
    StudyError,
    cli,
    emit_csv,
    make_diffusion_wave_study,
    make_integro_study,
    make_relaxation_study,
    make_subdiffusion_study,
    make_volterra_study,
    reproduce_table,
    run_study,
)
from msdfrac.study import _fmt_param


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


def test_default_ms_are_the_table_column(capsys):
    code, out, err = _run(capsys, ["relaxation", "--alpha", "0.5", "--format", "csv"])
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[4] for r in rows[1:]] == ["128", "256", "512", "1024", "2048"]


# constructor keyword -> the CLI flag that sets it
_FLAGS = {
    "alpha": "--alpha", "gamma": "--gamma", "n": "--n", "r": "--r", "lam": "--lambda", "c": "--c",
    "J": "--J", "T": "--T",
}


_MODELS = [
    ("relaxation", make_relaxation_study, "--alpha", 0.5),
    ("volterra", make_volterra_study, "--alpha", 0.5),
    ("subdiffusion", make_subdiffusion_study, "--alpha", 0.5),
    ("integro", make_integro_study, "--alpha", 0.5),
    ("diffusion-wave", make_diffusion_wave_study, "--gamma", 1.5),
]


@pytest.mark.parametrize("model, make, flag, x", _MODELS, ids=[case[0] for case in _MODELS])
def test_model_options_follow_the_constructor(capsys, model, make, flag, x):
    # run with its default options, a subcommand runs the constructor with its own defaults
    code, out, err = _run(capsys, [model, flag, str(x), "--M", "8", "--M", "16", "--format", "csv"])
    assert code == 0, err
    assert out == emit_csv(run_study(make(x), [8, 16]))
    # and --help lists each keyword the CLI exposes with the signature's default
    with pytest.raises(SystemExit) as exc:
        cli.main([model, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    entries = {seg.split()[0]: seg for seg in text.split(" --")}  # the option list follows the usage
    exposed = [p for name, p in inspect.signature(make).parameters.items() if name in _FLAGS]
    assert {p.name for p in exposed} >= {flag[2:], "T"}
    for param in exposed:
        entry = entries[_FLAGS[param.name][2:]]
        if param.default is param.empty:
            assert "(default" not in entry and f"[{_FLAGS[param.name]} " not in text, entry
        else:
            assert entry.endswith(f"(default {_fmt_param(param.default)})"), entry


def test_lambda_sets_lam(capsys):
    args = ["relaxation", "--alpha", "0.5", "--lambda", "2", "--M", "8", "--M", "16", "--format", "csv"]
    code, out, err = _run(capsys, args)
    assert code == 0, err
    assert out == emit_csv(run_study(make_relaxation_study(0.5, lam=2.0), [8, 16]))
    assert out != emit_csv(run_study(make_relaxation_study(0.5), [8, 16]))


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


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_exits_2_before_the_first_solve(tmp_path, capsys, monkeypatch, where):
    target = tmp_path / "nonexistent" / "x.csv" if where == "missing directory" else tmp_path
    monkeypatch.setattr(cli, "run_study", lambda *a: pytest.fail("solved before checking --out"))
    code, out, err = _run(capsys, ["relaxation", "--alpha", "0.5", "--M", "8", "--M", "16", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: --out ") and str(target) in err


def test_invalid_alpha_exits_2(capsys):
    code, _, err = _run(capsys, ["relaxation", "--alpha", "1.5", "--M", "64", "--M", "128"])
    assert code == 2
    assert "order" in err
    # wave exponent, horizon, grading and collocation points are checked
    # when the study is built, not by the first solve (which would exit 3)
    cases = [
        (["diffusion-wave", "--gamma", "2.5"], "gamma must lie in (1, 2), got gamma=2.5"),
        (["subdiffusion", "--alpha", "0.5", "--T", "-1"], "T=-1"),
        (["integro", "--alpha", "0.5", "--T", "-1"], "T=-1"),
        (["diffusion-wave", "--gamma", "1.5", "--T", "-1"], "T=-1"),
        (["relaxation", "--alpha", "0.5", "--r", "0"], "r=0"),
        (["subdiffusion", "--alpha", "0.5", "--r", "0"], "r=0"),
        # the two-mesh error reads the mesh point, the last collocation point
        (["volterra", "--alpha", "0.5", "--c", "0.2,0.6"], "c = (0.2, 0.6)"),
        # the default kernel 1/Gamma(1 - alpha) is not formed before alpha is checked
        (["volterra", "--alpha", "1"], "alpha"),
        (["volterra", "--alpha", "2"], "alpha"),
    ]
    for argv, named in cases:
        code, _, err = _run(capsys, argv + ["--M", "8", "--M", "16"])
        assert code == 2, argv
        assert named in err, (argv, err)


@pytest.mark.parametrize("alpha", ["-1", "nan", "0", "1"])
def test_integro_checks_alpha_before_its_default_forcing(capsys, alpha):
    # the default forcing t^alpha used to be formed first, and its own
    # checks ("exponent -1.0 <= -1", "terms must be finite") named no alpha
    code, _, err = _run(capsys, ["integro", "--alpha", alpha, "--M", "8", "--M", "16"])
    assert code == 2
    assert "alpha" in err, err


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


def test_subdiffusion_runs(capsys):
    code, out, err = _run(
        capsys, ["subdiffusion", "--alpha", "0.5", "--J", "16", "--M", "32", "--M", "64"]
    )
    assert code == 0, err
    assert "subdiffusion" in out


@pytest.mark.parametrize(
    "args",
    [
        "subdiffusion --alpha 0.9 --n 190 --J 8 --M 8 --M 16",
        "relaxation --alpha 0.9 --n 190 --M 8 --M 16",
        "volterra --alpha 0.02 --n 200",
        "subdiffusion --alpha 0.5 --n 400",
    ],
)
def test_deep_splits_run(capsys, args):
    # Gamma(q + 1 + nu) overflows once q + 1 + nu > 171.6, which these
    # depths reach; the split's profile integrals must still be formed
    code, _, err = _run(capsys, args.split())
    assert code == 0, err


def test_integro_decimal_step_counts(capsys):
    # M = 100 gives uniform steps that differ in the last bit; the
    # convolution quadrature must still accept the mesh
    code, out, err = _run(capsys, ["integro", "--alpha", "0.5", "--M", "100", "--M", "200"])
    assert code == 0, err
    assert "integro" in out


def test_table_grading_warning_is_one_note(capsys):
    # tables 2 and 5 choose r = 0.41666... < 1 themselves: the CLI says so
    # once, as a note, where a library caller gets a UserWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["table", "--id", "2", "--format", "csv"])
    assert code == 0
    assert err.splitlines() == [
        "note: grading r = 0.4166666666666667 < 1 coarsens the mesh near t = 0;"
        " the convergence theory assumes r >= 1"
    ]
    assert len(out.splitlines()) == 1 + 4 * 5
    with pytest.warns(UserWarning, match="grading r = 0.41"):
        reproduce_table(2)


def test_rate_shortfall_is_a_note(capsys):
    # the errors of alpha = 0.02, r = 99 grow from M = 64 to 128 (the
    # cancelling head and near numerators): the CLI says so on stderr, and
    # the CSV is the report's own
    args = ["relaxation", "--alpha", "0.02", "--r", "99", "--M", "64", "--M", "128", "--format", "csv"]
    code, out, err = _run(capsys, args)
    assert code == 0
    (note,) = err.splitlines()
    assert note.startswith("note: relaxation (alpha=0.02, n=0, r=99, ")
    assert "the observed rate at the finest row, M = 128, is -" in note
    assert note.endswith("below half the theory rate 1.98")
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[4] for r in rows[1:]] == ["64", "128"] and float(rows[2][6]) < 0.0
    # a table whose finest rates keep up prints no note
    code, out, err = _run(capsys, ["table", "--id", "1", "--format", "csv"])
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 1 + 4 * 5
