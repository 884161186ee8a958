"""tools/csvdelta.py on two small stand-in bit-check outputs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "csvdelta.py"
spec = importlib.util.spec_from_file_location("csvdelta", TOOL)
csvdelta = importlib.util.module_from_spec(spec)
spec.loader.exec_module(csvdelta)

MOMENTS = "t,mean_u,var_u,ref_mean_u,ref_var_u\n0,1,0,1,0\n0.001,{mean},0.5,{ref},0.25\n"
ERRORS = "t,err_mean_u,err_var_u\n0,0,0\n0.001,{err},0.25\nGLOBAL,{err},0.125\n"


def run_dir(root: Path, name: str, mean="0.75", ref="0.5", err="0.25") -> None:
    run = root / name
    run.mkdir(parents=True)
    (run / "moments.csv").write_text(MOMENTS.format(mean=mean, ref=ref))
    (run / "errors.csv").write_text(ERRORS.format(err=err))


def test_prints_each_columns_largest_difference(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run_dir(a, "same")
    run_dir(b, "same")
    run_dir(a, "moved")
    # The same value in another spelling differs in text, not in value.
    run_dir(b, "moved", mean="7.5e-1", ref="0.5000000000000011", err="0.2499999999999989")
    assert csvdelta.main([str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "moved moments.csv t== mean_u=0 var_u== ref_mean_u=1.11e-15 ref_var_u==",
        "moved errors.csv t== err_mean_u=1.11e-15 err_var_u==",
        "same moments.csv t== mean_u== var_u== ref_mean_u== ref_var_u==",
        "same errors.csv t== err_mean_u== err_var_u==",
    ]


def test_reports_unmatched_runs_and_shapes(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run_dir(a, "only_a")
    run_dir(a, "short")
    run_dir(b, "short")
    (b / "short" / "errors.csv").write_text("t,err_mean_u,err_var_u\n0,0,0\n")
    assert csvdelta.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert f"only_a only in {a}" in out
    assert "short errors.csv differs in header or row count (4 / 2 rows)" in out
    assert "short moments.csv t== mean_u== var_u== ref_mean_u== ref_var_u==" in out
