import json

from modbench.cli import main
from modbench.bounds import bound
from modbench.checks import PWContext, spectrum


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_alg_info(capsys):
    code, out, _ = run(capsys, "alg", "info", "z2")
    assert code == 0 and "size 2" in out


def test_alg_info_json(capsys):
    code, out, _ = run(capsys, "alg", "info", "chain3", "--json")
    data = json.loads(out)
    assert data["size"] == 3 and data["congruences"] == 4


def test_spectrum_day_z2(capsys):
    code, out, _ = run(capsys, "spectrum", "z2", "--family", "DAY",
                       "--m-from", "3", "--m-to", "7")
    assert code == 0
    values = [line.split("=")[1].split("[")[0].strip()
              for line in out.strip().splitlines()]
    assert values == ["2"] * 5


def test_check_refuted_exit_code(capsys):
    code, out, _ = run(capsys, "check", "lattice2", "--identity", "DAY",
                       "--k", "2", "--mode", "pw")
    assert code == 1 and "refuted" in out


def test_check_holds(capsys):
    code, out, _ = run(capsys, "check", "z2", "--identity", "DAY", "--k", "2")
    assert code == 0 and "holds" in out


def test_bounds_comb(capsys):
    code, out, _ = run(capsys, "bounds", "--name", "COMB", "--param", "r=2",
                       "--param", "n=1", "--param", "p=1", "--param", "q=1")
    assert code == 0
    assert "left length 3" in out and "claimed bound 4" in out


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "bounds", "--name", "THM", "--param", "r=2")
    assert code == 2 and "error" in err


def test_cap_exit_code(capsys):
    code, _, err = run(capsys, "free", "lattice2", "-g", "5",
                       "--cap-entries", "1000")
    assert code == 3 and "cap exceeded" in err


def test_free_counts(capsys):
    code, out, _ = run(capsys, "free", "lattice2", "-g", "4")
    assert code == 0 and "166 elements" in out


def test_terms_json(capsys):
    code, out, _ = run(capsys, "terms", "z2", "--scheme", "day", "--json")
    data = json.loads(out)
    assert code == 0 and data["value"] == 2 and len(data["terms"]) == 3


def test_check_idl_file(capsys, tmp_path):
    path = tmp_path / "ident.idl"
    path.write_text("cong a b; a & b <= alt(a, b, k)\n")
    code, out, _ = run(capsys, "check", "z2", "--idl", str(path), "--k", "1",
                       "--mode", "pw")
    assert code == 0 and "holds" in out


def test_verify_z2_text(capsys):
    code, out, _ = run(capsys, "verify", "z2")
    assert code == 0
    assert "Day k = 2" in out and "FAIL" not in out


def test_json_byte_deterministic(capsys):
    _, out1, _ = run(capsys, "spectrum", "z2", "--family", "DAY",
                     "--m-from", "3", "--m-to", "5", "--json")
    _, out2, _ = run(capsys, "spectrum", "z2", "--family", "DAY",
                     "--m-from", "3", "--m-to", "5", "--json")
    assert out1 == out2


def test_cli_is_thin_adapter(capsys, z2):
    # the same calls through the library API give the same numbers
    code, out, _ = run(capsys, "spectrum", "z2", "--family", "DAY",
                       "--m-from", "3", "--m-to", "4", "--json")
    data = json.loads(out)
    ctx = PWContext(z2)
    lib = [spectrum(z2, "DAY", params={"m": m}, ctx=ctx).value
           for m in (3, 4)]
    assert [row["value"] for row in data["results"]] == lib
    code, out, _ = run(capsys, "bounds", "--name", "THM", "--param", "r=2",
                       "--param", "q=2", "--json")
    data = json.loads(out)
    value = bound("THM", r=2, q=2)
    assert (data["lhs"], data["rhs"]) == (value.lhs, value.rhs)


def test_missing_file(capsys):
    code, _, err = run(capsys, "alg", "info", "definitely-missing")
    assert code == 2


def test_bounds_direct_flags(capsys):
    # the short parameter-flag form
    code, out, _ = run(capsys, "bounds", "--name", "COMB", "--r", "2",
                       "--n", "1", "--p", "1", "--q", "1")
    assert code == 0 and "left length 3" in out and "claimed bound 4" in out


def test_verify_multiple_files_parallel(capsys):
    code, out, _ = run(capsys, "verify", "one", "z2", "--jobs", "2",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert [rep["algebra"] for rep in data] == ["one", "z2"]


def test_spectrum_jobs_flag(capsys):
    code, out, _ = run(capsys, "spectrum", "chain3", "--family", "TOLC",
                       "--m-from", "1", "--m-to", "2", "--jobs", "2",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert all(row["value"] is not None for row in data["results"])


def test_load_algebra_from_path(capsys, tmp_path):
    path = tmp_path / "two.alg"
    path.write_text("algebra two\nsize 2\nop f 1\n1 0\n")
    code, out, _ = run(capsys, "alg", "info", str(path))
    assert code == 0 and "size 2" in out


def test_negative_k_is_a_usage_error(capsys):
    for argv in (("one", "--identity", "DAY", "--mode", "pw"),
                 ("lattice2", "--identity", "DAY", "--mode", "pw"),
                 ("lattice2", "--identity", "DAY", "--mode", "concrete"),
                 ("z2", "--identity", "RMOD"),
                 ("one", "--identity", "QDIST", "--mode", "pw")):  # k-free
        code, out, err = run(capsys, "check", *argv, "--k", "-1")
        assert (code, out) == (2, ""), argv
        assert "nonnegative" in err


def test_negative_scan_limits_are_usage_errors(capsys):
    for argv in (("spectrum", "one", "--family", "DAY", "--cap", "-3"),
                 ("spectrum", "z2", "--family", "RMOD", "--cap", "-1"),
                 ("terms", "lattice2", "--scheme", "day", "--max", "-1"),
                 ("terms", "lattice2", "--scheme", "alvin", "--max", "-1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "nonnegative" in err
