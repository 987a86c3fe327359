import json
import time

import pytest

from modbench.cli import main
from modbench.bounds import bound
from modbench.checks import PWContext, spectrum
from conftest import m5_text


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


def test_param_with_idl_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "ident.idl"
    path.write_text("cong a b; a & b <= alt(a, b, k)\n")
    code, out, err = run(capsys, "check", "z2", "--idl", str(path),
                         "--param", "m=9")
    assert (code, out) == (2, "")
    assert "--param applies to catalog identities only" in err


def test_a_repeated_parameter_is_a_usage_error(capsys):
    for argv in (("bounds", "--name", "COMB", "--param", "r=1", "--r", "2",
                  "--n", "1", "--p", "1", "--q", "1"),
                 ("bounds", "--name", "THM", "--r", "1", "--r", "2",
                  "--q", "1"),
                 ("check", "lattice2", "--identity", "DAY", "--param", "m=3",
                  "--param", "m=4", "--k", "4")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "is given twice" in err
    # the hidden flags are --param spelled short
    code, out, _ = run(capsys, "bounds", "--name", "COMB", "--r", "2",
                       "--param", "n=1", "--p", "1", "--q", "1")
    assert code == 0 and "claimed bound 4" in out
    code, _, err = run(capsys, "check", "lattice2", "--identity", "DAY",
                       "--param", "m", "--k", "4")
    assert code == 2 and "--param expects name=value" in err
    code, _, err = run(capsys, "bounds", "--name", "THM", "--r", "abc",
                       "--q", "1")
    assert code == 2 and "parameter 'r' needs an integer, got 'abc'" in err


def test_five_element_relation_families_are_complete(capsys, tmp_path):
    path = tmp_path / "m5.alg"
    path.write_text(m5_text())
    code, out, _ = run(capsys, "spectrum", str(path), "--family", "RMOD",
                       "--json")
    (row,) = json.loads(out)["results"]
    assert code == 0 and (row["value"], row["exceeded"]) == (2, False)
    code, out, _ = run(capsys, "spectrum", str(path), "--family", "AGA",
                       "--json")
    (row,) = json.loads(out)["results"]
    assert code == 3 and '"value": null' in out
    assert row["unchecked"] == ("at least 2005056 variable assignments "
                                "exceed the cap 2000000")
    code, out, _ = run(capsys, "check", str(path), "--identity", "RMOD",
                       "--k", "2")
    assert code == 0 and out.startswith("RMOD on m5: holds on this algebra")
    code, out, _ = run(capsys, "check", str(path), "--identity", "RMOD",
                       "--k", "2", "--json")
    data = json.loads(out)
    assert code == 0 and (data["holds"], data["complete"]) == (True, True)
    assert sorted(data) == ["algebra", "complete", "envsChecked", "holds",
                            "identity", "k", "level", "mode", "statement"]
    code, out, _ = run(capsys, "check", str(path), "--identity", "RMOD",
                       "--k", "1")
    assert code == 1 and "refuted on this algebra" in out
    code, _, err = run(capsys, "check", str(path), "--identity", "AGA",
                       "--k", "1")
    assert code == 3 and err.startswith("guard exceeded: at least 2005056")


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
    code, out, _ = run(capsys, "verify", "one", "z2", "--json")
    assert code == 0
    data = json.loads(out)
    assert [rep["algebra"] for rep in data] == ["one", "z2"]


def test_spectrum_jobs_flag(capsys):
    code, out, _ = run(capsys, "spectrum", "chain3", "--family", "TOLC",
                       "--m-from", "1", "--m-to", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert [row["m"] for row in data["results"]] == [1, 2]
    assert all(row["value"] is not None for row in data["results"])


def test_jobs_is_gone(capsys):
    for argv in (("verify", "one", "z2"),
                 ("spectrum", "z2", "--family", "DAY")):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--jobs", "2"])
        assert exit_.value.code == 2
        assert "--jobs" in capsys.readouterr().err


def test_spectrum_range_flags_are_usage_errors(capsys):
    code, out, err = run(capsys, "spectrum", "z2", "--family", "DAY",
                         "--m-from", "5", "--m-to", "3")
    assert (code, out) == (2, "") and "below" in err
    for flag in ("--m-from", "--m-to"):
        code, out, err = run(capsys, "spectrum", "z2", "--family", "AGA",
                             flag, "3")
        assert (code, out) == (2, "") and "no parameter" in err


def test_a_range_too_long_to_scan_is_a_usage_error(capsys):
    code, out, err = run(capsys, "spectrum", "z2", "--family", "RMOD",
                         "--m-from", "2", "--m-to", "99999999999")
    assert (code, out) == (2, "")
    assert "spans 99999999998 values" in err and "Traceback" not in err
    # one value over the limit is refused too
    code, out, err = run(capsys, "spectrum", "z2", "--family", "RMOD",
                         "--m-from", "2", "--m-to", "10002")
    assert (code, out) == (2, "") and "spans 10001 values" in err


def test_large_counts_are_answered(capsys):
    code, out, err = run(capsys, "check", "lattice2", "--identity", "RMOD",
                         "--k", "1", "--param", "m=5000", "--json")
    assert (code, err) == (0, "") and json.loads(out)["holds"]
    code, out, err = run(capsys, "spectrum", "lattice2", "--family", "RMOD",
                         "--m-from", "5000", "--cap", "5000", "--json")
    (row,) = json.loads(out)["results"]
    assert (code, err, row["m"], row["value"]) == (0, "", 5000, 1)
    # a guard over a count of more than 4,300 digits says so
    code, out, err = run(capsys, "check", "z2", "--identity", "AGI", "--k",
                         "1", "--param", "m=20000")
    assert (code, out) == (3, "")
    assert "at least 2 * 2**20003 variable assignments" in err


def test_param_naming_the_scanned_parameter_is_a_usage_error(capsys):
    for family, param in (("DAY", "m=5"), ("TOLC", "h=2")):
        code, out, err = run(capsys, "spectrum", "z2", "--family", family,
                             "--param", param)
        assert (code, out) == (2, ""), family
        assert "--m-from/--m-to, not --param" in err
    # a parameter the scan leaves fixed is still set by --param
    code, out, _ = run(capsys, "spectrum", "z2", "--family", "TOLC",
                       "--param", "m=2", "--json")
    (row,) = json.loads(out)["results"]
    assert (code, row["m"], row["value"]) == (0, 1, 1)


def test_negative_caps_are_usage_errors(capsys):
    for flag in ("--cap-entries", "--work-budget"):
        for argv in (("free", "z2", "-g", "2"),
                     ("terms", "z2", "--scheme", "day"),
                     ("spectrum", "z2", "--family", "DAY")):
            code, out, err = run(capsys, *argv, flag, "-1")
            assert (code, out) == (2, ""), (argv, flag)
            assert f"{flag} must be nonnegative" in err


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


def test_spectrum_prints_decided_rows_beside_unchecked_ones(capsys):
    # DAY(3) fits F(4) under the cap; DAY(4) needs F(5), which exceeds it,
    # and DAY(5) is skipped after that failure
    argv = ("spectrum", "lattice2", "--family", "DAY", "--m-from", "3",
            "--m-to", "5", "--cap-entries", "10000")
    code, out, err = run(capsys, *argv, "--json")
    rows = json.loads(out)["results"]
    assert (code, err) == (3, "")
    assert [(row["m"], row["value"]) for row in rows] == \
        [(3, 3), (4, None), (5, None)]
    assert "unchecked" not in rows[0] and rows[0]["exceeded"] is False
    assert rows[1]["exceeded"] is None
    assert "exceeds 10000 vector entries" in rows[1]["unchecked"]
    assert "skipped" in rows[2]["unchecked"]
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 3 and lines[0] == "lattice2 DAY(3): k = 3 [variety]"
    assert lines[1].startswith("lattice2 DAY(4): k = unchecked (free ")
    # an environment guard is reported the same way
    code, out, _ = run(capsys, "spectrum", "chain3", "--family", "AGI",
                       "--json")
    (row,) = json.loads(out)["results"]
    assert code == 3 and row["value"] is None
    assert "exceed the cap" in row["unchecked"]


def test_k_without_a_symbolic_count_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "ident.idl"
    path.write_text("cong a b; a & b <= a\n")
    for argv in (("one", "--identity", "QDIST", "--mode", "pw"),
                 ("z2", "--identity", "BBB", "--mode", "concrete"),
                 ("z2", "--idl", str(path))):
        for k in ("0", "5"):
            code, out, err = run(capsys, "check", *argv, "--k", k)
            assert (code, out) == (2, ""), argv
            assert "no symbolic count" in err


def test_deep_nesting_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "deep.idl"
    for opener, depth in (("(", 3000), ("conv(", 400)):
        path.write_text("cong a; " + opener * depth + "a" + ")" * depth
                        + " <= a")
        code, out, err = run(capsys, "check", "z2", "--idl", str(path))
        assert (code, out) == (2, ""), opener
        assert "nested deeper than 100 levels (at position" in err


def test_check_concrete_json(capsys):
    code, out, _ = run(capsys, "check", "lattice2", "--identity", "DAY",
                       "--mode", "concrete", "--k", "2", "--json")
    data = json.loads(out)
    assert code == 0 and data["holds"] and data["level"] == "algebra"
    assert (data["complete"], data["envsChecked"]) == (True, 8)
    assert "counterexample" not in data
    code, out, _ = run(capsys, "check", "chain3", "--identity", "DAY",
                       "--mode", "concrete", "--k", "2", "--json")
    data = json.loads(out)
    assert code == 1 and not data["holds"]
    assert (data["complete"], data["envsChecked"]) == (True, 55)
    assert data["counterexample"] == {"a": ["111", "111", "111"],
                                      "b": ["100", "011", "011"],
                                      "g": ["110", "110", "001"]}


def test_terms_gumm_text(capsys):
    code, out, _ = run(capsys, "terms", "lattice2", "--scheme", "gumm")
    assert code == 0
    assert out.splitlines() == [
        "lattice2 gumm: gumm: minimal parameter 1",
        "  t0: x0",
        "  t1: (meet (meet (join x2 x0) (join x1 x0)) (join x2 x1))",
        "  t2: x2"]


def test_free_witnesses_text(capsys):
    code, out, _ = run(capsys, "free", "lattice2", "-g", "2", "--witnesses")
    assert code == 0
    assert out.splitlines() == [
        "F(lattice2, 2): 4 elements over 4 assignments",
        "  0: x0", "  1: x1", "  2: (meet x1 x0)", "  3: (join x1 x0)"]


def test_huge_tuple_spaces_are_refused_without_their_power(capsys,
                                                           tmp_path):
    # 2 ** 20001 has more digits than str() converts by default, and
    # 3 ** 10 ** 7 takes seconds to compute
    path = tmp_path / "chain.idl"
    path.write_text("cong a b; " + " o ".join(["a", "b"] * 10_000)
                    + " <= a o b\n")
    for argv, coords in ((("free", "z2", "-g", "20000"), "2**20000"),
                         (("free", "pixley3", "-g", "10000000"),
                          "3**10000000"),
                         (("check", "z2", "--idl", str(path)), "2**20001")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (3, ""), argv
        assert f" generators of {coords} coordinates) exceeds cap " in err
    # a count of at most 20 digits is printed in decimal
    code, _, err = run(capsys, "free", "z2", "-g", "30")
    assert code == 3
    assert err == ("cap exceeded: tuple space alone (30 generators of "
                   "1073741824 coordinates) exceeds cap 10000000\n")
    for g, coords in ((66, "73786976294838206464"), (67, "2**67")):
        code, _, err = run(capsys, "free", "z2", "-g", str(g))
        assert code == 3
        assert f"({g} generators of {coords} coordinates)" in err
    code, out, _ = run(capsys, "spectrum", "z2", "--family", "DAY",
                       "--m-from", "10000", "--json")
    assert code == 3
    assert json.loads(out)["results"][0]["unchecked"] == (
        "tuple space alone (10001 generators of 2**10001 coordinates) "
        "exceeds cap 10000000")


def test_huge_alternation_counts_are_a_usage_error(capsys):
    # DAY and TR_REL spell out an alternation of m factors, so m is
    # refused before any is made; RMOD's power of m answers at any m
    m = "99999999999"
    for family in ("DAY", "TR_REL"):
        start = time.perf_counter()
        code, out, err = run(capsys, "spectrum", "z2", "--family", family,
                             "--m-from", m)
        assert time.perf_counter() - start < 1, family
        assert (code, out) == (2, ""), family
        assert err == (f"error: an alternation of m = {m} factors passes "
                       f"the bound of 10000\n")
    code, out, _ = run(capsys, "spectrum", "z2", "--family", "RMOD",
                       "--m-from", m, "--json")
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == 1
