import json

import pytest

from modbench.checks import CheckError, PWContext
from modbench.report import consistency_report


def test_report_trivial_algebra(one, pw_context):
    rep = consistency_report(one, ctx=pw_context(one))
    assert rep["ok"] and rep["modular"]
    assert rep["dayK"] == 1 and rep["gummN"] == 0
    # LTT is out of scope for the degenerate k = 1
    assert "LTT" not in {row["name"] for row in rep["bounds"]}


def test_report_z2(z2, pw_context):
    rep = consistency_report(z2, ctx=pw_context(z2))
    assert rep["ok"]
    assert rep["dayK"] == 2 and rep["gummN"] == 0
    spectra = {(row["family"], row["m"]): row["value"]
               for row in rep["spectra"]}
    assert all(spectra[("DAY", m)] == 2 for m in range(3, 8))
    assert spectra[("DSTAR", 3)] == 2
    names = {row["name"] for row in rep["bounds"]}
    assert {"THM", "NUMD", "NUMDD", "DST", "LTT", "BBB", "AGTCOR2",
            "QKMOD_I", "QKMOD_II", "QKMOD2", "COMB", "SMALL_I",
            "SMALL_II"} <= names
    # z2 is not congruence distributive, so no Jonsson-derived bound
    assert "DM" not in names
    assert all(row["status"] != "fail" for row in rep["bounds"])


def test_report_not_modular(semilattice2, pw_context):
    rep = consistency_report(semilattice2, ctx=pw_context(semilattice2))
    assert rep["ok"]
    assert rep["modular"] is False
    assert rep["bounds"] == [] and rep["spectra"] == []
    assert "not congruence modular" in rep["note"]


def test_report_is_json_serializable_and_deterministic(z2, pw_context):
    rep1 = consistency_report(z2, ctx=pw_context(z2))
    rep2 = consistency_report(z2, ctx=pw_context(z2))
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2,
                                                          sort_keys=True)


def test_report_crosschecks_present(z2, pw_context):
    rep = consistency_report(z2, ctx=pw_context(z2))
    names = {c["name"] for c in rep["crosschecks"]}
    assert {"day_rev_gap", "day_nondecreasing", "dstar1_equals_day3",
            "tschantz2_equals_gumm_n", "day_k_le_2n_plus_2"} <= names
    assert all(c["status"] == "pass" for c in rep["crosschecks"])


def test_status_logic():
    from modbench.report import _status
    assert _status(3, 4, 64) == "pass"
    assert _status(5, 4, 64) == "fail"
    assert _status("unchecked", 4, 64) == "unchecked"
    # a scan that exceeded the cap refutes any claim within the cap
    assert _status("exceeds cap", 4, 64) == "fail"
    assert _status("exceeds cap", 100, 64) == "unchecked"


def test_report_refuses_a_context_for_another_algebra(z2, lattice2):
    with pytest.raises(CheckError, match="'lattice2', not for 'z2'"):
        consistency_report(z2, ctx=PWContext(lattice2))
