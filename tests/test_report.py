import json

import pytest

from modbench.checks import Bound, CheckError, PWContext
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


def _string_status(measured, claimed, scan_cap):
    """The verdict on a measured value the report gave before cells were
    bounds: the int, "unchecked" or "exceeds cap"."""
    if measured == "unchecked":
        return "unchecked"
    if measured == "exceeds cap":
        return "fail" if claimed <= scan_cap else "unchecked"
    return "pass" if measured <= claimed else "fail"


def test_status_logic():
    from modbench.report import _status
    for claimed in range(7):
        for lo in range(6):
            for hi in [*range(lo, 7), None]:
                if hi is None:
                    # [lo, None] is a scan that missed up to lo - 1
                    measured, cap = (("exceeds cap", lo - 1) if lo else
                                     ("unchecked", 64))
                    want = _string_status(measured, claimed, cap)
                else:
                    # a verdict shared by every value in [lo, hi]
                    verdicts = {_string_status(v, claimed, 64)
                                for v in range(lo, hi + 1)}
                    want = (verdicts.pop() if len(verdicts) == 1
                            else "unchecked")
                assert _status(Bound(lo, hi), claimed) == want, (lo, hi)
        # a scan that exceeded the cap refutes any claim within the cap
        for cap in range(2, 6):
            assert _status(Bound(cap + 1), claimed) == \
                _string_status("exceeds cap", claimed, cap)
        assert _status(Bound(0, None, "refused"), claimed) == "unchecked"


def test_shown_cells():
    from modbench.report import _shown
    assert _shown(Bound(3, 3)) == 3
    assert _shown(Bound(65)) == "exceeds cap"
    assert _shown(Bound(0)) == "unchecked"
    assert _shown(Bound(0, None, "refused")) == "unchecked"
    # a lower bound with a reason exceeds no cap
    assert _shown(Bound(2, None, "seeded relations only")) == "unchecked"


def test_report_refuses_a_context_for_another_algebra(z2, lattice2):
    with pytest.raises(CheckError, match="'lattice2', not for 'z2'"):
        consistency_report(z2, ctx=PWContext(lattice2))
