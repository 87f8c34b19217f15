"""The documented verdict comparisons at their boundary: a value exactly at its tolerance
takes the documented side, and the same value one float step past the tolerance the other."""

import json
from unittest import mock

import numpy as np
import pytest

import kcontact as kc
from kcontact import cli, corpus, integrate
from kcontact.grids import BaseField, GridSpec
from kcontact.hj import CompleteVerification, HJReport


def below(x):
    """The float one step below ``x``: a tolerance that ``x`` exceeds by one step."""
    return float(np.nextafter(x, -np.inf))


def test_hj_verdict_passes_at_its_tolerance():
    rep = HJReport("classical-zind", 3e-9, 10)
    assert rep.verdict(3e-9) == "PASS"
    assert rep.verdict(below(3e-9)) == "FAIL"


def test_a_complete_verification_passes_at_both_tolerances():
    ver = CompleteVerification("standard", 2e-11, 4e-13, 1, 10, [], [])
    assert ver.passed(2e-11, 4e-13)
    assert not ver.passed(below(2e-11), 4e-13)
    assert not ver.passed(2e-11, below(4e-13))


def _telegrapher_family(res_tol, rt_tol):
    ex = corpus.load("telegrapher")
    family = ex.families["complete"]({"lambda": 1.0})
    return kc.verify_complete(family, ex.hamiltonian(), "standard", [[0.3, -0.2]], count=50, seed=3,
                              res_tol=res_tol, rt_tol=rt_tol)


def test_verify_complete_records_no_failure_at_its_tolerances():
    ref = _telegrapher_family(np.inf, np.inf)
    res, rt = ref.sup_residual, ref.sup_roundtrip
    assert res > 0.0 and rt > 0.0 and not ref.failures
    assert not _telegrapher_family(res, rt).failures
    over_res, over_rt = _telegrapher_family(below(res), rt), _telegrapher_family(res, below(rt))
    assert [f[1] for f in over_res.failures] == [f"sup residual {res:.3e} > {below(res):.1e}"]
    assert [f[1] for f in over_rt.failures] == [f"inverse round-trip error {rt:.3e} > {below(rt):.1e}"]


def test_the_direction_order_check_passes_at_its_tolerance():
    f = BaseField(dim=1, comps=[lambda x: [x[0]], lambda x: [0.5 * x[0] * x[0]]])  # not commuting
    grid = GridSpec([0.0, 0.0], [0.1, 0.1], [4, 4])
    ends = []
    path = integrate._integrate_path
    with mock.patch.object(integrate, "_integrate_path", lambda *a: ends.append(path(*a)) or ends[-1]):
        sigma = kc.integral_section(f, [0.5], grid, order_tol=np.inf)
    gap = float(np.max(np.abs(sigma.values[-1, -1] - ends[0])))
    assert gap > 0.0
    kc.integral_section(f, [0.5], grid, order_tol=gap)
    with pytest.raises(kc.IntegrabilityError, match=f"corner endpoints differ by {gap:.3e}"):
        kc.integral_section(f, [0.5], grid, order_tol=below(gap))


def _telegrapher_end_to_end(**tolerances):
    ex = corpus.load("telegrapher")
    entry = ex.sections["classical-zind"]
    return kc.end_to_end(ex.hamiltonian(), entry.build(dict(entry.defaults)), "standard",
                         GridSpec([0.0, 0.0], [0.02, 0.02], [6, 7]), start=[1.0], box=entry.box,
                         hj_count=20, tolerances=tolerances)


def test_end_to_end_passes_at_its_hj_and_residual_tolerances():
    ref = _telegrapher_end_to_end()
    hj, res = ref.hj_report.sup_residual, ref.residuals.max()
    assert ref.passed and hj > 0.0 and res > 0.0
    assert _telegrapher_end_to_end(hj=hj, residual=res).passed
    over_hj = _telegrapher_end_to_end(hj=below(hj), residual=res)
    assert not over_hj.passed and over_hj.failed_stage == "hj"
    over_res = _telegrapher_end_to_end(hj=hj, residual=below(res))
    assert not over_res.passed and over_res.failed_stage == "residual"


def test_simulate_solution_passes_at_its_tolerance(tmp_path, capsys):
    ex = corpus.load("telegrapher")
    res = kc.map_residual(corpus.analytic("telegrapher", "exponential"), ex.hamiltonian()).max()
    assert res > 0.0
    verdicts = []
    for tol, code in ((res, 0), (below(res), 1)):
        assert cli.main(["simulate", "--example", "telegrapher", "--solution", "exponential",
                         "--tol", repr(tol), "--out", str(tmp_path)]) == code
        capsys.readouterr()
        report = json.loads((tmp_path / "summary.json").read_text())
        assert report["tolerance"] == tol and max(report[key] for key in ("max_r_q", "max_r_p", "max_r_z")) == res
        verdicts.append(report["verdict"])
    assert verdicts == ["PASS", "FAIL"]
