"""Caller-supplied numbers: one converter (``geometry._floats``) reads every array a caller
passes, so text, ragged rows, an integer beyond the float range and (where the site refuses
it) NaN raise the site's own ``KContactError`` subclass, never a raw Python exception."""

import ast
import pathlib
import warnings

import numpy as np
import pytest

import kcontact as kc
from kcontact import corpus
from kcontact.grids import BaseField, BaseMap, GridSpec
from kcontact.sections import sample_box

CH12 = kc.ChartSpec(1, 2)
GRID = GridSpec([0.0, 0.0], [0.1, 0.1], [3, 4])
FIELD = BaseField(dim=1, comps=[lambda x: [x[0]], lambda x: [0.5 * x[0]]])
BIG = 10 ** 400  # an int that numpy cannot turn into a float
NAN = float("nan")
RAGGED = [[0.0], [0.0, 1.0]]


def _tel():
    ex = corpus.load("telegrapher")
    entry = ex.sections["classical-zind"]
    return ex.hamiltonian(), entry.build(dict(entry.defaults))


def _tel_zdep():
    entry = corpus.load("telegrapher").sections["zdep-family"]
    return entry.build(dict(entry.defaults))


def _family():
    return corpus.load("telegrapher").families["complete"]({"lambda": 1.0})


def _box(box):
    return kc.hj_classical_zind(*_tel(), box=box, count=5)


def _samples(samples):
    return kc.hj_classical_zind(*_tel(), samples=samples)


def _slice(z):
    return kc.check_isotropic_slices(_tel_zdep(), z, [[0.5]])


def _params(params):
    return kc.verify_complete(_family(), _tel()[0], "standard", params, count=5)


def _invert(v=((0.3,), (0.4,)), p_init=((0.0,), (0.0,))):
    return kc.invert_fibre_derivative(_tel()[0], [1.0], [0.0, 0.0], v, p_init)


def _second_order(p_init):
    return kc.second_order_residual(_tel()[0], BaseMap(GRID, np.full(GRID.shape + (1,), 0.5)), p_init=p_init)


def _grid(origin=(0.0, 0.0), spacing=(0.1, 0.1)):
    return GridSpec(origin, spacing, [3, 3])


NUMBERS = "rows of numbers of one width"
SHAPE_21 = r"must be a \(k, n\) = \(2, 1\) array of numbers, got "
FAMILY = "^family telegrapher-complete takes 2 finite real parameters, got "
# case -> (call, the KContactError subclass it raises, a pattern of its message)
CASES = {
    "sampling box text": (lambda: _box("ab"), kc.ContractError, r"lo/hi bounds, got 'ab'"),
    "sampling box ragged": (lambda: _box([[0.5, 2.0], [1.0]]), kc.ContractError, "lo/hi bounds, got"),
    "sampling box beyond floats": (lambda: _box([[0.0, BIG]]), kc.ContractError, "lo/hi bounds, got"),
    "sampling box NaN": (lambda: _box([[NAN, 1.0]]), kc.ContractError, "bounds must be finite"),
    "sampling box through sample_box": (lambda: sample_box([[0.0, BIG]], 3, np.random.default_rng(0)),
                                        kc.ContractError, "lo/hi bounds, got"),
    "HJ samples text": (lambda: _samples("ab"), kc.ContractError, NUMBERS),
    "HJ samples ragged": (lambda: _samples([[0.5], [0.6, 0.7]]), kc.ContractError, NUMBERS),
    "HJ samples beyond floats": (lambda: _samples([[BIG]]), kc.ContractError, NUMBERS),
    "holonomy samples beyond floats": (lambda: kc.check_holonomic(_tel()[1], [[BIG]]), kc.ContractError, NUMBERS),
    "holonomy samples numeric text": (lambda: kc.check_holonomic(_tel()[1], [["0.5"]]), kc.ContractError, NUMBERS),
    "holonomy samples ragged": (lambda: kc.check_holonomic(_tel()[1], RAGGED), kc.ContractError, NUMBERS),
    "commutator samples beyond floats": (lambda: kc.commutator_defect(kc.project_Q(*_tel()), [[BIG]]),
                                         kc.ContractError, NUMBERS),
    "commutator samples ragged": (lambda: kc.commutator_defect(kc.project_Q(*_tel()), RAGGED),
                                  kc.ContractError, NUMBERS),
    "isotropy samples beyond floats": (lambda: kc.check_isotropic_slices(_tel_zdep(), [0.0, 0.0], [[BIG]]),
                                       kc.ContractError, NUMBERS),
    "isotropy slice text": (lambda: _slice("ab"), kc.ContractError, "slice z must be k = 2 finite numbers"),
    "isotropy slice ragged": (lambda: _slice(RAGGED), kc.ContractError, "slice z must be k = 2 finite numbers"),
    "isotropy slice beyond floats": (lambda: _slice([BIG, 0.0]), kc.ContractError, "slice z must be k = 2"),
    "isotropy slice NaN": (lambda: _slice([NAN, 0.0]), kc.ContractError, "slice z must be k = 2 finite"),
    "family parameters text": (lambda: _params("ab"), kc.ContractError, "parameters must be " + NUMBERS),
    "family parameters numeric text": (lambda: _params([["0.5", "0.5"]]), kc.ContractError, "parameters must be"),
    "family parameters ragged": (lambda: _params([[0.5, 0.5], [0.5]]), kc.ContractError, "parameters must be"),
    "family parameters beyond floats": (lambda: _params([[BIG, 0.0]]), kc.ContractError, "parameters must be"),
    "family section too few parameters": (lambda: _family().section_of([0.5]).p_at([0.1], [0.2, 0.3]),
                                          kc.ContractError, FAMILY + r"\[0\.5\]$"),
    "family section text": (lambda: _family().section_of(["a", "b"]), kc.ContractError, FAMILY + r"\['a', 'b'\]$"),
    "family section numeric text": (lambda: _family().section_of(["1", "2"]), kc.ContractError,
                                    FAMILY + r"\['1', '2'\]$"),
    "family section a number": (lambda: _family().section_of(0.5), kc.ContractError, FAMILY + "0.5$"),
    "family section rows": (lambda: _family().section_of([[0.5, 0.5]]), kc.ContractError, FAMILY),
    "family section beyond floats": (lambda: _family().section_of([BIG, 0.0]), kc.ContractError, FAMILY),
    "family section NaN": (lambda: _family().section_of([NAN, 0.0]), kc.ContractError, FAMILY + r"\[nan, 0\.0\]$"),
    "family section inf": (lambda: _family().section_of([0.0, -np.inf]), kc.ContractError, FAMILY),
    "fibre target text": (lambda: _invert(v="ab"), kc.ShapeError, "v " + SHAPE_21 + "'ab'"),
    "fibre target ragged": (lambda: _invert(v=RAGGED), kc.ShapeError, "v " + SHAPE_21),
    "fibre target beyond floats": (lambda: _invert(v=[[BIG], [0.0]]), kc.ShapeError, "v " + SHAPE_21),
    "fibre target NaN": (lambda: _invert(v=[[NAN], [0.0]]), kc.ShapeError, "^v contains non-finite entries$"),
    "fibre start text": (lambda: _invert(p_init="ab"), kc.ShapeError, "p_init " + SHAPE_21 + "'ab'"),
    "fibre start ragged": (lambda: _invert(p_init=RAGGED), kc.ShapeError, "p_init " + SHAPE_21),
    "fibre start beyond floats": (lambda: _invert(p_init=[[BIG], [0.0]]), kc.ShapeError, "p_init " + SHAPE_21),
    "fibre start NaN": (lambda: _invert(p_init=[[NAN], [0.0]]), kc.ShapeError,
                        "^p_init contains non-finite entries$"),
    "fibre base point text": (lambda: kc.invert_fibre_derivative(_tel()[0], "a", [0.0, 0.0], [[0.3], [0.4]],
                                                                 [[0.0], [0.0]]),
                              kc.ShapeError, "^q must be numbers, got 'a'$"),
    "fibre z beyond floats": (lambda: kc.invert_fibre_derivative(_tel()[0], [1.0], [BIG, 0.0], [[0.3], [0.4]],
                                                                 [[0.0], [0.0]]),
                              kc.ShapeError, "^z must be numbers, got"),
    "fibre base point NaN": (lambda: kc.invert_fibre_derivative(_tel()[0], [NAN], [0.0, 0.0], [[0.3], [0.4]],
                                                                [[0.0], [0.0]]),
                             kc.ShapeError, "^q contains non-finite entries$"),
    "fibre z NaN": (lambda: kc.invert_fibre_derivative(_tel()[0], [1.0], [NAN, 0.0], [[0.3], [0.4]],
                                                       [[0.0], [0.0]]),
                    kc.ShapeError, "^z contains non-finite entries$"),
    "section point text": (lambda: _tel()[1].at("ab"), kc.ShapeError, "^q must be numbers, got 'ab'$"),
    "section point ragged": (lambda: _tel()[1].at(RAGGED), kc.ShapeError, "^q must be numbers"),
    "section point beyond floats": (lambda: _tel()[1].at([BIG]), kc.ShapeError, "^q must be numbers"),
    "z-dependent section point text z": (lambda: _tel_zdep().at([0.5], "ab"), kc.ShapeError,
                                         "^z must be numbers, got 'ab'$"),
    "z-dependent section point ragged q": (lambda: _tel_zdep().at(RAGGED, [0.0, 0.0]), kc.ShapeError,
                                           "^q must be numbers"),
    "grid origin text": (lambda: _grid(origin="ab"), kc.ShapeError, "grid origin must be numbers, got 'ab'"),
    "grid origin numeric text": (lambda: _grid(origin=["0", "0"]), kc.ShapeError,
                                 r"grid origin must be numbers, got \['0', '0'\]"),
    "grid origin ragged": (lambda: _grid(origin=RAGGED), kc.ShapeError, "grid origin must be numbers"),
    "grid origin beyond floats": (lambda: _grid(origin=[BIG, 0.0]), kc.ShapeError, "grid origin must be numbers"),
    "grid origin NaN": (lambda: _grid(origin=[NAN, 0.0]), kc.ContractError, "origin and spacing must be finite"),
    "grid spacing text": (lambda: _grid(spacing="ab"), kc.ShapeError, "grid spacing must be numbers, got 'ab'"),
    "grid spacing ragged": (lambda: _grid(spacing=RAGGED), kc.ShapeError, "grid spacing must be numbers"),
    "grid spacing beyond floats": (lambda: _grid(spacing=[BIG, 0.1]), kc.ShapeError, "grid spacing must be"),
    "grid spacing NaN": (lambda: _grid(spacing=[0.1, NAN]), kc.ContractError, "origin and spacing must be finite"),
    "start text": (lambda: kc.integral_section(FIELD, "ab", GRID), kc.ContractError,
                   "start point must be numbers, got 'ab'"),
    "start ragged": (lambda: kc.integral_section(FIELD, RAGGED, GRID), kc.ContractError,
                     "start point must be numbers"),
    "start beyond floats": (lambda: kc.integral_section(FIELD, [BIG], GRID), kc.ContractError,
                            "start point must be numbers"),
    "start NaN": (lambda: kc.integral_section(FIELD, [NAN], GRID), kc.ContractError, "start point must be finite"),
    "end-to-end start text": (lambda: kc.end_to_end(*_tel(), "standard", GRID, ["x"]), kc.ContractError,
                              r"^\[stage integrate\] start point must be numbers, got \['x'\]"),
    "end-to-end start beyond floats": (lambda: kc.end_to_end(*_tel(), "standard", GRID, [BIG]),
                                       kc.ContractError, r"^\[stage integrate\] start point must be numbers"),
    "second-order start text": (lambda: _second_order("ab"), kc.ShapeError, "p_init " + SHAPE_21 + "'ab'"),
    "second-order start ragged": (lambda: _second_order(RAGGED), kc.ShapeError, "p_init " + SHAPE_21),
    "second-order start beyond floats": (lambda: _second_order([[BIG], [0.0]]), kc.ShapeError,
                                         "p_init " + SHAPE_21),
    "second-order start of the wrong shape": (lambda: _second_order([1, 2, 3]), kc.ShapeError,
                                              "p_init " + SHAPE_21 + r"\[1, 2, 3\]"),
    "second-order start NaN": (lambda: _second_order([[NAN], [0.0]]), kc.ShapeError, "p contains non-finite"),
    "flat k-tangent text": (lambda: kc.KTangent.from_flat(CH12, "ab"), kc.ShapeError,
                            "flat k-tangent is not an array of numbers, got 'ab'"),
    "flat k-tangent ragged": (lambda: kc.KTangent.from_flat(CH12, RAGGED), kc.ShapeError,
                              "flat k-tangent is not an array of numbers"),
    "flat k-tangent beyond floats": (lambda: kc.KTangent.from_flat(CH12, [BIG] + [0.0] * 9), kc.ShapeError,
                                     "flat k-tangent is not an array of numbers"),
    "flat k-tangent NaN": (lambda: kc.KTangent.from_flat(CH12, [NAN] + [0.0] * 9), kc.ShapeError,
                           "q contains non-finite entries"),
    "point text": (lambda: kc.DarbouxPoint("ab", [[0.0], [0.0]], [0.0, 0.0]), kc.ShapeError,
                   "^q is not an array of numbers$"),
    "point ragged": (lambda: kc.DarbouxPoint([0.5], RAGGED, [0.0, 0.0]), kc.ShapeError,
                     "^p is not an array of numbers$"),
    "point NaN": (lambda: kc.DarbouxPoint([0.5], [[0.0], [0.0]], [NAN, 0.0]), kc.ShapeError,
                  "z contains non-finite entries"),
    "point beyond floats": (lambda: kc.DarbouxPoint([BIG], [[0.0], [0.0]], [0.0, 0.0]), kc.ShapeError,
                            "^q is not an array of numbers$"),
    "point beyond floats in a row": (lambda: kc.DarbouxPoint([0.5], [[0.0], [BIG]], [0.0, 0.0]),
                                     kc.ShapeError, "^p is not an array of numbers$"),
    "flat point beyond floats": (lambda: kc.DarbouxPoint.from_flat(CH12, [BIG] + [0.0] * 4), kc.ShapeError,
                                 "^flat point is not an array of numbers$"),
    "tangent text": (lambda: kc.Tangent([0.5], [[0.0], ["x"]], [0.0, 0.0]), kc.ShapeError,
                     "^p is not an array of numbers$"),
    "tangent ragged": (lambda: kc.Tangent([0.5], [[0.0], [0.0]], RAGGED), kc.ShapeError,
                       "^z is not an array of numbers$"),
    "tangent NaN": (lambda: kc.Tangent([NAN], [[0.0], [0.0]], [0.0, 0.0]), kc.ShapeError,
                    "q contains non-finite entries"),
    # numpy reads None as NaN in a float conversion: the entry's type refuses it
    "point None": (lambda: kc.DarbouxPoint([None], [[0.0], [0.0]], [0.0, 0.0]), kc.ShapeError,
                   "^q is not an array of numbers$"),
    "point None in a row": (lambda: kc.DarbouxPoint([0.5], [[0.0], [None]], [0.0, 0.0]), kc.ShapeError,
                            "^p is not an array of numbers$"),
    "tangent None": (lambda: kc.Tangent([0.5], [[0.0], [0.0]], [None, 0.0]), kc.ShapeError,
                     "^z is not an array of numbers$"),
    "covector None": (lambda: kc.Covector([None], [[0.0], [0.0]], [0.0, 0.0]), kc.ShapeError,
                      "^dq is not an array of numbers$"),
}


@pytest.mark.parametrize("case", CASES)
def test_a_caller_array_that_is_not_numbers_raises_the_site_error(case):
    call, error, message = CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a numpy warning fails the case
        with pytest.raises(kc.KContactError, match=message) as err:
            call()
    assert type(err.value) is error


def test_an_object_block_is_read_as_numbers_only_when_no_pass_built_it():
    # numpy keeps an int beyond int64 as an object; one that fits a float is a number, kept
    assert kc.DarbouxPoint([10 ** 300], [[0.0], [0.0]], [0.0, 0.0]).q.dtype == object
    # a block holding a dual or lane value is the pass's own, kept as it is with its other entries
    lane = kc.dual._lanes_of(np.array([[0.5], [0.25]]))[0]
    for traced in (kc.dual.Dual(0.5, (1.0,), 1), lane):
        q = np.fromiter([traced, BIG], dtype=object, count=2)  # as DarbouxPoint.from_flat builds it
        assert kc.DarbouxPoint(q, [[0.0], [0.0]], [0.0, 0.0]).q[1] == BIG


def test_nan_sample_rows_and_parameters_still_reach_the_checks():
    # NaN is a float: the sample rows of a check and the parameter rows of a complete family
    # keep it, so a NaN sample makes the check's sup NaN and a NaN slice records a failure
    # that names its parameters, before the slice's check runs, and leaves both sups NaN
    gamma = _tel()[1]
    assert np.isnan(kc.check_holonomic(gamma, [[0.5], [NAN]]))
    res = _params([[NAN, 0.0]])
    (key, message), = res.failures
    assert np.isnan(key[0]) and key[1] == 0.0
    assert message == "parameters (nan, 0.0) are not finite"
    assert np.isnan(res.sup_residual) and np.isnan(res.sup_roundtrip)


def test_a_family_section_is_named_by_its_parameters_as_floats():
    for lam in ([0.0, 0.0], (0, 0), np.zeros(2)):
        assert _family().section_of(lam).name == "telegrapher-complete[[0.0, 0.0]]"


# The functions whose ``except`` clauses may name TypeError, ValueError or OverflowError:
# the converter, the CLI's own text parsers, the node sampler's conversion of a closed form's
# values, and the gauge-matrix readers (which also take lanes and duals).  Two more catch a
# user function's arithmetic failure, not a caller array: a lane operation that fails
# (dual._Lanes._each) and a closed form that fails on the padding rings of
# second_order_residual.
EXCEPT_ALLOWED = {
    ("geometry.py", "_floats"), ("cli.py", "_number"), ("cli.py", "_parse_sets"), ("grids.py", "_sample"),
    ("hj.py", "_gauge_shape"), ("hj.py", "_gauge_floats"), ("dual.py", "_each"),
    ("hdw.py", "second_order_residual"),
}
CONVERSION_ERRORS = {"TypeError", "ValueError", "OverflowError"}


def _handlers_naming_conversion_errors(tree):
    """(function name, line) of every except clause that names a conversion error."""
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                named = {n.id for n in ast.walk(child.type) if isinstance(n, ast.Name)}
                if named & CONVERSION_ERRORS:
                    out.append((fn, child.lineno))
            visit(child, name)

    visit(tree, None)
    return out


def test_only_the_converter_catches_conversion_errors():
    """A hand-written ``except (TypeError, ValueError)`` around a caller's array is a second
    owner of the rule "this array is numbers": every such array goes through the converter."""
    found = []
    for path in sorted(pathlib.Path(kc.__file__).parent.glob("*.py")):
        for fn, line in _handlers_naming_conversion_errors(ast.parse(path.read_text())):
            if (path.name, fn) not in EXCEPT_ALLOWED:
                found.append(f"{path.name}:{line} in {fn}")
    assert found == []


def test_the_allowlist_check_finds_a_hand_written_copy():
    src = "def f(x):\n    try:\n        return float(x)\n    except (TypeError, ValueError):\n        return 0.0\n"
    assert _handlers_naming_conversion_errors(ast.parse(src)) == [("f", 4)]
