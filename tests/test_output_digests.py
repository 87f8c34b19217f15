"""Library outputs pinned by digest.

Each case runs one public entry point on fixed, seeded inputs and hashes
everything it returns: report summaries as canonical JSON, arrays by dtype,
shape and bytes.  A change that moves one bit of one output fails its case.
The digests were recorded with numpy 2.4.6 (the version CI installs); a
deliberate change of output re-records them with ``python tests/test_output_digests.py``
and names each changed case.
"""

import hashlib
import json

import numpy as np
import pytest

import kcontact as kc
from kcontact import corpus

DIGESTS = {
    "complete/hunter-saxton/evolution": "5579ac916f84133a5a30da85",
    "complete/hunter-saxton/standard": "0d804bc949cd3cb9532c4f99",
    "complete/telegrapher/evolution": "56c38abc08c34744101e6cc8",
    "complete/telegrapher/standard": "ba0de82a3b5e8abf8190f6e9",
    "end_to_end/hunter-saxton/zdep-quadratic": "09352eff9f8cec26b9cd2687",
    "end_to_end/telegrapher/classical-zind": "0c2650b0294c99845e4cb337",
    "second_order/membrane/separable": "46305881b64aef147b1257c3",
    "second_order/telegrapher/exponential": "f25eabdf96fcbe46ff1fbc94",
}


def _digest(*parts) -> str:
    """sha256 over the parts: arrays by dtype, shape and bytes, anything else as sorted JSON."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            h.update(f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
        h.update(b"\0")
    return h.hexdigest()[:24]


def _complete(name, mode):
    """verify_complete of the family on a 5 x 5 parameter grid, 729 seeded samples."""
    ex = corpus.load(name)
    fam = ex.families["complete"]({**ex.defaults, "a": 1.0})
    samples = np.random.default_rng(38).uniform(-1.0, 1.0, (729, 3))
    axis = np.linspace(-1.0, 1.0, 5)
    params = np.array(np.meshgrid(axis, axis)).reshape(2, -1).T
    return _digest(kc.verify_complete(fam, ex.hamiltonian(), mode, params, base_samples=samples).summary())


def _pipeline(name, key):
    """end_to_end on the section's simulate grid, and the integrated base map it lifts."""
    ex = corpus.load(name)
    entry = ex.sections[key]
    P = dict(entry.defaults)
    gamma = entry.build(P)
    h = ex.hamiltonian({k: v for k, v in P.items() if k in ex.defaults})
    C = entry.gauge(P) if entry.gauge is not None else None
    sim = entry.sim
    grid = kc.GridSpec(sim["origin"], sim["spacing"], sim["counts"])
    samples = kc.sections.sample_box(entry.box or kc.sections.default_box(gamma._base[1]), 200,
                                     np.random.default_rng(38))
    sol = ex.solutions[sim["reference"]]
    f = sol.build({**sol.defaults, **{k: v for k, v in P.items() if k in sol.defaults}})
    zdep = gamma._base[0] == "n+k"  # the integrated base point is q, then z

    def reference(t):
        q, _, z = f(list(t))
        return [float(v) for v in list(q) + (list(z) if zdep else [])]

    rep = kc.end_to_end(h, gamma, "evolution" if zdep else "standard", grid, start=list(sim["start"]),
                        C=C, hj_samples=samples, reference=reference)
    assert rep.passed, rep.notes
    field = kc.project_Q(h, gamma) if C is None else kc.project_zdep(h, gamma, C)
    sigma = kc.integral_section(f=field, start=list(sim["start"]), grid=grid)
    psi, res = rep.solution, rep.residuals
    return _digest(sigma.values, sigma._table, psi.q, psi.p, psi.z, *psi._table,
                   res.r_q, res.r_p, res.r_z, rep.summary())


def _second_order(name, key, grid):
    """second_order_residual of the profile in both modes."""
    ex = corpus.load(name)
    sol = ex.solutions[key]
    SP = {**sol.defaults, "u0": 0.8}
    f = sol.build(SP)
    h = ex.hamiltonian({k: SP[k] for k in ex.defaults})
    qmap = kc.BaseMap.from_function(grid, lambda t: [float(v) for v in f(list(t))[0]])
    return _digest(*(kc.second_order_residual(h, qmap, mode, rng=np.random.default_rng(38))
                     for mode in ("standard", "evolution")))


CASES = {
    **{f"complete/{name}/{mode}": (lambda name=name, mode=mode: _complete(name, mode))
       for name in ("telegrapher", "hunter-saxton") for mode in ("standard", "evolution")},
    "end_to_end/telegrapher/classical-zind": lambda: _pipeline("telegrapher", "classical-zind"),
    "end_to_end/hunter-saxton/zdep-quadratic": lambda: _pipeline("hunter-saxton", "zdep-quadratic"),
    "second_order/telegrapher/exponential": lambda: _second_order(
        "telegrapher", "exponential", kc.GridSpec([0.0, 0.0], [1e-3, 1e-3], [20, 20])),
    "second_order/membrane/separable": lambda: _second_order(
        "membrane", "separable", kc.GridSpec([0.0] * 3, [5e-4] * 3, [9] * 3)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_digest(case):
    assert CASES[case]() == DIGESTS[case]


if __name__ == "__main__":
    print(json.dumps({case: CASES[case]() for case in sorted(CASES)}, indent=4))
