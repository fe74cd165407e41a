import pytest

import oracle
import workloads
from workloads import Model, Request


def _dkscale_output(d: float, n: int, u: int, rel_err: float) -> dict:
    rows = [[k, n, n * oracle.kernel_dk(d, k, n, u) * (1.0 + rel_err), 0.0] for k in (1, 2, 3)]
    return {"columns": ["k", "n", "n_dk", "target"], "rows": rows}


@pytest.mark.parametrize("rel_err, ok", [(0.0, True), (1e-3, True), (-1e-3, True),
                                         (5e-3, False), (-5e-3, False)])
def test_dkscale_check_is_relative_to_the_oracle(rel_err, ok):
    d, n, u = 0.28, 1024, 5
    req = Request("dkscale", Model("farima", d=d), {"n": n, "k": "1,2,3", "u": u})
    verdict = workloads.verify(req, _dkscale_output(d, n, u, rel_err))
    assert verdict.ok is ok
    assert verdict.dk_rel_dev == pytest.approx(abs(rel_err), abs=1e-12)
    assert verdict.phi_dev is None
