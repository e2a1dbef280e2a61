"""T*h3 (conftest.t_star_h3), a double extension by an outer derivation,
through the CLI pipeline at small p."""

import numpy as np
import pytest
from conftest import fixture_bundle, t_star_h3

from homext import gfp
from homext.cli import main


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_t_star_h3_verifies_and_round_trips(tmp_path, p):
    """verify of V and of its L pass, and p-extend -> reduce -> p-extend is bit-exact."""
    V, L, R, L2 = (tmp_path / f"{name}.json" for name in ("V", "L", "R", "L2"))
    V.write_text(fixture_bundle(t_star_h3(p)))
    assert main(["verify", str(V)]) == 0
    assert main(["p-extend", str(V), "--out", str(L)]) == 0
    assert main(["verify", str(L)]) == 0
    assert main(["reduce", str(L), "--out", str(R)]) == 0
    assert main(["p-extend", str(R), "--out", str(L2)]) == 0
    assert L2.read_bytes() == L.read_bytes()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_t_star_h3_derivation_is_outer(p):
    """No x has ad(x) = D: the columns ad(e_j) do not span D.  Its
    p-property witness is xi = 1, a0 = 0, as D^p = D."""
    fx = t_star_h3(p)
    n = fx.g.n
    ads = np.stack([fx.g.ad(gfp.unit(n, j)).reshape(-1) for j in range(n)], axis=1)
    assert gfp.solve(ads, fx.D.mat.reshape(-1), p) is None
    assert fx.pext.xi == 1 and not fx.pext.a0.any()
