"""The dense and restricted oracles: lowest k by subset ``eigh``, self-certified."""

from importlib import resources

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from fykit import cli, hardcore
from fykit.blockops import Operator
from fykit.errors import InvalidInputError
from fykit.hardcore import restricted_oracle, restricted_space
from fykit.lattice import LatticeModel, PairPotential, build_hamiltonian, dense_oracle_spectrum

_DEPTH = st.floats(min_value=-10.0, max_value=10.0)
_POTENTIALS = st.one_of(
    st.builds(PairPotential.onsite, _DEPTH),
    st.builds(PairPotential.square, _DEPTH, st.integers(min_value=0, max_value=3)),
    st.builds(PairPotential.gaussian, _DEPTH, st.floats(min_value=0.2, max_value=3.0)),
    st.builds(PairPotential.table, st.lists(_DEPTH, min_size=1, max_size=5)),
)


@st.composite
def models(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    largest = max(L for L in range(2, 344) if L ** n <= 343)
    return LatticeModel(
        N=n,
        L=draw(st.integers(min_value=2, max_value=largest)),
        boundary=draw(st.sampled_from(["box", "ring"])),
        t=draw(st.floats(min_value=0.0, max_value=2.0)),
        potential=draw(_POTENTIALS),
        core_radius=draw(st.sampled_from([None, 0, 1])),
    )


@settings(max_examples=150, deadline=None)
@given(model=models(), data=st.data())
def test_oracles_certify_the_lowest_k(model, data):
    kept = restricted_space(model)
    if kept.shape[0] == 0:
        with pytest.raises(InvalidInputError):
            restricted_oracle(model, 1)
        return
    k = data.draw(st.integers(min_value=1, max_value=min(kept.shape[0], 6)), label="k")
    oracle = restricted_oracle if model.has_core else dense_oracle_spectrum
    results = oracle(model, k)
    want = np.linalg.eigvalsh(build_hamiltonian(model).materialize()[np.ix_(kept, kept)])[:k]
    in_core = np.ones(model.dimension, dtype=bool)
    in_core[kept] = False
    assert len(results) == k
    for r, lam in zip(results, want):
        assert r.method == ("restricted-eigh" if model.has_core else "dense-eigh")
        assert abs(r.value - lam) <= 1e-12 * (1.0 + abs(lam))
        assert r.residual_norm <= 1e-10
        assert r.vector.shape == (model.dimension,)
        assert abs(np.linalg.norm(r.vector) - 1.0) <= 1e-12
        assert np.all(r.vector[in_core] == 0.0)


def _spy_on_eigh(monkeypatch):
    calls = []
    real = sla.eigh

    def spy(*args, **kwargs):
        calls.append(kwargs.get("subset_by_index"))
        return real(*args, **kwargs)

    monkeypatch.setattr(sla, "eigh", spy)
    return calls


def test_auto_target_diagonalizes_only_the_ground_state(monkeypatch, capsys, tmp_path):
    tiny3 = resources.files("fykit").joinpath("configs", "tiny3.cfg").read_text()
    cfg = tmp_path / "tiny3-auto.cfg"
    cfg.write_text(tiny3.replace("target = -7.6", "target = auto"))
    calls = _spy_on_eigh(monkeypatch)
    assert cli.main(["solve3", "--config", str(cfg)]) == 0
    assert "auto target from dense oracle" in capsys.readouterr().out
    assert calls == [[0, 0]]


@pytest.mark.parametrize("core", [None, 1])
@pytest.mark.parametrize("k", [0, 10_000])
def test_oracles_reject_k_before_eigh(monkeypatch, tiny3, core, k):
    model = LatticeModel(N=3, L=6, potential=tiny3.potential, core_radius=core)
    calls = _spy_on_eigh(monkeypatch)
    with pytest.raises(InvalidInputError, match="eigenpair count"):
        restricted_oracle(model, k)
    assert calls == []


def test_restricted_oracle_refuses_an_asymmetric_hamiltonian(monkeypatch):
    model = LatticeModel(N=3, L=4, core_radius=0)
    h = build_hamiltonian(model).to_sparse().tolil()
    kept = restricted_space(model)
    h[kept[0], kept[1]] += 1e-15
    monkeypatch.setattr(hardcore, "build_hamiltonian", lambda m: Operator.sparse(h.tocsr()))
    calls = _spy_on_eigh(monkeypatch)
    with pytest.raises(InvalidInputError, match="not exactly symmetric"):
        restricted_oracle(model, 1)
    assert calls == []
