from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import qgl.magnetic as magnetic
import qgl.spectrum as spectrum
from qgl.errors import ExcessiveExclusions, IdentityViolated, WrongFamily
from qgl.graphs import load_graph, loop_chain
from qgl.secular import stack_size
from qgl.stats import (
    binomial_test,
    draw_lengths,
    gaussian_limit_scan,
    SurplusDistribution,
    run_experiment,
    signature_recurrence,
    symmetry_test,
)


def test_draw_lengths_deterministic():
    a = draw_lengths(5, 123)
    b = draw_lengths(5, 123)
    assert np.array_equal(a, b)
    assert np.all((1.0 <= a) & (a <= 2.0))
    assert not np.array_equal(a, draw_lengths(5, 124))


def test_run_is_deterministic(dumbbell):
    d1 = run_experiment(dumbbell, 150, seed=7)
    d2 = run_experiment(dumbbell, 150, seed=7)
    assert d1.sigma_hist == d2.sigma_hist
    assert d1.N_raw == d2.N_raw
    assert [r.k for r in d1.records] == [r.k for r in d2.records]


def test_tree_surplus_is_point_mass(star3):
    d = run_experiment(star3, 120, seed=1)
    assert set(d.sigma_hist) == {0}
    assert d.loop_count == 0
    # omega of this 3-star takes the two allowed values only
    assert set(d.omega_hist) <= {-2, -1}


def test_dumbbell_run_tallies(dumbbell):
    d = run_experiment(dumbbell, 400, seed=7, check_identities=True)
    assert d.K == 400
    assert d.identity_failures == 0
    assert sum(d.sigma_hist.values()) == 400
    # built-in dumbbell lengths are incommensurate: no degeneracies at all
    assert d.excluded == {}
    assert d.loop_count > 0
    assert set(d.sigma_hist) == {0, 1, 2}


def test_equilateral_star_stops_on_exclusions(star3, monkeypatch):
    # with equal lengths every level is multiple or vanishes at the centre,
    # so no record ever accumulates: the first batch must end the run
    located = []
    sweep = spectrum.Walk._sweep

    def recording_sweep(self, *args, **kwargs):
        located.append(sweep(self, *args, **kwargs))
        return located[-1]

    monkeypatch.setattr(spectrum.Walk, "_sweep", recording_sweep)
    size = stack_size(star3)
    for K in (10, 10 + 8 * size):
        located.clear()
        with pytest.raises(ExcessiveExclusions, match="indices off loop states excluded"):
            run_experiment(star3.with_lengths([1.0, 1.0, 1.0]), K)
        # the request is located a sweep at a time: the sweeps located the
        # first batch (stack_size levels, or the whole request), no sweep
        # after it, and far fewer than K eigenvalues when K spans batches
        levels = [len(lanes) for lanes in located]
        eigenvalues = sum(lv.multiplicity for lanes in located for lv in lanes)
        assert sum(levels) >= size or eigenvalues >= K
        assert sum(levels[:-1]) < size
        assert eigenvalues < K / 2 or K < size


def test_run_locates_no_level_past_last_record(dumbbell, monkeypatch):
    located = []
    take = spectrum.Walk.take

    def recording_take(self, count):
        for lv in take(self, count):
            located.append(lv)
            yield lv

    monkeypatch.setattr(spectrum.Walk, "take", recording_take)
    d = run_experiment(dumbbell, 50, seed=7, chunk=16)
    assert located[-1].k == d.records[-1].k
    assert sum(lv.multiplicity for lv in located) == d.N_raw
    # the run keeps its walk's tallies
    assert d.tally.levels == len(located) and d.tally.lanes >= 4


@pytest.mark.parametrize("name", ("dumbbell", "lasso", "chain4"))
def test_short_lanes_keep_the_records(name, monkeypatch):
    # the shrinking trailing requests of a run walk in lanes of
    # SHORT_LANE_LEVELS levels: fewer lockstep rounds than lanes of
    # LANE_LEVELS, and the same records; lane edges move the frames, so k
    # agrees to the walk's 1e-12 and rho to its last digits
    g = load_graph(name)
    sweep = spectrum.Walk._sweep

    def recording_sweep(self, m):
        before = self.tally.rounds
        levels = sweep(self, m)
        if m < spectrum.LANES:
            small_rounds[-1] += self.tally.rounds - before
        return levels

    monkeypatch.setattr(spectrum.Walk, "_sweep", recording_sweep)
    for seed in (1, 2, 3):
        runs, small_rounds = [], []
        for shortest in (spectrum.LANE_LEVELS, spectrum.SHORT_LANE_LEVELS):
            small_rounds.append(0)
            with monkeypatch.context() as patch:
                patch.setattr(spectrum, "SHORT_LANE_LEVELS", shortest)
                runs.append(run_experiment(g, 500, seed=seed, magnetic=True,
                                           check_identities=True))
        old, new = runs
        assert small_rounds[1] < small_rounds[0], (name, seed)
        assert (new.N_raw, new.excluded, new.identity_failures) \
            == (old.N_raw, old.excluded, old.identity_failures)
        assert [(r.n, r.sigma, r.omega, r.positions, r.iota) for r in new.records] \
            == [(r.n, r.sigma, r.omega, r.positions, r.iota) for r in old.records]
        for a, b in zip(new.records, old.records):
            assert a.k == pytest.approx(b.k, rel=1e-12)
            assert a.capacities == pytest.approx(b.capacities, rel=1e-6)


def test_plain_run_keeps_no_couplings(dumbbell, monkeypatch):
    # only a magnetic run asks its walk and reconstruction for the flux
    # couplings; a plain run never computes them
    ref = run_experiment(dumbbell, 100, seed=7)
    monkeypatch.setattr(spectrum, "edge_couplings", None)
    assert run_experiment(dumbbell, 100, seed=7).records == ref.records


def test_magnetic_tree_run_equals_plain_run(tree31):
    # no flux acts on a tree: a magnetic run takes no frame and keeps no
    # couplings, so it walks and reconstructs as a plain run and gives its
    # records, with an empty iota
    plain = run_experiment(tree31, 300, seed=236)
    mag = run_experiment(tree31, 300, seed=236, magnetic=True)
    assert all(r.iota == () for r in mag.records)
    assert [replace(r, iota=None) for r in mag.records] == plain.records
    assert mag.report() == plain.report()


def test_one_frame_per_eigenpair_beyond_localization(dumbbell, monkeypatch):
    # an eigenpair whose level the walk certified from its final Newton
    # frame is read from that frame, flux Hessian included: no matrix is
    # decomposed after the walk, magnetic run or not; no SVD.  Matrices of
    # the order of U are counted where they are decomposed, by the depth of
    # each stack
    for magnetic_run in (False, True):
        with monkeypatch.context() as patch:
            _all_read_from_the_walk(*_count_frames_beyond_localization(
                dumbbell, patch, magnetic_run))


@pytest.mark.parametrize("magnetic_run", (False, True))
def test_resolved_frames_are_tallied(dumbbell, monkeypatch, magnetic_run):
    # a pole limit this low moves the pole of many frames; each matrix solved
    # again is one more decomposition, in the walk's tally too, and none is
    # left after the walk
    monkeypatch.setattr(spectrum, "POLE_LIMIT", 3.0)
    calls, d = _count_frames_beyond_localization(dumbbell, monkeypatch, magnetic_run)
    _all_read_from_the_walk(calls, d)
    assert d.tally.resolves == calls["walk resolves"] > 0
    assert calls["reconstruction resolves"] == 0


def test_levels_settled_afresh_take_one_frame_each(dumbbell, monkeypatch):
    # certificates that decide nothing make the walk re-count every level,
    # so every simple level takes one frame at its k in the walk, which also
    # gives its flux Hessian: nothing is decomposed after the walk, each
    # eigenpair and flux Hessian is bit for bit eigenfunction_at's and the
    # kappa frame's, and the run finds the records a certified walk finds
    ref = run_experiment(dumbbell, 50, seed=7, magnetic=True)
    certified_counts = spectrum._certified_counts

    def undecided(*args):
        audit = certified_counts(*args)
        return audit._replace(decided=np.zeros_like(audit.decided))

    monkeypatch.setattr(spectrum, "_certified_counts", undecided)
    eps, eigenpairs = [], spectrum.eigenpairs

    def kept(*args):
        rows = eigenpairs(*args)
        eps.extend(ep for _, ep, _, _ in rows if ep is not None)
        return rows

    monkeypatch.setattr(spectrum, "eigenpairs", kept)
    calls, d = _count_frames_beyond_localization(dumbbell, monkeypatch, True)
    t = d.tally
    assert t.recounts == t.levels and t.kernel_frames == calls["eigenpair"] == len(eps)
    assert calls["matrices"] == t.matrices() == d.report()["matrices"]
    assert [(r.n, r.sigma, r.omega, r.positions, r.iota) for r in d.records] \
        == [(r.n, r.sigma, r.omega, r.positions, r.iota) for r in ref.records]
    monkeypatch.undo()
    for ep in eps:
        alone = spectrum.eigenfunction_at(d.graph, ep.k, ep.n)
        for name in ("kappa", "amplitudes", "values", "derivatives", "phases"):
            assert getattr(ep, name).tobytes() == getattr(alone, name).tobytes(), ep.n
        assert ep.residual == alone.residual
        got, want = magnetic.hessian_alpha(d.graph, ep), magnetic.hessian_alpha(d.graph, ep.kappa)
        assert got.hessian.tobytes() == want.hessian.tobytes() and got.p == want.p, ep.n


def _all_read_from_the_walk(calls, d):
    """Check that the walk settled no level afresh, so that every eigenpair
    was read from its certifying frame, and that no matrix was decomposed
    after the walk."""
    t = d.tally
    assert (t.recounts, t.retries, t.fallbacks, t.kernel_frames) == (0, 0, 0, 0)
    assert calls["matrices"] == t.matrices()


def _count_frames_beyond_localization(dumbbell, monkeypatch, magnetic_run):
    """(calls, run) of a short run, after checking that every matrix
    decomposed is in the walk's tally."""
    calls = Counter()

    def counted(name, fn, weight=lambda *args: 1):
        def wrapper(*args, **kwargs):
            calls[name] += weight(*args)
            return fn(*args, **kwargs)
        return wrapper

    def depth(H, *args):
        return int(np.prod(H.shape[:-2])) if H.shape[-1] == 2 * dumbbell.E else 0

    monkeypatch.setattr(np.linalg, "eigh", counted("matrices", np.linalg.eigh, depth))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        counted("matrices", np.linalg.eigvalsh, depth))
    counting, cayley_frame, walking = spectrum.counting, spectrum._cayley_frame, []

    def counted_counting(graph, k, *args):
        # a stacked counting call decomposes one matrix per k
        calls["counting"] += np.size(k)
        walking.append(k)
        try:
            return counting(graph, k, *args)
        finally:
            walking.pop()

    def counted_cayley_frame(U, phi, vectors):
        # a matrix solved again, alone, with the pole moved
        if phi != spectrum.POLE_ROTATION:
            calls["walk resolves" if walking else "reconstruction resolves"] += 1
        return cayley_frame(U, phi, vectors)

    monkeypatch.setattr(spectrum, "counting", counted_counting)
    monkeypatch.setattr(spectrum, "_cayley_frame", counted_cayley_frame)
    eigenpairs = spectrum.eigenpairs

    def counted_eigenpairs(*args, **kwargs):
        rows = eigenpairs(*args, **kwargs)
        calls["eigenpair"] += sum(ep is not None for _, ep, _, _ in rows)
        return rows

    monkeypatch.setattr(spectrum, "eigenpairs", counted_eigenpairs)
    # the flux Hessians of a batch are stacked: count the eigenpairs handed over
    monkeypatch.setattr(magnetic, "indices_batch",
                        counted("hessian", magnetic.indices_batch,
                                lambda graph, eps, *args: len(eps)))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    d = run_experiment(dumbbell, 50, seed=7, magnetic=magnetic_run)
    t = d.tally
    assert calls["eigenpair"] >= d.K == 50
    assert calls["svd"] == 0
    assert calls["counting"] + calls["walk resolves"] == t.matrices()
    assert t.resolves == calls["walk resolves"]
    assert calls["reconstruction resolves"] == 0
    assert calls["matrices"] == t.matrices()
    if magnetic_run:
        assert calls["hessian"] >= d.K
    else:
        assert calls["hessian"] == 0
    return calls, d


@pytest.mark.parametrize("name, K, seed", [
    ("lasso", 300, None), ("dumbbell", 300, 7), ("k4", 150, 4)])
def test_stream_reasons_reproduce_run_tallies(name, K, seed):
    d = run_experiment(load_graph(name), K, seed=seed)
    excluded, loop_count, generic = Counter(), 0, 0
    # one window, unlike the run's 512-level windows
    for lv, ep, is_generic, reason in spectrum.stream_eigenpairs(d.graph, count=d.N_raw):
        if reason == "loop_supported":
            loop_count += lv.multiplicity
            continue
        loop_count += lv.loop_dims
        if reason is None:
            assert is_generic
            generic += 1
        else:
            excluded[reason] += lv.multiplicity - lv.loop_dims
    assert generic == d.K
    assert excluded == d.excluded
    assert loop_count == d.loop_count
    if name == "lasso":
        assert excluded["degenerate_at_loop"] > 0 and loop_count > 0


def test_lasso_loop_density(lasso):
    # unit loop and tail: loop-supported density l_loop / 2L = 1/4
    d = run_experiment(lasso, 600)
    dens = d.loop_density()
    assert dens == pytest.approx(0.25, abs=3.0 / np.sqrt(d.N_raw) + 0.005)
    # the loop states' degenerate partners are tallied, not alarmed
    assert d.excluded.get("degenerate_at_loop", 0) > 0
    assert d.excluded.get("non_simple", 0) == 0


def test_symmetry_test_dumbbell(dumbbell):
    d = run_experiment(dumbbell, 800, seed=7)
    rep = symmetry_test(d)
    assert rep["ok"]
    assert rep["sigma_mean_expected"] == 1.0
    assert rep["omega_mean_expected"] == 1.0
    assert rep["max_joint_residual"] < 0.1


def test_binomial_test_dumbbell(dumbbell):
    d = run_experiment(dumbbell, 800, seed=7)
    rep = binomial_test(d)
    assert rep["variable"] == "sigma" and rep["trials"] == 2
    assert rep["ok"]
    assert rep["predicted"] == pytest.approx([0.25, 0.5, 0.25])


def test_binomial_test_tree31(tree31):
    d = run_experiment(tree31, 600, seed=3)
    rep = binomial_test(d)
    assert rep["variable"] == "omega+4" and rep["trials"] == 3
    assert sum(rep["observed"]) == d.K


def test_binomial_test_rejects_other_families(k4):
    d = run_experiment(k4, 50, seed=2)
    with pytest.raises(WrongFamily):
        binomial_test(d)


def test_binomial_test_rejects_sigma_outside_its_bounds(dumbbell):
    # the nodal surplus of a dumbbell lies in [0, beta] = [0, 2]; a record
    # outside breaks the hard bound, which is a failed identity
    d = SurplusDistribution(dumbbell, K=3, sigma_hist=Counter({0: 1, 1: 1, 3: 1}))
    with pytest.raises(IdentityViolated):
        binomial_test(d)


def test_magnetic_accumulation(dumbbell):
    d = run_experiment(dumbbell, 100, seed=7, magnetic=True,
                       check_identities=True)
    assert d.identity_failures == 0
    assert set(d.iota_hist) == {0, 1}
    for hist in d.iota_hist.values():
        assert set(hist) <= {0, 1}
    # each record carries one local index per cycle block
    assert all(len(r.iota) == 2 for r in d.records)


def test_star_observables_accumulated(k4):
    d = run_experiment(k4, 150, seed=4)
    assert set(d.vertex_hist) == set(k4.topology.interior)
    for v, hist in d.vertex_hist.items():
        assert set(hist) <= set(range(1, k4.degrees[v]))
        assert len(d.rho_values[v]) == sum(hist.values())


def test_signature_recurrence(dumbbell):
    # the dumbbell signature space is small, so every early signature
    # reappears in the remainder of a moderate stream
    d = run_experiment(dumbbell, 500, seed=7)
    rep = signature_recurrence(d)
    assert rep["ok"], rep["missing_later"]


def test_gaussian_scan_smoke():
    rows = gaussian_limit_scan(cycle_counts=(2,), K=300, seed=0)
    assert len(rows) == 1
    assert rows[0]["betti"] == 2
    assert rows[0]["sigma_var"] == pytest.approx(0.5, abs=0.2)


def test_chain_families_classified():
    for c in (2, 4, 8):
        g = loop_chain(c)
        assert "tree-of-cycles" in g.topology.families
        assert g.topology.betti == c
