import concurrent.futures
import dataclasses
import functools
import itertools
import multiprocessing
import os

import numpy as np
import pytest

import qgl.spectrum as spectrum
from qgl.counts import counts_batch
from qgl.errors import BracketAuditFailed, NoKernel, NonSimple
from qgl.graphs import load_graph
from qgl.secular import evolution_matrix, stack_size
from qgl.stats import draw_lengths
from qgl.spectrum import (
    POLE_ROTATION,
    Thresholds,
    classify,
    counting,
    eigenfunction_at,
    locate_spectrum,
    stream_eigenpairs,
    stream_levels,
    unitary_frame,
)
from conftest import star_relation_roots

TWO_PI = 2.0 * np.pi
ALL_GRAPHS = ("chain2", "chain4", "chain8", "dumbbell", "flower3", "k4", "k6",
              "lasso", "mandarin3", "star3", "tree31_7")


# ---------------------------------------------------------------------------
# counting function


def test_counting_starts_at_zero(star3):
    assert counting(star3, 1e-6).N == pytest.approx(0.0, abs=1e-4)


def test_counting_is_integer_off_spectrum(dumbbell):
    rng = np.random.default_rng(0)
    roots = {lv.k for lv in locate_spectrum(dumbbell, count=40)}
    for _ in range(40):
        k = rng.uniform(0.1, 30.0)
        if min(abs(k - r) for r in roots) < 1e-3:
            continue
        val = counting(dumbbell, k).N
        assert abs(val - round(val)) < 1e-6


def test_counting_jumps_by_one_at_simple_eigenvalue(star3):
    k = locate_spectrum(star3, count=1)[0].k
    below = counting(star3, k - 1e-6).N
    above = counting(star3, k + 1e-6).N
    assert round(above) - round(below) == 1


# ---------------------------------------------------------------------------
# Hermitian spectral frame against a general eigensolver


def _assert_same_phases(theta, oracle, tol):
    """Every phase of each list lies within tol of one of the other, on the
    circle; both lists have the same length."""
    assert len(theta) == len(oracle)
    for xs, ys in ((theta, oracle), (oracle, theta)):
        for x in xs:
            assert np.min(np.abs((ys - x + np.pi) % TWO_PI - np.pi)) < tol


def _eigvals_phases(U):
    return np.angle(np.linalg.eigvals(U)) % TWO_PI


@pytest.mark.parametrize("name", ("star3", "tree31_7", "dumbbell", "k6"))
def test_frame_matches_general_eigensolver(name):
    g = load_graph(name)
    rng = np.random.default_rng(7)
    for k in rng.uniform(0.1, 500.0, 40):
        U = evolution_matrix(g, np.asarray(g.lengths) * k % TWO_PI)
        frame = unitary_frame(U, vectors=True)
        assert np.all((0.0 <= frame.eigenphases) & (frame.eigenphases < TWO_PI))
        _assert_same_phases(frame.eigenphases, _eigvals_phases(U), 1e-12)
        # the columns are eigenvectors of U for the matching eigenphases
        resid = U @ frame.vectors - frame.vectors * np.exp(1j * frame.eigenphases)
        assert np.max(np.abs(resid)) < 1e-10
        assert counting(g, k).eigenphases == pytest.approx(frame.eigenphases)


def test_frame_moves_pole_off_an_eigenphase():
    rng = np.random.default_rng(3)
    n = 8
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    theta = rng.uniform(0.0, TWO_PI, n)
    theta[0] = POLE_ROTATION + np.pi            # exactly on the Cayley pole
    U = (Q * np.exp(1j * theta)) @ Q.conj().T
    frame = unitary_frame(U, vectors=True)
    assert frame.rotation != POLE_ROTATION
    _assert_same_phases(frame.eigenphases, _eigvals_phases(U), 1e-12)
    resid = U @ frame.vectors - frame.vectors * np.exp(1j * frame.eigenphases)
    assert np.max(np.abs(resid)) < 1e-10


def test_stacked_frame_resolves_each_matrix_alone():
    # one matrix of the stack has an eigenphase on the Cayley pole; each
    # matrix gets the frame it gets alone, that one with its own rotation
    rng = np.random.default_rng(5)
    n, stack = 8, []
    for m in range(4):
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        theta = rng.uniform(0.0, TWO_PI, n)
        if m == 2:
            theta[0] = POLE_ROTATION + np.pi
        stack.append((Q * np.exp(1j * theta)) @ Q.conj().T)
    frames = unitary_frame(np.array(stack), vectors=True)
    assert [r != POLE_ROTATION for r in frames.rotation] == [False, False, True, False]
    for m, U in enumerate(stack):
        alone = unitary_frame(U, vectors=True)
        assert frames.rotation[m] == alone.rotation
        assert frames.eigenphases[m].tobytes() == alone.eigenphases.tobytes()
        assert frames.vectors[m].tobytes() == alone.vectors.tobytes()
    assert unitary_frame(np.array(stack)).vectors is None


def _steer_newton(monkeypatch, target, root):
    """Make Newton's first iteration for the level `target` return `root`,
    with a frame there; returns the targets steered."""
    newton = spectrum._safeguarded_newton
    steered = []

    def steered_newton(ctr, a, b, targets, tol, start, z):
        found, roots, frames = newton(ctr, a, b, targets, tol, start, z)
        for i in np.flatnonzero(targets == target)[:1 - len(steered)]:
            steered.append(target)
            found[i], roots[i] = True, root
            frames.put(i, ctr.frame(root, vectors=True))
        return found, roots, frames

    monkeypatch.setattr(spectrum, "_safeguarded_newton", steered_newton)
    return steered


def test_close_pair_located_as_two_simple_levels(dumbbell, monkeypatch):
    # the pair near k = 775.12, closer than 1e-5 k, lies in one phase bracket
    levels = {lv.n: lv for lv in locate_spectrum(dumbbell, count=916)}
    low, high = levels[914], levels[915]
    assert low.multiplicity == 1 and high.multiplicity == 1
    assert low.k == pytest.approx(775.1219, abs=1e-4)
    assert high.k == pytest.approx(775.1257, abs=1e-4)
    assert high.k - low.k < 1e-5 * high.k

    # Newton inside a bracket holding both roots may settle on the upper one;
    # the both-sides audit rejects it and Newton run again below it finds
    # the lower one
    steered = _steer_newton(monkeypatch, 914, high.k)
    walk = spectrum.Walk(dumbbell, k_min=775.0)
    again = list(walk.until(775.2))
    assert steered == [914]
    assert (walk.tally.retries, walk.tally.fallbacks) == (1, 0)
    assert [(lv.n, lv.multiplicity) for lv in again] == [(914, 1), (915, 1)]
    assert again[0].k == pytest.approx(low.k, rel=1e-12)
    assert again[1].k == pytest.approx(high.k, rel=1e-12)


# ---------------------------------------------------------------------------
# certified localization: the final Newton frame audits each root and
# brackets the next


def _counting_calls(monkeypatch):
    """Every spectral frame goes through `spectrum.counting`; the k of
    every matrix decomposed, a stacked call counting by its depth."""
    ks = []
    counting_fn = spectrum.counting

    def counted(graph, k, vectors=False):
        ks.extend(np.atleast_1d(k).tolist())
        return counting_fn(graph, k, vectors)

    monkeypatch.setattr(spectrum, "counting", counted)
    return ks


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_at_most_two_frames_per_level(name, monkeypatch):
    # one tracked Newton per level, its final frame auditing the root:
    # at most 1.2 frames per level
    g = load_graph(name)
    ks = _counting_calls(monkeypatch)
    levels = locate_spectrum(g, count=1000)
    assert sum(lv.multiplicity for lv in levels) >= 1000
    assert len(ks) <= 1.2 * len(levels)


def test_flower3_double_levels_match_count_bisection(monkeypatch):
    # the double levels of flower3 put two crossings in one phase bracket;
    # Newton tracked from the earliest prediction still finds each level
    # as counting alone does, and the audit keeps the multiplicity
    g = load_graph("flower3")
    want = _bisection_levels(g, 360, 1e-14)[:300]
    ks = _counting_calls(monkeypatch)
    levels = locate_spectrum(g, count=360)
    assert len(ks) <= 1.2 * len(levels)
    got = levels[:300]
    assert len(got) == 300 and any(lv.multiplicity > 1 for lv in got)
    assert [(lv.n, lv.multiplicity, lv.loop_dims) for lv in got] \
        == [(lv.n, lv.multiplicity, lv.loop_dims) for lv in want]
    for a, b in zip(got, want):
        assert a.k == pytest.approx(b.k, rel=1e-12)


def _singular_solve(monkeypatch):
    calls = []

    def singular(*args):
        calls.append(1)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    return calls


def _garbage_vector(fill):
    def sabotage(monkeypatch):
        calls = []
        phase_bracket = spectrum._phase_bracket

        def garbage(*args):
            calls.append(1)
            *bracket, z = phase_bracket(*args)
            return (*bracket, fill(z))

        monkeypatch.setattr(spectrum, "_phase_bracket", garbage)
        return calls
    return sabotage


@pytest.mark.parametrize("sabotage", (
    _singular_solve,
    pytest.param(_garbage_vector(lambda z: np.full_like(z, np.nan)),
                 marks=pytest.mark.filterwarnings("ignore:invalid value")),
    _garbage_vector(lambda z: np.broadcast_to(np.exp(1j * np.arange(z.shape[-1])), z.shape)),
), ids=("singular", "nan", "unrelated"))
@pytest.mark.parametrize("name", ("dumbbell", "k6", "flower3"))
def test_failed_tracking_leaves_the_levels(name, sabotage, monkeypatch):
    # tracking only decides where the first full frame is taken: with its
    # solve failing or a garbage start vector, the framed iterations find
    # the same roots
    g = load_graph(name)
    tracked = locate_spectrum(g, count=300)
    calls = sabotage(monkeypatch)
    again = locate_spectrum(g, count=300)
    assert calls
    _assert_same_levels(again, tracked)


def test_loop_state_on_the_upper_bound(dumbbell, monkeypatch):
    # the loop state at n = 33 turns at exactly the shortest length, that of
    # its loop, so the upper bound from the frame of level 32 lands on it
    brackets = []
    phase_bracket = spectrum._phase_bracket

    def recorded(ctr, frame, phases, lo):
        out = phase_bracket(ctr, frame, phases, lo)
        brackets.extend(zip(frame.k, phases, zip(*out)))
        return out

    monkeypatch.setattr(spectrum, "_phase_bracket", recorded)
    levels = locate_spectrum(dumbbell, count=33)
    lv = next(lv for lv in levels if lv.n == 33)
    assert (lv.multiplicity, lv.loop_dims) == (1, 1)
    assert lv.k == pytest.approx(29.360679005512083, rel=1e-12)
    # the bracket of level 33 is the one from the frame nearest below it
    k_f, phases, (a, b, _, _) = max((row for row in brackets if row[0] < lv.k),
                                    key=lambda row: row[0])
    bound = k_f + np.min(TWO_PI - phases) / dumbbell.min_length
    assert abs(bound - lv.k) < 1e-12 * lv.k
    # the bracket ends at least an audit step past it
    assert a < lv.k and b - lv.k > spectrum._audit_step(lv.k)


def test_loop_state_decided_over_the_audited_interval(monkeypatch):
    # on these lengths the loop state of loop 1 at n = 14550 has a second
    # eigenvalue 3.1e-6 below it, inside one audit step; the level holds the
    # loop state whichever of the two roots Newton returns, though at the
    # lower one e^{i k l_1} is 5e-6 from 1
    g = load_graph("dumbbell")
    g = g.with_lengths(draw_lengths(g.E, 101))
    loop_root = TWO_PI * 1944 / g.lengths[1]
    assert loop_root == pytest.approx(8985.08404503114, rel=1e-14)
    a, b = loop_root - 1e-5, loop_root - 1e-6
    assert (_integer(g, a), _integer(g, b)) == (14549, 14550)
    while b - a > 1e-12 * b:
        mid = 0.5 * (a + b)
        if _integer(g, mid) == 14550:
            b = mid
        else:
            a = mid
    lower_root = 0.5 * (a + b)
    assert 3e-6 < loop_root - lower_root < 3.2e-6
    assert abs(np.exp(1j * lower_root * g.lengths[1]) - 1.0) > 1e-6

    newton = spectrum._safeguarded_newton
    for root in (lower_root, loop_root):
        monkeypatch.setattr(spectrum, "_safeguarded_newton", newton)
        steered = _steer_newton(monkeypatch, 14550, root)
        levels = locate_spectrum(g, k_min=8984.9, k_max=8985.3)
        assert steered == [14550]
        assert [(lv.n, lv.multiplicity, lv.loop_dims) for lv in levels] == [(14550, 2, 1)]
        assert levels[0].k == root


def test_forced_certificate_failure_recounts(dumbbell, monkeypatch):
    certified = locate_spectrum(dumbbell, count=60)
    recounted = []
    recount = spectrum._recount
    certify = spectrum._certified_counts

    def recorded(ctr, k_star, delta):
        recounted.append(k_star)
        return recount(ctr, k_star, delta)

    def undecided(*args):
        return certify(*args)._replace(decided=np.zeros(len(args[2]), dtype=bool))

    monkeypatch.setattr(spectrum, "_certified_counts", undecided)
    monkeypatch.setattr(spectrum, "_recount", recorded)
    ks = _counting_calls(monkeypatch)
    again = locate_spectrum(dumbbell, count=60)
    _assert_same_levels(again, certified)
    # one fresh count on each side of every root (the lanes take their
    # levels in lockstep, so not in order)
    assert sorted(recounted) == [lv.k for lv in again]
    for lv in again:
        side = 1e-7 * lv.k
        assert any(lv.k - side < k < lv.k for k in ks)
        assert any(lv.k < k < lv.k + side for k in ks)


def _certify(ctr, k, N, phases, k_star, delta):
    """The certificate of one frame, as a stack of one."""
    frame = spectrum.CountingFrame(k=np.array([k]), eigenphases=np.array([phases]),
                                   N=np.array([N]))
    return spectrum._certified_counts(ctr, frame, np.array([k_star]),
                                      np.array([delta])).row(0)


def test_certificate_decides_crossing_from_the_raw_eigenphase(dumbbell):
    ctr = spectrum._Counter(dumbbell)
    k, delta = 50.0, spectrum._audit_step(50.0)
    below_two_pi = np.nextafter(TWO_PI, 0.0)
    assert spectrum._signed(np.array([below_two_pi]))[0] == 0.0
    # not yet past 0, so not in the count of 7
    audit = _certify(ctr, k, 7.0, [below_two_pi, 1.0, 3.0, 5.0, 2.0, 4.0], k, delta)
    assert audit.decided and (audit.n_below, audit.n_above) == (7, 8)
    # just past 0, and in the count of 8
    audit = _certify(ctr, k, 8.0, [1e-15, 1.0, 3.0, 5.0, 2.0, 4.0], k, delta)
    assert audit.decided and (audit.n_below, audit.n_above) == (7, 8)
    assert audit.phases[0] == 0.0


def test_certificate_declines_an_undecided_eigenphase(dumbbell):
    ctr = spectrum._Counter(dumbbell)
    k, delta = 50.0, spectrum._audit_step(50.0)
    # an eigenphase 1.2 delta short of 0 may or may not cross within delta
    near = TWO_PI - 1.2 * delta
    assert not _certify(ctr, k, 7.0, [near, 1.0, 3.0, 5.0, 2.0, 4.0], k, delta).decided
    # so may one 1.2 delta past 0 when the root is a delta away from the frame
    assert not _certify(ctr, k, 8.0, [1.2 * delta, 1.0, 3.0, 5.0, 2.0, 4.0],
                        k + delta, delta).decided
    # and a count that is no integer decides nothing
    assert not _certify(ctr, k, 7.3, [1.0, 3.0, 5.0, 2.0, 4.0, 0.5], k, delta).decided


def _integer(graph, k):
    val = counting(graph, k).N
    assert abs(val - round(val)) < 1e-6
    return int(round(val))


def _bisection_levels(graph, count, tol=1e-11):
    """Oracle: levels from the integer count alone.  Steps of a quarter mean
    spacing find a rise of the count, bisection narrows it to `tol`
    relative, and the multiplicity is the rise over one audit step."""
    step = 0.25 * np.pi / graph.total_length
    a, n, levels = 1e-6 * step, 0, []
    assert _integer(graph, a) == 0
    while n < count:
        b = a + step
        if _integer(graph, b) == n:
            a = b
            continue
        while b - a > tol * b:
            mid = 0.5 * (a + b)
            if _integer(graph, mid) > n:
                b = mid
            else:
                a = mid
        k = 0.5 * (a + b)
        delta = max(1e-8, 1e-8 * k)
        above = _integer(graph, k + delta)
        loops = sum(abs(np.exp(1j * k * graph.lengths[i]) - 1.0) < 1e-6
                    for i in graph.topology.loops)
        levels.append(spectrum.LocatedLevel(
            n=n + 1, k=k, multiplicity=above - n, loop_dims=min(loops, above - n)))
        n, a = above, k + delta
    return levels


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_first_levels_match_count_bisection(name):
    g = load_graph(name)
    got = locate_spectrum(g, count=200)
    want = _bisection_levels(g, 200)
    assert [(lv.n, lv.multiplicity, lv.loop_dims) for lv in got] \
        == [(lv.n, lv.multiplicity, lv.loop_dims) for lv in want]
    for a, b in zip(got, want):
        assert a.k == pytest.approx(b.k, rel=1e-9)


# ---------------------------------------------------------------------------
# localization against the independent star-relation oracle


def test_star3_matches_oracle(star3):
    levels = locate_spectrum(star3, count=60)
    ours = [lv.k for lv in levels for _ in range(lv.multiplicity)]
    oracle = star_relation_roots([1.0, 1.3, 1.7], [], ours[-1] + 0.5)[:60]
    assert len(oracle) == 60
    for a, b in zip(ours, oracle):
        assert a == pytest.approx(b, abs=1e-9 * max(1.0, b))


def test_lasso_unit_lengths_against_oracle(lasso):
    # loop length 1 and tail length 1; the relation covers the non-loop states
    levels = locate_spectrum(lasso, k_max=20.0)
    oracle = star_relation_roots([1.0], [1.0], 20.0)
    regular = [lv.k for lv in levels if lv.loop_dims == 0
               for _ in range(lv.multiplicity)]
    loop_levels = [lv for lv in levels if lv.loop_dims > 0]
    # loop states sit exactly at k = 2 pi m and come with a degenerate partner
    for m, lv in enumerate(loop_levels, start=1):
        assert lv.k == pytest.approx(TWO_PI * m, abs=1e-9 * lv.k)
        assert lv.multiplicity == 2 and lv.loop_dims == 1
    # the oracle roots at 2 pi m coincide with the partner states, so every
    # oracle root matches one located eigenvalue
    located = sorted(regular + [lv.k for lv in loop_levels])
    assert len(located) >= len(oracle)
    for b in oracle:
        assert min(abs(a - b) for a in located) < 1e-8 * max(1.0, b)


def test_first_lasso_eigenvalue_bracket(lasso):
    k1 = locate_spectrum(lasso, count=1)[0].k
    assert np.pi / 2 < k1 < np.pi


def test_window_split_is_consistent(k4):
    full = locate_spectrum(k4, k_max=12.0)
    first = locate_spectrum(k4, k_max=6.0)
    second = locate_spectrum(k4, k_min=6.0, k_max=12.0)
    merged = first + second
    assert len(merged) == len(full)
    for a, b in zip(merged, full):
        assert a.n == b.n and a.k == pytest.approx(b.k, abs=1e-10)


def _assert_same_levels(got, want):
    assert [(lv.n, lv.multiplicity, lv.loop_dims) for lv in got] \
        == [(lv.n, lv.multiplicity, lv.loop_dims) for lv in want]
    for a, b in zip(got, want):
        assert a.k == pytest.approx(b.k, rel=1e-12)


# ---------------------------------------------------------------------------
# lanes: windows walked in lockstep


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_lanes_do_not_change_the_levels(name, monkeypatch):
    # each lane of the stacked walk finds what it would find alone, so one
    # lane and the full lane count give the same levels
    g = load_graph(name)
    walk = spectrum.Walk(g)
    laned = list(walk.take(1000))
    assert walk.tally.lanes == min(spectrum.LANES, stack_size(g))
    monkeypatch.setattr(spectrum, "LANES", 1)
    _assert_same_levels(laned, locate_spectrum(g, count=1000))


@pytest.mark.parametrize("shift", (1, -1))
def test_doctored_edge_count_raises(dumbbell, shift, monkeypatch):
    # a lane ends at the exact count at the next lane's edge, where that
    # lane starts: a wrong count there is caught
    lane_edges = spectrum._lane_edges

    def doctored(ctr, ks):
        edges, frames, found = lane_edges(ctr, ks)
        frames.N[len(edges) // 2] += shift
        return edges, frames, found

    monkeypatch.setattr(spectrum, "_lane_edges", doctored)
    with pytest.raises(BracketAuditFailed):
        locate_spectrum(dumbbell, count=200)


def test_unclear_lane_edge_joins_its_lanes(dumbbell, monkeypatch):
    want = locate_spectrum(dumbbell, count=200)
    lane_edges = spectrum._lane_edges

    def unclear(ctr, ks):
        edges, frames, found = lane_edges(ctr, ks)
        found[len(edges) // 2] = False
        return edges, frames, found

    monkeypatch.setattr(spectrum, "_lane_edges", unclear)
    _assert_same_levels(locate_spectrum(dumbbell, count=200), want)


def test_singular_solve_stops_its_lane_only(dumbbell, monkeypatch):
    ctr = spectrum._Counter(dumbbell)
    edges, frames, _ = spectrum._lane_edges(ctr, [20.0, 40.0, 60.0])
    a, b, start, z = spectrum._phase_bracket(ctr, frames, frames.eigenphases, edges)
    start = np.where((a < start) & (start < b), start, 0.5 * (a + b))
    alone = [spectrum._track(ctr, a[i:i + 1], b[i:i + 1], start[i:i + 1], z[i:i + 1])[0]
             for i in range(3)]
    assert all(k != k0 for k, k0 in zip(alone, start))
    solve = np.linalg.solve

    def singular_in_lane_1(M, rhs):
        # lane 1's first step; a stacked solve fails with any of its matrices
        if np.any(np.all(rhs.reshape(-1, z.shape[-1]) == z[1], axis=-1)):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(M, rhs)

    monkeypatch.setattr(np.linalg, "solve", singular_in_lane_1)
    tracked = spectrum._track(ctr, a, b, start, z)
    assert tracked[1] == start[1]
    assert (tracked[0], tracked[2]) == (alone[0], alone[2])


def test_walk_tallies(dumbbell):
    walk = spectrum.Walk(dumbbell)
    levels = list(walk.take(1000))
    again = list(walk.take(100))
    tally = walk.tally
    assert again[0].n == levels[-1].n + levels[-1].multiplicity
    assert tally.levels == len(levels) + len(again)
    assert tally.lanes == spectrum.LANES + 100 // spectrum.LANE_LEVELS
    assert len(levels) <= tally.matrices() <= 1.2 * tally.levels
    assert tally.solves > tally.levels
    assert tally.recounts == tally.retries == tally.fallbacks == tally.kernel_frames == 0
    # one sweep per request; a lockstep round locates at most one level per lane
    assert tally.requests == 2
    assert tally.levels / spectrum.LANES <= tally.rounds < tally.levels
    assert set(tally.to_json()) == {"levels", "frames_by_depth", "matrices",
                                    "tracking_solves", "lanes", "requests", "rounds",
                                    "recounts", "retries", "fallbacks", "resolves",
                                    "spare_edges", "kernel_frames"}


# rounds a request of m eigenvalues in L lanes may take beyond ceil(levels / L):
# the worst measured on the built-in graphs is 3 (chain8, 1000 eigenvalues)
LANE_SLACK = 4


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_lanes_are_balanced(name):
    # edges split at Weyl's mean count give each lane about m / L levels,
    # so the lockstep rounds stay near levels / lanes
    g = load_graph(name)
    for count in (100, 1000):
        walk = spectrum.Walk(g)
        list(walk.take(count))
        t = walk.tally
        assert t.requests == 1
        assert t.rounds <= -(-t.levels // walk._lane_count(count)) + LANE_SLACK, count


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_requests_take_whole_levels(name):
    # a request stops at the first level that completes its count, and a
    # second request carries on from there
    g = load_graph(name)
    for count in (1, 7, 100, 1000):
        walk = spectrum.Walk(g)
        first = list(walk.take(count))
        second = list(walk.take(count))
        assert second[0].n == first[-1].n + first[-1].multiplicity
        for levels in (first, second):
            held = [lv.multiplicity for lv in levels]
            assert sum(held[:-1]) < count <= sum(held), count


def test_edge_past_the_goal_is_spare(dumbbell, monkeypatch):
    # an edge whose exact count reaches the request's count ends no lane:
    # the lane below it becomes the open last lane
    want = locate_spectrum(dumbbell, count=200)
    lane_edges = spectrum._lane_edges

    def past(ctr, ks):
        ks = np.array(ks)
        ks[-1] += 20 * np.pi / dumbbell.total_length   # 20 mean level spacings up
        return lane_edges(ctr, ks)

    monkeypatch.setattr(spectrum, "_lane_edges", past)
    walk = spectrum.Walk(dumbbell)
    _assert_same_levels(list(walk.take(200)), want)
    assert walk.tally.spare_edges == 1
    assert walk.tally.lanes == walk._lane_count(200) - 1


def _clear_edge(g, k):
    """A window edge at or near k clear of the spectrum (`_lane_edges`)."""
    edges, _, found = spectrum._lane_edges(spectrum._Counter(g), [k])
    assert found[0]
    return float(edges[0])


def test_lane_edge_keeps_generic_points():
    assert _clear_edge(load_graph("k6"), 17.3) == 17.3


@pytest.mark.parametrize("name", ("lasso", "flower3", "mandarin3"))
def test_window_split_on_eigenvalues(name):
    # every one of these graphs has eigenvalues at k = 2 pi m
    g = load_graph(name)
    k_top = 12 * TWO_PI + 0.5
    full = locate_spectrum(g, k_max=k_top)
    for m in range(1, 12):
        split = m * TWO_PI
        assert min(abs(lv.k - split) for lv in full) < 1e-9 * split
        edge = _clear_edge(g, split)
        assert 0.0 < abs(edge - split) < 1e-6 * split
        merged = (locate_spectrum(g, k_max=edge)
                  + locate_spectrum(g, k_min=edge, k_max=k_top))
        _assert_same_levels(merged, full)


def test_lane_edge_on_a_double_eigenvalue_moves_clear(lasso, monkeypatch):
    # 16 pi is a double eigenvalue of lasso: a lane edge asked for there is
    # moved clear of it, and the levels do not change
    double = 8 * TWO_PI
    want = locate_spectrum(lasso, count=40)
    assert [(lv.multiplicity, lv.loop_dims) for lv in want
            if abs(lv.k - double) < 1e-9 * double] == [(2, 1)]
    lane_edges = spectrum._lane_edges
    moved = []

    def on_the_double(ctr, ks):
        ks = np.array(ks)
        i = int(np.argmin(np.abs(ks - double)))
        ks[i] = double
        edges, frames, found = lane_edges(ctr, ks)
        moved.append((edges[i], found[i]))
        return edges, frames, found

    monkeypatch.setattr(spectrum, "_lane_edges", on_the_double)
    walk = spectrum.Walk(lasso)
    _assert_same_levels(list(walk.take(40)), want)
    edge, found = moved[0]
    assert found and 0.0 < abs(edge - double) < 1e-6 * double
    assert walk.tally.lanes == walk._lane_count(40)


@pytest.mark.parametrize("name", ("lasso", "flower3", "mandarin3"))
def test_workers_split_on_eigenvalues(name):
    # the range ends on an eigenvalue, where the pool's count is taken
    g = load_graph(name)
    k_top = 6 * TWO_PI
    full = locate_spectrum(g, k_max=k_top)
    for workers in (1, 2, 3):
        _assert_same_levels(
            list(stream_levels(g, k_max=k_top, workers=workers)), full)
        _assert_same_levels(
            [lv for lv, *_ in stream_eigenpairs(g, k_max=k_top, workers=workers)],
            full)


@pytest.mark.parametrize("shift", (1, -1))
def test_doctored_window_edge_count_raises(dumbbell, shift, monkeypatch):
    # each window starts from its edge's count, taken in this process: a
    # wrong count there is caught in the window's walk or in the merge
    split, parent = spectrum._split, os.getpid()

    def doctored(ctr, lo, n, m, parts):
        edges, frames, counts = split(ctr, lo, n, m, parts)
        if os.getpid() == parent:
            counts = counts + shift
        return edges, frames, counts

    monkeypatch.setattr(spectrum, "_split", doctored)
    with pytest.raises(BracketAuditFailed):
        list(stream_levels(dumbbell, count=200, workers=2))


_window_columns = spectrum._window_columns


def _child_window_past_its_edge(graph, count, k_min, couplings):
    """`_window_columns` as the pool calls it, taking one eigenvalue past
    its window's upper edge."""
    return _window_columns(graph, count + 1, k_min, couplings)


@pytest.mark.parametrize("window", ("caller", "child"))
def test_pool_window_past_its_edge_raises(dumbbell, monkeypatch, window):
    # a window whose levels pass its upper edge breaks the run of n: the
    # first, which this process walks, or one a pool process walks (the
    # second of three, as the last has no window above it)
    if window == "caller":
        take, parent = spectrum.Walk.take, os.getpid()

        def past_its_edge(self, count):
            return take(self, count + (os.getpid() == parent))

        monkeypatch.setattr(spectrum.Walk, "take", past_its_edge)
    else:
        monkeypatch.setattr(spectrum, "_window_columns", _child_window_past_its_edge)
    with pytest.raises(BracketAuditFailed, match="pool's windows"):
        list(stream_levels(dumbbell, count=200, workers=3))


def test_pool_starts_a_process_per_window_above_the_first(dumbbell, monkeypatch):
    # this process walks the first window and a pool process each other;
    # a count that one window holds starts no pool
    want = locate_spectrum(dumbbell, count=200)
    pools, started, walked_here = [], [], []
    parent, take = os.getpid(), spectrum.Walk.take
    start = multiprocessing.process.BaseProcess.start

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    def counted(self):
        started.append(self.name)
        return start(self)

    def recorded(self, count):
        for lv in take(self, count):
            if os.getpid() == parent:
                walked_here.append(lv)
            yield lv

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    monkeypatch.setattr(spectrum.Walk, "take", recorded)
    levels = list(stream_levels(dumbbell, count=200, workers=3))
    _assert_same_levels(levels, want)
    assert pools == [2] and len(started) == 2
    first = len(walked_here)
    assert 0 < first < len(levels) and walked_here[0].n == 1
    assert all(a is b for a, b in zip(levels[:first], walked_here))
    assert not any(lv in walked_here for lv in levels[first:])

    for record in (pools, started, walked_here):
        record.clear()
    levels = list(stream_levels(dumbbell, count=1, workers=2))
    assert pools == [] and started == []
    assert len(levels) == 1 and levels[0] is walked_here[0]


@pytest.mark.parametrize("name", ("dumbbell", "lasso"))
def test_pool_under_spawn_matches_the_walk(name, monkeypatch):
    # a spawned (or forkserver) process imports qgl afresh, so the window
    # function and its arguments must pickle by reference and by value;
    # its levels are those a forked pool returns, bit for bit
    g = load_graph(name)
    forked = list(stream_levels(g, count=300, workers=2, couplings=True))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        concurrent.futures.ProcessPoolExecutor,
        mp_context=multiprocessing.get_context("spawn")))
    spawned = list(stream_levels(g, count=300, workers=2, couplings=True))
    _assert_same_levels(spawned, locate_spectrum(g, count=300))
    assert spawned == forked
    for a, b in zip(spawned, forked):
        for kept in ("phases", "kernel", "couplings"):
            x, y = getattr(a, kept), getattr(b, kept)
            assert (x is None and y is None) or np.array_equal(x, y)
    simple = [lv for lv in spawned if lv.multiplicity == 1 and not lv.loop_dims]
    assert all(lv.kernel is not None and lv.couplings is not None for lv in simple)
    if name == "lasso":
        assert any(lv.multiplicity == 2 for lv in spawned)


def test_pool_leaves_no_process(dumbbell):
    # the pool is shut down before its windows' levels are yielded, and
    # when the stream is closed while this process walks its window
    list(stream_levels(dumbbell, count=300, workers=3))
    assert not multiprocessing.active_children()
    stream = stream_levels(dumbbell, count=300, workers=3)
    next(stream)
    assert multiprocessing.active_children()
    stream.close()
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_pool_windows_take_the_count(name):
    # the windows split the count at exact edge counts: no level past the
    # count is located, and the levels are those of one walk
    g = load_graph(name)
    for count in (1, 7, 100):
        want = locate_spectrum(g, count=count)
        _assert_same_levels(list(stream_levels(g, count=count, workers=2)), want)


def test_count_mode_counts_multiplicity(lasso):
    levels = locate_spectrum(lasso, count=12)
    assert sum(lv.multiplicity for lv in levels) >= 12
    # indices are consecutive across multiplicities
    expect = 1
    for lv in levels:
        assert lv.n == expect
        expect += lv.multiplicity


def test_locate_rejects_conflicting_arguments(star3):
    with pytest.raises(ValueError):
        locate_spectrum(star3, count=5, k_max=10.0)
    with pytest.raises(ValueError):
        locate_spectrum(star3)


# ---------------------------------------------------------------------------
# eigenfunction reconstruction


@pytest.mark.parametrize("name", ("star3", "lasso", "dumbbell", "k4", "tree31_7"))
def test_eigenfunction_invariants(name):
    g = load_graph(name)
    interior = set(g.topology.interior)
    for lv in locate_spectrum(g, count=12):
        if lv.multiplicity != 1 or lv.loop_dims:
            continue
        ep = eigenfunction_at(g, lv.k, n=lv.n)
        assert ep.residual < 1e-8
        assert np.abs(np.linalg.norm(ep.amplitudes) - 1.0) < 1e-12
        # |a_d| = |a_d-hat| edge by edge
        mags = np.abs(ep.amplitudes)
        assert np.allclose(mags[0::2], mags[1::2], atol=1e-10)
        for v, entries in enumerate(g.outgoing):
            vals = [ep.values[d] for d in entries]
            # continuity: every directed edge at v sees the same value
            assert max(vals) - min(vals) < 1e-9
            if v in interior:
                # current conservation of outgoing derivatives
                assert abs(sum(ep.derivatives[d] for d in entries)) < 1e-9


def test_eigenfunction_energy_split(star3):
    # f^2 + (f'/k)^2 = 2(|a_d|^2 + |a_d-hat|^2) along every edge
    lv = locate_spectrum(star3, count=3)[-1]
    ep = eigenfunction_at(star3, lv.k, n=lv.n)
    for i in range(star3.E):
        lhs = ep.values[2 * i] ** 2 + ep.derivatives[2 * i] ** 2
        rhs = 2.0 * (np.abs(ep.amplitudes[2 * i]) ** 2
                     + np.abs(ep.amplitudes[2 * i + 1]) ** 2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_eigenfunction_requires_kernel(star3):
    with pytest.raises(NoKernel):
        eigenfunction_at(star3, 0.379)


def _svd_kernel_vector(g, k):
    """Oracle: the right singular vector of 1 - U(k) for its smallest
    singular value."""
    U = evolution_matrix(g, np.asarray(g.lengths) * k % TWO_PI)
    return np.linalg.svd(np.eye(2 * g.E) - U)[2][-1].conj()


@pytest.mark.parametrize("name, k_min", [
    ("star3", 0.0), ("lasso", 0.0), ("dumbbell", 0.0), ("k4", 0.0),
    ("k6", 0.0), ("tree31_7", 0.0), ("dumbbell", 12000.0)])
def test_kernel_matches_svd_oracle(name, k_min):
    g = load_graph(name)
    if k_min:
        edge = _clear_edge(g, k_min)
        levels = locate_spectrum(g, k_max=edge + 50.0, k_min=edge)
    else:
        levels = spectrum.Walk(g).take(1000)
    simple = (lv for lv in levels if lv.multiplicity == 1 and not lv.loop_dims)
    checked = 0
    for lv in itertools.islice(simple, 100):
        a = eigenfunction_at(g, lv.k, n=lv.n).amplitudes
        v = _svd_kernel_vector(g, lv.k)
        c = np.vdot(v, a)
        assert np.max(np.abs(v * (c / abs(c)) - a)) < 1e-10, (name, lv.n)
        checked += 1
    assert checked >= 20


def _assert_same_rows(got, want):
    """Bit for bit: level, verdict, reason and every array of the eigenpair."""
    assert len(got) == len(want)
    for (lv, ep, generic, reason), (lv_w, ep_w, generic_w, reason_w) in zip(got, want):
        assert (lv, generic, reason) == (lv_w, generic_w, reason_w)
        assert (ep is None) == (ep_w is None)
        if ep is None:
            continue
        for a, b in ((ep.kappa, ep_w.kappa), (ep.amplitudes, ep_w.amplitudes),
                     (ep.values, ep_w.values), (ep.derivatives, ep_w.derivatives)):
            assert a.tobytes() == b.tobytes()
        assert (ep.k, ep.n, ep.residual) == (ep_w.k, ep_w.n, ep_w.residual)


@pytest.mark.parametrize("name", ("star3", "lasso", "dumbbell", "k6", "tree31_7"))
def test_eigenpairs_do_not_depend_on_the_batch_split(name):
    g = load_graph(name)
    levels = locate_spectrum(g, count=300)
    whole = spectrum.eigenpairs(g, levels)
    built = [ep for _, ep, _, _ in whole if ep is not None]
    assert len(built) >= 100
    for size in (1, 7):
        split = [row for i in range(0, len(levels), size)
                 for row in spectrum.eigenpairs(g, levels[i:i + size])]
        _assert_same_rows(split, whole)
    # the batch of one, and eigenfunction_at is the batch of one of a
    # level holding its frame at k, mixed with the walk's kept kernels or not
    lv, ep, generic, _ = next(row for row in whole if row[1] is not None)
    _assert_same_rows(spectrum.eigenpairs(g, [lv]), [(lv, ep, generic, None)])
    framed = _with_a_frame_at_k(g, lv)
    fresh = spectrum.eigenpairs(g, [framed])
    _assert_same_rows([(framed, eigenfunction_at(g, lv.k, n=lv.n), fresh[0][2], None)], fresh)
    mixed = [_with_a_frame_at_k(g, lv) if i % 3 == 0 else lv for i, lv in enumerate(levels)]
    _assert_same_rows([row for lv in mixed for row in spectrum.eigenpairs(g, [lv])],
                      spectrum.eigenpairs(g, mixed))


def _with_a_frame_at_k(g, lv):
    """A simple level off loop states holding eigenfunction_at's frame at its
    k in place of the walk's; other levels as they are."""
    if lv.kernel is None:
        return lv
    frame = counting(g, np.array([lv.k]), vectors=True)
    return dataclasses.replace(lv, phases=frame.eigenphases[0],
                               kernel=spectrum._kernel_vectors(frame)[0])


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_walk_kernel_agrees_with_a_fresh_frame(name):
    # the kernel vector of the frame that certified a level and the one of
    # a fresh frame at the located k span the same line, and the counts
    # read from either agree
    g = load_graph(name)
    walk = spectrum.Walk(g)
    levels = list(walk.take(300))
    # every simple level off loop states keeps a kernel, settled afresh or not
    assert all((lv.kernel is None) == (lv.multiplicity > 1 or lv.loop_dims > 0)
               for lv in levels)
    simple = [lv for lv in levels if lv.kernel is not None]
    kept_rows = spectrum.eigenpairs(g, simple)
    kept = [ep for _, ep, _, _ in kept_rows]
    fresh = [eigenfunction_at(g, lv.k, n=lv.n) for lv in simple]
    for a, b in zip(kept, fresh):
        assert 1.0 - abs(np.vdot(a.amplitudes, b.amplitudes)) <= 1e-14, (name, a.n)
        assert a.residual <= 1e-10 * max(1.0, a.k), (name, a.n)
    flags = spectrum.classify_batch(g, fresh)
    assert [row[2] for row in kept_rows] == flags.generic.tolist()
    assert [row[3] == "borderline" for row in kept_rows] == flags.borderline.tolist()
    generic = [i for i, row in enumerate(kept_rows) if row[2]]
    assert len(generic) >= 100
    want = counts_batch(g, [fresh[i] for i in generic])
    got = counts_batch(g, [kept[i] for i in generic])
    assert np.array_equal(got.sigma, want.sigma) and np.array_equal(got.omega, want.omega)


def test_recounted_level_is_reconstructed_from_a_fresh_frame(dumbbell, monkeypatch):
    target = next(lv for lv in locate_spectrum(dumbbell, count=300)[40:]
                  if lv.multiplicity == 1 and not lv.loop_dims)
    certify = spectrum._certified_counts
    undecided = []

    def doctored(ctr, frame, k_star, delta):
        # the certificate of the target's lane, and of no other, is undecided
        audit = certify(ctr, frame, k_star, delta)
        rows = np.flatnonzero(np.abs(k_star - target.k) < 1e-9 * target.k)
        if len(k_star) > 1 and rows.size and not undecided:
            undecided.append(float(k_star[rows[0]]))
            audit.decided[rows[0]] = False
        return audit

    monkeypatch.setattr(spectrum, "_certified_counts", doctored)
    walk = spectrum.Walk(dumbbell)
    levels = list(walk.take(300))
    assert walk.tally.recounts == 1 and len(undecided) == 1
    assert walk.tally.kernel_frames == 1
    lv = next(lv for lv in levels if lv.k == undecided[0])
    assert lv == target
    # the walk gave it a frame at its k; only multiple levels and loop
    # states keep no kernel
    assert lv.kernel is not None and lv.phases is not None
    assert all((x.kernel is None) == (x.multiplicity > 1 or x.loop_dims > 0) for x in levels)
    # in a batch with kept kernels it is bit for bit eigenfunction_at
    rows = spectrum.eigenpairs(dumbbell, levels)
    row = next(row for row in rows if row[0] is lv)
    _assert_same_rows([(lv, eigenfunction_at(dumbbell, lv.k, n=lv.n), *row[2:])], [row])


def test_canonical_sign_is_deterministic(dumbbell):
    lv = locate_spectrum(dumbbell, count=1)[0]
    a = eigenfunction_at(dumbbell, lv.k)
    b = eigenfunction_at(dumbbell, lv.k)
    assert np.allclose(a.amplitudes, b.amplitudes)
    first = next(q for ds in dumbbell.outgoing for d in ds
                 for q in (a.values[d], a.derivatives[d]) if abs(q) > 1e-6)
    assert first > 0


# ---------------------------------------------------------------------------
# classification


def test_lasso_loop_mode_classification(lasso):
    # with unit lengths the loop state at k = 2pi shares its level with a
    # regular eigenfunction: the level is multiple and never reconstructed
    loop_lv = next(lv for lv in locate_spectrum(lasso, count=16)
                   if lv.loop_dims > 0)
    assert loop_lv.k == pytest.approx(TWO_PI, abs=1e-8)
    assert (loop_lv.multiplicity, loop_lv.loop_dims) == (2, 1)
    with pytest.raises(NonSimple):
        eigenfunction_at(lasso, loop_lv.k, n=loop_lv.n)
    row = next(row for row in stream_eigenpairs(lasso, count=loop_lv.n + 1)
               if row[0] == loop_lv)
    assert row[1:] == (None, False, "degenerate_at_loop")


def test_generic_classification_on_tree(tree31):
    flagged = 0
    for lv in locate_spectrum(tree31, count=30):
        if lv.multiplicity != 1:
            continue
        ep = eigenfunction_at(tree31, lv.k, n=lv.n)
        if classify(tree31, ep).generic:
            flagged += 1
    assert flagged >= 28


def test_thresholds_from_dict_round_trip():
    t = Thresholds.from_dict({"value": 1e-5, "support": 1e-12})
    assert (t.value, t.derivative, t.support) == (1e-5, spectrum.TRACE_FLOOR, 1e-12)
    assert Thresholds.from_dict(None) == Thresholds() == Thresholds.from_dict({})


@pytest.mark.parametrize("d", [
    [1, 2], "value", 1e-5, {"valu": 1e-5}, {"kernel": 1e-8},
    {"value": "abc"}, {"value": None}, {"value": True}, {"value": -1},
    {"support": 0}, {"derivative": float("inf")}, {"support": float("nan")},
    {"value": 1e-20}, {"derivative": 0.5 * spectrum.TRACE_FLOOR},
])
def test_thresholds_from_dict_rejects(d):
    with pytest.raises(ValueError):
        Thresholds.from_dict(d)
    # a value that fails fails when the thresholds are built, too
    if isinstance(d, dict) and set(d) <= {f.name for f in dataclasses.fields(Thresholds)}:
        with pytest.raises(ValueError):
            Thresholds(**d)
