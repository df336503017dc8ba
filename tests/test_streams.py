"""The per-path random streams and the samplers that draw from them.

``path_rng`` defines the stream of path i: a Philox generator built from
the key (master_seed, i).  The reference samplers below simulate one path
at a time, event by event, from that definition; the library's samplers
must reproduce their output bit for bit however they batch the paths.
"""

import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from transinfo import simulate
from transinfo.catalog import load_example
from transinfo.chains import ReversibleChain, build_chain
from transinfo.diffusion1d import DiffusionSpec1D, ou_spec
from transinfo.rng import by_chunks, path_streams
from transinfo.simulate import EnsembleConfig, OUModel, sample_time_average
from transinfo.trivial_metric import extremal_potential, fk_growth_mc

from conftest import bernoulli_chain, chain_from_dense


def path_rng(master_seed: int, path_index: int) -> np.random.Generator:
    """Independent Philox stream for one sample path."""
    return np.random.Generator(
        np.random.Philox(key=np.array([master_seed, path_index], dtype=np.uint64)))


def chain_reference(config: EnsembleConfig, u: np.ndarray) -> np.ndarray:
    chain = config.model
    t = config.t
    beta = np.asarray(config.beta, dtype=float)
    exit_rates = -np.diag(chain.Q).copy()
    jump_cum = []
    for x in range(chain.n):
        row = chain.Q[x].copy()
        row[x] = 0.0
        total = row.sum()
        jump_cum.append(np.cumsum(row / total) if total > 0 else None)
    beta_cum = np.cumsum(beta)

    out = np.empty(config.n_paths)
    block = 64
    for i in range(config.n_paths):
        rng = path_rng(config.master_seed, i)
        state = int(np.searchsorted(beta_cum, rng.random()))
        clock = 0.0
        integral = 0.0
        exps = rng.exponential(size=block)
        unis = rng.random(size=block)
        k = 0
        while True:
            if k >= block:
                exps = rng.exponential(size=block)
                unis = rng.random(size=block)
                k = 0
            rate = exit_rates[state]
            hold = exps[k] / rate if rate > 0 else math.inf
            if clock + hold >= t:
                integral += u[state] * (t - clock)
                break
            integral += u[state] * hold
            clock += hold
            state = int(np.searchsorted(jump_cum[state], unis[k]))
            k += 1
        out[i] = integral / t
    return out


def fk_reference(p: float, lam: float, t: float, n_paths: int, seed: int):
    u = extremal_potential(p)
    weights = np.array([p, 1.0 - p])
    log_vals = np.empty(n_paths)
    for i in range(n_paths):
        rng = path_rng(seed, i)
        k = rng.poisson(t)
        times = np.sort(rng.uniform(0.0, t, size=k)) if k else np.empty(0)
        bounds = np.concatenate([[0.0], times, [t]])
        labels = rng.choice(2, size=k + 1, p=weights)
        log_vals[i] = lam * float(np.dot(u[labels], np.diff(bounds)))
    vals = np.exp(log_vals)
    mean = float(vals.mean())
    se_mean = float(vals.std(ddof=1) / math.sqrt(n_paths))
    return math.log(mean) / t, se_mean / (mean * t)


def ou_reference(config: EnsembleConfig, u) -> np.ndarray:
    h = config.sde_step
    n_steps = int(round(config.t / h))
    decay = math.exp(-h)
    noise_sd = math.sqrt(1.0 - decay * decay)
    out = np.empty(config.n_paths)
    for i in range(config.n_paths):
        rng = path_rng(config.master_seed, i)
        if isinstance(config.beta, str) and config.beta == "stationary":
            x0 = rng.standard_normal()
        else:
            x0 = float(config.beta)
        shocks = rng.standard_normal(n_steps)
        path = np.empty(n_steps + 1)
        path[0] = x0
        path[1:] = lfilter([noise_sd], [1.0, -decay], shocks) \
            + x0 * decay ** np.arange(1, n_steps + 1)
        vals = u(path) if callable(u) else path
        out[i] = float(np.trapezoid(vals, dx=h)) / config.t
    return out


def euler_reference(config: EnsembleConfig, u) -> np.ndarray:
    spec = config.model
    h = config.sde_step
    n_steps = int(round(config.t / h))
    out = np.empty(config.n_paths)
    for i in range(config.n_paths):
        rng = path_rng(config.master_seed, i)
        x = float(config.beta) if not isinstance(config.beta, str) else spec.c_ref
        vals = np.empty(n_steps + 1)
        vals[0] = u(x)
        shocks = rng.standard_normal(n_steps)
        for k in range(n_steps):
            x = x + spec.b(x) * h + math.sqrt(2.0 * spec.a(x) * h) * shocks[k]
            x = min(max(x, spec.x0 + 1e-12), spec.y0 - 1e-12)
            vals[k + 1] = u(x)
        out[i] = float(np.trapezoid(vals, dx=h)) / config.t
    return out


def _draws(rng):
    return [rng.random(5), rng.exponential(size=7), rng.standard_normal(9),
            rng.poisson(3.5, size=4), rng.uniform(-2.0, 3.0, size=6), rng.random()]


class TestPathStreams:
    @pytest.mark.parametrize("seed", [0, 1, 111, 2**31 - 1, 2**64 - 1])
    def test_matches_fresh_philox(self, seed):
        indices = [0, 1, 2, 57, 1023, 1024, 2**40, 2**63 + 5, 2**64 - 1]
        for i, rng in path_streams(seed, indices):
            ref = path_rng(seed, i)
            for a, b in zip(_draws(rng), _draws(ref)):
                assert np.array_equal(a, b)

    def test_half_used_word_is_reset(self):
        # a float32 draw leaves half of a 64-bit output in the generator;
        # the next path must not see it
        seen = []
        for i, rng in path_streams(5, [3, 4, 3]):
            seen.append(rng.random(dtype=np.float32))
            assert rng.bit_generator.state["has_uint32"] == 1
            seen.append(rng.random(3))
        for i, (a, b) in zip([3, 4, 3], zip(seen[::2], seen[1::2])):
            ref = path_rng(5, i)
            assert a == ref.random(dtype=np.float32)
            assert np.array_equal(b, ref.random(3))

    def test_indices_in_any_order(self):
        order = [9, 2, 9, 0]
        got = [rng.standard_normal(3) for _, rng in path_streams(4, order)]
        for i, g in zip(order, got):
            assert np.array_equal(g, path_rng(4, i).standard_normal(3))

    def test_one_iterator_per_thread(self):
        # two threads advance their own iterators in step, each draw of one
        # thread falling between two draws of the other
        indices = [0, 7, 2**40]
        barrier = threading.Barrier(2, timeout=10)
        got = {}

        def run(seed):
            draws = []
            for i, rng in path_streams(seed, indices):
                first = rng.standard_normal(3)
                barrier.wait()
                draws.append((i, first, rng.random(5)))
                barrier.wait()
            got[seed] = draws

        threads = [threading.Thread(target=run, args=(seed,)) for seed in (1, 2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
        assert not any(th.is_alive() for th in threads)
        assert sorted(got) == [1, 2]
        for seed, draws in got.items():
            assert [i for i, _, _ in draws] == indices
            for i, first, second in draws:
                ref = path_rng(seed, i)
                assert np.array_equal(first, ref.standard_normal(3))
                assert np.array_equal(second, ref.random(5))

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 64])
    @pytest.mark.parametrize("t", [0.2, 3.0, 30.0, 0.1 * 7])
    def test_merged_draw(self, k, t):
        # fk_growth_mc draws a path's k event times and k + 1 label uniforms
        # with one random(2k + 1) call; these are the bits of the two calls
        _, rng = next(path_streams(13, [k]))
        r = rng.random(2 * k + 1)
        ref = path_rng(13, k)
        assert np.array_equal(t * r[:k], ref.uniform(0.0, t, size=k))
        assert np.array_equal(r[k:], ref.random(k + 1))


def _first_draws(seed: int, paths: range) -> np.ndarray:
    return np.array([rng.random() for _, rng in path_streams(seed, paths)])


class TestByChunks:
    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(1, 9), offset=st.sampled_from(["1", "s-1", "s", "s+1", "2s+1"]),
           workers=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**64 - 1))
    def test_equals_the_per_range_loop(self, size, offset, workers, seed):
        n_paths = {"1": 1, "s-1": size - 1, "s": size, "s+1": size + 1,
                   "2s+1": 2 * size + 1}[offset]
        assume(n_paths >= 1)
        seen = []

        def run(paths):
            seen.append(paths)
            return _first_draws(seed, paths)

        got = by_chunks(run, n_paths, size, workers=workers)
        ranges = [range(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]
        assert sorted(seen, key=lambda r: r.start) == ranges
        assert np.array_equal(got, np.concatenate([_first_draws(seed, r) for r in ranges]))
        assert np.array_equal(got, [path_rng(seed, i).random() for i in range(n_paths)])

    @pytest.mark.parametrize("bad", [0, 2, 4])
    def test_failing_range_stops_the_loop(self, bad):
        started = []

        class RangeFailed(Exception):
            pass

        def run(paths):
            started.append(paths.start // 3)
            if paths.start // 3 == bad:
                raise RangeFailed
            return np.zeros(len(paths))

        with pytest.raises(RangeFailed):
            by_chunks(run, 20, 3)
        assert started == list(range(bad + 1))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_failing_range_cancels_the_pool(self, workers):
        # range 0 fails at once while the others take 20 ms each: the ranges
        # not yet started when it fails never run, and the pool is joined
        started = []

        class RangeFailed(Exception):
            pass

        def run(paths):
            started.append(paths.start)
            if paths.start == 0:
                raise RangeFailed
            time.sleep(0.02)
            return np.zeros(len(paths))

        before = threading.active_count()
        with pytest.raises(RangeFailed):
            by_chunks(run, 40, 1, workers=workers)
        assert threading.active_count() == before
        assert 0 in started and len(started) < 20


def _random_chain(n: int, seed: int) -> ReversibleChain:
    """Reversible chain with rates spread over 1e-2..1e3 and a random edge set."""
    rng = np.random.default_rng(seed)
    mu = rng.dirichlet(np.ones(n) * 2.0)
    mu = np.maximum(mu, 0.02)
    mu /= mu.sum()
    cond = 10.0 ** rng.uniform(-2.0, 3.0, size=(n, n)) * mu.min()
    keep = rng.random((n, n)) < 0.6
    keep |= np.eye(n, k=1, dtype=bool)          # a spanning path keeps it irreducible
    cond = np.triu(cond * keep, 1)
    cond = cond + cond.T
    rates = cond / mu[:, None]
    return build_chain(rates, mu=mu)


class TestChainSamplerOracle:
    @settings(max_examples=12)
    @given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
           t=st.sampled_from([0.05, 0.5, 2.0]), master=st.integers(0, 2**63))
    def test_random_chains(self, n, seed, t, master):
        ch = _random_chain(n, seed)
        u = np.random.default_rng(seed + 1).standard_normal(n)
        beta = np.random.default_rng(seed + 2).dirichlet(np.ones(n))
        cfg = EnsembleConfig(model=ch, beta=beta, t=t, n_paths=40, master_seed=master)
        assert np.array_equal(sample_time_average(cfg, u), chain_reference(cfg, u))

    def test_paths_spanning_many_blocks(self):
        # over a thousand events per path: each path refills its block many times
        ch = build_chain(np.array([[0.0, 900.0, 300.0], [900.0, 0.0, 800.0],
                                   [300.0, 800.0, 0.0]]))
        u = np.array([0.3, -1.0, 2.0])
        cfg = EnsembleConfig(model=ch, beta=ch.mu, t=1.0, n_paths=25, master_seed=17)
        assert np.array_equal(sample_time_average(cfg, u), chain_reference(cfg, u))
        # about a third of the product chain's paths outlive their first block;
        # on the slow-exit chain some outlive their second too
        product = load_example("product-3x3")["chain"]
        slow_exit = build_chain(np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 100.0],
                                          [0.0, 100.0, 0.0]]))
        for ch, u, t, n_paths in ((product, np.eye(9)[1], 20.0, 300),
                                  (slow_exit, np.array([1.0, 0.0, -1.0]), 4.0, 60)):
            cfg = EnsembleConfig(model=ch, beta=ch.mu, t=t, n_paths=n_paths, master_seed=11)
            assert np.array_equal(sample_time_average(cfg, u), chain_reference(cfg, u))

    def test_zero_rate_start(self):
        # state 0 has no exits: paths started there hold it until t
        Q = np.array([[0.0, 0.0, 0.0], [1.0, -1.5, 0.5], [0.0, 2.0, -2.0]])
        ch = chain_from_dense(states=(0, 1, 2), Q=Q, mu=np.array([0.5, 0.25, 0.25]))
        u = np.array([1.0, -0.5, 0.25])
        cfg = EnsembleConfig(model=ch, beta=np.array([0.4, 0.3, 0.3]), t=3.0,
                             n_paths=300, master_seed=8)
        got = sample_time_average(cfg, u)
        assert np.array_equal(got, chain_reference(cfg, u))
        assert np.any(got == 1.0)

    def test_chunk_boundary(self):
        ch = bernoulli_chain(0.3)
        u = np.array([0.0, 1.0])
        cfg = EnsembleConfig(model=ch, beta=ch.mu, t=20.0, n_paths=1030, master_seed=31)
        assert np.array_equal(sample_time_average(cfg, u), chain_reference(cfg, u))

    def test_prefix_of_larger_run(self):
        ch = bernoulli_chain(0.4)
        u = np.array([0.0, 1.0])
        big = EnsembleConfig(model=ch, beta=ch.mu, t=8.0, n_paths=3000, master_seed=12)
        ref = EnsembleConfig(model=ch, beta=ch.mu, t=8.0, n_paths=1024, master_seed=12)
        assert np.array_equal(sample_time_average(big, u)[:1024], chain_reference(ref, u))


class TestGrowthOracle:
    @settings(max_examples=10)
    @given(p=st.floats(0.05, 0.95), lam=st.floats(-2.0, 2.0),
           t=st.sampled_from([0.2, 3.0, 30.0]), seed=st.integers(0, 2**63))
    def test_matches_reference(self, p, lam, t, seed):
        g = fk_growth_mc(p, lam, t, 60, seed=seed)
        assert (g.estimate, g.std_error) == fk_reference(p, lam, t, 60, seed)

    @pytest.mark.parametrize("p,lam,t,n_paths,seed", [
        (0.35, 0.3, 30.0, 1030, 222),      # crosses a chunk boundary
        (0.3, 0.8, 1e-3, 300, 4),          # nearly every path has no event
        (0.6, -1.4, 3.0, 500, 2**63),      # negative lambda
    ])
    def test_fixed_cases(self, p, lam, t, n_paths, seed):
        g = fk_growth_mc(p, lam, t, n_paths, seed=seed)
        assert (g.estimate, g.std_error) == fk_reference(p, lam, t, n_paths, seed)


OU_CASES = [
    ("stationary", None),
    (1.5, np.abs),
    ("stationary", lambda x: np.cos(x)),
]

# two full blocks of paths and a partial third
OU_POOL_PATHS = 2 * simulate._OU_BLOCK + 3


class TestOUOracle:
    @pytest.mark.parametrize("beta,u", OU_CASES)
    def test_matches_reference(self, beta, u):
        cfg = EnsembleConfig(model=OUModel(), beta=beta, t=4.0, n_paths=40,
                             master_seed=21, sde_step=0.01)
        assert np.array_equal(sample_time_average(cfg, u), ou_reference(cfg, u))

    @pytest.mark.parametrize("workers", [None, 1, 3])
    @pytest.mark.parametrize("n_paths", [OU_POOL_PATHS, 1])
    @pytest.mark.parametrize("beta,u", OU_CASES)
    def test_blocks_on_the_pool(self, monkeypatch, beta, u, n_paths, workers):
        # None keeps this host's CPU count
        if workers is not None:
            monkeypatch.setattr(simulate, "_usable_cpus", lambda: workers)
        cfg = EnsembleConfig(model=OUModel(), beta=beta, t=0.5, n_paths=n_paths,
                             master_seed=22, sde_step=0.01)
        assert np.array_equal(sample_time_average(cfg, u), ou_reference(cfg, u))

    def test_more_workers_than_cores_with_fast_switching(self, monkeypatch):
        # a lost or misplaced write would leave an np.empty entry in the result
        workers = simulate._usable_cpus() + 2
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: workers)
        cfg = EnsembleConfig(model=OUModel(), beta="stationary", t=0.2,
                             n_paths=6 * simulate._OU_BLOCK + 5, master_seed=23,
                             sde_step=0.01)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = sample_time_average(cfg, np.cos)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, ou_reference(cfg, np.cos))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_failing_path_raises_and_joins_the_pool(self, monkeypatch, workers):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: workers)
        cfg = EnsembleConfig(model=OUModel(), beta="stationary", t=0.5,
                             n_paths=OU_POOL_PATHS, master_seed=24, sde_step=0.01)
        # exactly one path starts at the largest start
        bad = max(path_rng(24, i).standard_normal() for i in range(cfg.n_paths))

        class PathFailed(Exception):
            pass

        def u(x):
            if x[0] == bad:
                raise PathFailed
            return x

        before = threading.active_count()
        with pytest.raises(PathFailed):
            sample_time_average(cfg, u)
        assert threading.active_count() == before


def _scalar_only(fn):
    """fn on one point; any array argument raises, as math functions do."""
    def call(x):
        if isinstance(x, np.ndarray):
            raise TypeError("scalar argument expected")
        return fn(x)
    return call


class TestEulerOracle:
    @pytest.mark.parametrize("beta", ["stationary", -0.7])
    def test_start(self, beta):
        cfg = EnsembleConfig(model=ou_spec(), beta=beta, t=2.0, n_paths=30,
                             master_seed=41, sde_step=0.01)
        u = lambda x: x
        assert np.array_equal(sample_time_average(cfg, u), euler_reference(cfg, u))

    def test_infinite_interval_nonlinear_drift(self):
        spec = DiffusionSpec1D(-math.inf, math.inf, a=lambda x: 1.0 + 0.5 * x * x,
                               b=lambda x: -x ** 3 - x, c_ref=0.0)
        cfg = EnsembleConfig(model=spec, beta=1.5, t=1.5, n_paths=25,
                             master_seed=42, sde_step=0.005)
        assert np.array_equal(sample_time_average(cfg, np.abs), euler_reference(cfg, np.abs))

    def test_finite_interval_clip_active(self):
        spec = DiffusionSpec1D(0.0, 1.0, a=lambda x: 1.0, b=lambda x: 0.0, c_ref=0.5)
        cfg = EnsembleConfig(model=spec, beta=0.95, t=1.0, n_paths=30,
                             master_seed=43, sde_step=0.01)
        at_wall = lambda x: 1.0 * ((np.asarray(x) == 1.0 - 1e-12) | (np.asarray(x) == 1e-12))
        got = sample_time_average(cfg, at_wall)
        assert np.array_equal(got, euler_reference(cfg, at_wall))
        assert np.count_nonzero(got) > 10          # paths spend time on the clipped ends
        u = lambda x: x * x
        assert np.array_equal(sample_time_average(cfg, u), euler_reference(cfg, u))

    def test_chunk_boundary(self):
        # 100 steps: 1,024 paths to a chunk, so the last 6 paths start a second one
        cfg = EnsembleConfig(model=ou_spec(), beta=0.3, t=1.0, n_paths=1030,
                             master_seed=44, sde_step=0.01)
        u = lambda x: x
        assert np.array_equal(sample_time_average(cfg, u), euler_reference(cfg, u))

    def test_buffer_cap_cuts_chunks(self, monkeypatch):
        # a cap of 2,000 floats leaves 9 paths of 201 values to a chunk
        monkeypatch.setattr(simulate, "_EULER_FLOATS", 2_000)
        cfg = EnsembleConfig(model=ou_spec(), beta="stationary", t=2.0, n_paths=20,
                             master_seed=45, sde_step=0.01)
        u = lambda x: x
        assert np.array_equal(sample_time_average(cfg, u), euler_reference(cfg, u))

    def test_prefix_of_larger_run(self):
        u = lambda x: np.cos(x)
        big = EnsembleConfig(model=ou_spec(), beta=0.0, t=1.0, n_paths=2100,
                             master_seed=46, sde_step=0.01)
        ref = EnsembleConfig(model=ou_spec(), beta=0.0, t=1.0, n_paths=40,
                             master_seed=46, sde_step=0.01)
        assert np.array_equal(sample_time_average(big, u)[:40], euler_reference(ref, u))

    def test_scalar_only_callables_take_the_loop(self):
        a = _scalar_only(lambda x: 1.0 + 0.5 * math.sin(x))
        b = _scalar_only(lambda x: -x)
        u = _scalar_only(math.atan)
        spec = DiffusionSpec1D(-4.0, 4.0, a=a, b=b, c_ref=0.0)
        cfg = EnsembleConfig(model=spec, beta=0.5, t=1.0, n_paths=12,
                             master_seed=47, sde_step=0.01)
        assert np.array_equal(sample_time_average(cfg, u), euler_reference(cfg, u))

    def test_long_horizon_memory_stays_within_the_buffer(self, monkeypatch):
        # the whole run in one buffer would take 64 x 2,001 floats (1 MB);
        # capped at 2^14 floats, a chunk holds 8 paths in one 128 kB buffer,
        # and nothing else of its size is alive with it
        import tracemalloc
        cap = 1 << 14
        monkeypatch.setattr(simulate, "_EULER_FLOATS", cap)
        cfg = EnsembleConfig(model=ou_spec(), beta=0.0, t=20.0, n_paths=64,
                             master_seed=48, sde_step=0.01)
        u = lambda x: x
        tracemalloc.start()
        try:
            got = sample_time_average(cfg, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * cap < 64 * 2001 * 8
        assert np.array_equal(got, euler_reference(cfg, u))


class TestSeedsAtTheEdges:
    """Seeds at both ends of [0, 2**64) and numpy integers keep their samples."""

    SEEDS = [0, 2**64 - 1, np.int64(7)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chain(self, seed):
        ch = bernoulli_chain(0.3)
        u = np.array([0.0, 1.0])
        cfg = EnsembleConfig(model=ch, beta=ch.mu, t=5.0, n_paths=30, master_seed=seed)
        assert np.array_equal(sample_time_average(cfg, u), chain_reference(cfg, u))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ou(self, seed):
        cfg = EnsembleConfig(model=OUModel(), beta="stationary", t=0.5, n_paths=70,
                             master_seed=seed, sde_step=0.01)
        assert np.array_equal(sample_time_average(cfg, np.cos), ou_reference(cfg, np.cos))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_euler(self, seed):
        cfg = EnsembleConfig(model=ou_spec(), beta=0.2, t=0.5, n_paths=12,
                             master_seed=seed, sde_step=0.01)
        u = lambda x: x
        assert np.array_equal(sample_time_average(cfg, u), euler_reference(cfg, u))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_growth(self, seed):
        g = fk_growth_mc(0.35, 0.3, 3.0, 50, seed=seed)
        assert (g.estimate, g.std_error) == fk_reference(0.35, 0.3, 3.0, 50, seed)

    def test_numpy_path_count(self):
        ch = bernoulli_chain(0.3)
        u = np.array([0.0, 1.0])
        cfg = EnsembleConfig(model=ch, beta=ch.mu, t=5.0, n_paths=np.int64(30), master_seed=3)
        assert np.array_equal(sample_time_average(cfg, u), chain_reference(cfg, u))
