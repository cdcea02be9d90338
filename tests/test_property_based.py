"""Property-based tests (hypothesis) on core data structures and invariants."""

import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.config import clip01, ensure_rng
from repro.data import Dataset, GridPartition
from repro.engine import BatchedQueryEngine, QueryStats, plan_shards
from repro.engine.transport import ShmRing, request_block_bytes
from repro.exceptions import ConfigurationError, ReliabilityError
from repro.faults import reassign_worker, replan
from repro.fuzzing import FuzzerConfig, OperationalFuzzer
from repro.store import PersistentQueryCache
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.metrics import accuracy, confusion_matrix, prediction_margin
from repro.op import (
    CellProfile,
    hellinger_distance,
    js_divergence,
    kl_divergence,
    total_variation,
)
from repro.reliability import (
    BayesianCellModel,
    BetaPrior,
    CellEvidence,
    CellEvidenceTable,
    ReliabilityAssessor,
)
from repro.reliability.bayesian import beta_lower_bounds


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)

distributions = st.integers(min_value=2, max_value=8).flatmap(
    lambda k: st.lists(
        st.floats(min_value=1e-6, max_value=1.0, allow_nan=False), min_size=k, max_size=k
    )
).map(lambda values: np.asarray(values) / np.sum(values))


@st.composite
def logits_and_labels(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=2, max_value=6))
    logits = draw(
        arrays(np.float64, (n, k), elements=st.floats(-20, 20, allow_nan=False))
    )
    labels = draw(arrays(np.int64, (n,), elements=st.integers(0, k - 1)))
    return logits, labels


# --------------------------------------------------------------------------- #
# config / numerics
# --------------------------------------------------------------------------- #
class TestClipProperties:
    @given(arrays(np.float64, (10,), elements=finite_floats))
    def test_clip01_bounds(self, values):
        clipped = clip01(values)
        assert np.all(clipped >= 0.0) and np.all(clipped <= 1.0)

    @given(arrays(np.float64, (10,), elements=st.floats(0, 1, allow_nan=False)))
    def test_clip01_identity_inside_domain(self, values):
        np.testing.assert_allclose(clip01(values), values)

    @given(st.integers(min_value=0, max_value=2**31 - 2))
    def test_ensure_rng_deterministic(self, seed):
        assert ensure_rng(seed).random() == ensure_rng(seed).random()


# --------------------------------------------------------------------------- #
# losses and metrics
# --------------------------------------------------------------------------- #
class TestLossProperties:
    @given(logits_and_labels())
    @settings(max_examples=50, deadline=None)
    def test_cross_entropy_non_negative(self, data):
        logits, labels = data
        loss = SoftmaxCrossEntropy()
        assert loss.forward(logits, labels) >= 0.0

    @given(logits_and_labels())
    @settings(max_examples=50, deadline=None)
    def test_softmax_is_distribution(self, data):
        logits, _ = data
        probs = SoftmaxCrossEntropy.softmax(logits)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(len(logits)), atol=1e-9)

    @given(logits_and_labels())
    @settings(max_examples=30, deadline=None)
    def test_gradient_rows_sum_to_zero(self, data):
        logits, labels = data
        loss = SoftmaxCrossEntropy()
        loss.forward(logits, labels)
        grad = loss.backward()
        np.testing.assert_allclose(grad.sum(axis=1), np.zeros(len(logits)), atol=1e-9)


class TestMetricProperties:
    @given(
        arrays(np.int64, (20,), elements=st.integers(0, 4)),
        arrays(np.int64, (20,), elements=st.integers(0, 4)),
    )
    def test_accuracy_in_unit_interval(self, y_true, y_pred):
        assert 0.0 <= accuracy(y_true, y_pred) <= 1.0

    @given(arrays(np.int64, (20,), elements=st.integers(0, 4)))
    def test_accuracy_reflexive(self, y):
        assert accuracy(y, y) == 1.0

    @given(
        arrays(np.int64, (30,), elements=st.integers(0, 3)),
        arrays(np.int64, (30,), elements=st.integers(0, 3)),
    )
    def test_confusion_matrix_total(self, y_true, y_pred):
        matrix = confusion_matrix(y_true, y_pred, num_classes=4)
        assert matrix.sum() == 30
        assert np.all(matrix >= 0)

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=2, max_value=6))
    def test_prediction_margin_bounds(self, n, k):
        rng = np.random.default_rng(n * 100 + k)
        probs = rng.dirichlet(np.ones(k), size=n)
        margins = prediction_margin(probs, rng.integers(0, k, n))
        assert np.all(margins >= -1.0 - 1e-9) and np.all(margins <= 1.0 + 1e-9)


# --------------------------------------------------------------------------- #
# divergences
# --------------------------------------------------------------------------- #
class TestDivergenceProperties:
    @given(distributions, distributions)
    @settings(max_examples=60, deadline=None)
    def test_non_negative(self, p, q):
        if p.shape != q.shape:
            return
        assert kl_divergence(p, q) >= -1e-12
        assert js_divergence(p, q) >= -1e-12
        assert total_variation(p, q) >= 0.0
        assert hellinger_distance(p, q) >= 0.0

    @given(distributions)
    def test_zero_on_self(self, p):
        assert js_divergence(p, p) == pytest.approx(0.0, abs=1e-9)
        assert total_variation(p, p) == pytest.approx(0.0, abs=1e-12)

    @given(distributions, distributions)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_bounds(self, p, q):
        if p.shape != q.shape:
            return
        assert js_divergence(p, q) == pytest.approx(js_divergence(q, p), abs=1e-9)
        assert total_variation(p, q) <= 1.0 + 1e-12
        assert hellinger_distance(p, q) <= 1.0 + 1e-9
        assert js_divergence(p, q) <= np.log(2) + 1e-9


# --------------------------------------------------------------------------- #
# datasets and partitions
# --------------------------------------------------------------------------- #
class TestDatasetProperties:
    @given(
        st.integers(min_value=4, max_value=40),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_split_preserves_rows(self, n, num_classes, d):
        rng = np.random.default_rng(n)
        dataset = Dataset(rng.random((n, d)), rng.integers(0, num_classes, n), num_classes)
        train, test = dataset.split(0.3, rng=0)
        assert len(train) + len(test) == n
        assert len(train) > 0 and len(test) > 0

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_class_frequencies_sum_to_one(self, n):
        rng = np.random.default_rng(n)
        dataset = Dataset(rng.random((n, 2)), rng.integers(0, 3, n), 3)
        assert dataset.class_frequencies().sum() == pytest.approx(1.0)


class TestPartitionProperties:
    @given(
        st.integers(min_value=2, max_value=6),
        arrays(np.float64, (15, 2), elements=st.floats(0, 1, allow_nan=False)),
    )
    @settings(max_examples=40, deadline=None)
    def test_assignments_in_range(self, bins, x):
        partition = GridPartition(2, bins_per_dim=bins)
        cells = partition.assign(x)
        assert np.all(cells >= 0) and np.all(cells < partition.num_cells)

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=35))
    @settings(max_examples=40, deadline=None)
    def test_center_round_trip(self, bins, cell_index):
        partition = GridPartition(2, bins_per_dim=bins)
        cell_id = cell_index % partition.num_cells
        assert partition.assign(partition.cell_center(cell_id)[None, :])[0] == cell_id


# --------------------------------------------------------------------------- #
# query engine: sharding, stats merging, caching, budgets
# --------------------------------------------------------------------------- #
class _AffineToyModel:
    """Deterministic, picklable classifier for engine properties."""

    def __init__(self, d: int = 3, k: int = 4) -> None:
        rng = np.random.default_rng(2021)
        self.w = rng.normal(size=(d, k))
        self.b = rng.normal(size=k)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        logits = np.atleast_2d(x) @ self.w + self.b
        z = np.exp(logits - logits.max(axis=1, keepdims=True))
        return z / z.sum(axis=1, keepdims=True)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.predict_proba(x).argmax(axis=1)

    def loss_input_gradient(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        probs = self.predict_proba(x)
        grad_logits = probs.copy()
        grad_logits[np.arange(len(probs)), np.asarray(y, dtype=int)] -= 1.0
        return (grad_logits / len(probs)) @ self.w.T


class TestEngineShardingProperties:
    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_shards_partition_rows_exactly(self, n, batch_size, num_workers):
        shards = plan_shards(n, batch_size, num_workers)
        assert [s.index for s in shards] == list(range(len(shards)))
        covered = 0
        for shard in shards:
            assert shard.start == covered
            assert shard.stop - shard.start <= batch_size
            assert shard.worker == shard.index % num_workers
            covered = shard.stop
        assert covered == n

    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=8),
        st.sets(st.integers(min_value=0, max_value=7)),
    )
    @settings(max_examples=60, deadline=None)
    def test_replan_preserves_partition_and_targets_survivors(
        self, n, batch_size, num_workers, dead
    ):
        """Supervised re-planning never changes what a shard computes.

        The partition (boundaries, indices, order) of a re-planned shard
        list is byte-for-byte the original's; only orphaned shards move,
        and only onto surviving workers — the invariants the bit-identity
        contract of :mod:`repro.faults.supervision` rests on.
        """
        shards = plan_shards(n, batch_size, num_workers)
        alive = [w for w in range(num_workers) if w not in dead]
        if not alive:
            if shards:
                with pytest.raises(ConfigurationError):
                    replan(shards, alive)
            return
        replanned = replan(shards, alive)
        assert [(s.index, s.start, s.stop) for s in replanned] == [
            (s.index, s.start, s.stop) for s in shards
        ]
        for original, moved in zip(shards, replanned):
            assert moved.worker in alive
            if original.worker in alive:
                assert moved is original  # survivors keep their assignment
            else:
                assert moved.worker == reassign_worker(original.index, alive)
        # pure in its inputs: the same failure yields the same plan
        assert replan(shards, alive) == replanned

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sets(st.integers(min_value=0, max_value=63), min_size=1),
    )
    @settings(max_examples=60, deadline=None)
    def test_reassign_worker_deterministic_and_alive(self, shard_index, alive):
        worker = reassign_worker(shard_index, sorted(alive))
        assert worker in alive
        # order- and duplicate-insensitive in the survivor set
        shuffled = list(alive) + list(alive)
        assert reassign_worker(shard_index, shuffled) == worker
        with pytest.raises(ConfigurationError):
            reassign_worker(shard_index, [])

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_merged_shard_stats_equal_single_process_stats(
        self, n, batch_size, num_workers
    ):
        """Chunk-by-chunk deltas merged shard-wise == one in-process engine."""
        model = _AffineToyModel()
        rng = np.random.default_rng(n * 131 + batch_size)
        x = rng.random((n, 3))
        y = rng.integers(0, 4, size=n)

        single = BatchedQueryEngine(model, batch_size=batch_size)
        single.predict_proba(x)
        single.loss_input_gradient(x, y)

        shards = plan_shards(n, batch_size, num_workers)
        merged = QueryStats(rows_queried=n, gradient_rows=n)
        for _ in shards:
            merged.merge(QueryStats(model_calls=1))
        for _ in shards:
            merged.merge(QueryStats(gradient_calls=1))
        assert merged.as_dict() == single.stats.as_dict()


# --------------------------------------------------------------------------- #
# shared-memory ring transport
# --------------------------------------------------------------------------- #
class TestShmRingProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=12),
                st.integers(min_value=1, max_value=6),
                st.sampled_from(["<f8", "<f4", "<i8"]),
            ),
            min_size=1,
            max_size=3,
        ),
        st.integers(min_value=0, max_value=2_000_000_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_write_read_roundtrip_is_bit_exact(self, specs, seed):
        """Any block packed into a slot is read back bit-identically.

        Mixed shapes and dtypes in one slot — the gradient path stages
        ``(x, y)`` with different dtypes — and the envelope entry table must
        describe exactly what was written.
        """
        rng = np.random.default_rng(seed)
        blocks = [
            (rng.random((rows, cols)) * 100).astype(np.dtype(dtype))
            for rows, cols, dtype in specs
        ]
        ring = ShmRing()
        try:
            ring.ensure(slots=1, slot_bytes=request_block_bytes(blocks, max(
                block.shape[0] for block in blocks
            )) or 1)
            entries = ring.write(0, blocks)
            assert len(entries) == len(blocks)
            for block, (offset, shape, dtype) in zip(blocks, entries):
                assert shape == block.shape
                assert np.dtype(dtype) == block.dtype
                np.testing.assert_array_equal(
                    ring.read_copy(offset, shape, dtype), block
                )
        finally:
            ring.release()

    @given(
        st.integers(min_value=1, max_value=6),
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=24),
        st.integers(min_value=0, max_value=2_000_000_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_slot_reuse_never_leaks_between_slots(self, slots, writes, seed):
        """Rewriting slots in any order never corrupts other slots' blocks.

        The transport reuses slots ring-style across dispatches; whatever
        interleaving of writes occurs, each slot's latest block must read
        back exactly, untouched by every other slot's traffic.
        """
        rng = np.random.default_rng(seed)
        ring = ShmRing()
        try:
            ring.ensure(slots=slots, slot_bytes=8 * 4 * 8)
            latest = {}
            for target in writes:
                slot = target % slots
                block = rng.random((rng.integers(1, 9), 4))
                (offset, shape, dtype), = ring.write(slot, [block])
                latest[slot] = (block, offset, shape, dtype)
                for block_, offset_, shape_, dtype_ in latest.values():
                    np.testing.assert_array_equal(
                        ring.read_copy(offset_, shape_, dtype_), block_
                    )
        finally:
            ring.release()

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_grow_only_capacity(self, slots, slot_bytes):
        ring = ShmRing()
        try:
            ring.ensure(slots, slot_bytes)
            first = (ring.slots, ring.slot_bytes)
            ring.ensure(1, 1)  # shrinking requests never shrink the ring
            assert (ring.slots, ring.slot_bytes) == first
            ring.ensure(slots + 3, slot_bytes)
            assert ring.slots >= slots + 3
        finally:
            ring.release()

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1000), st.integers(0, 50), st.integers(0, 1000)
            ),
            min_size=0,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_stats_merge_is_componentwise_sum(self, rows):
        total = QueryStats()
        for queried, calls, hits in rows:
            total.merge(
                QueryStats(rows_queried=queried, model_calls=calls, cache_hits=hits)
            )
        assert total.rows_queried == sum(r[0] for r in rows)
        assert total.model_calls == sum(r[1] for r in rows)
        assert total.cache_hits == sum(r[2] for r in rows)

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=2**31 - 2),
    )
    @settings(max_examples=25, deadline=None)
    def test_cache_hits_never_change_predict_proba(self, n, batch_size, seed):
        """A cache hit returns exactly what the model produced the first time.

        Repeated rows (in any order, any multiplicity) must come back
        bit-identical to their first computation, and a cached engine must
        agree bit-for-bit with an uncached one on the initial pass.
        """
        model = _AffineToyModel()
        rng = np.random.default_rng(seed)
        base = rng.random((n, 3))
        cached = BatchedQueryEngine(model, batch_size=batch_size, cache=True)
        uncached = BatchedQueryEngine(model, batch_size=batch_size)
        first = cached.predict_proba(base)
        np.testing.assert_array_equal(first, uncached.predict_proba(base))
        # re-query the same rows shuffled and duplicated: all served by the
        # cache, all bit-identical to the first computation
        picks = rng.integers(0, n, size=2 * n)
        repeat = cached.predict_proba(base[picks])
        np.testing.assert_array_equal(repeat, first[picks])
        assert cached.stats.cache_hits == len(picks)
        assert cached.stats.model_calls == uncached.stats.model_calls

    @given(
        budget=st.integers(min_value=1, max_value=200),
        execution=st.sampled_from(["population", "sequential", "sharded"]),
        num_workers=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=8, deadline=None)
    def test_total_queries_never_exceed_budget(
        self,
        trained_cluster_model,
        cluster_naturalness,
        operational_cluster_data,
        budget,
        execution,
        num_workers,
    ):
        from repro.runtime import ExecutionPolicy

        data = operational_cluster_data
        fuzzer = OperationalFuzzer(
            naturalness=cluster_naturalness,
            config=FuzzerConfig(
                epsilon=0.12,
                queries_per_seed=8,
                naturalness_threshold=0.3,
                execution="sequential" if execution == "sequential" else "population",
                policy=ExecutionPolicy(
                    backend="sharded" if execution == "sharded" else "batched",
                    num_workers=num_workers if execution == "sharded" else 1,
                    cache=True,
                ),
                stall_limit=4,
            ),
            natural_pool=data.x,
        )
        campaign = fuzzer.fuzz(
            trained_cluster_model, data.x[:6], data.y[:6], budget=budget, rng=3
        )
        assert campaign.total_queries <= budget
        assert campaign.total_queries == sum(r.queries for r in campaign.per_seed)
        campaign.validate_budget(budget)  # must not raise


# --------------------------------------------------------------------------- #
# persistent cache backend: disk-backed results bit-identical, fewer calls
# --------------------------------------------------------------------------- #
class TestPersistentCacheBackendProperties:
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=2**31 - 2),
    )
    @settings(max_examples=10, deadline=None)
    def test_disk_backend_bit_identical_and_fewer_physical_calls(
        self, n, batch_size, seed
    ):
        """Any row matrix: disk-backed == in-memory == uncached, bit for bit,
        and a second engine over the same directory pays strictly fewer
        physical model calls (zero) for the same logical answers."""
        model = _AffineToyModel()
        rng = np.random.default_rng(seed)
        x = rng.random((n, 3))
        with tempfile.TemporaryDirectory() as directory:
            uncached = BatchedQueryEngine(model, batch_size=batch_size)
            in_memory = BatchedQueryEngine(model, batch_size=batch_size, cache=True)
            cold = BatchedQueryEngine(
                model, batch_size=batch_size, cache=PersistentQueryCache(directory)
            )
            expected = uncached.predict_proba(x)
            np.testing.assert_array_equal(in_memory.predict_proba(x), expected)
            np.testing.assert_array_equal(cold.predict_proba(x), expected)
            assert cold.stats.model_calls == uncached.stats.model_calls

            warm = BatchedQueryEngine(
                model, batch_size=batch_size, cache=PersistentQueryCache(directory)
            )
            np.testing.assert_array_equal(warm.predict_proba(x), expected)
            assert warm.stats.model_calls < max(cold.stats.model_calls, 1)
            assert warm.stats.model_calls == 0
            assert warm.stats.cache_hits == len(x)

    @given(
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=0, max_value=2**31 - 2),
    )
    @settings(max_examples=10, deadline=None)
    def test_reopened_store_serves_duplicates_and_permutations(self, n, seed):
        """Entries survive reopen and answer any multiplicity/order of the
        original rows with the exact first-computed values."""
        model = _AffineToyModel()
        rng = np.random.default_rng(seed)
        base = rng.random((n, 3))
        with tempfile.TemporaryDirectory() as directory:
            first_engine = BatchedQueryEngine(
                model, cache=PersistentQueryCache(directory)
            )
            first = first_engine.predict_proba(base)
            picks = rng.integers(0, n, size=2 * n)
            reopened = BatchedQueryEngine(
                model, cache=PersistentQueryCache(directory)
            )
            np.testing.assert_array_equal(
                reopened.predict_proba(base[picks]), first[picks]
            )
            assert reopened.stats.model_calls == 0


# --------------------------------------------------------------------------- #
# Bayesian reliability model
# --------------------------------------------------------------------------- #
@st.composite
def evidence_tables(draw):
    """Tables mixing absent cells, zero-trial cells and tested cells."""
    partition = GridPartition(2, bins_per_dim=draw(st.integers(min_value=1, max_value=5)))
    present = draw(
        st.lists(
            st.integers(min_value=0, max_value=partition.num_cells - 1),
            unique=True,
            max_size=partition.num_cells,
        )
    )
    table = CellEvidenceTable(partition=partition)
    for cell_id in present:
        trials = draw(st.integers(min_value=0, max_value=400))
        failures = draw(st.integers(min_value=0, max_value=trials))
        table.add(CellEvidence(cell_id=cell_id, label=0, trials=trials, failures=failures))
    return table


def _reference_bounds(model, table, confidence):
    """Per-cell ``(means, uppers, lowers)`` from ``scipy.stats.beta.ppf``.

    Absent cells take the model's default posterior for the mean and upper
    bound and a lower bound of 0; below the 0.5 crossover the lower bound is
    capped at the upper one.
    """
    from scipy import stats

    prior = model.prior
    means, uppers, lowers = [], [], []
    for cell_id in range(table.partition.num_cells):
        evidence = table.cells.get(cell_id)
        if evidence is not None:
            a = prior.alpha + evidence.failures
            b = prior.beta + (evidence.trials - evidence.failures)
        elif model.unexplored_pessimistic:
            a, b = prior.alpha, prior.beta
        else:
            a, b = 1e-3, 1e3
        upper = float(stats.beta.ppf(confidence, a, b))
        lower = 0.0
        if evidence is not None:
            lower = float(stats.beta.ppf(1.0 - confidence, a, b))
            if confidence <= 0.5 + 1e-9:
                lower = min(lower, upper)
        means.append(a / (a + b))
        uppers.append(upper)
        lowers.append(lower)
    return np.array(means), np.array(uppers), np.array(lowers)


class TestBayesianProperties:
    @given(
        st.integers(min_value=0, max_value=500),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_are_ordered_and_in_unit_interval(self, trials, failure_rate, confidence):
        failures = int(round(trials * failure_rate))
        posterior = BayesianCellModel(BetaPrior(1.0, 9.0)).posterior_for(trials, failures)
        try:
            lower = posterior.lower_bound(confidence)
            upper = posterior.upper_bound(confidence)
        except ReliabilityError:
            # only far in the lower tail, where betaincinv's root finding fails
            assert confidence < 1e-50
            return
        assert 0.0 <= lower <= upper <= 1.0
        assert 0.0 <= posterior.mean <= 1.0
        # at high confidence the one-sided bounds must bracket the mean
        if confidence >= 0.9:
            assert lower <= posterior.mean + 1e-12 <= upper + 0.1

    @given(st.integers(min_value=1, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_more_clean_evidence_tightens_upper_bound(self, trials):
        model = BayesianCellModel(BetaPrior(1.0, 9.0))
        small = model.posterior_for(trials, 0).upper_bound(0.95)
        large = model.posterior_for(trials * 2, 0).upper_bound(0.95)
        assert large <= small + 1e-12

    @given(
        evidence_tables(),
        st.builds(
            BetaPrior,
            st.floats(min_value=0.05, max_value=5.0),
            st.floats(min_value=0.05, max_value=50.0),
        ),
        st.booleans(),
        st.sampled_from([0.5, 0.5 + 1e-10, 0.85, 0.9, 0.95, 0.999]),
    )
    @example(
        table=CellEvidenceTable(partition=GridPartition(2, bins_per_dim=3)),
        prior=BetaPrior(),
        pessimistic=True,
        confidence=0.95,
    )
    @example(
        table=CellEvidenceTable(partition=GridPartition(2, bins_per_dim=3)),
        prior=BetaPrior(),
        pessimistic=False,
        confidence=0.5,
    )
    @settings(max_examples=80, deadline=None)
    def test_vectorised_bounds_match_per_cell_reference_bit_for_bit(
        self, table, prior, pessimistic, confidence
    ):
        model = BayesianCellModel(prior, unexplored_pessimistic=pessimistic)
        means, uppers, lowers = _reference_bounds(model, table, confidence)

        def assert_same_bits(actual, expected):
            actual = np.asarray(actual, dtype=float)
            np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))

        assert_same_bits(model.posterior_means(table), means)
        assert_same_bits(model.posterior_upper_bounds(table, confidence), uppers)
        cell_ids, alpha, beta = model.posterior_arrays(table)
        assert_same_bits(beta_lower_bounds(alpha, beta, confidence), lowers[cell_ids])

        # the assessor's estimate is the OP-weighted sum of the same vectors
        # (its own model always keeps unexplored cells pessimistic)
        if pessimistic:
            partition = table.partition
            profile = CellProfile(partition, np.arange(1.0, partition.num_cells + 1.0))
            assessor = ReliabilityAssessor(
                partition, profile, prior=prior, confidence=confidence
            )
            estimate = assessor.assess_from_evidence(table)
            weights = assessor.cell_probabilities
            assert_same_bits(estimate.pmi, np.dot(weights, means))
            assert_same_bits(estimate.pmi_upper, np.dot(weights, uppers))
            assert_same_bits(estimate.pmi_lower, np.dot(weights, lowers))

