"""Bitwise identity of the columnar pricing path against the per-message one.

The communicator prices a whole exchange phase against one
``Cluster.bandwidths`` snapshot, ghost planning runs on ``BoxArray``
columns plus a rank vector, and the HDDA keys whole assignments with the
vectorized curves.  These tests pin each against verbatim copies of the
per-message / per-box code they replaced: identical busy vectors (as
bytes), statistics, telemetry events, error messages, plan dicts (order
included) and keys.  The references are the *old* implementations, not
re-derivations, so any drift in accumulation order fails here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.amr.ghost import plan_exchange_volumes
from repro.cluster import Cluster, LinkModel, NodeSpec
from repro.cluster.loadgen import SyntheticLoadGenerator
from repro.comm import SimCommunicator
from repro.hdda.index import HierarchicalIndexSpace
from repro.telemetry import Tracer
from repro.util.errors import GeometryError, HDDAError, SimulationError
from repro.util.geometry import Box, BoxArray, BoxList

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# References: the per-message communicator and the per-box planner.
# ---------------------------------------------------------------------------
def reference_record_message(stats, src, dst, nbytes, seconds):
    stats.messages += 1
    stats.bytes_sent += nbytes
    stats.point_to_point_time += seconds
    pair = (src, dst)
    stats.per_pair_bytes[pair] = stats.per_pair_bytes.get(pair, 0) + nbytes
    stats.per_pair_seconds[pair] = stats.per_pair_seconds.get(pair, 0.0) + seconds
    stats.per_pair_messages[pair] = stats.per_pair_messages.get(pair, 0) + 1


class ReferenceComm(SimCommunicator):
    """The communicator as it priced one message at a time."""

    def p2p_time(self, src, dst, nbytes, t=None):
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            return 0.0  # local copy, charged to compute
        if not (self.cluster.is_up(src) and self.cluster.is_up(dst)):
            raise SimulationError(
                f"point-to-point {src}->{dst} has a down endpoint; "
                "recovery must evacuate or re-route this transfer"
            )
        s_bw = self.cluster.state_of(src, t).bandwidth_mbps
        d_bw = self.cluster.state_of(dst, t).bandwidth_mbps
        seconds = self.cluster.link.transfer_time(nbytes, s_bw, d_bw)
        reference_record_message(self.stats, src, dst, int(nbytes), seconds)
        if self._messages_total is not None:
            self._messages_total.inc()
            self._bytes_total.inc(int(nbytes))
        return seconds

    def exchange_time(self, pair_bytes, t=None, phase="exchange"):
        busy = np.zeros(self.size)
        trace = self._tracer.enabled
        pairs = []
        for (src, dst), nbytes in pair_bytes.items():
            seconds = self.p2p_time(src, dst, nbytes, t)
            busy[src] += seconds
            busy[dst] += seconds
            if trace and src != dst:
                eff_bw = min(
                    self.cluster.state_of(src, t).bandwidth_mbps,
                    self.cluster.state_of(dst, t).bandwidth_mbps,
                )
                nom_bw = min(
                    self.cluster.nodes[src].bandwidth_mbps,
                    self.cluster.nodes[dst].bandwidth_mbps,
                )
                derated = eff_bw < nom_bw * (1.0 - 1e-12)
                pairs.append((int(src), int(dst), int(nbytes), seconds, derated))
        if trace:
            self._emit_exchange_event(phase, pairs, busy, t)
        return busy

    def allreduce_time(self, nbytes, t=None, op="allreduce"):
        live = [k for k in range(self.size) if self.cluster.is_up(k)]
        if len(live) <= 1:
            return 0.0
        rounds = math.ceil(math.log2(len(live)))
        states = [self.cluster.state_of(k, t) for k in live]
        slowest_bw = min(s.bandwidth_mbps for s in states)
        per_round = self.cluster.link.transfer_time(nbytes, slowest_bw, slowest_bw)
        seconds = rounds * per_round
        self.stats.collective_time += seconds
        if self._tracer.enabled:
            self._tracer.metrics.histogram(
                "comm.collective_seconds", op=op
            ).observe(seconds)
        return seconds


def reference_plan(
    boxes, owners, ghost_width=1, bytes_per_cell=8.0, refine_factor=2
):
    if ghost_width < 0:
        raise GeometryError(f"negative ghost width {ghost_width}")
    volumes = {}

    def add(src, dst, cells):
        if src == dst or cells <= 0:
            return
        key = (src, dst)
        volumes[key] = volumes.get(key, 0.0) + cells * bytes_per_cell

    by_level = {}
    for b in boxes:
        if b not in owners:
            raise GeometryError(f"box {b} missing from ownership map")
        by_level.setdefault(b.level, []).append(b)

    for level_boxes in by_level.values():
        for a in level_boxes:
            if ghost_width == 0:
                continue
            grown = a.grow(ghost_width)
            for b in level_boxes:
                if a is b:
                    continue
                inter = grown.intersection(b)
                if inter is not None:
                    add(owners[b], owners[a], inter.num_cells)

    for level, level_boxes in sorted(by_level.items()):
        parents = by_level.get(level - 1, [])
        if not parents:
            continue
        for fine in level_boxes:
            footprint = fine.grow(ghost_width) if ghost_width else fine
            coarse_fp = footprint.coarsen(refine_factor)
            for parent in parents:
                inter = parent.intersection(coarse_fp)
                if inter is not None:
                    add(owners[parent], owners[fine], inter.num_cells)
    return volumes


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
@st.composite
def cluster_specs(draw):
    """Everything needed to build the same cluster twice."""
    n = draw(st.integers(1, 6))
    bandwidths = draw(
        st.lists(st.sampled_from([10.0, 100.0, 155.5, 1000.0]), min_size=n, max_size=n)
    )
    gens = draw(
        st.lists(
            st.builds(
                dict,
                node=st.integers(0, n - 1),
                start_time=st.floats(-2.0, 5.0),
                ramp_rate=st.floats(0.05, 10.0),
                target_level=st.floats(0.0, 4.0),
                stop_time=st.one_of(st.none(), st.floats(5.0, 20.0)),
                bandwidth_fraction_per_unit=st.floats(0.0, 1.0),
            ),
            max_size=6,
        )
    )
    derate = draw(
        st.dictionaries(st.integers(0, n - 1), st.floats(0.01, 1.0), max_size=n)
    )
    down = draw(st.one_of(st.just(set()), st.sets(st.integers(0, n - 1), max_size=2)))
    link = draw(
        st.builds(
            LinkModel,
            latency_s=st.sampled_from([0.0, 1e-4, 3.3e-3]),
            contention_factor=st.sampled_from([1.0, 1.7]),
        )
    )
    t = draw(st.floats(0.0, 25.0))
    return n, bandwidths, gens, derate, down, link, t


def build_cluster(spec) -> Cluster:
    n, bandwidths, gens, derate, down, link, _ = spec
    cluster = Cluster(
        [NodeSpec(name=f"n{k}", bandwidth_mbps=bw) for k, bw in enumerate(bandwidths)],
        link=link,
        load_generators=[SyntheticLoadGenerator(**g) for g in gens],
    )
    for node, factor in derate.items():
        cluster.degrade_link(node, factor)
    for node in down:
        cluster.mark_down(node)
    return cluster


@st.composite
def phases(draw, n: int):
    """An exchange phase: valid messages, sometimes with one bad message
    (out-of-range rank or negative size) spliced in."""
    rank = st.integers(0, n - 1)
    size = st.one_of(st.integers(0, 10**7), st.floats(0.0, 1e7), st.just(0))
    items = list(
        draw(st.dictionaries(st.tuples(rank, rank), size, max_size=16)).items()
    )
    if draw(st.integers(0, 4)) == 0:
        bad_rank = st.integers(-1, n)
        bad = draw(
            st.tuples(
                st.tuples(bad_rank, bad_rank),
                st.one_of(st.integers(-5, -1), st.floats(-1e3, -1e-3), size),
            )
        )
        items.insert(draw(st.integers(0, len(items))), bad)
    return dict(items)


def traced(comm_cls, spec):
    tracer = Tracer(wall_clock=lambda: 0.0)
    comm = comm_cls(build_cluster(spec))
    comm.bind_tracer(tracer)
    return comm, tracer


def observed(comm, tracer):
    return (
        comm.stats,
        [(e.name, e.attributes) for e in tracer.events],
        sorted(
            (m.name, tuple(sorted(m.labels.items())), repr(m.snapshot()))
            for m in tracer.metrics
        ),
    )


# ---------------------------------------------------------------------------
# Snapshot pricing
# ---------------------------------------------------------------------------
@SETTINGS
@given(cluster_specs())
def test_bandwidths_match_state_of_bitwise(spec):
    cluster = build_cluster(spec)
    t = spec[-1]
    snapshot = cluster.bandwidths(t)
    expected = np.array(
        [cluster.state_of(k, t).bandwidth_mbps for k in range(cluster.num_nodes)]
    )
    assert snapshot.tobytes() == expected.tobytes()


@SETTINGS
@given(st.data(), cluster_specs())
def test_exchange_time_identity(data, spec):
    n, t = spec[0], spec[-1]
    ref, ref_tracer = traced(ReferenceComm, spec)
    new, new_tracer = traced(SimCommunicator, spec)
    for _ in range(data.draw(st.integers(1, 3))):
        pair_bytes = data.draw(phases(n))
        phase = data.draw(st.sampled_from(["ghost-exchange", "migration"]))
        try:
            expected = ref.exchange_time(pair_bytes, t, phase=phase)
        except SimulationError as exc:
            before = observed(new, new_tracer)
            with pytest.raises(SimulationError) as got:
                new.exchange_time(pair_bytes, t, phase=phase)
            assert str(got.value) == str(exc)
            # An aborted phase leaves nothing behind.
            assert observed(new, new_tracer) == before
            return
        busy = new.exchange_time(pair_bytes, t, phase=phase)
        assert busy.tobytes() == expected.tobytes()
        assert observed(new, new_tracer) == observed(ref, ref_tracer)


@SETTINGS
@given(st.data(), cluster_specs())
def test_p2p_and_allreduce_identity(data, spec):
    n, t = spec[0], spec[-1]
    ref, ref_tracer = traced(ReferenceComm, spec)
    new, new_tracer = traced(SimCommunicator, spec)
    nbytes = data.draw(st.floats(0.0, 1e6))
    assert (
        np.float64(new.allreduce_time(nbytes, t)).tobytes()
        == np.float64(ref.allreduce_time(nbytes, t)).tobytes()
    )
    src, dst = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    try:
        expected = ref.p2p_time(src, dst, nbytes, t)
    except SimulationError as exc:
        with pytest.raises(SimulationError) as got:
            new.p2p_time(src, dst, nbytes, t)
        assert str(got.value) == str(exc)
        return
    got = new.p2p_time(src, dst, nbytes, t)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()
    assert observed(new, new_tracer) == observed(ref, ref_tracer)


# ---------------------------------------------------------------------------
# Columnar ghost planning
# ---------------------------------------------------------------------------
@st.composite
def hierarchies(draw):
    """Unique boxes on 1-3 levels (same-level overlaps allowed) + ranks."""
    ndim = draw(st.integers(1, 3))
    refine = draw(st.sampled_from([2, 4]))
    num_levels = draw(st.integers(1, 3))
    extent = 12
    boxes: list[Box] = []
    for level in range(num_levels):
        top = extent * refine**level
        side = max(2, top // 3)
        level_boxes = draw(
            st.lists(
                st.tuples(
                    st.tuples(*[st.integers(0, top - 1)] * ndim),
                    st.tuples(*[st.integers(1, side)] * ndim),
                ),
                max_size=8,
            )
        )
        for lo, shape in level_boxes:
            boxes.append(
                Box(lo, tuple(a + s for a, s in zip(lo, shape)), level)
            )
    boxes = list(dict.fromkeys(boxes))  # partition outputs are unique
    order = draw(st.permutations(range(len(boxes))))
    boxes = [boxes[i] for i in order]  # levels need not come in order
    ranks = draw(
        st.lists(st.integers(0, 5), min_size=len(boxes), max_size=len(boxes))
    )
    ghost = draw(st.integers(0, 2))
    bpc = draw(st.sampled_from([8, 40.0, 12.345, 0.1, 1e-3, 7.77]))
    return BoxList(boxes), ranks, ghost, bpc, refine


@SETTINGS
@given(hierarchies())
def test_plan_identity(case):
    boxes, ranks, ghost, bpc, refine = case
    owners = dict(zip(boxes, ranks))
    expected = list(
        reference_plan(boxes, owners, ghost, bpc, refine).items()
    )
    kwargs = dict(ghost_width=ghost, bytes_per_cell=bpc, refine_factor=refine)
    assert list(plan_exchange_volumes(boxes, owners, **kwargs).items()) == expected
    by_vector = plan_exchange_volumes(boxes, np.array(ranks), **kwargs)
    assert list(by_vector.items()) == expected
    columnar = BoxList.from_array(BoxArray.from_boxes(boxes))
    assert list(plan_exchange_volumes(columnar, ranks, **kwargs).items()) == expected


def test_plan_identity_on_partitioned_workload():
    from repro.kernels.workloads import paper_rm3d_trace
    from repro.runtime.experiment import make_partitioner

    trace = paper_rm3d_trace(num_regrids=3)
    caps = np.array([0.1, 0.2, 0.3, 0.15, 0.25])
    for name in ("ACEHeterogeneous", "ACEComposite"):
        for epoch in range(trace.num_regrids):
            part = make_partitioner(name).partition(trace.epoch(epoch), caps)
            expected = list(
                reference_plan(part.boxes(), part.owners(), 1, 40.0, 2).items()
            )
            got = plan_exchange_volumes(
                part.boxes(), part.rank_vector(), 1, 40.0, 2
            )
            assert expected and list(got.items()) == expected


def test_plan_rejects_missing_owner_and_bad_vector():
    a, b = Box((0,), (4,)), Box((4,), (8,))
    with pytest.raises(GeometryError, match="missing from ownership map"):
        plan_exchange_volumes(BoxList([a, b]), {a: 0})
    with pytest.raises(GeometryError, match="owner ranks"):
        plan_exchange_volumes(BoxList([a, b]), np.array([0]))


# ---------------------------------------------------------------------------
# Vectorized HDDA keys
# ---------------------------------------------------------------------------
@SETTINGS
@given(
    st.sampled_from(["hilbert", "morton"]),
    st.integers(1, 3),
    st.sampled_from([2, 4]),
    st.data(),
)
def test_keys_for_matches_key_for_box(curve, ndim, refine, data):
    domain = Box((0,) * ndim, (16,) * ndim)
    space = HierarchicalIndexSpace(domain, 3, refine, curve)
    boxes = []
    for level in range(3):
        top = 16 * refine**level
        corners = data.draw(
            st.lists(st.tuples(*[st.integers(0, top - 1)] * ndim), max_size=10)
        )
        boxes += [Box(c, tuple(x + 1 for x in c), level) for c in corners]
    arr = BoxArray.from_boxes(boxes)
    keys = space.keys_for(arr) if boxes else space.keys_for(BoxArray.empty(ndim))
    assert keys.tolist() == [space.key_for_box(b) for b in boxes]


@pytest.mark.parametrize("curve", ["hilbert", "morton"])
@pytest.mark.parametrize(
    "bad",
    [
        Box((16, 0), (17, 1), 0),  # past the domain's curve at level 0
        Box((1 << 20, 0), (1 << 20 + 1, 1), 1),  # would overflow if promoted
        Box((0, 0), (1, 1), 3),  # level outside the space
    ],
)
def test_keys_for_raises_like_key_for_box(curve, bad):
    space = HierarchicalIndexSpace(Box((0, 0), (16, 16)), 3, 2, curve)
    good = Box((2, 2), (3, 3), 0)
    with pytest.raises(HDDAError) as scalar:
        space.key_for_box(bad)
    with pytest.raises(HDDAError) as columnar:
        space.keys_for(BoxArray.from_boxes([good, bad, good]))
    assert str(columnar.value) == str(scalar.value)
