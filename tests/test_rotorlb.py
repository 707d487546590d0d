"""RotorLB (``repro.net.rotorlb``) under both engine kernels.

Unit checks run a hand-built pair of agents whose uplinks end in
recorders, so the order in which a slice step fills a circuit is the order
the recorder sees packets arrive. The differential replays random submits,
relays, bulk drops, squeezed queues, failure arming and slice steps on small
Opera and RotorNet networks, and requires the compiled kernel's agents
(``CKRotorLBAgent``) to leave every queue, backlog, budget, counter and
uplink transmission exactly where the Python agents leave them.
"""

from __future__ import annotations

import sys
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fctsim import build_network
from repro.net.kernel import compiled_available, engine_classes
from repro.net.packet import (
    HEADER_BYTES,
    MTU_BYTES,
    PacketKind,
    Priority,
    acquire,
)
from repro.net.rotorlb import BulkFlow, RotorLBAgent
from repro.net.stats import FlowRecord

KERNELS = ["py", pytest.param("c", marks=pytest.mark.skipif(
    not compiled_available(),
    reason="compiled kernel (_ckernel) not built in this environment",
))]

PAYLOAD = MTU_BYTES - HEADER_BYTES
HPR = 2  # hosts per rack in the hand-built pair


def fields(packet):
    """The RotorLB-visible fields of a packet."""
    return (
        packet.flow_id,
        packet.seq,
        packet.size_bytes,
        packet.next_rack,
        packet.relay_to,
    )


class Recorder:
    """A port's far end: the fields of every packet that arrives."""

    def __init__(self):
        self.got = []

    def receive_cb(self, packet):
        self.got.append(fields(packet))


def agent_pair(kernel, host_budget=10**9, relay_cap=512_000):
    """Racks 0 and 1 joined by one circuit in their only slice.

    Racks 2 and 3 exist only as destinations. Returns both agents and the
    recorder behind each agent's uplink.
    """
    classes = engine_classes(kernel)
    sim = classes.Simulator()
    agents, recorders = [], []
    for rack in (0, 1):
        recorder = Recorder()
        port = classes.Port(sim, f"up{rack}", target=recorder, propagation_ps=0)
        agents.append(
            classes.RotorLBAgent(
                sim,
                rack,
                hosts_per_rack=HPR,
                uplinks={0: port},
                slice_payload_bytes=20 * MTU_BYTES,
                host_budget_bytes=host_budget,
                hosts=[rack * HPR + i for i in range(HPR)],
                active_by_slice=[[(0, port, 1 - rack)]],
                relay_cap_bytes=relay_cap,
            )
        )
        recorders.append(recorder)
    for agent in agents:
        agent.peers = {0: agents[0], 1: agents[1]}
    return sim, agents, recorders


def bulk_flow(flow_id, src, dst, size):
    return BulkFlow(FlowRecord(flow_id, src, dst, size, "bulk", 0))


def bulk_packet(flow_id, dst, seq, size, next_rack=None, relay_to=None):
    return acquire(
        flow_id, PacketKind.DATA, 0, dst, seq, size, Priority.BULK,
        next_rack=next_rack, relay_to=relay_to,
    )


def slice_step(sim, agent, recorder):
    """One slice step of ``agent``, drained: what its uplink carried."""
    agent.on_slice(0)
    sim.run()
    return recorder.got


@pytest.mark.parametrize("kernel", KERNELS)
class TestSliceStep:
    def test_relay_then_local_then_vlb(self, kernel):
        sim, (a0, _a1), (rec0, _rec1) = agent_pair(kernel)
        a0.accept_relay(bulk_packet(9, 2, 0, HEADER_BYTES + 100))
        a0.accept_relay(bulk_packet(9, 3, 1, HEADER_BYTES + 100))
        a0.submit(bulk_flow(1, 0, 2, 2 * PAYLOAD))  # direct, to rack 1
        a0.submit(bulk_flow(2, 1, 4, PAYLOAD))  # rack 2: only via VLB
        assert slice_step(sim, a0, rec0) == [
            (9, 0, HEADER_BYTES + 100, 1, None),
            (9, 1, HEADER_BYTES + 100, 1, None),
            (1, 0, MTU_BYTES, 1, None),
            (1, 1, MTU_BYTES, 1, None),
            (2, 0, MTU_BYTES, 1, 2),
        ]
        assert a0.direct_bytes_sent == 2 * (HEADER_BYTES + 100) + 2 * MTU_BYTES
        assert a0.vlb_bytes_sent == MTU_BYTES
        assert a0.relay_bytes == {1: 0}
        assert a0.local_backlog == {1: 0, 2: 0}
        assert a0.pending_bytes() == 0

    def test_nic_budgets_and_round_robin(self, kernel):
        # Two packets' payload per host: hosts 0 and 1 take turns, host 0's
        # second flow shares its NIC, and the step ends once every sender's
        # host is out of budget.
        sim, (a0, _a1), (rec0, _rec1) = agent_pair(kernel, host_budget=2 * PAYLOAD)
        for flow_id, src in ((1, 0), (2, 1), (3, 0)):
            a0.submit(bulk_flow(flow_id, src, 2, 5 * PAYLOAD))
        got = slice_step(sim, a0, rec0)
        assert [(f, s) for f, s, *_ in got] == [(1, 0), (2, 0), (3, 0), (2, 1)]
        assert a0._host_budget == {0: 0, 1: 0}
        assert [f.record.flow_id for f in a0.local_flows[1]] == [1, 2, 3]

    def test_vlb_takes_the_largest_backlog_first_on_ties(self, kernel):
        sim, (a0, _a1), (rec0, _rec1) = agent_pair(kernel)
        a0.submit(bulk_flow(1, 0, 4, 2 * PAYLOAD))  # rack 2
        a0.submit(bulk_flow(2, 1, 6, 3 * PAYLOAD))  # rack 3
        got = slice_step(sim, a0, rec0)
        # 3P vs 2P, then ties at 2P and 1P go to rack 2, inserted first.
        assert [(f, s, relay_to) for f, s, _, _, relay_to in got] == [
            (2, 0, 3), (1, 0, 2), (2, 1, 3), (1, 1, 2), (2, 2, 3),
        ]
        assert a0.vlb_bytes_sent == 5 * MTU_BYTES
        assert a0.direct_bytes_sent == 0

    def test_vlb_stops_at_the_peers_relay_headroom(self, kernel):
        sim, (a0, a1), (rec0, _rec1) = agent_pair(kernel)
        a1.relay_cap_bytes = MTU_BYTES
        a1.accept_relay(bulk_packet(9, 6, 0, 100))  # rack 3: 1,400 B left
        a0.submit(bulk_flow(1, 1, 6, 3 * PAYLOAD))  # rack 3, the largest
        a0.submit(bulk_flow(2, 0, 4, PAYLOAD))  # rack 2
        # The largest backlog's peer has no room: the circuit offers no
        # VLB at all, rack 2's backlog included.
        assert slice_step(sim, a0, rec0) == []
        assert a0.vlb_bytes_sent == 0
        assert a0.local_backlog == {3: 3 * PAYLOAD, 2: PAYLOAD}

    def test_requeue_lands_in_the_relay_queue(self, kernel):
        _sim, (a0, _a1), _ = agent_pair(kernel)
        packet = bulk_packet(5, 7, 3, MTU_BYTES, next_rack=1, relay_to=3)
        a0.requeue(packet)
        assert a0.requeues == 1
        assert a0.relay_q == {3: deque([packet])}
        assert a0.relay_bytes == {3: MTU_BYTES}
        assert (packet.next_rack, packet.relay_to) == (None, None)

    @pytest.mark.parametrize(
        "arm", ["none", "failure_view", "relay_vlb_dsts", "disabled"]
    )
    def test_failure_armed_agents_run_the_python_body(self, kernel, arm):
        sim, (a0, _a1), (rec0, _rec1) = agent_pair(kernel)
        a0.submit(bulk_flow(1, 0, 2, PAYLOAD))
        if arm == "failure_view":
            a0.failure_view = LiveView()
        elif arm == "relay_vlb_dsts":
            a0.relay_vlb_dsts = frozenset({3})
        elif arm == "disabled":
            a0.disabled = True
        frames = python_frames(RotorLBAgent.on_slice, lambda: a0.on_slice(0))
        native = kernel == "c" and arm == "none"
        assert frames == (0 if native else 1)
        sim.run()
        assert len(rec0.got) == (0 if arm == "disabled" else 1)


class LiveView:
    """A detected-failure view in which every circuit is up."""

    def circuit_ok(self, rack, peer, switch):
        return True


def python_frames(function, call):
    """How many frames of the Python ``function`` ``call()`` entered."""
    code = function.__code__
    count = 0

    def hook(frame, event, _arg):
        nonlocal count
        if event == "call" and frame.f_code is code:
            count += 1

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


# ------------------------------------------------------------ differential


class SomeCircuitsDown:
    """A detected-failure view with a fixed pattern of dead circuits."""

    def circuit_ok(self, rack, peer, switch):
        return (rack + peer + switch) % 3 != 0


def recording(resolve, log, name):
    """``resolve``, logging every packet an uplink puts on the wire."""

    def resolver(packet, now_ps):
        log.append((name, now_ps, *fields(packet)))
        return resolve(packet, now_ps)

    return resolver


def replay(kernel, kind, ops, monkeypatch):
    """Run ``ops`` on a fresh ``kind`` network; the state after each op."""
    monkeypatch.setenv("REPRO_KERNEL", kernel)
    net = build_network(kind, k=8, n_racks=8, seed=1)
    assert net.kernel.name == kernel
    log = []
    for rack, uplinks in enumerate(net.uplink_ports):
        for switch, port in uplinks.items():
            port.resolver = recording(port.resolver, log, (rack, switch))
    n_hosts, n_racks = len(net.hosts), len(net.agents)
    hpr = n_hosts // n_racks
    states = []
    for i, (name, rack, a, b) in enumerate(ops):
        # Every op acts on rack 0 or 1 and on traffic for one of its next
        # two racks, so submitted flows, relays and requeues meet on the
        # same circuits.
        agent = net.agents[rack]
        uplinks = list(net.uplink_ports[rack].values())
        src = rack * hpr + a % hpr
        dst = (rack + 1 + b % 2) % n_racks * hpr + a % hpr
        if name == "submit":
            net.start_bulk_flow(src, dst, 1 + b * 977, net.sim.now)
        elif name == "relay":
            # Bulk for a foreign rack: the ToR's route table relays it.
            size = HEADER_BYTES + 1 + b * 35
            net.tors[rack].receive(bulk_packet(10_000 + i, dst, i, size))
        elif name == "drop":
            port = uplinks[a % len(uplinks)]
            port.on_bulk_drop(bulk_packet(20_000 + i, dst, i, MTU_BYTES, 1, 2))
        elif name == "squeeze":
            uplinks[a % len(uplinks)].bulk_queue_bytes = b * 211
        elif name == "view":
            agent.failure_view = SomeCircuitsDown() if b % 3 == 0 else None
        elif name == "force":
            agent.relay_vlb_dsts = frozenset({dst // hpr}) if b % 3 == 0 else frozenset()
        elif name == "slice":
            agent.on_slice(b)
        else:
            net.run(until_ps=net.sim.now + b * 7_919_000)
        states.append(network_state(net, log))
    return states


def network_state(net, log):
    agents = [
        (
            [(dst, [fields(p) for p in q]) for dst, q in a.relay_q.items()],
            list(a.relay_bytes.items()),
            [
                (dst, [(f.record.flow_id, f.unsent_bytes, f.next_seq) for f in q])
                for dst, q in a.local_flows.items()
            ],
            list(a.local_backlog.items()),
            list(a._host_budget.items()),
            (a.requeues, a.vlb_bytes_sent, a.direct_bytes_sent),
        )
        for a in net.agents
    ]
    uplinks = [
        [tuple(port.stats.counters().values()) for port in ups.values()]
        for ups in net.uplink_ports
    ]
    flows = [
        (fid, r.delivered_bytes, r.end_ps) for fid, r in net.stats.flows.items()
    ]
    return net.sim.now, net.sim.events_processed, agents, uplinks, flows, list(log)


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["submit"] * 4
            + ["relay"] * 3
            + ["drop", "squeeze", "view", "force"]
            + ["slice"] * 4
            + ["run"] * 3
        ),
        st.integers(0, 1),
        st.integers(0, 7),
        st.integers(0, 40),
    ),
    max_size=40,
)


@pytest.mark.skipif(not compiled_available(), reason="needs the compiled kernel")
class TestDifferential:
    @pytest.mark.parametrize("kind", ["opera", "rotornet"])
    @given(ops=OPS)
    @settings(max_examples=25, deadline=None)
    def test_compiled_agents_match_the_oracle(self, kind, ops):
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert replay("c", kind, ops, monkeypatch) == replay(
                "py", kind, ops, monkeypatch
            )

    @pytest.mark.parametrize("kind", ["opera", "rotornet"])
    def test_a_fixed_replay_exercises_every_phase(self, kind, monkeypatch):
        # Flows and relays for the same racks, a squeezed uplink (so bulk
        # drops requeue into the relay queue being drained), and slice
        # steps: relay, direct and VLB bytes all move, and both kernels
        # agree on every step.
        ops = [("submit", r, a, b) for r in (0, 1) for a in range(4) for b in (30, 31)]
        ops += [("relay", r, a, b) for r in (0, 1) for a in range(4) for b in (20, 21)]
        ops += [("squeeze", 0, 0, 3), ("squeeze", 1, 1, 0)]
        ops += [("run", 0, 0, 1), ("slice", 0, 0, 2), ("slice", 1, 0, 5)]
        ops += [("run", 0, 0, 40)]
        states = {k: replay(k, kind, ops, monkeypatch) for k in ("py", "c")}
        assert states["c"] == states["py"]
        _now, _events, agents, uplinks, _flows, _log = states["c"][-1]
        requeues, vlb, direct = map(sum, zip(*(a[-1] for a in agents)))
        assert requeues > 0 and vlb > 0 and direct > 0
        assert sum(ports[4] for ups in uplinks for ports in ups) > 0  # drops
