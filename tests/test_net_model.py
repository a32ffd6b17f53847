import numpy as np
import pytest

from privroute.net_model import (
    LatencyModel,
    Network,
    TNTPFormatError,
    affine_latency_from,
    parse_tntp_network,
    parse_tntp_trips,
)
from privroute.harness import BUILTIN_NET, BUILTIN_TRIPS, _read_input
from conftest import network_to_tntp

TWO_NODE_NET = """
<NUMBER OF NODES> 2
<NUMBER OF LINKS> 1
<END OF METADATA>
~ init term capacity length fft b power speed toll type ;
1 2 10.0 5.0 5.0 0.15 4 0 0 1 ;
"""


def test_parse_two_node_network():
    net = parse_tntp_network(TWO_NODE_NET)
    assert net.node_count == 2
    assert net.edge_count == 1
    assert net.free_flow_time[0] == 5.0
    assert net.capacity[0] == 10.0
    assert net.edge_index(0, 1) == 0


def test_parse_sioux_falls_counts():
    net = parse_tntp_network(_read_input(BUILTIN_NET))
    assert net.node_count == 24
    assert net.edge_count == 76
    assert np.min(net.free_flow_time) == 2.0
    assert np.max(net.free_flow_time) == 10.0


def test_parse_sioux_falls_trips_stats():
    trips = parse_tntp_trips(_read_input(BUILTIN_TRIPS))
    positive = trips[trips > 0]
    assert positive.size == 528
    # mean hourly demand is about 682 vehicles/hour, i.e. 682/60 per minute
    assert abs(positive.mean() - 682.0 / 60.0) / (682.0 / 60.0) < 0.005
    assert np.all(np.diagonal(trips) == 0)


def test_node_out_of_range_reports_line():
    bad = TWO_NODE_NET.replace("1 2 10.0", "1 3 10.0")
    with pytest.raises(TNTPFormatError) as err:
        parse_tntp_network(bad)
    assert "out of range" in str(err.value)
    assert "line" in str(err.value)


def test_malformed_header_and_rows():
    for count in ("x", "nan", "inf", "2.5"):
        with pytest.raises(TNTPFormatError, match="line 1"):
            parse_tntp_network(f"<NUMBER OF NODES> {count}\n<NUMBER OF LINKS> 1\n<END OF METADATA>\n")
        with pytest.raises(TNTPFormatError, match="line 1"):
            parse_tntp_trips(f"<NUMBER OF ZONES> {count}\n<END OF METADATA>\n")
    with pytest.raises(TNTPFormatError):
        parse_tntp_network("<NUMBER OF NODES> 2\n<END OF METADATA>\n1 2 1 1 1 ;\n")
    with pytest.raises(TNTPFormatError):  # too few fields
        parse_tntp_network(
            "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 1\n<END OF METADATA>\n1 2 10.0 ;\n"
        )
    with pytest.raises(TNTPFormatError):  # link count mismatch
        parse_tntp_network(
            "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 2\n<END OF METADATA>\n1 2 1 1 1 0 0 0 0 1 ;\n"
        )


def test_duplicate_edge_rejected():
    text = (
        "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 2\n<END OF METADATA>\n"
        "1 2 1 1 1 0 0 0 0 1 ;\n1 2 2 1 1 0 0 0 0 1 ;\n"
    )
    with pytest.raises(TNTPFormatError, match="duplicate"):
        parse_tntp_network(text)


def test_zero_capacity_rejected():
    text = "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 1\n<END OF METADATA>\n1 2 0 1 1 ;\n"
    with pytest.raises(TNTPFormatError, match="capacity"):
        parse_tntp_network(text)


def test_network_round_trip():
    net = parse_tntp_network(_read_input(BUILTIN_NET))
    again = parse_tntp_network(network_to_tntp(net))
    assert again.node_count == net.node_count
    assert np.array_equal(again.tails, net.tails)
    assert np.array_equal(again.heads, net.heads)
    assert np.array_equal(again.free_flow_time, net.free_flow_time)
    assert np.array_equal(again.capacity, net.capacity)
    assert again._edge_index == net._edge_index


def test_edge_order_stable_across_parses():
    text = _read_input(BUILTIN_NET)
    first = parse_tntp_network(text)
    second = parse_tntp_network(text)
    assert first._edge_index == second._edge_index


def test_trips_block_parsing_and_units():
    text = (
        "<NUMBER OF ZONES> 3\n<TOTAL OD FLOW> 120.0\n<END OF METADATA>\n"
        "Origin 1\n 2 : 120.0;\n"
    )
    trips = parse_tntp_trips(text)
    assert trips[0, 1] == 2.0  # 120 per hour -> 2 per minute
    assert trips.sum() == 2.0


def test_trips_empty_body_is_zero():
    trips = parse_tntp_trips("<NUMBER OF ZONES> 4\n<END OF METADATA>\n")
    assert trips.shape == (4, 4)
    assert np.all(trips == 0)


def test_trips_errors():
    with pytest.raises(TNTPFormatError, match="negative"):
        parse_tntp_trips("<NUMBER OF ZONES> 2\n<END OF METADATA>\nOrigin 1\n 2 : -5.0;\n")
    with pytest.raises(TNTPFormatError, match="origin"):
        parse_tntp_trips("<NUMBER OF ZONES> 2\n<END OF METADATA>\nOrigin one\n 2 : 5.0;\n")
    with pytest.raises(TNTPFormatError):
        parse_tntp_trips("Origin 1\n 2 : 5.0;\n")


def test_affine_latency_examples():
    net = Network(node_count=2, tails=[0], heads=[1], free_flow_time=[4.0], capacity=[8.0])
    lat = affine_latency_from(net, 2.0)
    assert lat.slope[0] == pytest.approx(0.5)
    assert lat.slope[0] * 8.0 + lat.free_flow[0] == pytest.approx(8.0)  # doubled at capacity

    flat = affine_latency_from(net, 1.0)
    assert np.all(flat.slope == 0.0)

    net2 = Network(node_count=2, tails=[0], heads=[1], free_flow_time=[3.0], capacity=[6.0])
    lat5 = affine_latency_from(net2, 5.0)
    assert lat5.slope[0] == pytest.approx(2.0)
    assert lat5.slope[0] * 6.0 + lat5.free_flow[0] == pytest.approx(15.0)

    with pytest.raises(ValueError):
        affine_latency_from(net, 0.5)


def test_affine_latency_factor_property():
    rng = np.random.default_rng(3)
    for _ in range(50):
        c = rng.uniform(0.1, 10.0, size=6)
        cap = rng.uniform(0.5, 50.0, size=6)
        factor = rng.uniform(1.0, 8.0)
        net = Network(
            node_count=7,
            tails=list(range(6)),
            heads=[i + 1 for i in range(6)],
            free_flow_time=c,
            capacity=cap,
        )
        lat = affine_latency_from(net, factor)
        at_capacity = lat.slope * cap + lat.free_flow
        assert np.max(np.abs(at_capacity - factor * c) / (factor * c)) < 1e-12


def test_latency_model_max_slope():
    lat = LatencyModel(slope=[0.1, 0.9, 0.4], free_flow=[1.0, 1.0, 1.0])
    assert lat.max_slope == 0.9
    with pytest.raises(ValueError):
        LatencyModel(slope=[-0.1], free_flow=[1.0])


def test_network_invariants():
    for fft, cap in ((np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(ValueError, match="and finite"):
            Network(node_count=2, tails=[0], heads=[1], free_flow_time=[fft], capacity=[cap])
    with pytest.raises(ValueError, match="self-loops"):
        Network(node_count=2, tails=[0], heads=[0], free_flow_time=[1.0], capacity=[1.0])
    with pytest.raises(ValueError):
        Network(node_count=1, tails=[], heads=[], free_flow_time=[], capacity=[])
    with pytest.raises(ValueError, match="duplicate"):
        Network(
            node_count=2,
            tails=[0, 0],
            heads=[1, 1],
            free_flow_time=[1.0, 1.0],
            capacity=[1.0, 1.0],
        )
