"""Property-based sanity of the latency model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.config import SCCConfig
from repro.hw.timing import LatencyModel
from repro.hw.topo import Topology


def model(erratum=True):
    return LatencyModel(SCCConfig(erratum_enabled=erratum), Topology())


cores = st.integers(min_value=0, max_value=47)
sizes = st.integers(min_value=0, max_value=20_000)


@given(a=cores, b=cores, n=sizes)
@settings(max_examples=60)
def test_all_costs_nonnegative(a, b, n):
    m = model()
    assert m.mpb_access(a, b) > 0
    assert m.mpb_write_bytes(a, b, n) >= 0
    assert m.mpb_read_bytes(a, b, n) >= 0
    assert m.mpb_stream_read(a, b, n) >= 0
    assert m.mpb_stream_write(a, b, n) >= 0
    assert m.dram_access(a) > 0


@given(a=cores, b=cores, n=st.integers(1, 10_000))
@settings(max_examples=40)
def test_costs_monotone_in_size(a, b, n):
    m = model()
    assert m.mpb_write_bytes(a, b, n + 32) > m.mpb_write_bytes(a, b, n)
    assert m.mpb_read_bytes(a, b, n + 32) > m.mpb_read_bytes(a, b, n)


@given(a=cores, b=cores)
def test_access_symmetry_in_hops(a, b):
    """Remote access cost depends only on the hop count, so it is
    symmetric between distinct cores."""
    m = model()
    if a != b:
        assert m.mpb_access(a, b) == m.mpb_access(b, a)


@given(a=cores, n=st.integers(1, 10_000))
@settings(max_examples=40)
def test_erratum_never_cheapens_anything(a, n):
    buggy = model(erratum=True)
    fixed = model(erratum=False)
    assert buggy.mpb_access(a, a) > fixed.mpb_access(a, a)
    assert buggy.mpb_write_bytes(a, a, n) > fixed.mpb_write_bytes(a, a, n)
    # Remote accesses are untouched by the local-MPB erratum.
    other = (a + 2) % 48
    assert buggy.mpb_access(a, other) == fixed.mpb_access(a, other)


@given(a=cores, b=cores, n=sizes)
@settings(max_examples=40)
def test_read_at_least_as_costly_as_stream_read(a, b, n):
    """A full get (writes the private copy) costs at least the operand
    stream (which does not) minus the stream's extra per-line tax."""
    m = model()
    assert (m.mpb_read_bytes(a, b, n)
            + m.lines(n) * m.core_cycles(
                m.config.stream_read_extra_cycles)
            >= m.mpb_stream_read(a, b, n))


@given(n=sizes)
def test_lines_is_exact_ceiling(n):
    m = model()
    assert m.lines(n) == (n + 31) // 32
    assert m.has_padded_tail(n) == (n % 32 != 0)
