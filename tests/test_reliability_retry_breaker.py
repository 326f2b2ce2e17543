"""Circuit breaker unit tests."""

import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.reliability.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _tripped_breaker(clock, **overrides):
    kwargs = dict(window=8, failure_threshold=0.5, min_volume=4,
                  open_duration_s=1.0, half_open_probes=2)
    kwargs.update(overrides)
    breaker = CircuitBreaker(BreakerConfig(**kwargs), clock=clock,
                             name="test")
    for _ in range(4):
        breaker.record(False)
    assert breaker.state == OPEN
    return breaker


class TestBreakerConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BreakerConfig(window=0)
        with pytest.raises(ConfigError):
            BreakerConfig(failure_threshold=0.0)
        with pytest.raises(ConfigError):
            BreakerConfig(min_volume=0)
        with pytest.raises(ConfigError):
            BreakerConfig(half_open_probes=0)

    def test_nan_open_duration_rejected(self):
        # A NaN open window never elapses: the breaker would stay open
        # for good once tripped.
        with pytest.raises(ConfigError, match="open_duration_s"):
            BreakerConfig(open_duration_s=float("nan"))

    def test_infinite_open_duration_stays_legal(self):
        config = BreakerConfig(open_duration_s=float("inf"))
        assert config.open_duration_s == float("inf")


class TestBreaker:
    def test_stays_closed_under_min_volume(self):
        breaker = CircuitBreaker(
            BreakerConfig(min_volume=8, window=8), clock=FakeClock(),
            name="test")
        for _ in range(7):
            breaker.record(False)
        assert breaker.state == CLOSED and breaker.allow()

    def test_trips_on_failure_rate(self):
        clock = FakeClock()
        breaker = _tripped_breaker(clock)
        assert not breaker.allow()

    def test_successes_keep_it_closed(self):
        breaker = CircuitBreaker(
            BreakerConfig(window=8, failure_threshold=0.5, min_volume=4),
            clock=FakeClock(), name="test")
        for i in range(20):
            breaker.record(i % 3 == 0)  # 2/3 failures would trip...
        assert breaker.state == OPEN  # ...and does
        breaker = CircuitBreaker(
            BreakerConfig(window=8, failure_threshold=0.5, min_volume=4),
            clock=FakeClock(), name="test")
        for i in range(20):
            breaker.record(i % 4 != 0)  # 1/4 failures stays under 0.5
        assert breaker.state == CLOSED

    def test_half_open_after_cooldown(self):
        clock = FakeClock()
        breaker = _tripped_breaker(clock)
        clock.advance(0.5)
        assert breaker.state == OPEN
        clock.advance(0.6)
        assert breaker.state == HALF_OPEN

    def test_half_open_admits_bounded_probes(self):
        clock = FakeClock()
        breaker = _tripped_breaker(clock, half_open_probes=2)
        clock.advance(1.1)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # probe budget spent

    def test_all_probes_succeed_closes(self):
        clock = FakeClock()
        breaker = _tripped_breaker(clock, half_open_probes=2)
        clock.advance(1.1)
        assert breaker.allow() and breaker.allow()
        breaker.record(True)
        assert breaker.state == HALF_OPEN
        breaker.record(True)
        assert breaker.state == CLOSED
        # The window was reset: old failures don't linger.
        breaker.record(False)
        assert breaker.state == CLOSED

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = _tripped_breaker(clock)
        clock.advance(1.1)
        assert breaker.allow()
        breaker.record(False)
        assert breaker.state == OPEN
        assert not breaker.allow()
        # And the cooldown restarts from the re-open instant.
        clock.advance(1.1)
        assert breaker.state == HALF_OPEN

    def test_straggler_outcome_while_open_is_ignored(self):
        clock = FakeClock()
        breaker = _tripped_breaker(clock)
        breaker.record(True)  # admitted pre-trip, lands post-trip
        assert breaker.state == OPEN


class _LoggedBreaker(CircuitBreaker):
    """Records every state transition, in order."""

    def __init__(self, *args, **kwargs):
        self.transitions = []
        super().__init__(*args, **kwargs)

    def _transition(self, state):
        self.transitions.append(state)
        super()._transition(state)


def _recount(breaker) -> int:
    return sum(1 for ok in breaker._outcomes if not ok)


#: One step of a breaker's life: admit ``n`` requests, let time pass,
#: or report a batch of outcomes.
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("allow"), st.integers(1, 3)),
    st.tuples(st.just("advance"), st.sampled_from([0.3, 0.6, 1.1])),
    st.tuples(st.just("record"),
              st.lists(st.booleans(), min_size=1, max_size=12)),
), max_size=40)


class TestBatchedRecording:
    """``record_many`` over a batch equals one ``record`` per outcome:
    same states and transitions, half-open probes included, under an
    injected clock; the running failure count always equals a recount
    of the window."""

    @given(steps=_STEPS, chunking=st.lists(st.integers(1, 5), min_size=1,
                                           max_size=4),
           window=st.integers(1, 8), min_volume=st.integers(1, 6),
           threshold=st.sampled_from([0.25, 0.5, 1.0]))
    def test_chunked_equals_one_at_a_time(self, steps, chunking, window,
                                          min_volume, threshold):
        clock = FakeClock()
        config = BreakerConfig(window=window, min_volume=min_volume,
                               failure_threshold=threshold,
                               open_duration_s=1.0, half_open_probes=2)
        single = _LoggedBreaker(config, clock=clock, name="prop-single")
        batched = _LoggedBreaker(config, clock=clock, name="prop-batched")
        turn = 0
        for kind, value in steps:
            if kind == "advance":
                clock.advance(value)
            elif kind == "allow":
                for __ in range(value):
                    assert single.allow() == batched.allow()
            else:
                for success in value:
                    single.record(success)
                begin = 0
                while begin < len(value):
                    size = chunking[turn % len(chunking)]
                    batched.record_many(value[begin:begin + size])
                    begin += size
                    turn += 1
            for breaker in (single, batched):
                assert breaker._failures == _recount(breaker)
            assert batched.transitions == single.transitions
            assert batched.state == single.state
            assert list(batched._outcomes) == list(single._outcomes)
            assert batched._probes_in_flight == single._probes_in_flight

    def test_open_half_open_closed_in_one_batch(self):
        clock = FakeClock()
        breaker = _tripped_breaker(clock, half_open_probes=2)
        clock.advance(1.1)
        assert breaker.allow() and breaker.allow()
        # Two probe successes close the breaker; the third outcome
        # lands in the fresh window.
        breaker.record_many([True, True, False])
        assert breaker.state == CLOSED
        assert list(breaker._outcomes) == [False]
        assert breaker._failures == 1

    def test_probe_failure_mid_batch_reopens(self):
        clock = FakeClock()
        breaker = _tripped_breaker(clock)
        clock.advance(1.1)
        assert breaker.allow()
        breaker.record_many([False, True, True])  # stragglers ignored
        assert breaker.state == OPEN

    def test_concurrent_batches_keep_the_count(self):
        """Threads racing ``record_many`` never lose a failure: the
        running count still equals a recount of the window.  (The
        first outcome and two of every seven consecutive ones succeed,
        so it never trips.)"""
        breaker = CircuitBreaker(
            BreakerConfig(window=7, failure_threshold=1.0, min_volume=1),
            clock=FakeClock(), name="prop-threads")
        start = threading.Barrier(8)

        def hammer():
            start.wait(10)
            for __ in range(300):
                breaker.record_many([True, False, False])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for __ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert breaker.state == CLOSED
        assert breaker._failures == _recount(breaker)
        assert list(breaker._outcomes)[-3:] == [True, False, False]
