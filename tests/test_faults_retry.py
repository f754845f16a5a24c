"""RetryPolicy: deterministic schedules, typed filters, fake clocks."""

import pytest

from repro.faults import ReproError, RetryPolicy, SinkError


class TestSchedule:
    def test_exponential_schedule_with_cap(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1,
                             multiplier=2.0, max_delay=0.5,
                             sleep=lambda s: None)
        assert policy.delays() == pytest.approx([0.1, 0.2, 0.4, 0.5])

    def test_jitter_is_deterministic_per_seed(self):
        kwargs = dict(max_attempts=4, base_delay=0.1, jitter=0.5,
                      sleep=lambda s: None)
        one = RetryPolicy(seed=3, **kwargs).delays()
        two = RetryPolicy(seed=3, **kwargs).delays()
        other = RetryPolicy(seed=4, **kwargs).delays()
        assert one == two
        assert one != other
        base = RetryPolicy(jitter=0.0, **{k: v for k, v in kwargs.items()
                                          if k != "jitter"}).delays()
        for jittered, plain in zip(one, base):
            assert plain <= jittered <= plain * 1.5

    def test_schedule_identical_across_calls(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.3,
                             sleep=lambda s: None)
        assert policy.delays() == policy.delays()


class TestCall:
    def test_returns_result_after_transient_failures(self):
        sleeps = []
        policy = RetryPolicy(max_attempts=3, base_delay=0.1,
                             sleep=sleeps.append)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ReproError("transient")
            return "ok"

        assert policy.call(flaky) == "ok"
        assert len(attempts) == 3
        assert sleeps == pytest.approx([0.1, 0.2])

    def test_schedule_is_built_only_after_a_failure(self, monkeypatch):
        built = []
        delays = RetryPolicy.delays
        monkeypatch.setattr(RetryPolicy, "delays",
                            lambda self: built.append(1) or delays(self))
        sleeps = []
        policy = RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.3,
                             seed=5, sleep=sleeps.append)
        assert policy.call(lambda: "ok") == "ok"
        assert built == []
        failures = iter([ReproError("once"), ReproError("twice")])

        def flaky():
            error = next(failures, None)
            if error is not None:
                raise error
            return "ok"

        assert policy.call(flaky) == "ok"
        assert built == [1]
        assert sleeps == delays(policy)

    def test_final_failure_reraises_original(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0,
                             sleep=lambda s: None)

        def always():
            raise SinkError("permanent")

        with pytest.raises(SinkError, match="permanent"):
            policy.call(always)

    def test_non_retryable_propagates_immediately(self):
        calls = []
        policy = RetryPolicy(max_attempts=5, base_delay=0.0,
                             sleep=lambda s: None)

        def wrong_type():
            calls.append(1)
            raise KeyError("not a ReproError")

        with pytest.raises(KeyError):
            policy.call(wrong_type)
        assert len(calls) == 1

    def test_on_retry_sees_attempt_error_delay(self):
        events = []
        policy = RetryPolicy(max_attempts=3, base_delay=0.1,
                             sleep=lambda s: None)
        state = {"n": 0}

        def twice():
            state["n"] += 1
            if state["n"] < 3:
                raise ReproError(f"fail {state['n']}")
            return state["n"]

        assert policy.call(
            twice,
            on_retry=lambda attempt, error, delay: events.append(
                (attempt, str(error), delay))) == 3
        assert events == [(1, "fail 1", pytest.approx(0.1)),
                          (2, "fail 2", pytest.approx(0.2))]

    def test_single_attempt_policy_never_retries(self):
        policy = RetryPolicy(max_attempts=1, sleep=lambda s: None)
        with pytest.raises(ReproError):
            policy.call(lambda: (_ for _ in ()).throw(ReproError("x")))

    def test_custom_retryable_filter(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0,
                             retryable=(KeyError,), sleep=lambda s: None)
        state = {"n": 0}

        def keyerror_once():
            state["n"] += 1
            if state["n"] == 1:
                raise KeyError("transient")
            return "ok"

        assert policy.call(keyerror_once) == "ok"

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-1.0)
