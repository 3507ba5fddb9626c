"""Additional kernel behaviours: composition and helpers."""

from __future__ import annotations

import pytest

from repro.sim import AllOf, AnyOf, Environment


class TestRunProcess:
    def test_returns_generator_value(self):
        env = Environment()

        def job(env):
            yield env.timeout(2.0)
            return "done"

        assert env.run_process(job(env)) == "done"
        assert env.now == 2.0

    def test_propagates_exception(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1.0)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            env.run_process(bad(env))


class TestConditionComposition:
    def test_condition_of_conditions(self):
        env = Environment()
        times = []

        def proc(env):
            inner_all = env.timeout(1.0) & env.timeout(2.0)
            inner_any = env.timeout(5.0) | env.timeout(3.0)
            yield inner_all & inner_any
            times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == [3.0]

    def test_anyof_value_is_first_finisher(self):
        env = Environment()
        got = {}

        def proc(env):
            slow = env.timeout(9.0, value="slow")
            fast = env.timeout(1.0, value="fast")
            result = yield AnyOf(env, [slow, fast])
            got.update({"values": list(result.values())})

        env.process(proc(env))
        env.run()
        assert got["values"] == ["fast"]

    def test_allof_preserves_event_order(self):
        env = Environment()
        got = {}

        def proc(env):
            a = env.timeout(3.0, value="a")  # finishes last
            b = env.timeout(1.0, value="b")
            result = yield AllOf(env, [a, b])
            got["values"] = list(result.values())

        env.process(proc(env))
        env.run()
        # Dict ordered by the original event order, not finish order.
        assert got["values"] == ["a", "b"]

    def test_failure_after_condition_fired_is_defused(self):
        """A sibling failing after AnyOf already fired must not crash
        the simulation."""
        env = Environment()
        evil = env.event()

        def proc(env, evil):
            yield env.timeout(1.0) | evil
            return "ok"

        def saboteur(env, evil):
            yield env.timeout(2.0)
            evil.fail(RuntimeError("late failure"))

        p = env.process(proc(env, evil))
        env.process(saboteur(env, evil))
        env.run()
        assert p.value == "ok"


class TestEventMisc:
    def test_run_until_already_processed_event(self):
        env = Environment()
        ev = env.event()
        ev.succeed("early")
        env.run()
        assert env.run(until=ev) == "early"

    def test_defuse_suppresses_unhandled_failure(self):
        env = Environment()
        ev = env.event()
        ev.fail(RuntimeError("ignored"))
        ev.defuse()
        env.run()  # does not raise
