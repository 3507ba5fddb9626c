"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import heapq
import types

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Resource,
    SimulationError,
    Store,
    environment,
)
from repro.sim.events import guard_timeout

from tests.kernel_oracle import step


# ---------------------------------------------------------------------------
# Environment & events
# ---------------------------------------------------------------------------


class TestEnvironment:
    def test_starts_at_initial_time(self):
        assert Environment().now == 0.0
        assert Environment(initial_time=12.5).now == 12.5

    def test_run_empty_returns_none(self):
        assert Environment().run() is None

    def test_run_until_time_advances_clock(self):
        env = Environment()
        env.run(until=5.0)
        assert env.now == 5.0

    def test_run_until_past_time_rejected(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(ValueError):
            env.run(until=5.0)

    def test_peek_reports_next_event_time(self):
        env = Environment()
        env.timeout(3.0)
        assert env.peek() == 3.0

    def test_peek_empty_is_inf(self):
        assert Environment().peek() == float("inf")

    def test_timeout_fires_at_exact_time(self):
        env = Environment()
        seen = []

        def proc(env):
            yield env.timeout(2.5)
            seen.append(env.now)

        env.process(proc(env))
        env.run()
        assert seen == [2.5]

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1)
        with pytest.raises(ValueError):
            env.deadline(-1)

    def test_timeout_at_past_time_raises(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(ValueError, match="past"):
            env.timeout_at(9.999)
        assert len(env) == 0
        env.timeout_at(10.0)  # now itself is allowed
        assert len(env) == 1

    def test_cancelled_deadlines_cost_no_events(self):
        env = Environment()
        for i in range(100):
            env.deadline(1.0 + i).cancel()
        # One armed wakeup for the earliest guard, whatever their number.
        assert len(env) == 1
        # The 64th cancel emptied the expiry heap; 36 have piled up since,
        # below the compaction floor.
        assert len(env._deadlines.heap) == env._deadlines.stale == 100 - 64
        env.run()
        assert env.events_processed == 1
        assert len(env) == 0

    def test_simultaneous_events_run_in_schedule_order(self):
        env = Environment()
        order = []

        def proc(env, tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(env, tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_run_until_event_returns_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            return "done"

        p = env.process(proc(env))
        assert env.run(until=p) == "done"
        assert env.now == 1.0

    def test_run_until_unfired_event_raises(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(SimulationError):
            env.run(until=ev)

    def test_timeout_carries_value(self):
        env = Environment()
        got = []

        def proc(env):
            got.append((yield env.timeout(1.0, value="payload")))

        env.process(proc(env))
        env.run()
        assert got == ["payload"]


class TestDeadlineCancel:
    """``Deadline.cancel`` counts the cancelled entries still on the
    guards' expiry heap — the ``stale`` count compaction reads — and
    nothing else."""

    def test_a_second_cancel_is_not_counted(self):
        env = Environment()
        guard = env.deadline(1.0)
        guard.cancel()
        guard.cancel()
        assert env._deadlines.stale == 1
        env.run()
        assert env._deadlines.stale == 0

    def test_a_cancel_after_the_guard_fired_is_not_counted(self):
        """A reply and its guard due at one instant, the guard's wakeup
        first: the guard fires, the reply still wins (``guard_timeout``
        fails only a pending event), and the waiter cancels a guard that
        has left the expiry heap."""
        env = Environment()
        reply = env.event()
        got = []

        def waiter():
            guard = env.deadline(1.0)
            guard_timeout(guard, reply, TimeoutError, "late")
            env.call_at(1.0, reply.succeed, "reply")  # behind the wakeup
            got.append((yield reply))
            assert guard.triggered
            guard.cancel()
            got.append((guard.cancelled, env._deadlines.stale))

        env.process(waiter())
        env.run()
        assert got == ["reply", (False, 0)]

    def test_the_count_returns_to_zero_when_the_side_heap_drains(self):
        env = Environment()
        fired = []
        guards = [env.deadline(float(i % 7), i) for i in range(200)]
        for guard in guards:
            guard.callbacks.append(lambda g: fired.append(g.value))
        for i, guard in enumerate(guards):
            if i % 4:
                guard.cancel()  # 150 of them; the 101st compacts
        assert (len(env._deadlines.heap), env._deadlines.stale) == (200 - 101, 49)
        env.run()
        assert env._deadlines.heap == [] and env._deadlines.stale == 0
        assert fired == sorted(range(0, 200, 4), key=lambda i: i % 7)


class TestScheduledCallbacks:
    """Edge cases of the slim call_at/call_later scheduling path."""

    def test_call_at_past_time_raises(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(ValueError, match="past"):
            env.call_at(9.999, lambda: None)

    def test_call_later_negative_delay_raises(self):
        env = Environment()
        with pytest.raises(ValueError, match="negative delay"):
            env.call_later(-0.001, lambda: None)

    def test_call_at_now_is_allowed(self):
        env = Environment(initial_time=5.0)
        fired = []
        env.call_at(5.0, fired.append, "now")
        env.run()
        assert fired == ["now"]
        assert env.now == 5.0

    def test_identical_time_callbacks_run_in_scheduling_order(self):
        env = Environment()
        order = []
        for tag in ("a", "b", "c", "d"):
            env.call_at(1.0, order.append, tag)
        env.run()
        assert order == ["a", "b", "c", "d"]

    def test_callbacks_interleave_with_events_by_schedule_order(self):
        # A callback and a timeout at the same instant keep their
        # scheduling order — the reproducibility guarantee spans both
        # heap-entry shapes.  The timeout's slot is claimed when the
        # process *yields* it (during the t=0 start event), so it lands
        # after both call_at registrations made before run().
        env = Environment()
        order = []

        def proc(env):
            yield env.timeout(1.0)
            order.append("event")

        env.call_at(1.0, order.append, "cb-before")
        env.process(proc(env))
        env.call_at(1.0, order.append, "cb-after")
        env.run()
        assert order == ["cb-before", "cb-after", "event"]

        # Scheduled *from inside* the timeline, a callback after the
        # event's slot runs after it.
        order.clear()
        env.call_later(1.0, order.append, "late-cb")

        def proc2(env):
            yield env.timeout(2.0)
            order.append("event2")
            env.call_later(0.0, order.append, "chained")

        env.process(proc2(env))
        env.run()
        assert order == ["late-cb", "event2", "chained"]

    def test_raising_callback_surfaces_as_simulation_error(self):
        env = Environment()

        def boom():
            raise RuntimeError("kaboom")

        env.call_later(1.0, boom)
        with pytest.raises(SimulationError, match="kaboom") as excinfo:
            env.run()
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_callback_args_passed_through(self):
        env = Environment()
        got = []
        env.call_later(0.5, lambda *a: got.append(a), 1, "two", None)
        env.run()
        assert got == [(1, "two", None)]

    def test_callback_counts_toward_events_processed(self):
        env = Environment()
        env.call_later(1.0, lambda: None)
        env.call_later(2.0, lambda: None)
        env.run()
        assert env.events_processed == 2

    def test_nested_run_keeps_the_inner_count(self, monkeypatch):
        """A run() nested inside a process (move_client's settle) adds
        to the counter; the outer loop must not overwrite it on exit."""
        pops = []

        def counting_pop(queue):
            item = heapq.heappop(queue)
            pops.append(item[0])
            return item

        monkeypatch.setattr(
            environment,
            "heapq",
            types.SimpleNamespace(heappush=heapq.heappush, heappop=counting_pop),
        )
        env = Environment()
        for k in range(6):
            env.call_later(0.5 + k, lambda: None)  # 0.5 .. 5.5

        def settles(env):
            yield env.timeout(1.0)
            env.run(until=4.0)  # 1.5, 2.5, 3.5 and its own stop event
            env.run_below(5.0)  # 4.5
            yield env.timeout(1.0)

        env.process(settles(env))
        env.run()
        assert env.now == 5.5
        assert len(pops) > 6
        assert env.events_processed == len(pops)
        env.call_later(1.0, lambda: None)
        step(env)
        assert env.events_processed == len(pops)


def _one_of_each(env, order, at=1.0):
    """Schedule, through every entry point that can aim at a later
    instant, entries firing at ``at`` (``timeout_at`` twice, so the
    kinds interleave); returns the tags in scheduling order."""
    def note(tag):
        return lambda _event: order.append(tag)

    tags = []
    kinds = ("timeout_at", "call_at", "timeout", "timeout_at", "call_later")
    for i, kind in enumerate(kinds):
        tag = f"{kind}#{i}@{env.now}"
        tags.append(tag)
        if kind == "call_at":
            env.call_at(at, order.append, tag)
        elif kind == "call_later":
            env.call_later(at - env.now, order.append, tag)
        elif kind == "timeout":
            env.timeout(at - env.now).callbacks.append(note(tag))
        else:
            env.timeout_at(at).callbacks.append(note(tag))
    return tags


def _tie_scenario():
    """Entries of every kind, made at three instants, all firing at 1.0."""
    env = Environment()
    order = []
    expected = _one_of_each(env, order)

    def again():
        expected.extend(_one_of_each(env, order))

    def at_the_instant():
        # Zero-delay work made at the instant itself goes last.
        env.event().succeed().callbacks.append(lambda _e: order.append("succeed"))
        env.call_later(0.0, order.append, "call_later@1.0")
        expected.extend(["succeed", "call_later@1.0"])

    env.call_at(0.5, again)
    env.call_at(1.0, at_the_instant)
    return env, order, expected


class TestTieOrder:
    """The heap key is (time, priority, sched_at, parent_sched_at, seq);
    whatever pushes through the kernel stores ``now`` in both instants,
    so same-time entries fire in the order they were scheduled."""

    def test_same_time_entries_keep_scheduling_order(self):
        env, order, expected = _tie_scenario()
        env.run()
        assert order == expected
        assert len(expected) == 12

    def test_time_limited_run_stops_ahead_of_same_time_entries(self):
        env, order, expected = _tie_scenario()
        env.run(until=1.0)
        assert env.now == 1.0 and order == []
        env.run()
        assert order == expected

    def test_step_is_run(self):
        ran, ran_order, _ = _tie_scenario()
        ran.run()
        stepped, stepped_order, _ = _tie_scenario()
        while len(stepped):
            step(stepped)
        assert stepped_order == ran_order
        assert stepped.events_processed == ran.events_processed
        assert stepped.now == ran.now

    def test_an_entry_ties_by_the_instants_it_stores(self):
        """What a transmitter that schedules ahead of itself relies on:
        an entry pushed late sorts by its claimed scheduling instants,
        ahead of the sequence number."""
        env = Environment()
        order = []
        env.call_at(1.0, order.append, "scheduled at 0")

        def late():
            env.call_at(1.0, order.append, "scheduled at 0.5")
            for sched_at, parent in ((0.25, 0.125), (0.25, 0.0625), (0.75, 0.0)):
                heapq.heappush(
                    env._queue,
                    (1.0, 1, sched_at, parent, next(env._seq),
                     order.append, (f"claims {sched_at}, {parent}",)),
                )

        env.call_at(0.5, late)
        env.run()
        assert order == [
            "scheduled at 0",
            "claims 0.25, 0.0625",
            "claims 0.25, 0.125",
            "scheduled at 0.5",
            "claims 0.75, 0.0",
        ]


class TestSpawn:
    def test_returns_nothing_and_a_successful_end_costs_no_entry(self):
        def work(env, log):
            yield env.timeout(1.0)
            log.append(env.now)

        spawned, held = Environment(), Environment()
        log = []
        assert spawned.spawn(work(spawned, log)) is None
        held.process(work(held, log))
        spawned.run()
        held.run()
        assert log == [1.0, 1.0]
        # Start event + timeout, and for the held process its completion.
        assert (spawned.events_processed, held.events_processed) == (2, 3)

    def test_hot_start_runs_the_first_segment_at_once(self):
        env = Environment()
        log = []

        def work():
            log.append("started")
            return
            yield  # pragma: no cover - makes this a generator

        env.spawn(work(), hot=True)
        assert log == ["started"]
        assert len(env) == 0

    def test_failure_still_stops_the_run(self):
        env = Environment()

        def work():
            yield env.timeout(1.0)
            raise RuntimeError("nobody is waiting")

        env.spawn(work())
        with pytest.raises(RuntimeError, match="nobody is waiting"):
            env.run()


class TestEvent:
    def test_succeed_delivers_value(self):
        env = Environment()
        ev = env.event()
        got = []

        def waiter(env, ev):
            got.append((yield ev))

        def firer(env, ev):
            yield env.timeout(1.0)
            ev.succeed(42)

        env.process(waiter(env, ev))
        env.process(firer(env, ev))
        env.run()
        assert got == [42]

    def test_double_succeed_rejected(self):
        env = Environment()
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_fail_propagates_into_process(self):
        env = Environment()
        caught = []

        def waiter(env, ev):
            try:
                yield ev
            except ValueError as exc:
                caught.append(str(exc))

        ev = env.event()
        env.process(waiter(env, ev))
        ev.fail(ValueError("boom"))
        env.run()
        assert caught == ["boom"]

    def test_unhandled_failure_surfaces_from_run(self):
        env = Environment()
        ev = env.event()
        ev.fail(ValueError("nobody caught me"))
        with pytest.raises(ValueError, match="nobody caught me"):
            env.run()

    def test_value_unavailable_before_trigger(self):
        env = Environment()
        with pytest.raises(AttributeError):
            _ = env.event().value

    def test_already_processed_event_resumes_immediately(self):
        env = Environment()
        ev = env.event()
        ev.succeed("early")
        env.run()  # processes ev with no listeners
        got = []

        def late(env, ev):
            got.append((yield ev))
            got.append(env.now)

        env.process(late(env, ev))
        env.run()
        assert got == ["early", 0.0]


class TestConditions:
    def test_allof_collects_all_values(self):
        env = Environment()
        result = {}

        def proc(env):
            t1 = env.timeout(1.0, value="one")
            t2 = env.timeout(2.0, value="two")
            vals = yield AllOf(env, [t1, t2])
            result["vals"] = list(vals.values())
            result["t"] = env.now

        env.process(proc(env))
        env.run()
        assert result == {"vals": ["one", "two"], "t": 2.0}

    def test_anyof_fires_on_first(self):
        env = Environment()
        result = {}

        def proc(env):
            t1 = env.timeout(1.0, value="fast")
            t2 = env.timeout(5.0, value="slow")
            vals = yield AnyOf(env, [t1, t2])
            result["vals"] = list(vals.values())
            result["t"] = env.now

        env.process(proc(env))
        env.run()
        assert result == {"vals": ["fast"], "t": 1.0}

    def test_and_or_operators(self):
        env = Environment()
        times = []

        def proc(env):
            yield env.timeout(1.0) & env.timeout(2.0)
            times.append(env.now)
            yield env.timeout(1.0) | env.timeout(2.0)
            times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == [2.0, 3.0]

    def test_empty_allof_succeeds_immediately(self):
        env = Environment()
        got = []

        def proc(env):
            got.append((yield AllOf(env, [])))

        env.process(proc(env))
        env.run()
        assert got == [{}]

    def test_condition_failure_propagates(self):
        env = Environment()
        ev = env.event()
        caught = []

        def proc(env, ev):
            try:
                yield AllOf(env, [env.timeout(1.0), ev])
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(proc(env, ev))
        ev.fail(RuntimeError("child failed"))
        env.run()
        assert caught == ["child failed"]

    def test_cross_environment_events_rejected(self):
        env1, env2 = Environment(), Environment()
        with pytest.raises(ValueError):
            AllOf(env1, [env1.event(), env2.event()])


class TestProcess:
    def test_process_return_value(self):
        env = Environment()

        def child(env):
            yield env.timeout(1.0)
            return 99

        def parent(env):
            value = yield env.process(child(env))
            return value + 1

        p = env.process(parent(env))
        assert env.run(until=p) == 100

    def test_yield_non_event_fails_process(self):
        env = Environment()

        def bad(env):
            yield 42  # type: ignore[misc]

        p = env.process(bad(env))
        with pytest.raises(RuntimeError, match="non-event"):
            env.run(until=p)

    def test_exception_in_process_propagates_to_waiter(self):
        env = Environment()
        caught = []

        def child(env):
            yield env.timeout(1.0)
            raise KeyError("inner")

        def parent(env):
            try:
                yield env.process(child(env))
            except KeyError as exc:
                caught.append(exc.args[0])

        env.process(parent(env))
        env.run()
        assert caught == ["inner"]


# ---------------------------------------------------------------------------
# Resources
# ---------------------------------------------------------------------------


class TestResource:
    def test_capacity_limits_concurrency(self):
        env = Environment()
        res = Resource(env, capacity=2)
        active = []
        peak = []

        def worker(env, res):
            with res.request() as req:
                yield req
                active.append(1)
                peak.append(len(active))
                yield env.timeout(1.0)
                active.pop()

        for _ in range(5):
            env.process(worker(env, res))
        env.run()
        assert max(peak) == 2

    def test_fifo_grant_order(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def worker(env, res, tag):
            with res.request() as req:
                yield req
                order.append(tag)
                yield env.timeout(1.0)

        for tag in range(4):
            env.process(worker(env, res, tag))
        env.run()
        assert order == [0, 1, 2, 3]

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Resource(Environment(), capacity=0)


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env, store):
            got.append((yield store.get()))

        store.put("item")
        env.process(consumer(env, store))
        env.run()
        assert got == ["item"]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env, store):
            item = yield store.get()
            got.append((item, env.now))

        def producer(env, store):
            yield env.timeout(4.0)
            store.put("late")

        env.process(consumer(env, store))
        env.process(producer(env, store))
        env.run()
        assert got == [("late", 4.0)]

    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        got = []

        def producer(env, store):
            for i in range(3):
                store.put(i)
                yield env.timeout(1.0)

        def consumer(env, store):
            for _ in range(4):
                got.append((yield store.get()))

        store.put("queued")
        env.process(consumer(env, store))
        env.process(producer(env, store))
        env.run()
        assert got == ["queued", 0, 1, 2]

    def test_put_wakes_the_oldest_getter_and_costs_only_its_entry(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env, store, name):
            got.append((name, (yield store.get())))

        env.process(consumer(env, store, "first"))
        env.process(consumer(env, store, "second"))
        env.run()
        before = env.events_processed
        assert store.put("a") is None
        store.put("b")
        assert len(env) == 2  # outside a watch delivery: one entry per wake-up
        env.run()
        assert got == [("first", "a"), ("second", "b")]
        # One StoreGet entry and one process completion per consumer;
        # the puts themselves are not events.
        assert env.events_processed - before == 4
        store.put("idle")
        assert len(env) == 0 and store.items == ["idle"]

    def test_get_on_a_non_empty_store_at_a_quiet_instant_pushes_nothing(self):
        env = Environment()
        store = Store(env)
        store.put("a")
        get = store.get()
        assert get.processed and get.value == "a"
        assert len(env) == 0 and store.items == []

    def test_get_on_a_non_empty_store_behind_an_entry_due_now_is_one_entry(self):
        env = Environment()
        store = Store(env)
        store.put("a")
        env.timeout(0)
        get = store.get()
        assert get.triggered and not get.processed
        assert len(env) == 2
        env.run()
        assert get.processed and get.value == "a"
        assert env.events_processed == 2

    def test_puts_inside_a_collection_resume_their_getters_in_put_order_after_it(self):
        """A quiet watch delivery (``APIServer._deliver``) is the one
        collection point: its handlers' puts wake nobody on the heap, and
        the getters resume after the last handler, in put order."""
        from repro.k8s.apiserver import APIServer

        env = Environment()
        api = APIServer(env)
        stores = [Store(env), Store(env)]
        log = []

        def worker(name, store):
            log.append((name, (yield store.get())))
            yield env.timeout(0)
            log.append((name, "after its delay"))

        def handler(i):
            def put(event):
                log.append(("handler", i))
                stores[i].put(event.type)

            return put

        for i in (1, 0):
            env.process(worker(f"w{i}", stores[i]))
            api.subscribe("Pod", handler(i))
        env.run()
        before = env.events_processed
        api._notify("Pod", "ADDED", None)
        env.run()
        assert log == [
            ("handler", 1),
            ("handler", 0),
            ("w1", "ADDED"),
            ("w0", "ADDED"),
            ("w1", "after its delay"),
            ("w0", "after its delay"),
        ]
        # The delivery, the two delays, the two process ends: no StoreGet.
        assert env.events_processed - before == 5
        assert env._woken is None
