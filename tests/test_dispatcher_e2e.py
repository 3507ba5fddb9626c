"""A deployment's transitions, as the clusters, the switch, the
publication hook and the breakers see them.

Each case drives the real dispatcher in a real testbed and records one
ordered log — every cluster call and its end, every outcome
``ensure_deployed`` hands back, every ``InstanceRecord`` published,
every message the controller sends its switch, each at its instant —
plus the breakers' transitions, the ``deploy_retries/*`` and
``deploy_failures/*`` counters, the service's memorized flows and the
kernel events the case cost.  Almost none of it is visible to a latency
md5: a publish ahead of a repoint, a breaker fed before the outcome is
handed back, a shortcut that saves two heap entries.  The tables were
recorded at 9147817, before a deployment had an owner (``_inflight``,
``_deploy``, ``_attempt_phase``, ``_finish_failed``, ``_background``,
``_scale_down``, ``_publish_instance`` and the ``evicting`` set) — not
from the code under test; a change that moves them on purpose edits
them in the same diff.  Since the control channel pipelines, what one
side sends in one instant lands in one entry: each ``events`` is the
recorded count less the channel entries that folded (three waiters:
59 → 52, three packet-ins in one entry and six flow-mods in one), and
each far-edge request of "retries exhausted" is released one channel
hop (150 µs) sooner, so every instant after the first release is
earlier by 150 µs per request released before it.  Since every leave
opens with ``Deployment.evict``, the two idle scale-down cases publish
the instance stopped before its ``scale_down``, in the same instant.
Since FlowMemory's 1 s sweep gave way to deadline expiry, no case pays a
sweep tick per controller per simulated second: fourteen ``events``
fell by the ticks the case spanned, ``a wait-ready timeout``'s 120 s
by 120 (131 → 11).  Since the switch tracks connections, every forward
entry opens with its ``ct(commit,mark=…)``, and ``a background deploy
repoints`` pins the connections begun on the far edge before its swap
(one forward and one reverse ``drain:`` add, no event).  Since a
redirect names its endpoint once, a forward entry is
``ct(commit,nat(dst=…)),output:…`` and a reverse one
``set_src:…,output:…``, with nothing stripped from the text; and since
a repoint moves only a redirect that is installed, the two migration
releases no longer pin and reinstall the redirect of a client whose
redirect had idled out (four adds, to a switch this log does not
record) and cost that batch's channel entry less (87 → 86, 414 → 413).
Since the channel lands a packet-in when the controller's processing
time ends, on one entry that was the handler's timer, a batch that held
only packet-ins costs no entry: nine cases fell by one per such batch
(27 → 26, 60 → 59, 47 → 46, 61 → 60, 28 → 27, 17 → 16, 52 → 51,
71 → 70, and "retries exhausted", with four, 65 → 61); the two
migration cases' one packet-in comes before their recording starts.
Since a deployment's hand-offs cost no heap entry — its pipeline, a
container's boot, a pod worker and a restart monitor start hot, a pod
waits on its lone container's ``ready`` itself and ``wait_ready`` on
the port-open event under a side-heap guard — all seventeen fell, by
the hand-offs each case makes: 26 → 23, 59 → 56, 46 → 43, 15 → 12,
18 → 14, 60 → 57, 61 → 58, 3 → 2, 3 → 2, 11 → 10, 27 → 24, 16 → 15,
51 → 48, 33 → 27, 86 → 84, 413 → 409 and 70 → 67, in table order;
under ``tests/controlhelpers.handoffs_on_the_heap`` every case costs
its old count again, with the same log.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster.plan import DeployError
from repro.containers.registry import ImageNotFound, RegistryUnavailable
from repro.core import LowLatencyScheduler
from repro.core.dispatcher import DeploymentOutcome
from repro.core.migration import MigrationPolicy
from repro.faults import FaultPlan, Injector
from repro.observe import tap
from repro.services.behavior import ContainerBehavior
from repro.services.catalog import ASM, NGINX, NGINX_IMAGE
from repro.testbed import C3Testbed, FederatedTestbed, FederationConfig, TestbedConfig

#: What a dispatcher or a migration asks of a cluster.
_CLUSTER_CALLS = ("pull", "create", "scale_up", "wait_ready", "scale_down")


def _show(value) -> str:
    return repr(round(value, 9) if isinstance(value, float) else value)


class _Recorder:
    """One ordered log of everything a case's deployments touch, as
    ``(instant, text)``; service names are shown as their template's."""

    def __init__(self, env) -> None:
        self.env = env
        self.log: list[tuple[float, str]] = []
        self.names: dict[str, str] = {}
        self.events_at_start = env.events_processed

    def note(self, text: str) -> None:
        self.log.append((round(self.env.now, 9), text))

    def short(self, text: str) -> str:
        for name, short in self.names.items():
            text = text.replace(name, short)
        return text

    def service(self, service, short: str):
        self.names[service.name] = short
        return service

    def cluster(self, cluster, **faults: list[Exception]) -> None:
        """Log every call on ``cluster`` and its end; ``faults[call]``
        are raised, in turn, by its next calls instead of running them."""
        for call in _CLUSTER_CALLS:
            original = getattr(cluster, call)

            def wrapped(plan, *args, _call=call, _original=original, **kwargs):
                what = f"{cluster.name} {_call} {self.short(plan.service_name)}"
                self.note(what)
                queued = faults.get(_call)
                if queued:
                    exc = queued.pop(0)
                    self.note(f"{what} raises {type(exc).__name__}")
                    raise exc
                result = yield from _original(plan, *args, **kwargs)
                self.note(f"{what} -> {result!r}")
                return result

            setattr(cluster, call, wrapped)

    def dispatcher(self, dispatcher) -> None:
        """Log the outcomes ``ensure_deployed`` returns and every record
        published — attaching a publication hook where there is none."""
        ensure_deployed = dispatcher.ensure_deployed

        def spied(service, cluster):
            outcome = yield from ensure_deployed(service, cluster)
            pristine = DeploymentOutcome(outcome.service_name, outcome.cluster_name)
            fields = [
                f"{f.name}={_show(getattr(outcome, f.name))}"
                for f in dataclasses.fields(outcome)
                if getattr(outcome, f.name) != getattr(pristine, f.name)
            ]
            self.note(
                " ".join(
                    [f"outcome {self.short(service.name)}@{cluster.name}", *fields]
                )
            )
            return outcome

        dispatcher.ensure_deployed = spied
        hook = dispatcher.on_instance_change

        def publish(record) -> None:
            assert record.observed_at == self.env.now
            port = None if record.endpoint is None else record.endpoint.port
            self.note(
                f"publish {self.short(record.service_name)}@{record.site}/"
                f"{record.cluster_name} running={record.running} port={port}"
            )
            if hook is not None:
                hook(record)

        dispatcher.on_instance_change = publish

    def switch(self, tb) -> None:
        """Log every message the controller sends ``tb``'s switch."""

        def recording(message) -> None:
            if message.command == "delete":
                self.note(self.short(f"delete {message.cookie}"))
            else:
                actions = ",".join(str(action) for action in message.actions)
                self.note(
                    self.short(
                        f"add {message.cookie} p{message.priority} "
                        f"{actions} buffer={message.buffer_id}"
                    )
                )

        tap(tb.datapath.channel, "send_to_switch", recording)

    def states(self, dispatcher, service) -> None:
        """Log what ``gather_states`` says of ``service``, per cluster:
        running, has_capacity, blocked, degraded."""
        for s in dispatcher.gather_states(service):
            self.note(
                f"state {self.short(service.name)}@{s.cluster.name} "
                f"running={s.running} room={s.has_capacity} "
                f"blocked={s.blocked} degraded={s.degraded}"
            )

    def breakers(self, dispatcher) -> None:
        for name, b in sorted(dispatcher.breakers.items()):
            self.note(f"breaker {name} {b.state.value} failures={b.consecutive_failures}")

    def result(self, *dispatchers, memory=None, service=None) -> dict:
        breakers = {}
        counters = {}
        for dispatcher in dispatchers:
            for name, b in sorted(dispatcher.breakers.items()):
                breakers[name] = [(round(t, 9), a, z) for t, a, z in b.transitions]
            counters.update(dispatcher.recorder.counters("deploy_"))
        result = {
            "log": self.log,
            "breakers": breakers,
            "counters": dict(sorted(counters.items())),
            "events": self.env.events_processed - self.events_at_start,
        }
        if memory is not None:
            result["flows"] = sorted(
                (str(f.client_ip), f.cluster_name, f.degraded_from)
                for f in memory.flows_for_service(service)
            )
        return result


# -- a C³ testbed: one dispatcher, one switch ---------------------------------


def _c3(near=None, far=None, scheduler=None, boot_s=None, **faults):
    """A Docker C³ testbed with NGINX registered, every deployment
    recorded from here on — with a publication hook attached, so that
    its dispatcher publishes as a federated site's does.  ``near`` is
    what the near cluster holds beforehand (``"pulled"``, ``"created"``
    or nothing); ``far`` adds a far Docker edge with NGINX ``"created"``
    or ``"running"``; ``boot_s`` overrides NGINX's boot time; ``faults``
    are the near cluster's (see :meth:`_Recorder.cluster`)."""
    tb = C3Testbed(
        TestbedConfig(cluster_types=("docker",), n_clients=4), scheduler=scheduler
    )
    if boot_s is not None:
        tb.behaviors.register(
            NGINX_IMAGE.reference,
            ContainerBehavior(
                boot_time_s=boot_s, handle_time_s=0.001, response_bytes=120
            ),
        )
    far_cluster = tb.add_far_edge() if far else None
    svc = tb.register_template(NGINX)
    if near == "pulled":
        tb.prepare_pulled(tb.docker_cluster, svc)
    elif near == "created":
        tb.prepare_created(tb.docker_cluster, svc)
    if far_cluster is not None:
        tb.prepare_created(far_cluster, svc)
        if far == "running":
            tb.env.run_process(far_cluster.scale_up(svc.plan))
            assert tb.env.run_process(far_cluster.wait_ready(svc.plan, timeout_s=10.0))
    tb.settle(0.01)
    rec = _Recorder(tb.env)
    rec.service(svc, "nginx")
    rec.cluster(tb.docker_cluster, **faults)
    if far_cluster is not None:
        rec.cluster(far_cluster)
    rec.dispatcher(tb.controller.dispatcher)
    rec.switch(tb)
    return tb, svc, rec, far_cluster


def _c3_result(tb, svc, rec) -> dict:
    return rec.result(
        tb.controller.dispatcher, memory=tb.controller.flow_memory, service=svc
    )


def _ensure(tb, svc, cluster) -> None:
    tb.env.run_process(tb.controller.dispatcher.ensure_deployed(svc, cluster))


def cold_deploy(near=None):
    tb, svc, rec, _ = _c3(near)
    tb.run_request(tb.clients[0], svc, NGINX.request)
    tb.settle(0.1)
    return _c3_result(tb, svc, rec)


def three_waiters_join_one_deploy():
    tb, svc, rec, _ = _c3("created")
    for client in tb.clients[:3]:
        tb.env.spawn(tb.http_request(client, svc, NGINX.request))
    tb.settle(5.0)
    return _c3_result(tb, svc, rec)


def already_running(busy: bool):
    tb, svc, rec, _ = _c3("created")
    _ensure(tb, svc, tb.docker_cluster)
    tb.settle(1.0)
    if busy:
        tb.env.call_at(tb.env.now, rec.note, "something else due now")
    _ensure(tb, svc, tb.docker_cluster)
    tb.settle(0.1)
    return _c3_result(tb, svc, rec)


def retryable_pull_fault_cured():
    tb, svc, rec, _ = _c3(pull=[RegistryUnavailable("hiccup")])
    tb.run_request(tb.clients[0], svc, NGINX.request)
    tb.settle(0.1)
    return _c3_result(tb, svc, rec)


def retries_exhausted_degrade_to_far():
    """Three requests each exhaust the pull's retries and are served
    by the far edge; the third opens the breaker, and the fourth goes
    to the far edge without an attempt."""
    tb, svc, rec, far = _c3(
        far="running", pull=[RegistryUnavailable("down") for _ in range(9)]
    )
    for client in tb.clients[:4]:
        tb.run_request(client, svc, NGINX.request)
        rec.breakers(tb.controller.dispatcher)
    tb.settle(0.1)
    return _c3_result(tb, svc, rec)


def fatal_at(phase, exc, near=None):
    tb, svc, rec, _ = _c3(near, **{phase: [exc]})
    _ensure(tb, svc, tb.docker_cluster)
    return _c3_result(tb, svc, rec)


def wait_ready_timeout():
    tb, svc, rec, _ = _c3("created", boot_s=1e6)
    _ensure(tb, svc, tb.docker_cluster)
    return _c3_result(tb, svc, rec)


def in_the_background(**faults):
    """LowLatency sends the first request to the running far edge and
    deploys the near one in the background."""
    tb, svc, rec, _ = _c3("created", "running", LowLatencyScheduler(), **faults)
    tb.run_request(tb.clients[0], svc, NGINX.request)
    tb.settle(5.0)
    return _c3_result(tb, svc, rec)


def scale_down_two_clusters():
    tb, svc, rec, far = _c3("created", "created")
    _ensure(tb, svc, tb.docker_cluster)
    _ensure(tb, svc, far)
    tb.controller.dispatcher.scale_down_idle(svc)
    tb.settle(2.0)
    return _c3_result(tb, svc, rec)


def capacity_while_in_flight():
    """Room on a two-slot cluster for ASM and for NGINX, asked while
    NGINX deploys: pulling, scaling up, its container started but its
    port not yet open (the in-flight deployment is counted twice there,
    known defect (e)), and deployed."""
    tb, svc, rec, _ = _c3()
    tb.docker_cluster.capacity = 2
    asm = rec.service(tb.register_template(ASM), "asm")
    tb.settle(0.01)
    dispatcher = tb.controller.dispatcher
    start = tb.env.now
    for at in (0.5, 2.75, 2.78, 2.85):
        tb.env.call_at(start + at, rec.states, dispatcher, asm)
        tb.env.call_at(start + at, rec.states, dispatcher, svc)
    tb.run_request(tb.clients[0], svc, NGINX.request)
    tb.settle(1.0)
    return _c3_result(tb, svc, rec)


# -- federated sites --------------------------------------------------------


def _federation(asm_at_site0: bool = True):
    """Two sites with every dispatcher and cluster recorded; with
    ``asm_at_site0`` ASM already runs at site0 and is created at site1."""
    tb = FederatedTestbed(FederationConfig(n_sites=2))
    svc = tb.register_template(ASM)
    site0, site1 = tb.sites
    if asm_at_site0:
        tb.run_request(site0.clients[0], svc, ASM.request)
        tb.settle(12.0)
        tb.prepare_created(site1.cluster, svc)
        tb.settle_replication()
    rec = _Recorder(tb.env)
    rec.service(svc, "asm")
    for site in tb.sites:
        rec.cluster(site.cluster)
        rec.dispatcher(site.controller.dispatcher)
    return tb, svc, rec, site0, site1


def _fed_result(tb, rec) -> dict:
    return rec.result(*(site.controller.dispatcher for site in tb.sites))


def scale_down_one_cluster_federated():
    tb, svc, rec, site0, _ = _federation(asm_at_site0=False)
    tb.run_request(site0.clients[0], svc, ASM.request)
    tb.settle(1.0)
    site0.controller.dispatcher.scale_down_idle(svc)
    tb.settle(2.0)
    return _fed_result(tb, rec)


def migration_evicts_and_drains():
    tb, svc, rec, site0, site1 = _federation()
    done = site1.manager.request_migration(svc.name, "site0")
    assert tb.env.run(until=done).completed
    rec.states(site0.controller.dispatcher, svc)
    tb.settle(2.0)
    rec.states(site0.controller.dispatcher, svc)
    return _fed_result(tb, rec)


#: A transfer slow enough for a fault to land before the flip.
_SLOW = MigrationPolicy(
    mode="precopy",
    checkpoint_bytes=4 * 1024 * 1024,
    dirty_rate_bps=0,
    rate_bps=8_000_000,
    chunk_bytes=256 * 1024,
    transfer_timeout_s=1.0,
    freeze_timeout_s=1.5,
)


def migration_abort_then_completion():
    tb, svc, rec, site0, site1 = _federation()
    Injector(tb, FaultPlan(seed=3).kill_pod(1.0, "site1-docker", svc.name)).arm()
    done = site1.manager.request_migration(svc.name, "site0", policy=_SLOW)
    assert tb.env.run(until=done).failed_phase == "flip"
    rec.breakers(site1.controller.dispatcher)
    tb.settle(5.0)
    done = site1.manager.request_migration(svc.name, "site0")
    assert tb.env.run(until=done).completed
    rec.breakers(site1.controller.dispatcher)
    tb.settle(2.0)
    return _fed_result(tb, rec)


_CASES = {
    "cold deploy, image cached": lambda: cold_deploy("pulled"),
    "cold deploy, image not cached": cold_deploy,
    "three waiters join one deploy": three_waiters_join_one_deploy,
    "already running, at a quiet instant": lambda: already_running(busy=False),
    "already running, at a busy instant": lambda: already_running(busy=True),
    "a retryable pull fault, retried and cured": retryable_pull_fault_cured,
    "retries exhausted: the breaker fed, degraded to a far cluster": (
        retries_exhausted_degrade_to_far
    ),
    "a fatal ImageNotFound at pull": lambda: fatal_at(
        "pull", ImageNotFound("nginx:none")
    ),
    "a DeployError at create": lambda: fatal_at(
        "create", DeployError("bad manifest"), "pulled"
    ),
    "a wait-ready timeout": wait_ready_timeout,
    "a background deploy repoints": in_the_background,
    "a background failure marks the service degraded": lambda: in_the_background(
        scale_up=[DeployError("will not start")]
    ),
    "idle scale-down over one cluster, federated": scale_down_one_cluster_federated,
    "idle scale-down over two clusters": scale_down_two_clusters,
    "a migration released, evicted, drained and scaled down": (
        migration_evicts_and_drains
    ),
    "a migration abort, then a completion, feed migration:site0": (
        migration_abort_then_completion
    ),
    "capacity checked while a deployment is in flight": capacity_while_in_flight,
}

#: case -> what it recorded at 9147817.
_EXPECTED: dict[str, dict] = {
    'cold deploy, image cached': {
        "log": [
            (2.415475318, 'docker create nginx'),
            (2.472475318, 'docker create nginx -> None'),
            (2.472475318, 'docker scale_up nginx'),
            (2.819475318, 'docker scale_up nginx -> None'),
            (2.819475318, 'docker wait_ready nginx'),
            (2.879475318, 'docker wait_ready nginx -> True'),
            (2.879475318, 'publish nginx@local/docker running=True port=20000'),
            (2.879475318, 'outcome nginx@docker created=True scaled=True create_s=0.057 '
                          'scale_up_s=0.347 wait_ready_s=0.06 total_s=0.464'),
            (2.879475318, 'add redirect:nginx:10.0.0.2 p20 '
                          'set_src:203.0.113.1:80,output:2 buffer=None'),
            (2.879475318, 'add redirect:nginx:10.0.0.2 p20 ct(commit,nat(dst=10.0.0.1:20000)),'
                          'output:1 buffer=1'),
        ],
        'breakers': {},
        'counters': {},
        'events': 23,
        'flows': [('10.0.0.2', 'docker', None)],
    },
    'cold deploy, image not cached': {
        "log": [
            (0.066160528, 'docker pull nginx'),
            (2.415475318, 'docker pull nginx -> None'),
            (2.415475318, 'docker create nginx'),
            (2.472475318, 'docker create nginx -> None'),
            (2.472475318, 'docker scale_up nginx'),
            (2.819475318, 'docker scale_up nginx -> None'),
            (2.819475318, 'docker wait_ready nginx'),
            (2.879475318, 'docker wait_ready nginx -> True'),
            (2.879475318, 'publish nginx@local/docker running=True port=20000'),
            (2.879475318, 'outcome nginx@docker pulled=True created=True scaled=True '
                          'pull_s=2.34931479 create_s=0.057 scale_up_s=0.347 wait_ready_s=0.06 '
                          'total_s=2.81331479'),
            (2.879475318, 'add redirect:nginx:10.0.0.2 p20 '
                          'set_src:203.0.113.1:80,output:2 buffer=None'),
            (2.879475318, 'add redirect:nginx:10.0.0.2 p20 ct(commit,nat(dst=10.0.0.1:20000)),'
                          'output:1 buffer=1'),
        ],
        'breakers': {},
        'counters': {},
        'events': 56,
        'flows': [('10.0.0.2', 'docker', None)],
    },
    'three waiters join one deploy': {
        "log": [
            (2.472475318, 'docker scale_up nginx'),
            (2.819475318, 'docker scale_up nginx -> None'),
            (2.819475318, 'docker wait_ready nginx'),
            (2.879475318, 'docker wait_ready nginx -> True'),
            (2.879475318, 'publish nginx@local/docker running=True port=20000'),
            (2.879475318, 'outcome nginx@docker scaled=True scale_up_s=0.347 wait_ready_s=0.06 '
                          'total_s=0.407'),
            (2.879475318, 'add redirect:nginx:10.0.0.2 p20 '
                          'set_src:203.0.113.1:80,output:2 buffer=None'),
            (2.879475318, 'add redirect:nginx:10.0.0.2 p20 ct(commit,nat(dst=10.0.0.1:20000)),'
                          'output:1 buffer=1'),
            (2.879475318, 'outcome nginx@docker scaled=True scale_up_s=0.347 wait_ready_s=0.06 '
                          'total_s=0.407'),
            (2.879475318, 'add redirect:nginx:10.0.0.3 p20 '
                          'set_src:203.0.113.1:80,output:3 buffer=None'),
            (2.879475318, 'add redirect:nginx:10.0.0.3 p20 ct(commit,nat(dst=10.0.0.1:20000)),'
                          'output:1 buffer=2'),
            (2.879475318, 'outcome nginx@docker scaled=True scale_up_s=0.347 wait_ready_s=0.06 '
                          'total_s=0.407'),
            (2.879475318, 'add redirect:nginx:10.0.0.4 p20 '
                          'set_src:203.0.113.1:80,output:4 buffer=None'),
            (2.879475318, 'add redirect:nginx:10.0.0.4 p20 ct(commit,nat(dst=10.0.0.1:20000)),'
                          'output:1 buffer=3'),
        ],
        'breakers': {},
        'counters': {},
        'events': 43,
        'flows': [
            ('10.0.0.2', 'docker', None),
            ('10.0.0.3', 'docker', None),
            ('10.0.0.4', 'docker', None),
        ],
    },
    'already running, at a quiet instant': {
        "log": [
            (2.47131479, 'docker scale_up nginx'),
            (2.81831479, 'docker scale_up nginx -> None'),
            (2.81831479, 'docker wait_ready nginx'),
            (2.87831479, 'docker wait_ready nginx -> True'),
            (2.87831479, 'publish nginx@local/docker running=True port=20000'),
            (2.87831479, 'outcome nginx@docker scaled=True scale_up_s=0.347 wait_ready_s=0.06 '
                         'total_s=0.407'),
            (3.87831479, 'outcome nginx@docker'),
        ],
        'breakers': {},
        'counters': {},
        'events': 12,
        'flows': [],
    },
    'already running, at a busy instant': {
        "log": [
            (2.47131479, 'docker scale_up nginx'),
            (2.81831479, 'docker scale_up nginx -> None'),
            (2.81831479, 'docker wait_ready nginx'),
            (2.87831479, 'docker wait_ready nginx -> True'),
            (2.87831479, 'publish nginx@local/docker running=True port=20000'),
            (2.87831479, 'outcome nginx@docker scaled=True scale_up_s=0.347 wait_ready_s=0.06 '
                         'total_s=0.407'),
            (3.87831479, 'something else due now'),
            (3.87831479, 'outcome nginx@docker'),
        ],
        'breakers': {},
        'counters': {},
        'events': 14,
        'flows': [],
    },
    'a retryable pull fault, retried and cured': {
        "log": [
            (0.066160528, 'docker pull nginx'),
            (0.066160528, 'docker pull nginx raises RegistryUnavailable'),
            (0.608381621, 'docker pull nginx'),
            (2.957696411, 'docker pull nginx -> None'),
            (2.957696411, 'docker create nginx'),
            (3.014696411, 'docker create nginx -> None'),
            (3.014696411, 'docker scale_up nginx'),
            (3.361696411, 'docker scale_up nginx -> None'),
            (3.361696411, 'docker wait_ready nginx'),
            (3.421696411, 'docker wait_ready nginx -> True'),
            (3.421696411, 'publish nginx@local/docker running=True port=20000'),
            (3.421696411, 'outcome nginx@docker pulled=True created=True scaled=True '
                          'pull_s=2.891535883 create_s=0.057 scale_up_s=0.347 wait_ready_s=0.06 '
                          'total_s=3.355535883'),
            (3.421696411, 'add redirect:nginx:10.0.0.2 p20 '
                          'set_src:203.0.113.1:80,output:2 buffer=None'),
            (3.421696411, 'add redirect:nginx:10.0.0.2 p20 ct(commit,nat(dst=10.0.0.1:20000)),'
                          'output:1 buffer=1'),
        ],
        'breakers': {},
        'counters': {'deploy_retries/docker': 1},
        'events': 57,
        'flows': [('10.0.0.2', 'docker', None)],
    },
    'retries exhausted: the breaker fed, degraded to a far cluster': {
        "log": [
            (2.879475318, 'docker pull nginx'),
            (2.879475318, 'docker pull nginx raises RegistryUnavailable'),
            (3.421696411, 'docker pull nginx'),
            (3.421696411, 'docker pull nginx raises RegistryUnavailable'),
            (4.497491851, 'docker pull nginx'),
            (4.497491851, 'docker pull nginx raises RegistryUnavailable'),
            (4.497491851, 'outcome nginx@docker total_s=1.618016533 ready=False '
                          "failed_phase='pull' error='RegistryUnavailable: down' attempts=3"),
            (4.497491851, 'outcome nginx@far-docker'),
            (4.497491851, 'add redirect:nginx:10.0.0.2 p20 '
                          'set_src:203.0.113.1:80,output:2 buffer=None'),
            (4.497491851, 'add redirect:nginx:10.0.0.2 p20 ct(commit,nat(dst=10.0.0.6:20000)),'
                          'output:7 buffer=1'),
            (4.514683867, 'breaker docker closed failures=1'),
            (4.515844395, 'docker pull nginx'),
            (4.515844395, 'docker pull nginx raises RegistryUnavailable'),
            (5.036872974, 'docker pull nginx'),
            (5.036872974, 'docker pull nginx raises RegistryUnavailable'),
            (6.062764649, 'docker pull nginx'),
            (6.062764649, 'docker pull nginx raises RegistryUnavailable'),
            (6.062764649, 'outcome nginx@docker total_s=1.546920254 ready=False '
                          "failed_phase='pull' error='RegistryUnavailable: down' attempts=3"),
            (6.062764649, 'outcome nginx@far-docker'),
            (6.062764649, 'add redirect:nginx:10.0.0.3 p20 '
                          'set_src:203.0.113.1:80,output:3 buffer=None'),
            (6.062764649, 'add redirect:nginx:10.0.0.3 p20 ct(commit,nat(dst=10.0.0.6:20000)),'
                          'output:7 buffer=2'),
            (6.079956665, 'breaker docker closed failures=2'),
            (6.081117193, 'docker pull nginx'),
            (6.081117193, 'docker pull nginx raises RegistryUnavailable'),
            (6.606680929, 'docker pull nginx'),
            (6.606680929, 'docker pull nginx raises RegistryUnavailable'),
            (7.647174343, 'docker pull nginx'),
            (7.647174343, 'docker pull nginx raises RegistryUnavailable'),
            (7.647174343, 'outcome nginx@docker total_s=1.56605715 ready=False '
                          "failed_phase='pull' error='RegistryUnavailable: down' attempts=3"),
            (7.647174343, 'outcome nginx@far-docker'),
            (7.647174343, 'add redirect:nginx:10.0.0.4 p20 '
                          'set_src:203.0.113.1:80,output:4 buffer=None'),
            (7.647174343, 'add redirect:nginx:10.0.0.4 p20 ct(commit,nat(dst=10.0.0.6:20000)),'
                          'output:7 buffer=3'),
            (7.664366359, 'breaker docker open failures=3'),
            (7.665526887, 'outcome nginx@far-docker'),
            (7.665526887, 'add redirect:nginx:10.0.0.5 p20 '
                          'set_src:203.0.113.1:80,output:5 buffer=None'),
            (7.665526887, 'add redirect:nginx:10.0.0.5 p20 ct(commit,nat(dst=10.0.0.6:20000)),'
                          'output:7 buffer=4'),
            (7.682718903, 'breaker docker open failures=3'),
        ],
        'breakers': {'docker': [(7.647174343, 'closed', 'open')]},
        'counters': {'deploy_failures/docker': 3, 'deploy_retries/docker': 6},
        'events': 58,
        'flows': [
            ('10.0.0.2', 'far-docker', 'docker'),
            ('10.0.0.3', 'far-docker', 'docker'),
            ('10.0.0.4', 'far-docker', 'docker'),
            ('10.0.0.5', 'far-docker', 'docker'),
        ],
    },
    'a fatal ImageNotFound at pull': {
        "log": [
            (0.065, 'docker pull nginx'),
            (0.065, 'docker pull nginx raises ImageNotFound'),
            (0.065, "outcome nginx@docker ready=False failed_phase='pull' "
                    'error="ImageNotFound: \'nginx:none\'"'),
        ],
        'breakers': {'docker': []},
        'counters': {'deploy_failures/docker': 1},
        'events': 2,
        'flows': [],
    },
    'a DeployError at create': {
        "log": [
            (2.41431479, 'docker create nginx'),
            (2.41431479, 'docker create nginx raises DeployError'),
            (2.41431479, "outcome nginx@docker ready=False failed_phase='create' "
                         "error='DeployError: bad manifest'"),
        ],
        'breakers': {'docker': []},
        'counters': {'deploy_failures/docker': 1},
        'events': 2,
        'flows': [],
    },
    'a wait-ready timeout': {
        "log": [
            (2.47131479, 'docker scale_up nginx'),
            (2.81831479, 'docker scale_up nginx -> None'),
            (2.81831479, 'docker wait_ready nginx'),
            (122.83831479, 'docker wait_ready nginx -> False'),
            (122.83831479, 'outcome nginx@docker scaled=True scale_up_s=0.347 '
                           'wait_ready_s=120.02 total_s=120.367 ready=False '
                           "failed_phase='wait_ready' error='service port not open within "
                           "120.0s'"),
        ],
        'breakers': {'docker': []},
        'counters': {'deploy_failures/docker': 1},
        # The wait wakes at its deadline, then at the grid tick after it.
        'events': 10,
        'flows': [],
    },
    'a background deploy repoints': {
        "log": [
            (5.305790108, 'add redirect:nginx:10.0.0.2 p20 '
                          'set_src:203.0.113.1:80,output:2 buffer=None'),
            (5.305790108, 'add redirect:nginx:10.0.0.2 p20 ct(commit,nat(dst=10.0.0.6:20000)),'
                          'output:7 buffer=1'),
            (5.305790108, 'docker scale_up nginx'),
            (5.652790108, 'docker scale_up nginx -> None'),
            (5.652790108, 'docker wait_ready nginx'),
            (5.732790108, 'docker wait_ready nginx -> True'),
            (5.732790108, 'publish nginx@local/docker running=True port=20000'),
            (5.732790108, 'outcome nginx@docker scaled=True scale_up_s=0.347 wait_ready_s=0.08 '
                          'total_s=0.427'),
            (5.732790108, 'add drain:nginx:10.0.0.2:10.0.0.6:20000 p25 '
                          'set_src:203.0.113.1:80,output:2 buffer=None'),
            (5.732790108, 'add drain:nginx:10.0.0.2:10.0.0.6:20000 p25 '
                          'ct(commit,nat(dst=10.0.0.6:20000)),'
                          'output:7 buffer=None'),
            (5.732790108, 'delete redirect:nginx:10.0.0.2'),
            (5.732790108, 'add redirect:nginx:10.0.0.2 p20 '
                          'set_src:203.0.113.1:80,output:2 buffer=None'),
            (5.732790108, 'add redirect:nginx:10.0.0.2 p20 ct(commit,nat(dst=10.0.0.1:20000)),'
                          'output:1 buffer=None'),
        ],
        'breakers': {},
        'counters': {},
        'events': 24,
        'flows': [('10.0.0.2', 'docker', None)],
    },
    'a background failure marks the service degraded': {
        "log": [
            (5.305790108, 'add redirect:nginx:10.0.0.2 p20 '
                          'set_src:203.0.113.1:80,output:2 buffer=None'),
            (5.305790108, 'add redirect:nginx:10.0.0.2 p20 ct(commit,nat(dst=10.0.0.6:20000)),'
                          'output:7 buffer=1'),
            (5.305790108, 'docker scale_up nginx'),
            (5.305790108, 'docker scale_up nginx raises DeployError'),
            (5.305790108, "outcome nginx@docker ready=False failed_phase='scale_up' "
                          "error='DeployError: will not start'"),
        ],
        'breakers': {'docker': []},
        'counters': {'deploy_failures/docker': 1},
        'events': 15,
        'flows': [('10.0.0.2', 'far-docker', 'docker')],
    },
    'idle scale-down over one cluster, federated': {
        "log": [
            (0.161160528, 'site0-docker pull asm'),
            (0.533334548, 'site0-docker pull asm -> None'),
            (0.533334548, 'site0-docker create asm'),
            (0.590334548, 'site0-docker create asm -> None'),
            (0.590334548, 'site0-docker scale_up asm'),
            (0.937334548, 'site0-docker scale_up asm -> None'),
            (0.937334548, 'site0-docker wait_ready asm'),
            (0.957334548, 'site0-docker wait_ready asm -> True'),
            (0.957334548, 'publish asm@site0/site0-docker running=True port=20000'),
            (0.957334548, 'outcome asm@site0-docker pulled=True created=True scaled=True '
                          'pull_s=0.37217402 create_s=0.057 scale_up_s=0.347 wait_ready_s=0.02 '
                          'total_s=0.79617402'),
            (1.230393171, 'publish asm@site0/site0-docker running=False port=None'),
            (1.230393171, 'site0-docker scale_down asm'),
            (1.282393171, 'site0-docker scale_down asm -> None'),
        ],
        'breakers': {},
        'counters': {},
        'events': 48,
    },
    'idle scale-down over two clusters': {
        "log": [
            (4.87762958, 'docker scale_up nginx'),
            (5.22462958, 'docker scale_up nginx -> None'),
            (5.22462958, 'docker wait_ready nginx'),
            (5.30462958, 'docker wait_ready nginx -> True'),
            (5.30462958, 'publish nginx@local/docker running=True port=20000'),
            (5.30462958, 'outcome nginx@docker scaled=True scale_up_s=0.347 wait_ready_s=0.08 '
                         'total_s=0.427'),
            (5.30462958, 'far-docker scale_up nginx'),
            (5.65162958, 'far-docker scale_up nginx -> None'),
            (5.65162958, 'far-docker wait_ready nginx'),
            (5.73162958, 'far-docker wait_ready nginx -> True'),
            (5.73162958, 'publish nginx@local/far-docker running=True port=20000'),
            (5.73162958, 'outcome nginx@far-docker scaled=True scale_up_s=0.347 '
                         'wait_ready_s=0.08 total_s=0.427'),
            (5.73162958, 'publish nginx@local/docker running=False port=None'),
            (5.73162958, 'publish nginx@local/far-docker running=False port=None'),
            (5.73162958, 'docker scale_down nginx'),
            (5.73162958, 'far-docker scale_down nginx'),
            (5.78362958, 'docker scale_down nginx -> None'),
            (5.78362958, 'far-docker scale_down nginx -> None'),
        ],
        'breakers': {},
        'counters': {},
        'events': 27,
        'flows': [],
    },
    'a migration released, evicted, drained and scaled down': {
        "log": [
            (12.719567191, 'site1-docker scale_up asm'),
            (13.066567191, 'site1-docker scale_up asm -> None'),
            (13.066567191, 'site1-docker wait_ready asm'),
            (13.086567191, 'site1-docker wait_ready asm -> True'),
            (13.137027978, 'publish asm@site1/site1-docker running=True port=20000'),
            (13.149419252, 'publish asm@site0/site0-docker running=False port=None'),
            (13.153550103, 'state asm@site0-docker running=False room=False blocked=True '
                           'degraded=False'),
            (14.149419252, 'site0-docker scale_down asm'),
            (14.201419252, 'site0-docker scale_down asm -> None'),
            (15.153550103, 'state asm@site0-docker running=False room=True blocked=False '
                           'degraded=False'),
            (15.153550103, 'state asm@site1/site1-docker running=True room=False blocked=False '
                           'degraded=False'),
        ],
        'breakers': {},
        'counters': {},
        'events': 84,
    },
    'a migration abort, then a completion, feed migration:site0': {
        "log": [
            (12.719567191, 'site1-docker scale_up asm'),
            (13.066567191, 'site1-docker scale_up asm -> None'),
            (13.066567191, 'site1-docker wait_ready asm'),
            (13.086567191, 'site1-docker wait_ready asm -> True'),
            (17.297393316, 'site1-docker scale_down asm'),
            (17.309393316, 'site1-docker scale_down asm -> None'),
            (17.325915441, 'breaker migration:site0 closed failures=1'),
            (22.325915441, 'site1-docker scale_up asm'),
            (22.672915441, 'site1-docker scale_up asm -> None'),
            (22.672915441, 'site1-docker wait_ready asm'),
            (22.692915441, 'site1-docker wait_ready asm -> True'),
            (22.743376228, 'publish asm@site1/site1-docker running=True port=20000'),
            (22.755767502, 'publish asm@site0/site0-docker running=False port=None'),
            (22.759898353, 'breaker migration:site0 closed failures=0'),
            (23.755767502, 'site0-docker scale_down asm'),
            (23.807767502, 'site0-docker scale_down asm -> None'),
        ],
        'breakers': {'migration:site0': []},
        'counters': {},
        'events': 409,
    },
    'capacity checked while a deployment is in flight': {
        "log": [
            (0.065, 'add intercept:edge-203-0-113-2-80 p10 controller buffer=None'),
            (0.081160528, 'docker pull nginx'),
            (0.58, 'state asm@docker running=False room=True blocked=False '
                   'degraded=False'),
            (0.58, 'state nginx@docker running=False room=True blocked=False '
                   'degraded=False'),
            (2.430475318, 'docker pull nginx -> None'),
            (2.430475318, 'docker create nginx'),
            (2.487475318, 'docker create nginx -> None'),
            (2.487475318, 'docker scale_up nginx'),
            (2.83, 'state asm@docker running=False room=True blocked=False '
                   'degraded=False'),
            (2.83, 'state nginx@docker running=False room=True blocked=False '
                   'degraded=False'),
            (2.834475318, 'docker scale_up nginx -> None'),
            (2.834475318, 'docker wait_ready nginx'),
            (2.86, 'state asm@docker running=False room=True blocked=False '
                   'degraded=False'),
            (2.86, 'state nginx@docker running=False room=True blocked=False '
                   'degraded=False'),
            (2.894475318, 'docker wait_ready nginx -> True'),
            (2.894475318, 'publish nginx@local/docker running=True port=20000'),
            (2.894475318, 'outcome nginx@docker pulled=True created=True scaled=True '
                          'pull_s=2.34931479 create_s=0.057 scale_up_s=0.347 wait_ready_s=0.06 '
                          'total_s=2.81331479'),
            (2.894475318, 'add redirect:nginx:10.0.0.2 p20 '
                          'set_src:203.0.113.1:80,output:2 buffer=None'),
            (2.894475318, 'add redirect:nginx:10.0.0.2 p20 ct(commit,nat(dst=10.0.0.1:20000)),'
                          'output:1 buffer=1'),
            (2.93, 'state asm@docker running=False room=True blocked=False '
                   'degraded=False'),
            (2.93, 'state nginx@docker running=True room=True blocked=False '
                   'degraded=False'),
        ],
        'breakers': {},
        'counters': {},
        'events': 67,
        'flows': [('10.0.0.2', 'docker', None)],
    },
}


@pytest.mark.parametrize("case", _CASES)
def test_deployment_transitions_as_call_sequences(case):
    """Every deployment transition makes exactly the recorded cluster
    calls, publications, breaker moves and FlowMods, at the recorded
    instants and in the recorded order, and costs the recorded kernel
    events."""
    observed = _CASES[case]()
    expected = _EXPECTED[case]
    assert observed.keys() == expected.keys()
    for key in expected:
        assert observed[key] == expected[key], key
