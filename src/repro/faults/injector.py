"""The Injector: drives a :class:`~repro.faults.plan.FaultPlan`
against a live testbed.

The injector is pure control plane: it resolves each fault's target by
name (hosts, switches, links, registries, clusters) against the
testbed, schedules one apply callback per fault via ``env.call_at``,
and schedules the matching revert callback when the fault has a
duration.  Nothing touches the event heap until :meth:`arm` is called,
and an armed injector with an empty plan schedules nothing — the fault
layer costs zero on healthy runs.

The testbed is duck-typed (anything exposing ``env``, ``clusters``,
``switches``, a couple of well-known hosts, and the registries works),
so the injector composes with any experiment or workload driver built
on :class:`~repro.testbed.c3.C3Testbed`.
"""

from __future__ import annotations

import typing as _t

from repro.containers.containerd import Containerd
from repro.containers.registry import Registry
from repro.faults.plan import (
    APIStall,
    Fault,
    FaultPlan,
    LinkPartition,
    NodeCrash,
    PodKill,
    RegistryOutage,
)

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.containers.containerd import Container
    from repro.net.host import Host
    from repro.net.link import Link
    from repro.net.openflow.switch import OpenFlowSwitch


class Injector:
    """Schedules a fault plan's apply/revert callbacks against a testbed."""

    def __init__(self, testbed: _t.Any, plan: FaultPlan) -> None:
        self.testbed = testbed
        self.env = testbed.env
        self.plan = plan
        self.recorder = getattr(testbed, "recorder", None)
        #: ``(time, description)`` log of everything applied/reverted.
        self.log: list[tuple[float, str]] = []
        self._armed = False

    # -- scheduling --------------------------------------------------------

    def arm(self) -> "Injector":
        """Schedule every fault of the plan (idempotent; chainable).

        Faults apply at ``env start time + fault.at_s``; same-instant
        faults apply in plan order (event sequence numbers are strictly
        increasing), so a plan's trajectory is deterministic.
        """
        if self._armed:
            return self
        self._armed = True
        base = self.env.now
        for fault in self.plan:
            self.env.call_at(base + fault.at_s, self._apply, fault)
        return self

    def _apply(self, fault: Fault) -> None:
        if isinstance(fault, RegistryOutage):
            self._apply_registry_outage(fault)
        elif isinstance(fault, NodeCrash):
            self._apply_node_crash(fault)
        elif isinstance(fault, LinkPartition):
            self._apply_partition(fault)
        elif isinstance(fault, PodKill):
            self._apply_pod_kill(fault)
        elif isinstance(fault, APIStall):
            self._apply_api_stall(fault)
        else:  # pragma: no cover - new fault types must be wired here
            raise TypeError(f"unknown fault type: {fault!r}")

    def _note(self, what: str) -> None:
        self.log.append((self.env.now, what))
        if self.recorder is not None:
            self.recorder.mark("faults", self.env.now)
            self.recorder.count(f"faults/{what.split()[0]}")

    # -- registry outage ---------------------------------------------------

    def _apply_registry_outage(self, fault: RegistryOutage) -> None:
        registry = self._registry(fault.registry)
        previous = registry.failure_rate
        # Reseed from the plan so the outage's error pattern does not
        # depend on how much traffic preceded it.
        registry.reseed_faults(self.plan.seed)
        registry.set_fault_rate(fault.rate)
        self._note(f"registry-outage {registry.name} rate={fault.rate}")
        self.env.call_later(
            fault.duration_s, self._revert_registry_outage, registry, previous
        )

    def _revert_registry_outage(self, registry: Registry, previous: float) -> None:
        registry.failure_rate = previous
        self._note(f"registry-restore {registry.name}")

    # -- node crash --------------------------------------------------------

    def _apply_node_crash(self, fault: NodeCrash) -> None:
        host = self._hosts().get(fault.node)
        if host is not None:
            self._crash_host(fault, host)
            return
        switch = self._switches().get(fault.node)
        if switch is not None:
            self._crash_switch(fault, switch)
            return
        raise ValueError(f"no host or switch named {fault.node!r}")

    def _crash_host(self, fault: NodeCrash, host: "Host") -> None:
        for runtime in self._runtimes_on(host):
            runtime.down = True
            runtime.kill_all()
        host.crash()
        endpoint = host.iface.endpoint
        link = endpoint.link if endpoint is not None else None
        if link is not None:
            link.down = True
        self._note(f"node-crash {host.name}")
        if fault.duration_s is not None:
            self.env.call_later(
                fault.duration_s, self._restore_host, host, link
            )

    def _restore_host(self, host: "Host", link: "Link | None") -> None:
        if link is not None:
            link.down = False
        for runtime in self._runtimes_on(host):
            runtime.down = False
        self._note(f"node-restore {host.name}")

    def _crash_switch(self, fault: NodeCrash, switch: "OpenFlowSwitch") -> None:
        links = []
        for iface in switch.ports():
            endpoint = iface.endpoint
            if endpoint is not None:
                endpoint.link.down = True
                links.append(endpoint.link)
        switch.power_cycle()
        self._note(f"node-crash {switch.name}")
        if fault.duration_s is not None:
            self.env.call_later(
                fault.duration_s, self._restore_switch, switch, links
            )

    def _restore_switch(
        self, switch: "OpenFlowSwitch", links: list["Link"]
    ) -> None:
        for link in links:
            link.down = False
        # The rebooted switch comes back with an empty table; the
        # controller replays the datapath join to reinstall the
        # infrastructure rules (redirects reinstall lazily on the next
        # table miss, via FlowMemory).
        for controller in self._controllers():
            datapath = controller.datapaths.get(switch.datapath_id)
            if datapath is not None:
                controller.on_datapath_join(datapath)
                break
        self._note(f"node-restore {switch.name}")

    def _controllers(self) -> list[_t.Any]:
        """Every controller app on the testbed (federated testbeds own
        one per site; the classic testbed exposes a single one)."""
        controllers = getattr(self.testbed, "controllers", None)
        if controllers:
            return list(controllers)
        controller = getattr(self.testbed, "controller", None)
        return [controller] if controller is not None else []

    # -- link partition ----------------------------------------------------

    def _apply_partition(self, fault: LinkPartition) -> None:
        link = self._link_between(fault.a, fault.b)
        link.down = True
        self._note(f"partition {fault.a}<->{fault.b}")
        self.env.call_later(fault.duration_s, self._heal_partition, fault, link)

    def _heal_partition(self, fault: LinkPartition, link: "Link") -> None:
        link.down = False
        self._note(f"partition-heal {fault.a}<->{fault.b}")

    # -- pod kill ----------------------------------------------------------

    def _apply_pod_kill(self, fault: PodKill) -> None:
        cluster = self._cluster(fault.cluster)
        killed = 0
        for runtime in cluster.runtimes:
            for container in list(runtime.containers.values()):
                if self._belongs_to_service(container, fault.service):
                    if runtime.kill(container):
                        killed += 1
        self._note(f"pod-kill {fault.service}@{fault.cluster} killed={killed}")

    @staticmethod
    def _belongs_to_service(container: "Container", service_name: str) -> bool:
        labels = container.spec.labels
        if labels.get("edge.service") == service_name:
            return True
        # Kubernetes containers are named "{pod}/{container}" with the
        # deployment (= service) name prefixing the pod name.
        return container.spec.name.startswith(service_name)

    # -- API stall ---------------------------------------------------------

    def _apply_api_stall(self, fault: APIStall) -> None:
        cluster = self._cluster(fault.cluster)
        kubernetes = getattr(cluster, "cluster", None)
        api = getattr(kubernetes, "api", None)
        if api is None:
            raise ValueError(
                f"cluster {fault.cluster!r} has no API server to stall"
            )
        api.stall_for(fault.duration_s)
        self._note(f"api-stall {fault.cluster} {fault.duration_s}s")

    # -- target resolution -------------------------------------------------

    def _hosts(self) -> dict[str, "Host"]:
        tb = self.testbed
        hosts: dict[str, _t.Any] = {}
        for host in (
            [getattr(tb, "egs", None), getattr(tb, "cloud", None)]
            + list(getattr(tb, "clients", []))
        ):
            if host is not None:
                hosts[host.name] = host
        for cluster in getattr(tb, "clusters", []):
            ingress = getattr(cluster, "ingress_host", None)
            if ingress is not None:
                hosts.setdefault(ingress.name, ingress)
        return hosts

    def _switches(self) -> dict[str, "OpenFlowSwitch"]:
        return {
            switch.name: switch
            for switch in getattr(self.testbed, "switches", {}).values()
        }

    def _registry(self, name: str) -> Registry:
        candidates = [
            getattr(self.testbed, attr, None)
            for attr in ("public_registry", "private_registry", "active_registry")
        ]
        for registry in candidates:
            if registry is not None and registry.name == name:
                return registry
        raise ValueError(f"no registry named {name!r}")

    def _cluster(self, name: str):
        for cluster in getattr(self.testbed, "clusters", []):
            if cluster.name == name:
                return cluster
        raise ValueError(f"no cluster named {name!r}")

    def _all_runtimes(self) -> list[Containerd]:
        runtimes: list[Containerd] = []
        shared = getattr(self.testbed, "containerd", None)
        if shared is not None:
            runtimes.append(shared)
        for cluster in getattr(self.testbed, "clusters", []):
            for runtime in cluster.runtimes:
                if runtime not in runtimes:
                    runtimes.append(runtime)
        return runtimes

    def _runtimes_on(self, host: "Host") -> list[Containerd]:
        return [r for r in self._all_runtimes() if r.node is host]

    def _link_between(self, a: str, b: str) -> "Link":
        wanted = {a, b}
        # Logical links first: testbeds can expose channels that are
        # not host/switch wires (e.g. a site's shared-state link in the
        # federated control plane) under explicit name pairs.  Anything
        # with a ``down`` flag partitions.
        named = getattr(self.testbed, "named_links", None)
        if named:
            for pair, link in named.items():
                if set(pair) == wanted:
                    return link
        for link in self._all_links():
            names = {
                link.end_a.iface.device.name,
                link.end_b.iface.device.name,
            }
            if names == wanted:
                return link
        raise ValueError(f"no link between {a!r} and {b!r}")

    def _all_links(self) -> list["Link"]:
        links: list[_t.Any] = []
        seen: set[int] = set()

        def _collect(iface) -> None:
            endpoint = iface.endpoint
            if endpoint is None:
                return
            link = endpoint.link
            if id(link) not in seen:
                seen.add(id(link))
                links.append(link)

        for host in self._hosts().values():
            _collect(host.iface)
        for switch in self._switches().values():
            for iface in switch.ports():
                _collect(iface)
        return links

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "armed" if self._armed else "idle"
        return f"<Injector {state} faults={len(self.plan)}>"
