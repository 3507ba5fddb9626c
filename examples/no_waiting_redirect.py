"""On-demand deployment *without waiting* (fig. 3).

A latency-sensitive service is requested at an edge where no instance
runs.  With the :class:`LowLatencyScheduler` — named in the controller's
configuration and loaded by name (§IV-B) — the controller redirects
the initial request to a *running* instance in a farther edge cluster
(FAST) while deploying the service in the optimal near edge (BEST) in
parallel.  Once the near instance is up, the FlowMemory repoints the
service and subsequent connections are served locally.

Run:  python examples/no_waiting_redirect.py
"""

from repro.core import load_scheduler
from repro.services.catalog import NGINX
from repro.testbed import C3Testbed, TestbedConfig

#: The controller configuration's Global Scheduler entry: a built-in
#: class name, or ``"package.module:ClassName"`` for one of your own.
SCHEDULER = "LowLatencyScheduler"


def main() -> None:
    print(__doc__)
    testbed = C3Testbed(
        TestbedConfig(cluster_types=("docker",)),
        scheduler=load_scheduler(SCHEDULER),
    )
    far = testbed.add_far_edge("far-docker", distance=1, latency_s=0.004)
    service = testbed.register_template(NGINX)

    # The near edge has the image cached; the far edge already runs an
    # instance (it is "on the route to the cloud" and busier).
    testbed.prepare_created(testbed.docker_cluster, service)
    testbed.prepare_created(far, service)
    proc = testbed.env.process(far.scale_up(service.plan))
    testbed.env.run(until=proc)
    proc = testbed.env.process(far.wait_ready(service.plan, timeout_s=30))
    testbed.env.run(until=proc)

    client = testbed.clients[0]
    first = testbed.run_request(client, service, NGINX.request)
    flow = testbed.controller.flow_memory.lookup(client.ip, service)
    print(f"First request: {first.time_total * 1000:7.1f} ms "
          f"— served by '{flow.cluster_name}' (no waiting)")

    # Let the BEST (near) deployment finish in the background.
    testbed.env.run(until=testbed.env.now + 10.0)
    flow = testbed.controller.flow_memory.lookup(client.ip, service)
    print(f"Background deployment done; FlowMemory now points at "
          f"'{flow.cluster_name}'")

    # After the switch flow idles out, new connections go to the near edge.
    idle = testbed.controller.calibration.switch_idle_timeout_s
    testbed.env.run(until=testbed.env.now + idle + 1.0)
    later = testbed.run_request(client, service, NGINX.request)
    flow = testbed.controller.flow_memory.lookup(client.ip, service)
    print(f"Later request: {later.time_total * 1000:7.1f} ms "
          f"— served by '{flow.cluster_name}'")

    assert flow.cluster_name == "docker"
    print("\nThe initial request never waited for a deployment, and the "
          "service ended up at the optimal edge.")


if __name__ == "__main__":
    main()
