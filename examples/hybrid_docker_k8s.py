"""The §VII hybrid: Docker for the first response, Kubernetes after.

"We can combine the best of both worlds.  First, we launch an edge
service via Docker to respond faster to the initial request.  Then, we
deploy the same service to Kubernetes for future requests."

Both clusters live on the same EGS host and share one containerd, as
on the paper's testbed.

Run:  python examples/hybrid_docker_k8s.py
"""

from repro.core import HybridDockerK8sScheduler
from repro.services.catalog import NGINX
from repro.testbed import C3Testbed, TestbedConfig


def main() -> None:
    print(__doc__)
    testbed = C3Testbed(
        TestbedConfig(cluster_types=("docker", "k8s")),
        scheduler=HybridDockerK8sScheduler("docker", "k8s"),
    )
    service = testbed.register_template(NGINX)
    testbed.prepare_created(testbed.docker_cluster, service)
    testbed.prepare_created(testbed.k8s_cluster, service)
    client = testbed.clients[0]

    first = testbed.run_request(client, service, NGINX.request)
    print(f"First request:  {first.time_total * 1000:7.1f} ms "
          f"(Docker answered — no 3 s Kubernetes cold start)")

    testbed.env.run(until=testbed.env.now + 10.0)
    assert testbed.k8s_cluster.is_running(service.plan)
    flow = testbed.controller.flow_memory.lookup(client.ip, service)
    print(f"Kubernetes instance is up; FlowMemory repointed to "
          f"'{flow.cluster_name}'")

    idle = testbed.controller.calibration.switch_idle_timeout_s
    testbed.env.run(until=testbed.env.now + idle + 1.0)
    later = testbed.run_request(client, service, NGINX.request)
    print(f"Steady state:   {later.time_total * 1000:7.1f} ms "
          f"(served by the Kubernetes-managed instance)")

    # The Docker instance can now be scaled down; K8s manages the service.
    proc = testbed.env.process(
        testbed.docker_cluster.scale_down(service.plan)
    )
    testbed.env.run(until=proc)
    print("Docker instance scaled down — fast initial response AND "
          "automated cluster management.")


if __name__ == "__main__":
    main()
