"""End-to-end test of the Local Scheduler path (§IV-B / §V).

"If a Local Scheduler has been defined in the controller configuration
for the particular edge cluster, we set it as the value for the
schedulerName key."  Pods of edge services must then be bound by that
scheduler — and only those pods.
"""

from __future__ import annotations

from repro import yamlite
from repro.observe import tap
from repro.services.catalog import NGINX
from repro.testbed import C3Testbed, TestbedConfig


class TestLocalScheduler:
    def test_edge_pods_bound_by_local_scheduler(self):
        tb = C3Testbed(
            TestbedConfig(
                cluster_types=("k8s",), k8s_local_scheduler="edge-scheduler"
            )
        )
        svc = tb.register_template(NGINX)

        # The annotation carries the schedulerName.
        dep_doc = yamlite.load_all(svc.annotated_yaml)[0]
        assert (
            dep_doc["spec"]["template"]["spec"]["schedulerName"]
            == "edge-scheduler"
        )

        tb.prepare_created(tb.k8s_cluster, svc)
        result = tb.run_request(tb.clients[0], svc, NGINX.request)
        assert result.response.status == 200

        pods = tb.kubernetes.api.list_nowait("Pod")
        assert pods and all(
            p.spec.scheduler_name == "edge-scheduler" for p in pods
        )
        assert all(p.spec.node_name == "egs" for p in pods)

    def test_local_scheduler_policy_is_used(self):
        """A counting policy proves the custom scheduler did the bind."""
        tb = C3Testbed(
            TestbedConfig(
                cluster_types=("k8s",), k8s_local_scheduler="edge-scheduler"
            )
        )
        bound = []
        scheduler = tb.kubernetes.extra_schedulers["edge-scheduler"]
        tap(scheduler, "policy", lambda pod, nodes: bound.append(pod.metadata.name))
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.k8s_cluster, svc)
        tb.run_request(tb.clients[0], svc, NGINX.request)
        assert len(bound) == 1

    def test_without_config_default_scheduler_used(self):
        tb = C3Testbed(TestbedConfig(cluster_types=("k8s",)))
        svc = tb.register_template(NGINX)
        tb.prepare_created(tb.k8s_cluster, svc)
        tb.run_request(tb.clients[0], svc, NGINX.request)
        pods = tb.kubernetes.api.list_nowait("Pod")
        assert all(p.spec.scheduler_name == "default-scheduler" for p in pods)
