"""The paper's edge-service catalog (Table I).

=========  ==================================  =============  ==========  ====
Service    Image(s)                            Size / Layers  Containers  HTTP
=========  ==================================  =============  ==========  ====
Asm        josefhammer/web-asm:amd64           6.18 KiB / 1   1           GET
Nginx      nginx:1.23.2                        135 MiB / 6    1           GET
ResNet     gcr.io/tensorflow-serving/resnet    308 MiB / 9    1           POST
Nginx+Py   nginx:1.23.2 + env-writer-py        181 MiB / 7    2           GET
=========  ==================================  =============  ==========  ====

A :class:`ServiceTemplate` bundles everything an experiment needs: the
YAML service-definition (as the developer would write it), the image
models, behaviours, and the request profile clients use.
"""

from __future__ import annotations

import dataclasses

from repro.containers.image import ImageSpec, KIB, MIB
from repro.net.packet import HTTPRequest
from repro.services.behavior import BehaviorRegistry, ContainerBehavior
from repro.services.calibration import Calibration, DEFAULT_CALIBRATION


@dataclasses.dataclass(frozen=True)
class ServiceTemplate:
    """One catalog entry: everything needed to register + exercise it."""

    key: str
    title: str
    images: tuple[ImageSpec, ...]
    #: YAML service definition, as a developer would write it (§V).
    definition_yaml: str
    #: The request clients send (GET for the web services, ResNet POST).
    request: HTTPRequest
    http_method: str

    @property
    def total_bytes(self) -> int:
        return sum(image.total_bytes for image in self.images)

    @property
    def layer_count(self) -> int:
        return sum(image.layer_count for image in self.images)

    @property
    def container_count(self) -> int:
        return len(self.images)


# -- image models (sizes and layer counts straight from Table I) -----------

ASM_IMAGE = ImageSpec.synthesize(
    "josefhammer/web-asm:amd64", int(6.18 * KIB), 1
)
NGINX_IMAGE = ImageSpec.synthesize("nginx:1.23.2", 135 * MIB, 6)
RESNET_IMAGE = ImageSpec.synthesize(
    "gcr.io/tensorflow-serving/resnet", 308 * MIB, 9
)
#: Nginx+Py totals 181 MiB / 7 layers; nginx contributes 135 MiB / 6,
#: so the Python app image is 46 MiB in a single layer.
ENVWRITER_IMAGE = ImageSpec.synthesize(
    "josefhammer/env-writer-py", 46 * MIB, 1
)


def _yaml(containers: str) -> str:
    return (
        "apiVersion: apps/v1\n"
        "kind: Deployment\n"
        "spec:\n"
        "  template:\n"
        "    spec:\n"
        "      containers:\n" + containers
    )


ASM = ServiceTemplate(
    key="asm",
    title="Asm",
    images=(ASM_IMAGE,),
    definition_yaml=_yaml(
        "      - name: web\n"
        "        image: josefhammer/web-asm:amd64\n"
        "        ports:\n"
        "        - containerPort: 8080\n"
    ),
    request=HTTPRequest("GET", "/hello.txt", body_bytes=0),
    http_method="GET",
)

NGINX = ServiceTemplate(
    key="nginx",
    title="Nginx",
    images=(NGINX_IMAGE,),
    definition_yaml=_yaml(
        "      - name: web\n"
        "        image: nginx:1.23.2\n"
        "        ports:\n"
        "        - containerPort: 80\n"
    ),
    request=HTTPRequest("GET", "/index.html", body_bytes=0),
    http_method="GET",
)

RESNET = ServiceTemplate(
    key="resnet",
    title="ResNet",
    images=(RESNET_IMAGE,),
    definition_yaml=_yaml(
        "      - name: serving\n"
        "        image: gcr.io/tensorflow-serving/resnet\n"
        "        ports:\n"
        "        - containerPort: 8501\n"
    ),
    request=HTTPRequest(
        "POST",
        "/v1/models/resnet:predict",
        body_bytes=DEFAULT_CALIBRATION.resnet_request_bytes,
    ),
    http_method="POST",
)

NGINX_PY = ServiceTemplate(
    key="nginx_py",
    title="Nginx+Py",
    images=(NGINX_IMAGE, ENVWRITER_IMAGE),
    definition_yaml=_yaml(
        "      - name: web\n"
        "        image: nginx:1.23.2\n"
        "        ports:\n"
        "        - containerPort: 80\n"
        "        volumeMounts:\n"
        "        - name: content\n"
        "          mountPath: /usr/share/nginx/html\n"
        "      - name: env-writer\n"
        "        image: josefhammer/env-writer-py\n"
        "        env:\n"
        "        - name: WRITE_INTERVAL\n"
        "          value: \"1\"\n"
        "        volumeMounts:\n"
        "        - name: content\n"
        "          mountPath: /content\n"
    ),
    request=HTTPRequest("GET", "/index.html", body_bytes=0),
    http_method="GET",
)

#: The four paper services in Table I order.
PAPER_SERVICES: tuple[ServiceTemplate, ...] = (ASM, NGINX, RESNET, NGINX_PY)


def build_catalog(
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> tuple[dict[str, ImageSpec], BehaviorRegistry]:
    """Image library + behaviour registry for the paper's services."""
    images = {
        image.reference: image
        for image in (ASM_IMAGE, NGINX_IMAGE, RESNET_IMAGE, ENVWRITER_IMAGE)
    }
    behaviors = BehaviorRegistry()
    behaviors.register(
        ASM_IMAGE.reference,
        ContainerBehavior(
            boot_time_s=calibration.asm_boot_s,
            handle_time_s=calibration.static_file_handle_s,
            response_bytes=calibration.text_response_bytes,
        ),
    )
    behaviors.register(
        NGINX_IMAGE.reference,
        ContainerBehavior(
            boot_time_s=calibration.nginx_boot_s,
            handle_time_s=calibration.static_file_handle_s,
            response_bytes=calibration.text_response_bytes,
        ),
    )
    behaviors.register(
        RESNET_IMAGE.reference,
        ContainerBehavior(
            boot_time_s=calibration.resnet_boot_s,
            handle_time_s=calibration.resnet_infer_s,
            response_bytes=calibration.resnet_response_bytes,
            # TF-Serving on the EGS: a small pool of inference workers;
            # concurrent classifications queue behind it.
            workers=4,
        ),
    )
    behaviors.register(
        ENVWRITER_IMAGE.reference,
        ContainerBehavior(
            boot_time_s=calibration.envwriter_boot_s,
            handle_time_s=None,  # not an HTTP server
        ),
    )
    return images, behaviors


def template_by_key(key: str) -> ServiceTemplate:
    """Look up a catalog entry by its short key."""
    for template in PAPER_SERVICES:
        if template.key == key:
            return template
    raise KeyError(f"unknown service template {key!r}")
