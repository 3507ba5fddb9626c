"""Wasm builds of the paper's services (for the future-work experiment).

Gackstatter et al. [7] motivate wasm for edge serverless with cold
starts far below container starts; the flip side is slower execution
and a narrower application model (no full Linux userland — nginx
itself would not be compiled to wasm; what runs is *the service's
function*, i.e. "serve this file" / "classify this image").
"""

from __future__ import annotations

import dataclasses

from repro.containers.image import KIB, MIB
from repro.serverless.wasm import WasmModule
from repro.services.calibration import DEFAULT_CALIBRATION
from repro.services.catalog import (
    ASM_IMAGE,
    NGINX_IMAGE,
    RESNET_IMAGE,
)


@dataclasses.dataclass(frozen=True)
class WasmServiceTemplate:
    """A wasm counterpart of one catalog container service."""

    key: str
    title: str
    module: WasmModule
    #: The container image this module replaces.
    replaces_image: str


def build_wasm_catalog() -> tuple[
    tuple[WasmServiceTemplate, ...], dict[str, WasmModule]
]:
    """Wasm templates plus the image→module map for the adapter, at
    the default calibration."""
    calibration = DEFAULT_CALIBRATION
    static_file = WasmModule(
        name="web-static.wasm",
        size_bytes=180 * KIB,
        native_handle_s=calibration.static_file_handle_s,
        response_bytes=calibration.text_response_bytes,
    )
    classify = WasmModule(
        name="resnet-classify.wasm",
        size_bytes=28 * MIB,  # model weights dominate the binary
        native_handle_s=calibration.resnet_infer_s,
        response_bytes=calibration.resnet_response_bytes,
    )
    templates = (
        WasmServiceTemplate(
            key="asm_wasm",
            title="Asm (wasm)",
            module=static_file,
            replaces_image=ASM_IMAGE.reference,
        ),
        WasmServiceTemplate(
            key="nginx_wasm",
            title="Nginx (wasm)",
            module=static_file,
            replaces_image=NGINX_IMAGE.reference,
        ),
        WasmServiceTemplate(
            key="resnet_wasm",
            title="ResNet (wasm)",
            module=classify,
            replaces_image=RESNET_IMAGE.reference,
        ),
    )
    module_map = {t.replaces_image: t.module for t in templates}
    return templates, module_map


WASM_SERVICES, _DEFAULT_MODULE_MAP = build_wasm_catalog()


def default_module_map() -> dict[str, WasmModule]:
    return dict(_DEFAULT_MODULE_MAP)
