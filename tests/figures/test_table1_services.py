"""Table I — edge service catalog."""

from repro.containers.image import KIB, MIB
from repro.experiments import run_table1
from repro.services.catalog import ASM, NGINX, NGINX_PY, RESNET

from tests.figures.conftest import run_experiment


def test_table1_services():
    result = run_experiment(run_table1)
    # Exact catalog values from the paper.
    assert result.cell("Asm", "Containers") == 1
    assert result.cell("Nginx+Py", "Containers") == 2
    assert result.cell("ResNet", "HTTP") == "POST"
    assert ASM.total_bytes == int(6.18 * KIB)
    assert NGINX.total_bytes == 135 * MIB and NGINX.layer_count == 6
    assert RESNET.total_bytes == 308 * MIB and RESNET.layer_count == 9
    assert NGINX_PY.total_bytes == 181 * MIB and NGINX_PY.layer_count == 7
