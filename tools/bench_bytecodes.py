"""How much host work per request?  Count the interpreter's bytecodes in each bench workload's timed call, against tools/bytecodes.json.

Wall time on a shared 2-core box is noise; a bytecode count is not.  For
the five workloads other than ``shard_replay``, at ``TINY`` size and
seed 42, each in a process of its own under ``PYTHONHASHSEED=0``, a
``sys.settrace`` opcode tracer counts every bytecode executed inside
``Prepared.run`` — what ``bench/run.py`` times — and divides by the
requests attempted.  Each count is split by where the code came from:
the ``repro`` package (``co_filename`` under ``src/repro``, e.g.
``repro.net.openflow``), ``dataclass __init__`` (code compiled from a
string, ``co_filename == "<string>"``: the generated ``__init__`` of
every dataclass, and the ``__new__`` of every ``NamedTuple``), and
``rest`` (``bench/``, the Python half of the standard library).

Blind spot: work done in C — ``heapq``, dict and set operations,
``sorted``, allocation — is one opcode or none, however long it takes,
so a change that moves work into C reads as a gain and one that moves
work out of C as a loss.  The counts are not wall time.

The ledger holds the interpreter it was recorded on
(``platform.python_implementation()`` and ``python_version()``), and
per workload the requests, the bytecodes and their split, all integers.
On that interpreter the counts must be equal, or the tool exits 1
naming each workload and package that moved.  On any other one it
reports them beside the ledger's and exits 0: the compiler and the
tracer differ between versions (3.12 rebuilt tracing on
``sys.monitoring``).  A count of 0 is an error on every interpreter: the
tracer saw nothing.  A change that moves a count on purpose rewrites
the ledger in the same diff and says why, per workload::

    python -c "import sys; sys.path.insert(0, 'tools'); import bench_bytecodes as b; b.write()"

Run from anywhere: ``python tools/bench_bytecodes.py`` (about 30 s).
"""
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
LEDGER = TOOLS / "bytecodes.json"
WORKLOADS = ("c3_replay", "c3_churn", "cold_deploy", "fed_replay", "handover_storm")
SEED = 42
GENERATED = "dataclass __init__"


def interpreter() -> str:
    return f"{platform.python_implementation()} {platform.python_version()}"


def count(name: str) -> dict:
    """Run one workload at TINY size under the tracer, in this process:
    ``{"requests", "bytecodes", "split"}``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    src = str(ROOT / "src" / "repro") + os.sep
    workload = workloads.WORKLOADS[name]
    workload = getattr(workload, "steady", None) or workload
    prepared = workload.prepare(SEED, dict(workload.TINY))
    cells: dict[str, list[int]] = {}
    tracers: dict[object, object] = {}

    def bucket(code) -> str:
        path = code.co_filename
        if path == "<string>":
            return GENERATED
        if path.startswith(src):
            parts = path[len(src):].split(os.sep)[:-1]
            return ".".join(["repro", *parts])
        return "rest"

    def local_for(cell):
        def local(frame, event, arg):
            if event == "opcode":
                cell[0] += 1
            return local

        return local

    def trace(frame, event, arg):
        code = frame.f_code
        local = tracers.get(code)
        if local is None:
            key = bucket(code)
            if key not in cells:
                cells[key] = [0]
            local = tracers[code] = local_for(cells[key])
        frame.f_trace_opcodes = True
        return local

    sys.settrace(trace)
    try:
        raw = prepared.run(None)
    finally:
        sys.settrace(None)
    split = {key: cell[0] for key, cell in sorted(cells.items()) if cell[0]}
    return {
        "requests": prepared.finish(raw).attempted,
        "bytecodes": sum(split.values()),
        "split": split,
    }


def measure() -> dict:
    """The ledger's contents for this checkout and interpreter: each
    workload counted in a fresh process under ``PYTHONHASHSEED=0``."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    got = {}
    for name in WORKLOADS:
        run = subprocess.run(
            [
                sys.executable,
                "-c",
                "import json, sys; sys.path.insert(0, sys.argv[1]); "
                "import bench_bytecodes as b; print(json.dumps(b.count(sys.argv[2])))",
                str(TOOLS),
                name,
            ],
            env=env,
            cwd=ROOT,
            check=True,
            capture_output=True,
            text=True,
        )
        got[name] = json.loads(run.stdout.splitlines()[-1])
        if got[name]["bytecodes"] == 0:
            sys.exit(f"bench_bytecodes: {name}: 0 bytecodes counted on {interpreter()}; the tracer saw nothing")
    return {"python": interpreter(), "seed": SEED, "size": "TINY", "workloads": got}


def write() -> None:
    """Record this checkout's counts as the ledger."""
    LEDGER.write_text(json.dumps(measure(), indent=1) + "\n")


def per_request(row: dict, value: int) -> str:
    return f"{value / row['requests']:,.1f}"


def main() -> None:
    ledger = json.loads(LEDGER.read_text())
    got = measure()
    gate = got["python"] == ledger["python"]
    moved = []
    for name in WORKLOADS:
        row, want = got["workloads"][name], ledger["workloads"][name]
        print(
            f"{name}: {per_request(row, row['bytecodes'])} bytecodes/request "
            f"(ledger {per_request(want, want['bytecodes'])}), {row['requests']} requests"
        )
        for key in sorted(set(row["split"]) | set(want["split"])):
            have, had = row["split"].get(key, 0), want["split"].get(key, 0)
            mark = "" if have == had else "   <- moved"
            print(f"   {key:24s} {per_request(row, have):>10s}  ledger {per_request(want, had):>10s}{mark}")
            if have != had:
                moved.append(f"bench_bytecodes: {name} {key}: {have} bytecodes, ledger has {had}")
        if row["requests"] != want["requests"]:
            moved.append(f"bench_bytecodes: {name}: {row['requests']} requests, ledger has {want['requests']}")
    if not gate:
        print(f"bench_bytecodes: {got['python']} is not the ledger's {ledger['python']}: reported, not gated")
        return
    sys.exit("\n".join(moved) or 0)


if __name__ == "__main__":
    main()
