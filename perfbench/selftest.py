"""Self-test of the benchmark at a seconds-long smoke size.

Usage (from the repository root): ``python3 perfbench/selftest.py``.

For every workload it runs ``run.py --smoke`` untraced twice and traced
once, and checks that

- every answer was correct and the result line follows the contract
  (``correct``, ``attempted``, ``failed``, ``metrics``; every end-to-end
  metric of ``BENCHMARK.json`` untraced, every per-layer metric traced,
  each with its declared unit; end-to-end values positive);
- the work counters of the two untraced runs are identical;
- the traced run's blocking-path check passed, and every layer the
  workload exercises reported calls (a wrapper missed at a by-name
  import reads zero);

and that ``run.py`` fails, without a result line, in a directory holding
only ``BENCHMARK.json`` and this directory.  Exit code 0 when all pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Timed calls each workload must reach (the layer table in README.md).
EXERCISED = {
    "fig5-cover": [
        "propagation.engine.cover_many",
        "propagation.cover.prop_cfd_spc_report",
        "propagation.cover.rbr",
        "propagation.cover.compute_eq",
        "core.mincover.min_cover",
        "core.implication.implies",
        "core.chase.chase",
    ],
    "ex41-check": [
        "propagation.engine.check_many",
        "propagation.check.find_counterexample",
        "kernel.PackedPairRunner.find_violation",
    ],
    "serve-warm": [
        "api.client.request_to_json",
        "api.client.Transport.request",
        "api.client.response_from_json",
        "api.server.PropagationServer.respond_line",
        "api.wire.handle_request",
        "api.wire.request_from_json",
        "api.wire.response_to_json",
        "api.service.route_check",
        "api.service.check",
        "api.service.cover",
        "propagation.engine.check_many",
        "propagation.engine.cover_many",
    ],
    "stream-edits": [
        "api.service.route_check",
        "api.service.check",
        "api.service.cover",
        "api.service.delta_sigma",
        "propagation.engine.check_many",
        "propagation.engine.cover_many",
        "propagation.engine.invalidate_relations",
        "propagation.check.find_counterexample",
        "propagation.cover.prop_cfd_spc_report",
        "propagation.cover.prop_cfd_spcu",
        "core.mincover.min_cover",
        "core.implication.implies",
        "core.chase.chase",
    ],
}


class CheckFailed(Exception):
    pass


def expect(condition, detail) -> None:
    if not condition:
        raise CheckFailed(detail)


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1.5", "--trace", str(trace), "--smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return out.returncode, out.stdout.splitlines()


def check_result(lines: list[str], declared: list[dict]) -> tuple[dict, dict]:
    """The contract result and the detail line of one run."""
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
    expect(result["correct"] and result["failed"] == 0, result)
    expect(result["attempted"] >= 1, result)
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    expect(got == units, sorted(set(got) ^ set(units)) or got)
    detail = json.loads(next(line for line in lines if line.startswith("result "))[7:])
    return result, detail


def main() -> int:
    failures = []
    for workload in EXERCISED:
        try:
            code, first = run(workload, 0)
            expect(code == 0, f"untraced exit {code}")
            result, detail = check_result(first, BENCHMARK["end_to_end"])
            expect(all(v["value"] > 0 for v in result["metrics"].values()), result)
            code, second = run(workload, 0)
            expect(code == 0, f"untraced exit {code}")
            _, again = check_result(second, BENCHMARK["end_to_end"])
            expect(detail["counters"] == again["counters"], "work counters differ")

            code, traced = run(workload, 1)
            expect(code == 0, f"traced exit {code}")
            result, detail = check_result(traced, BENCHMARK["per_layer"])
            expect(detail["trace_sane"], "blocking-path self times do not add up")
            metrics = result["metrics"]
            silent = [s for s in EXERCISED[workload] if not metrics[f"{s}.calls"]["value"]]
            expect(not silent, f"no calls recorded for {silent}")
            if workload == "serve-warm":
                expect(metrics["engine.chase_invocations"]["value"] == 0, "warm server chased")
            print(f"PASS {workload}")
        except CheckFailed as exc:
            failures.append(workload)
            print(f"FAIL {workload}: {exc}")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run("ex41-check", 0, cwd=Path(bare))
        if code == 0 or (lines and lines[-1].startswith("{")):
            failures.append("bare-checkout")
            print("FAIL bare-checkout: run.py succeeded without the program sources")
        else:
            print("PASS bare-checkout")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
