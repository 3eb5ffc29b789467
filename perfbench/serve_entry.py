"""Serve the flow ruleset from a process of its own (served_flows).

Started by ``workloads.ServerProcess``: compiles the ruleset, opens one
warm-up session (so the lazy table lowering and block program build
are paid before the first client byte, inside set-up time), prints
``READY <port>``, serves until a line or EOF arrives on stdin, then
prints ``DONE <json>`` with the final ServerStats and, with
``--trace``, the self time of every span recorded in this process.
"""

import argparse
import asyncio
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


async def serve(trace: bool) -> dict:
    import repro.serve.server as server_module
    from repro import MatchServer, RulesetMatcher
    from spans import Tracer
    from workloads import flow_rules, scan_wrappers

    matcher = RulesetMatcher(flow_rules())
    warm = matcher.session()
    tracer = Tracer() if trace else None
    if tracer is not None:
        scan_wrappers(tracer, type(warm.scanners[0]))
        tracer.wrap_many([
            (server_module, "format_match", "serve.format_match"),
            (server_module, "parse_command", "serve.parse_command"),
        ])
    server = MatchServer(matcher, port=0)
    await server.start()
    print(f"READY {server.port}", flush=True)
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)
    await server.stop()
    summary = {"stats": server.stats().as_dict()}
    if tracer is not None:
        tracer.uninstall()
        summary["self"] = tracer.self_times()
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    summary = asyncio.run(serve(args.trace))
    print("DONE " + json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
