"""Bit-reproducibility across interpreter hash seeds.

The paper's evaluation averages 10 networks × 100 tasks; our claim is that
every one of those runs replays identically from the master seed.  That
claim dies silently if any routing decision iterates a set (see reprolint
rule R003), because ``PYTHONHASHSEED`` then reorders destinations between
runs.  This regression runs one Figure-11-style scenario — same network,
same tasks, full traces — in two fresh interpreters with different hash
seeds and asserts the traces are identical bit for bit.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

_SCENARIO = """
import hashlib, json
from repro.engine import EngineConfig, run_task
from repro.experiments.config import PaperConfig
from repro.experiments.sweep import make_network
from repro.sessions.workload import generate_tasks
from repro.routing import GMPProtocol, PBMProtocol, SMTProtocol
from repro.simkit.rng import RandomStreams

config = PaperConfig(node_count=350)
network = make_network(config, network_index=0)
rng = RandomStreams(config.master_seed).stream("workload", 0)
tasks = generate_tasks(network, task_count=2, group_size=8, rng=rng)

payload = []
for protocol in (GMPProtocol(), PBMProtocol(lam=0.3), SMTProtocol()):
    for task in tasks:
        result = run_task(
            network,
            protocol,
            task.source_id,
            task.destination_ids,
            config=EngineConfig(collect_traces=True),
            task_id=task.task_id,
        )
        frames = [
            [
                frame.sender_id,
                frame.transmissions_charged,
                [
                    [c.receiver_id, list(c.destination_ids), c.hop_count, c.in_perimeter_mode]
                    for c in frame.copies
                ],
            ]
            for frame in result.trace.frames
        ]
        payload.append(
            [
                protocol.name,
                task.task_id,
                result.transmissions,
                round(result.energy_joules, 12),
                sorted(result.delivered_hops.items()),
                frames,
            ]
        )
print(hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest())
"""


def _run_scenario(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-c", _SCENARIO],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        check=True,
    )
    return completed.stdout.strip()


def test_traces_identical_across_hash_seeds():
    digest_a = _run_scenario("0")
    digest_b = _run_scenario("1")
    assert len(digest_a) == 64
    assert digest_a == digest_b, (
        "routing traces depend on PYTHONHASHSEED — some decision still "
        "iterates an unordered set or dict view"
    )
