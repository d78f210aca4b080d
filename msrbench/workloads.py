"""The three msrbench workloads.

Each workload is a closed loop with one client: an op is issued only after
the previous one has finished. `params(i)` draws op i's inputs from the
workload seed alone, so one seed always yields the same op sequence; `run`
is the timed part, and `check` inspects its output afterwards and returns
a failure description or None.

Every call into msrlab goes through a module attribute (`msrlab.cli.main`,
`msrlab.repair_node`, ...) at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from pathlib import Path

import msrlab
import msrlab.cli

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_SWEEP = BENCH_DIR / "golden" / "sweep.txt"
# The invariant dimension after all k members of the decay family, the same
# along every order. It is stored rather than computed in set-up, because
# computing it eliminates the full stacked system an op ends with, which
# would put a decay step into set-up time and peak memory.
GOLDEN_DECAY_FINAL_DIM = BENCH_DIR / "golden" / "decay_final_dim.txt"


def _rng(name: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{i}")


def _cli(argv):
    """msrlab.cli.main in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = msrlab.cli.main(argv)
    return code, buf.getvalue()


class Sweep:
    """The c05 grid through the CLI: construct, verify and bound-check every
    (r, m) with r in {2, 3} and m in 1..4, so ell runs up to 81."""

    name = "sweep"
    cycle = 4  # ops in one traced pass
    r_list = "2,3"
    m_list = "1,2,3,4"
    # Every prime p <= 11 that the construction accepts, with every valid
    # lambda; the printed table is the same for all of them.
    pairs = tuple((p, lam) for p in (3, 5, 7, 11) for lam in range(2, p))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.golden = GOLDEN_SWEEP.read_text(encoding="utf-8")

    def params(self, i: int):
        return _rng(self.name, self.seed, i).choice(self.pairs)

    def run(self, params):
        p, lam = params
        return _cli(["sweep", "--r-list", self.r_list, "--m-list", self.m_list,
                     "--p", str(p), "--lambda", str(lam)])

    def check(self, params, output):
        code, text = output
        if code != 0:
            return f"sweep {params}: exit code {code}"
        if text != self.golden:
            return f"sweep {params}: stdout differs from the golden table"
        return None

    @staticmethod
    def stdout_bytes(output) -> int:
        return len(output[1].encode("utf-8"))

    def close(self):
        pass


_ORDER_LINE = re.compile(r"^decay holds along order \[([0-9, ]*)\]: final dim (\d+)$")


class Decay:
    """The invariant decay trace of the r = 2, m = 4 family (ell = 16,
    k = 12, p = 3) through the CLI, along a seeded member order."""

    name = "decay"
    cycle = 2
    r, m, p = 2, 4, 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        family = msrlab.construct_tensor_family(self.r, self.m, msrlab.FieldSpec(self.p))
        self.k = family.k
        self.ell = family.ell
        self.path = workdir / f"decay-family-{os.getpid()}.json"
        self.path.write_text(json.dumps(family.to_json_dict()), encoding="utf-8")
        self.final_dim = int(GOLDEN_DECAY_FINAL_DIM.read_text(encoding="utf-8"))

    def params(self, i: int):
        return _rng(self.name, self.seed, i).randrange(2**31)

    def run(self, params):
        return _cli(["decay", "--in", str(self.path), "--order", f"random:{params}"])

    def check(self, params, output):
        code, text = output
        if code != 0:
            return f"decay random:{params}: exit code {code}"
        lines = text.splitlines()
        rows = [line.split() for line in lines[1:-1]]
        if len(rows) != self.k + 1 or any(len(row) != 5 for row in rows):
            return f"decay random:{params}: expected {self.k + 1} table rows"
        if any(row[4] != "True" for row in rows):
            return f"decay random:{params}: a row has pass != True"
        if int(rows[0][1]) != self.ell**2:
            return f"decay random:{params}: dims[0] = {rows[0][1]}, expected {self.ell**2}"
        match = _ORDER_LINE.match(lines[-1])
        if match is None:
            return f"decay random:{params}: no order line"
        order = list(range(self.k))
        random.Random(params).shuffle(order)
        printed = [int(part) for part in match.group(1).split(",")]
        if printed != order:
            return f"decay random:{params}: printed order {printed}, expected {order}"
        final = int(match.group(2))
        if final != self.final_dim or int(rows[-1][1]) != self.final_dim:
            return f"decay random:{params}: final dim {final}, expected {self.final_dim}"
        return None

    @staticmethod
    def stdout_bytes(output) -> int:
        return len(output[1].encode("utf-8"))

    def close(self):
        self.path.unlink(missing_ok=True)


class Repair:
    """A library round trip per op: build a constant-repair instance, check
    the scheme at every node, encode random data, repair every systematic
    node, and verify the family extracted from the scheme."""

    name = "repair"
    shapes = ((4, 2, 2), (5, 3, 4), (6, 4, 4), (5, 3, 8), (5, 2, 9), (5, 3, 16), (6, 4, 16))
    cycle = len(shapes)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def params(self, i: int):
        return self.shapes[i % len(self.shapes)], _rng(self.name, self.seed, i).randrange(2**63)

    def run(self, params):
        (n, k, ell), instance_seed = params
        rng = random.Random(instance_seed)
        code, scheme = msrlab.random_constant_instance(n, k, ell, rng)
        reports = [msrlab.check_msr_scheme(code, scheme, m) for m in range(k)]
        data = [[rng.randrange(code.spec.p) for _ in range(ell)] for _ in range(k)]
        blocks = code.encode(data)
        repairs = [msrlab.repair_node(code, scheme, m, blocks) for m in range(k)]
        verified = msrlab.extract_family(code, scheme).verify()
        return reports, blocks, repairs, verified

    def check(self, params, output):
        reports, blocks, repairs, verified = output
        shape = params[0]
        bad = [report.node for report in reports if not report.ok]
        if bad:
            return f"repair {shape}: scheme check fails at nodes {bad}"
        for m, result in enumerate(repairs):
            if result.block != blocks[m]:
                return f"repair {shape}: node {m} recovered a wrong block"
            if not result.bandwidth.meets_cutset:
                return f"repair {shape}: node {m} downloads {result.bandwidth.total} symbols"
        if not verified.ok:
            return f"repair {shape}: extracted family fails verification"
        return None

    @staticmethod
    def stdout_bytes(output) -> int:
        return 0

    def close(self):
        pass


WORKLOADS = {cls.name: cls for cls in (Sweep, Decay, Repair)}
