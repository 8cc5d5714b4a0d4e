#!/usr/bin/env python3
"""Plant each known decode-path defect in a fresh copy of the repo and count the tests it fails.

    python3 tools/planted_defects.py

Each entry of DEFECTS below is one defect: a name and the (file, old, new)
text edits that plant it.  For each, the script extracts `git archive HEAD`
into a directory of its own under the temporary directory ($TMPDIR),
checks that every `old` text occurs exactly once, applies the edits and
runs

    PYTHONPATH=src python -m pytest -vv -rfE -p no:cacheprovider tests/

there, one copy after another (`-vv` keeps each failure's message whole
in the summary).  The copy has no `.hypothesis/` directory, so every run
starts with an empty hypothesis database.  A first run of the unedited
copy must exit 0, so that each count below it is the defect's own; a
defect's run must exit 0 or 1 (tests ran, some failed).  The script
prints, for the unedited copy and every defect, the failing-test count
and pytest's short summary lines (`FAILED id - message`), and exits 1
when an `old` text is missing or repeated, when the unedited copy does not
pass, when pytest exits with any other status or outlasts its timeout, or
when a defect fails no test.

A change that deletes the structure a defect targets drops the entry and
says so; a change that adds a structure adds one (ROADMAP, "Planted
defects").
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

PIPELINE, SAMPLER, KERNELS = "src/moi/pipeline.py", "src/moi/sampler.py", "src/moi/kernels.py"

DEFECTS = [
    ("a row bound to its neighbour's slot", [
        (PIPELINE, "for state, k, v in zip(*held):",
         "for state, k, v in zip(held[0][1:] + held[0][:1], *held[1:]):"),
    ]),
    ("buffer not restacked when the feeding set shrinks", [
        (PIPELINE, "if len(states) != len(old):", "if not old:"),
    ]),
    ("rows of a batch drawing in turn from one shared PCG64 stream", [
        (PIPELINE, "    last, draws = cfg.max_tokens - 1, cfg.draws\n",
         "    last, draws = cfg.max_tokens - 1, cfg.draws\n    shared = make_rng(cfg.sampler.seed)\n"),
        (PIPELINE, "pos = sample_position(dist, draws[step])",
         "pos = sample_position(dist, draws[step] if len(rows) == 1 else shared.random())"),
    ]),
    ("a one-ulp change to the K row that decode_rows writes", [
        (KERNELS, "k[:, :, pos] = qkv[:, 1, :, :, 0]", "k[:, :, pos] = np.nextafter(qkv[:, 1, :, :, 0], np.inf)"),
    ]),
    ("a lone forward that writes to a copy of its state", [
        (PIPELINE, "model.forward_step(feeding[0].state, fed[0])",
         "model.forward_step(feeding[0].state.fork(feeding[0].state.capacity), fed[0])"),
    ]),
    ("mixing in support order", [
        ("src/moi/embedding.py", 'order = ids.argsort(kind="stable")', "order = np.arange(ids.size)"),
    ]),
    ("a request capacity one too large", [
        (PIPELINE, "return len(prompt) + new_tokens - 1", "return len(prompt) + new_tokens"),
    ]),
    ("a request capacity one too small", [
        (PIPELINE, "return len(prompt) + new_tokens - 1", "return len(prompt) + new_tokens - 2"),
    ]),
    ("sampling step k with draw k + 1", [
        (PIPELINE, "random(self.max_tokens)", "random(self.max_tokens + 1)[1:]"),
    ]),
    ("the row form handing row i the distribution of row (i + 1) % B", [
        (SAMPLER, "    return dists\n", "    return dists[1:] + dists[:1]\n"),
    ]),
    ("a prefetch handoff keyed without the seed", [
        (PIPELINE, "result = prefix._pending.pop(cfg, None)",
         "result = prefix._pending.pop(GenConfig(cfg.mix, SamplerConfig(cfg.sampler.temperature, "
         "cfg.sampler.top_p), cfg.max_tokens, cfg.stop_tokens), None)"),
        (PIPELINE, "p._pending[cfg] = ",
         "p._pending[GenConfig(cfg.mix, SamplerConfig(cfg.sampler.temperature, cfg.sampler.top_p), "
         "cfg.max_tokens, cfg.stop_tokens)] = "),
    ]),
    ("a first record that shares the Prefill's cached probs", [
        (PIPELINE, "return TruncatedDistribution(ids, probs.copy()), entropy",
         "return TruncatedDistribution(ids, probs), entropy"),
    ]),
    ("a decode row given its neighbour's records by the shared set-up", [
        (PIPELINE, "for p, row in zip(prefixes, rows)]", "for p, row in zip(prefixes, rows[1:] + rows[:1])]"),
    ]),
    ("the row form's stable re-sort of a tied row skipped", [
        (SAMPLER, 'order[i] = np.negative(e[i]).argsort(kind="stable")', "order[i] = order[i]"),
    ]),
    ("the row form's tie mask with < in place of <=", [
        (SAMPLER, "(np.arange(1, head.shape[1]) <= keeps[:, None])", "(np.arange(1, head.shape[1]) < keeps[:, None])"),
    ]),
    ("the row form's zero-tail trim one entry short", [
        (SAMPLER, "np.add.reduce(e > 0.0, axis=1))", "np.add.reduce(e > 0.0, axis=1) + 1)"),
    ]),
    ("1-D re-sort skipped", [
        (SAMPLER, 'order = np.negative(p).argsort(kind="stable")', "order = order"),
    ]),
    ("1-D tie window one short", [
        (SAMPLER, "head = sorted_p[: keep + 1]", "head = sorted_p[:keep]"),
    ]),
    ("a reference row fed its neighbour's argmax", [
        (PIPELINE, "[table[ref[-1]] for _, _, ref in rows]", "[table[ref[-1]] for _, _, ref in rows[1:] + rows[:1]]"),
    ]),
    ("a Prefill snapshot taken one position late", [
        (PIPELINE, "        for (prompt, state, ref), row in zip(rows, logits):\n"
                   "            out[prompt] = ref, Prefill(model, prompt, state.fork(n), row.copy())\n", ""),
        (PIPELINE, "[table[ref[-1]] for _, _, ref in rows], held)\n",
         "[table[ref[-1]] for _, _, ref in rows], held)\n"
         "            for (prompt, state, ref), row in zip(rows, logits if step == 0 else ()):\n"
         "                out[prompt] = ref, Prefill(model, prompt, state.fork(n), row.copy())\n"),
    ]),
    ("a reference not ended at its stop token", [
        (PIPELINE, "if ref[-1] not in stop_tokens and step < budget - 1]", "if step < budget - 1]"),
    ]),
]


def planted(texts: dict, edits) -> dict:
    """`texts` (path -> text) with `edits` applied; ValueError unless each
    `old` occurs exactly once when its edit is applied."""
    texts = dict(texts)
    for rel, old, new in edits:
        if texts[rel].count(old) != 1:
            raise ValueError(f"{rel}: expected one occurrence of {old!r}, found {texts[rel].count(old)}")
        texts[rel] = texts[rel].replace(old, new)
    return texts


TIMEOUT_S = 1800  # one full run of tests/ takes a few minutes


def run(repo: Path, workdir: Path, index: int, edits) -> tuple[int, int, list[str], str]:
    """pytest's exit status, the failing-test count, the short summary's
    lines and the last output line of `tests/` in a copy of HEAD with
    `edits` planted; the copy is removed afterwards."""
    root = workdir / f"defect-{index:02d}"
    root.mkdir()
    try:
        archive = subprocess.run(["git", "archive", "HEAD"], cwd=repo, capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(root)], input=archive, check=True)
        texts = {rel: (root / rel).read_text() for rel, _, _ in edits}
        for rel, text in planted(texts, edits).items():
            (root / rel).write_text(text)
        env = dict(os.environ, PYTHONPATH="src")
        cmd = [sys.executable, "-m", "pytest", "-vv", "-rfE", "-p", "no:cacheprovider", "tests/"]
        try:
            proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return -1, 0, [], f"timed out after {TIMEOUT_S} s"
    finally:
        shutil.rmtree(root)
    lines = proc.stdout.strip().splitlines()
    # a failure's message may run over several lines; the last line is the totals
    start = next((i + 1 for i, line in enumerate(lines) if "short test summary info" in line), len(lines))
    failures = lines[start:-1]
    count = sum(bool(re.match(r"(FAILED|ERROR) ", line)) for line in failures)
    return proc.returncode, count, failures, lines[-1] if lines else proc.stderr.strip()[-200:]


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    defects = [("none (the unedited copy)", [])] + DEFECTS
    # every edit must apply before any copy runs
    for name, edits in defects:
        texts = {rel: subprocess.run(["git", "show", f"HEAD:{rel}"], cwd=repo, capture_output=True,
                                     text=True, check=True).stdout for rel, _, _ in edits}
        try:
            planted(texts, edits)
        except ValueError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
    workdir = Path(tempfile.mkdtemp(prefix="planted-"))
    bad = False
    try:
        for index, (name, edits) in enumerate(defects):
            status, count, failures, summary = run(repo, workdir, index, edits)
            bad |= (status != 0) if not edits else (status not in (0, 1) or count == 0)
            print(f"{count:3d}  {name}  [exit {status}: {summary}]", flush=True)
            for line in failures:
                print(f"       {line}", flush=True)
    finally:
        workdir.rmdir()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
