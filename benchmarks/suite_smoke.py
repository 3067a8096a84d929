"""CI smoke test: suite sink outputs are transport-independent.

Runs the committed CI-sized spec (``benchmarks/suites/ci.json``) three
times — through a plain private session, through an in-process tenant of a
campaign service (whose campaign batches measure on the service's machine),
and through a campaign service behind a loopback-TCP socket transport — into
three fresh artifact directories, then requires every sink file (CSV tables,
JSONL tables, figure-artifact JSON) to be **byte-identical** to the plain
run's.  The manifest is excluded from the comparison (it legitimately
records different measurement attribution: the service's engine measures on
the server side).

This pins the suite subsystem's core reproducibility claim: the execution
substrate (backend, service, wire) never leaks into the results.

Usage::

    PYTHONPATH=src python benchmarks/suite_smoke.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent / "suites" / "ci.json"

#: Files excluded from the byte-identity comparison.
EXCLUDED = {"manifest.json"}


def sink_files(directory: Path) -> dict[str, bytes]:
    """Relative path -> content for every sink file under ``directory``."""
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file() and path.name not in EXCLUDED
    }


def run_suite(spec, artifacts: str, connect: str | None = None, service=None):
    from repro.runtime.store import MemoryStore
    from repro.suite import SuiteRun

    run = SuiteRun(
        spec, store=MemoryStore(), artifacts=artifacts, connect=connect, service=service
    )
    result = run.run()
    if not result.ok:
        raise SystemExit(
            f"suite smoke: run failed units: {[r.unit_id for r in result.failed]}"
        )
    if not result.completed:
        raise SystemExit("suite smoke: vacuous run (no unit completed)")
    return result


def main() -> int:
    from repro.runtime.service import CampaignService
    from repro.runtime.transport import serve_tcp
    from repro.suite import load_spec

    spec = load_spec(str(SPEC_PATH))
    workdir = Path(tempfile.mkdtemp(prefix="repro-suite-smoke-"))
    try:
        plain_dir = workdir / "plain"
        tenant_dir = workdir / "tenant"
        tcp_dir = workdir / "tcp"

        plain = run_suite(spec, str(plain_dir))
        with CampaignService(workers=2) as service:
            tenant = run_suite(spec, str(tenant_dir), service=service)
        with CampaignService(workers=2) as service:
            with serve_tcp(service) as server:
                remote = run_suite(spec, str(tcp_dir), connect=server.url)

        plain_files = sink_files(plain_dir)
        for label, directory in (("tenant", tenant_dir), ("tcp", tcp_dir)):
            files = sink_files(directory)
            if set(plain_files) != set(files):
                only_plain = sorted(set(plain_files) - set(files))
                only_other = sorted(set(files) - set(plain_files))
                raise SystemExit(
                    f"suite smoke: sink file sets differ "
                    f"(plain-only: {only_plain}, {label}-only: {only_other})"
                )
            different = [name for name, blob in plain_files.items() if files[name] != blob]
            if different:
                raise SystemExit(
                    f"suite smoke: sink outputs differ between the plain and "
                    f"{label} sessions: {different}"
                )

        print(
            f"suite smoke OK: {len(plain_files)} sink files byte-identical "
            f"between the plain session ({plain.total_measured} measurements), "
            f"the in-process service tenant ({tenant.total_measured} client-side "
            f"measurements) and the loopback-TCP service session "
            f"({remote.total_measured} client-side measurements)"
        )
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
