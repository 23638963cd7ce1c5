"""Run one nfcap command in a fresh interpreter and record its cost.

    python3 perfbench/child.py RECORD [--trace PASS_ID] -- NFCAP_ARG...
    python3 perfbench/child.py RECORD --import-only

Times ``import nfcap.cli`` and ``nfcap.cli.main(NFCAP_ARG...)`` apart and
writes them, the exit code and the path nfcap was imported from to
RECORD as JSON. With ``--trace`` the spans of spans.py are recorded too
and written to the same file when the command ends. The command's own
output goes to this process's stdout and stderr.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    record_path, options = argv[0], argv[1:]
    start = time.perf_counter()
    import nfcap.cli
    record = {"import_s": time.perf_counter() - start,
              "nfcap_file": nfcap.cli.__file__}
    if options == ["--import-only"]:
        _write(record_path, record)
        return 0

    tracer = None
    if options[0] == "--trace":
        import spans

        tracer = spans.Tracer(int(options[1]))
        tracer.install()
        options = options[2:]
    cli_args = options[1:]  # after "--"

    code = None
    start = time.perf_counter()
    try:
        if tracer is None:
            code = nfcap.cli.main(cli_args)
        else:
            code = tracer.call("cli.main", nfcap.cli.main, (cli_args,), {})
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        record["main_s"] = time.perf_counter() - start
        record["exit_code"] = code
        if tracer is not None:
            record["trace"] = tracer.dump()
        sys.stdout.flush()
        _write(record_path, record)
    return code


def _write(path: str, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
