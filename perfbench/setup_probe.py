"""Time what every ``stvsim`` command pays before its first sweep, in a fresh interpreter.

    python3 perfbench/setup_probe.py <election.stv> [<election.stv> ...]

Prints one JSON object: ``import_s`` (``import stvsim``), ``read_s``
(``read_election_file`` of every given file) and the ballots read from
each.  The benchmark runs it as a child process several times per run.
"""
import json
import sys
import time
from pathlib import Path


def main(paths: list[str]) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import stvsim

    imported = time.perf_counter()
    elections = [stvsim.read_election_file(path) for path in paths]
    read = time.perf_counter()
    print(json.dumps({
        "import_s": imported - start,
        "read_s": read - imported,
        "ballots": [election.total_ballots for election in elections],
        "module": stvsim.__file__,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
