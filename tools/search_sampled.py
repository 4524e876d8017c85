"""Offline search for SAMPLED_LENGTHS entries (n=14..20).

Finds (length, seed) pairs whose generated sequence passes exactly the
certification that tests/test_uxs.py::TestSampledCertification applies:
all standard family graphs of sizes 2..n plus 25 random connected
graphs of size n.  Mirrors tools/find_uxs.py but for the sampled tier.
"""
import pathlib
import sys

# The checkout's sources, from any working directory.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.explore.uxs import generate_sequence, is_universal_for  # noqa: E402
from repro.graphs import family_for_size, random_connected_graph  # noqa: E402


def certify(n: int, length: int, seed: int) -> bool:
    seq = generate_sequence(length, seed)
    for size in range(2, n + 1):
        for _name, g in family_for_size(size):
            if not is_universal_for(g, seq):
                return False
    for s in range(25):
        if not is_universal_for(random_connected_graph(n, seed=s), seq):
            return False
    return True


def main() -> None:
    targets = {14: 482, 16: 630, 18: 810, 20: 1000}
    for n, base in targets.items():
        found = None
        for length in (base, int(base * 1.15), int(base * 1.35)):
            for offset in range(200):
                seed = 900_000 * n + offset
                if certify(n, length, seed):
                    found = (length, seed)
                    break
            if found:
                break
        print(f"{n}: {found}", flush=True)


if __name__ == "__main__":
    main()
