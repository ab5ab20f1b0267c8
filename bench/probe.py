"""CPU speed probe, run on the same CPU as each measured child.

Prints ``ready`` once warmed up, then repeats a fixed unit of work until it
receives SIGUSR1, and prints the units it completed per CPU second it used.
The unit mixes what seqbell spends its time on: small complex numpy
products and Python number formatting.
"""

import signal
import sys
import time

import numpy as np

A = np.array([[0, 1], [1, 0]], dtype=complex)
B = np.eye(4, dtype=complex)


def unit() -> float:
    total = 0.0
    for i in range(50):
        total += float(np.trace(np.kron(A, B)).real)
        total += len(f"{i * 0.1:.12g}")
    return total


def main() -> int:
    stop = []
    signal.signal(signal.SIGUSR1, lambda *_: stop.append(True))
    unit()
    print("ready", flush=True)
    done = 0
    first = last = time.process_time()
    while not stop:
        unit()
        done += 1
        last = time.process_time()
    print(repr(done / (last - first)) if done else "0", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
