#!/usr/bin/env python3
"""Flat sampling profile of a release binary, with nothing but ptrace.

    scripts/sample_profile.py [--hz 1000] [--top 20] -- <binary> [args...]

The container has no perf and no gdb, so this is the profiler DESIGN.md
§4.5 quotes: it starts the command, seizes it with ptrace, and `--hz`
times a second interrupts it, reads the program counter and lets it go
on. Each sample is charged to the symbol (`nm -C`) whose address range
holds the program counter — self time only; inlined callees count as
their caller, so the symbols that appear are the ones the optimiser left
out of line. Only the main thread is sampled: profile single-threaded
runs (`perf run`, `RIO_THREADS=1`).
"""

import argparse
import bisect
import collections
import ctypes
import os
import subprocess
import sys
import time

PTRACE_CONT, PTRACE_GETREGS, PTRACE_SEIZE, PTRACE_INTERRUPT = 7, 12, 0x4206, 0x4207
RIP = 16  # index of rip in x86-64 user_regs_struct

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def ptrace(request, pid, data=None):
    if libc.ptrace(request, pid, None, data) < 0:
        raise OSError(ctypes.get_errno(), f"ptrace({request:#x})")


def symbols(binary):
    out = subprocess.run(
        ["nm", "-C", "-n", "--defined-only", binary], capture_output=True, text=True, check=True
    ).stdout
    table = []
    for line in out.splitlines():
        addr, kind, name = line.split(" ", 2)
        if kind in "tTwW":
            table.append((int(addr, 16), name))
    return [a for a, _ in table], [n for _, n in table]


def load_base(pid, binary):
    real = os.path.realpath(binary)
    with open(f"/proc/{pid}/maps") as maps:
        for line in maps:
            fields = line.split()
            if len(fields) >= 6 and fields[5] == real and int(fields[2], 16) == 0:
                return int(fields[0].split("-")[0], 16)
    raise RuntimeError(f"{real} is not mapped in {pid}")


def mapping(pid, addr):
    """The file mapped at `addr` (libc's memcpy and malloc live out there)."""
    with open(f"/proc/{pid}/maps") as maps:
        for line in maps:
            fields = line.split()
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            if lo <= addr < hi:
                return f"[{os.path.basename(fields[5]) if len(fields) >= 6 else 'anonymous'}]"
    return "[unmapped]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--hz", type=int, default=1000, help="samples per second")
    parser.add_argument("--top", type=int, default=20, help="symbols to print")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- <binary> [args...]")
    args = parser.parse_args()
    hz, top = args.hz, args.top
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command to profile")

    addrs, names = symbols(command[0])
    end = os.path.getsize(command[0])  # no mapped address lies past the file
    child = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    pid = child.pid
    ptrace(PTRACE_SEIZE, pid)
    base = None
    regs = (ctypes.c_ulonglong * 27)()
    hits = collections.Counter()
    while True:
        time.sleep(1.0 / hz)
        try:
            ptrace(PTRACE_INTERRUPT, pid)
        except OSError:
            break
        _, status = os.waitpid(pid, 0)
        if not os.WIFSTOPPED(status):
            break
        if base is None:
            base = load_base(pid, command[0])
        ptrace(PTRACE_GETREGS, pid, ctypes.byref(regs))
        at = bisect.bisect_right(addrs, regs[RIP] - base) - 1
        inside = base <= regs[RIP] < base + end and at >= 0
        hits[names[at] if inside else mapping(pid, regs[RIP])] += 1
        ptrace(PTRACE_CONT, pid)
    child.wait()

    total = sum(hits.values())
    print(f"{total} samples at {hz} Hz: {' '.join(command)}")
    for name, n in hits.most_common(top):
        print(f"{100.0 * n / total:6.2f} %  {n:7d}  {name}")


if __name__ == "__main__":
    main()
