#!/usr/bin/env python3
"""Flat sampling profile of a release binary, with nothing but ptrace.

    scripts/sample_profile.py [--hz 1000] [--top 20] [--callers] [--by-crate]
                              [--frames [--only SYM] [--focus SYM]] -- <binary> [args...]

The container has no perf and no gdb, so this is the profiler DESIGN.md
§4.5 quotes: it starts the command, seizes it with ptrace, and `--hz`
times a second interrupts it, reads the program counter and lets it go
on. Each sample is charged to the symbol (`nm -C`) whose address range
holds the program counter — self time only; inlined callees count as
their caller, so the symbols that appear are the ones the optimiser left
out of line. Only the main thread is sampled: profile single-threaded
runs (`perf run`, `RIO_THREADS=1`).

A sample outside the binary (libc's `memcpy` and `malloc`, a fifth of every
profile) is charged to its mapping, `[libc.so.6]` — which says nothing about
who is copying. With `--callers` it is charged instead to the function in
the binary that the first return address on the stack points into, printed
as `name <- [libc.so.6]`: release builds keep no frame pointers, so "first
return address" is the first stack word that points into the binary's
executable mapping — a heuristic (a stale word can be hit), good enough to
tell one hot caller from a dozen lukewarm ones.

`--by-crate` adds one line per layer below the symbols: the samples of
each `rio_*` crate (and of the binary's own crate), one line for libc and
one for everything else. A symbol of no such crate — std's out-of-line
generic code: `BTreeMap::insert`, `Vec::clone` — is charged to the crate
of the first stack word that points into a crate's symbol, by the same
heuristic as `--callers`; so the B-tree work of memTest's model counts
as `rio_workloads`, and "other" is what no crate on the stack claims.

`--frames` walks the saved-`rbp` chain at every sample and prints each
symbol's inclusive share (samples with the symbol anywhere on the stack,
each symbol counted once per sample) beside its self share, sorted by
inclusive. A sample outside the binary takes its caller from the
`--callers` heuristic and walks the chain from there. The walk needs frame
pointers, which release builds omit, so profile a build of its own:

    CARGO_TARGET_DIR=target-fp RUSTFLAGS="-C force-frame-pointers=yes" \
        cargo build --release --manifest-path benchmark/Cargo.toml

`--only SYM` keeps only the samples with a symbol containing `SYM` on the
stack (`--only perf::run::set_up` profiles the benchmark's set-up alone),
and `--focus SYM` adds `SYM`'s callees: the frame just below it on each
such stack, inclusive, with `(self)` for the samples it was running.

The header also prints the child's user and system CPU seconds and its
minor page faults (`os.wait4`'s rusage), because a sample cannot show
what a page fault costs: the fault is taken inside whatever touched the
fresh page, so its kernel time is charged to that instruction — mostly
libc's `memcpy` filling a newly allocated buffer. That is how the warm
reboot's fault cost once read as "libc memcpy / malloc, no caller above
3 %": ~5,000 minor faults per `recovery` boot, a quarter of the run in
system time. A high system share or fault count says to look at
allocation churn, not at the copying code the profile names.
"""

import argparse
import bisect
import collections
import ctypes
import os
import re
import struct
import subprocess
import sys
import time

PTRACE_CONT, PTRACE_GETREGS, PTRACE_SEIZE, PTRACE_INTERRUPT = 7, 12, 0x4206, 0x4207
RBP, RIP, RSP = 4, 16, 19  # indices of rbp, rip and rsp in x86-64 user_regs_struct
STACK_SCAN = 4096  # bytes of stack searched for a return address
FRAME_STACK = 1 << 20  # bytes of stack read for the frame-pointer walk
MAX_FRAMES = 512

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


def binary_mappings(pid, binary):
    """Where the binary is loaded: (load base, (lo, hi) of its executable mapping)."""
    real = os.path.realpath(binary)
    base = text = None
    with open(f"/proc/{pid}/maps") as maps:
        for line in maps:
            fields = line.split()
            if len(fields) < 6 or fields[5] != real:
                continue
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            if int(fields[2], 16) == 0:
                base = lo
            if "x" in fields[1]:
                text = (lo, hi)
    if base is None or text is None:
        raise RuntimeError(f"{real} is not mapped in {pid}")
    return base, text


def mapping(pid, addr):
    """The file mapped at `addr` (libc's memcpy and malloc live out there)."""
    with open(f"/proc/{pid}/maps") as maps:
        for line in maps:
            fields = line.split()
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            if lo <= addr < hi:
                return f"[{os.path.basename(fields[5]) if len(fields) >= 6 else 'anonymous'}]"
    return "[unmapped]"


def return_addresses(pid, rsp, text):
    """The words on the stack that point into `text`, innermost first."""
    try:
        with open(f"/proc/{pid}/mem", "rb") as mem:
            mem.seek(rsp)
            stack = mem.read(STACK_SCAN)
    except OSError:
        return
    for (word,) in struct.iter_unpack("<Q", stack[: len(stack) // 8 * 8]):
        if text[0] <= word < text[1]:
            yield word


def frame_chain(pid, rbp, rsp, text):
    """Return addresses on the saved-`rbp` chain from `rbp`, innermost
    first, for as long as each frame lies on the stack above the last one
    and returns into `text`."""
    if not rsp <= rbp < rsp + FRAME_STACK:
        return []
    try:
        # One read, which stops short at the end of the stack mapping (a
        # buffered read would go on past it and fail).
        fd = os.open(f"/proc/{pid}/mem", os.O_RDONLY)
        try:
            stack = os.pread(fd, FRAME_STACK, rsp)
        finally:
            os.close(fd)
    except OSError:
        return []
    chain = []
    while len(chain) < MAX_FRAMES and rsp <= rbp and rbp - rsp + 16 <= len(stack):
        saved, ret = struct.unpack_from("<QQ", stack, rbp - rsp)
        if not text[0] <= ret < text[1]:
            break
        chain.append(ret)
        if saved <= rbp:
            break
        rbp = saved
    return chain


def crate_pattern(names):
    """Matches the `rio_*` crate, or the binary's own (the one whose
    `main` it is), that a symbol belongs to."""
    own = [m.group(1) for m in map(re.compile(r"^(\w+)::main$").match, names) if m]
    crates = "|".join([r"rio_\w+?"] + own)
    return re.compile(rf"(?<![\w])({crates})::")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--hz", type=int, default=1000, help="samples per second")
    parser.add_argument("--top", type=int, default=20, help="symbols to print")
    parser.add_argument(
        "--callers",
        action="store_true",
        help="charge a sample outside the binary to its first caller inside it",
    )
    parser.add_argument(
        "--by-crate",
        action="store_true",
        help="also sum the samples per rio_* crate, libc and other",
    )
    parser.add_argument(
        "--frames",
        action="store_true",
        help="walk the frame-pointer chain and print inclusive %% beside self %%",
    )
    parser.add_argument(
        "--only", metavar="SYM", help="with --frames: keep only samples with SYM on the stack"
    )
    parser.add_argument("--focus", metavar="SYM", help="with --frames: also print SYM's callees")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- <binary> [args...]")
    args = parser.parse_args()
    hz, top = args.hz, args.top
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command to profile")
    if (args.only or args.focus) and not args.frames:
        parser.error("--only and --focus need --frames")

    addrs, names = symbols(command[0])
    end = os.path.getsize(command[0])  # no mapped address lies past the file
    child = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    pid = child.pid
    ptrace(PTRACE_SEIZE, pid)
    base = None
    regs = (ctypes.c_ulonglong * 27)()
    hits = collections.Counter()
    crates = collections.Counter()
    inclusive = collections.Counter()
    callees = collections.Counter()
    crate_re = crate_pattern(names)

    def crate_of(name):
        m = crate_re.search(name)
        return m.group(1) if m else None

    def symbol_at(addr):
        return names[bisect.bisect_right(addrs, addr - base) - 1]

    def layer_of(name, inside, rsp):
        if not inside:
            return "libc" if name.endswith("[libc.so.6]") else "other"
        callers = (crate_of(symbol_at(a)) for a in return_addresses(pid, rsp, text))
        return crate_of(name) or next(filter(None, callers), "other")

    usage = None  # the child's rusage, once it has exited
    while True:
        time.sleep(1.0 / hz)
        try:
            ptrace(PTRACE_INTERRUPT, pid)
        except OSError:
            break
        _, status, rusage = os.wait4(pid, 0)
        if not os.WIFSTOPPED(status):
            usage = rusage
            break
        if base is None:
            base, text = binary_mappings(pid, command[0])
        ptrace(PTRACE_GETREGS, pid, ctypes.byref(regs))
        at = bisect.bisect_right(addrs, regs[RIP] - base) - 1
        inside = base <= regs[RIP] < base + end and at >= 0
        caller = None
        if inside:
            name = names[at]
        else:
            name = mapping(pid, regs[RIP])
            if args.callers or args.frames:
                caller = next(return_addresses(pid, regs[RSP], text), None)
            if caller is not None and args.callers:
                name = f"{symbol_at(caller)} <- {name}"
        if args.frames:
            # The stack, innermost first: the sampled symbol, the libc
            # sample's heuristic caller, then the frame-pointer chain.
            stack = [name]
            if caller is not None:
                stack.append(symbol_at(caller))
            stack += [symbol_at(a) for a in frame_chain(pid, regs[RBP], regs[RSP], text)]
            if args.only and not any(args.only in s for s in stack):
                ptrace(PTRACE_CONT, pid)
                continue
            inclusive.update(set(stack))
            if args.focus:
                hit = next((i for i, s in enumerate(stack) if args.focus in s), None)
                if hit is not None:
                    callees[stack[hit - 1] if hit > 0 else "(self)"] += 1
        hits[name] += 1
        if args.by_crate:
            crates[layer_of(name, inside, regs[RSP])] += 1
        ptrace(PTRACE_CONT, pid)
    if usage is None:
        _, _, usage = os.wait4(pid, 0)
    child.wait()

    total = max(sum(hits.values()), 1)
    kept = f" with {args.only} on the stack" if args.only else ""
    print(f"{sum(hits.values())} samples{kept} at {hz} Hz: {' '.join(command)}")
    print(
        f"user {usage.ru_utime:.2f} s, system {usage.ru_stime:.2f} s, "
        f"{usage.ru_minflt} minor faults"
    )
    if args.frames:
        print("  self %    incl %  symbol")
        for name, n in inclusive.most_common(top):
            print(f"{100.0 * hits[name] / total:6.2f} %  {100.0 * n / total:6.2f} %  {name}")
    else:
        for name, n in hits.most_common(top):
            print(f"{100.0 * n / total:6.2f} %  {n:7d}  {name}")
    if args.focus:
        print(f"callees of {args.focus} (inclusive):")
        for name, n in callees.most_common(top):
            print(f"{100.0 * n / total:6.2f} %  {n:7d}  {name}")
    if args.by_crate:
        print("by crate:")
        layers = [c for c, _ in crates.most_common() if c not in ("libc", "other")]
        for crate in layers + ["libc", "other"]:
            print(f"{100.0 * crates[crate] / total:6.2f} %  {crates[crate]:7d}  {crate}")


if __name__ == "__main__":
    main()
