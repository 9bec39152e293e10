#!/usr/bin/env python3
"""Frame-pointer sampling profiler for Linux x86-64 processes, no `perf`.

It stops the target's main thread with ptrace at a fixed rate, reads its
instruction pointer, and walks the saved frame pointers up the stack. At
the end it maps every address to function, file and line with
`addr2line -a -f -i -C`, inlined frames included, and prints:

* self samples by source line (the innermost inlined frame of the leaf),
* self samples by instruction (file addresses, to read in `objdump -d`),
* inclusive samples by function (every frame on the walked stack).

Build the target with frame pointers and line tables, or the walk stops
after the leaf and the lines read `??:0`:

    RUSTFLAGS="-C force-frame-pointers=yes" \\
    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \\
    CARGO_PROFILE_RELEASE_STRIP=none \\
    cargo build --release ...

Usage:

    fpsample.py [--runs R] [--hz N] -- COMMAND [ARG...]

It starts COMMAND R times (default 1), samples each run at N Hz
(default 500) until it exits or `MAX_SECONDS` pass, merges the samples
and prints the top `TOP` rows of each table. Only the main thread is
sampled, and the walk stops after `DEPTH` frames. A runtime address inside the executable becomes a file address
by subtracting the start of the executable's mapping at file offset 0
(for a position-independent executable; nothing is subtracted for a
fixed-address one). Addresses in shared libraries are counted as
`[outside the executable]`.
"""

import argparse
import collections
import ctypes
import os
import signal
import subprocess
import sys
import time

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_DETACH = 17
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128
WALL = 0x40000000
# Indices into `struct user_regs_struct` on x86-64.
REG_RBP, REG_RIP, NREGS = 4, 16, 27
OUTSIDE = -1
MAX_SECONDS, DEPTH, TOP = 60, 64, 25

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p]


def ptrace(req, pid, addr=0, data=0):
    if libc.ptrace(req, pid, addr, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, f"ptrace({req:#x}, {pid}): {os.strerror(err)}")


def executable_layout(pid):
    """The executable's path, the value to subtract from its runtime
    addresses, and the address ranges it is mapped at. Waits up to a
    second for the mappings: a just-started process may not have them
    yet."""
    exe = os.readlink(f"/proc/{pid}/exe")
    with open(exe, "rb") as f:
        position_independent = int.from_bytes(f.read(18)[16:18], "little") == 3
    for _ in range(1000):
        base, ranges = None, []
        with open(f"/proc/{pid}/maps") as maps:
            for line in maps:
                fields = line.split()
                if len(fields) < 6 or fields[5] != exe:
                    continue
                start, end = (int(x, 16) for x in fields[0].split("-"))
                ranges.append((start, end))
                if int(fields[2], 16) == 0 and base is None:
                    base = start
        if base is not None:
            return exe, base if position_independent else 0, ranges
        time.sleep(0.001)
    raise SystemExit(f"fpsample: no offset-0 mapping of {exe} in /proc/{pid}/maps")


def stop(pid):
    """Stops the seized thread. Returns False once the process has exited."""
    try:
        ptrace(PTRACE_INTERRUPT, pid)
    except ProcessLookupError:
        return False
    while True:
        _, status = os.waitpid(pid, WALL)
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            return False
        sig = os.WSTOPSIG(status)
        if sig == signal.SIGTRAP and status >> 16 == PTRACE_EVENT_STOP:
            return True
        # A signal meant for the target: deliver it and wait for our stop.
        ptrace(PTRACE_CONT, pid, 0, sig)


def walk(pid, mem):
    """The stopped thread's stack, leaf first, as runtime addresses."""
    regs = (ctypes.c_ulong * NREGS)()
    ptrace(PTRACE_GETREGS, pid, 0, ctypes.addressof(regs))
    stack, fp = [regs[REG_RIP]], regs[REG_RBP]
    for _ in range(DEPTH):
        if fp == 0 or fp % 8:
            break
        try:
            frame = os.pread(mem, 16, fp)
        except OSError:
            break
        if len(frame) < 16:
            break
        next_fp = int.from_bytes(frame[:8], "little")
        ret = int.from_bytes(frame[8:], "little")
        if ret == 0:
            break
        # Point into the call instruction, not the one after it.
        stack.append(ret - 1)
        if next_fp <= fp:
            break
        fp = next_fp
    return stack


def sample(pid, hz, stacks):
    """Samples `pid` into `stacks` (keyed by tuples of file addresses)
    until it exits or `MAX_SECONDS` pass. Returns the executable's path."""
    exe, base, ranges = executable_layout(pid)
    to_file = lambda a: a - base if any(s <= a < e for s, e in ranges) else OUTSIDE
    ptrace(PTRACE_SEIZE, pid)
    mem = os.open(f"/proc/{pid}/mem", os.O_RDONLY)
    end = time.monotonic() + MAX_SECONDS
    try:
        while time.monotonic() < end:
            time.sleep(1 / hz)
            if not stop(pid):
                break
            stacks[tuple(to_file(a) for a in walk(pid, mem))] += 1
            ptrace(PTRACE_CONT, pid)
    finally:
        os.close(mem)
        try:
            ptrace(PTRACE_DETACH, pid)
        except OSError:
            pass
    return exe


def symbolize(exe, addrs):
    """Maps each file address to its inline chain, innermost first, as
    (function, file:line) pairs."""
    addrs = sorted(a for a in addrs if a != OUTSIDE)
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", exe],
        input="".join(f"{a:#x}\n" for a in addrs),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    result = {OUTSIDE: [("[outside the executable]", "??:0")]}
    chain, lines = None, iter(out)
    for line in lines:
        if line.startswith("0x"):
            chain = result.setdefault(int(line, 16), [])
            continue
        loc = next(lines, "??:0").split(" (discriminator")[0]
        chain.append((line, "/".join(loc.split("/")[-3:])))
    return result


def report(stacks, exe):
    total = sum(stacks.values())
    if not total:
        raise SystemExit("fpsample: no samples")
    syms = symbolize(exe, {a for s in stacks for a in s})
    unknown = [("??", "??:0")]
    by_addr, by_line, inclusive = (collections.Counter() for _ in range(3))
    for stack, n in stacks.items():
        by_addr[stack[0]] += n
        by_line[syms.get(stack[0], unknown)[0]] += n
        for func in {f for a in stack if a != OUTSIDE for f, _ in syms.get(a, unknown)}:
            inclusive[func] += n
    pct = lambda n: f"{100 * n / total:5.1f}%"
    print(f"{total} samples of {exe}")
    print("\nself, by line:")
    for (func, loc), n in by_line.most_common(TOP):
        print(f"  {pct(n)}  {loc}  {func[:100]}")
    print("\nself, by instruction (a stalled load shows on the next one):")
    for a, n in by_addr.most_common(TOP):
        chain = syms.get(a, unknown)
        # The innermost frame's line, and the outermost frame: the symbol
        # `objdump -d` shows the instruction in.
        print(f"  {pct(n)}  {a:#x}  {chain[0][1]}  {chain[-1][0][:80]}")
    print("\ninclusive, by function (code outside the executable excluded):")
    for func, n in inclusive.most_common(TOP):
        print(f"  {pct(n)}  {func[:110]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--hz", type=float, default=500)
    ap.add_argument("command", nargs="+")
    args = ap.parse_args()
    stacks = collections.Counter()
    for _ in range(args.runs):
        child = subprocess.Popen(args.command, stdout=subprocess.DEVNULL)
        exe = sample(child.pid, args.hz, stacks)
        child.wait()
    report(stacks, exe)

if __name__ == "__main__":
    sys.exit(main())
