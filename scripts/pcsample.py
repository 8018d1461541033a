#!/usr/bin/env python3
"""A sampling profiler for hosts without a hardware PMU.

Runs a command and, about every millisecond, stops each *running* thread
of the command and of every process below it with ptrace, reads its
instruction pointer and lets it go on. When the command exits it
symbolizes the samples with `addr2line` and prints, per function and per
source line, the share of samples that landed there:

* "self" counts a sample once, for the innermost (possibly inlined)
  function or line;
* "incl" counts it for every function of the inline chain at that
  address, so a function gets the samples of what was inlined into it.
  It is not a call-graph total: samples in a function that was *called*
  (not inlined) count only for that function.

Usage (offline; python3 and binutils' addr2line only):

    python3 scripts/pcsample.py [--hz 1000] [--top 40] [--exe NAME]
        -- COMMAND [ARGS...]

For readable names and lines, build with line tables, e.g. for the
repository benchmark:

    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \\
    CARGO_TARGET_DIR=/tmp/pcs python3 scripts/pcsample.py --exe perfbench \\
        -- python3 perfbench/run.py --workload rfu_loop --seconds 10 --trace 0

`--exe NAME` keeps only samples whose process runs an executable of that
file name (here it drops the samples of `cargo` and of the python
wrapper). Samples outside any file-backed mapping (JIT code, the vDSO)
are reported by mapping name. Linux x86-64 only. The sampler needs
permission to ptrace its own descendants (the default under Yama
`ptrace_scope` 0 and 1).
"""

import argparse
import collections
import ctypes
import os
import subprocess
import sys
import time

PTRACE_GETREGS = 12
PTRACE_DETACH = 17
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128
WALL = 0x40000000  # waitpid's __WALL: wait for threads too
# Index of `rip` in x86-64 `struct user_regs_struct` (27 registers).
RIP_INDEX = 16

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


class Regs(ctypes.Structure):
    _fields_ = [("r", ctypes.c_ulonglong * 27)]


def ptrace(req, tid, addr=None, data=None):
    return libc.ptrace(req, tid, addr, data)


def descendants(root):
    """The pid of `root` and of every live process below it."""
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children") as f:
                    todo.extend(int(c) for c in f.read().split())
        except OSError:
            pass
    return out


def running_threads(pid):
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return []
    out = []
    for t in tasks:
        try:
            with open(f"/proc/{pid}/task/{t}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # The state follows the parenthesised command name.
        if stat[stat.rindex(")") + 2] == "R":
            out.append(int(t))
    return out


def sample_rip(tid):
    """Stops `tid`, reads its instruction pointer and detaches; None when
    the thread could not be stopped (it exited, or is not ours)."""
    if ptrace(PTRACE_SEIZE, tid) != 0:
        return None
    rip = None
    if ptrace(PTRACE_INTERRUPT, tid) == 0:
        _, status = os.waitpid(tid, WALL)
        if os.WIFSTOPPED(status):
            regs = Regs()
            if ptrace(PTRACE_GETREGS, tid, None, ctypes.byref(regs)) == 0:
                rip = regs.r[RIP_INDEX]
            # A signal that arrived meanwhile is handed back on detach.
            sig = os.WSTOPSIG(status)
            forward = 0 if (status >> 16) == PTRACE_EVENT_STOP else sig
            ptrace(PTRACE_DETACH, tid, None, ctypes.c_void_p(forward))
            return rip
    ptrace(PTRACE_DETACH, tid, None, None)
    return rip


def read_maps(pid):
    maps = []
    try:
        with open(f"/proc/{pid}/maps") as f:
            for line in f:
                parts = line.split(maxsplit=5)
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                path = parts[5].strip() if len(parts) > 5 else "[anon]"
                maps.append((lo, hi, int(parts[2], 16), path))
    except OSError:
        pass
    return maps


def locate(maps, rip):
    for lo, hi, off, path in maps:
        if lo <= rip < hi:
            return path, rip - lo + off
    return "[unmapped]", rip


def file_offset_to_vaddr(path, cache={}):
    """A function mapping a file offset of ELF `path` to its virtual
    address, from the program headers (`objdump -p`)."""
    if path in cache:
        return cache[path]
    segs = []
    try:
        out = subprocess.run(["objdump", "-p", path], capture_output=True, text=True).stdout
        for line in out.splitlines():
            f = line.split()
            if len(f) >= 6 and f[0] == "LOAD" and f[1] == "off":
                segs.append((int(f[2], 16), int(f[4], 16)))
    except OSError:
        pass

    def conv(off):
        best = None
        for foff, vaddr in segs:
            if foff <= off and (best is None or foff > best[0]):
                best = (foff, vaddr)
        return off if best is None else off - best[0] + best[1]

    cache[path] = conv
    return conv


def symbolize(path, offsets):
    """{offset: [(function, "file:line"), ...]} innermost frame first."""
    conv = file_offset_to_vaddr(path)
    offsets = sorted(offsets)
    addrs = "\n".join(hex(conv(o)) for o in offsets) + "\n"
    out = subprocess.run(
        ["addr2line", "-f", "-i", "-C", "-a", "-e", path],
        input=addrs, capture_output=True, text=True,
    ).stdout.splitlines()
    result, frames, i = {}, None, -1
    for line in out:
        if line.startswith("0x") and all(c in "0123456789abcdefx" for c in line):
            i += 1
            frames = result.setdefault(offsets[i], [])
            pending = None
        elif pending is None:
            pending = line
        else:
            loc = line.split(" (discriminator")[0]
            if "/" in loc:
                loc = "/".join(loc.rsplit("/", 3)[-3:])
            frames.append((pending, loc))
            pending = None
    return result


def short(name, width=90):
    return name if len(name) <= width else name[: width - 3] + "..."


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--hz", type=float, default=1000, help="sampling rate (default 1000)")
    ap.add_argument("--top", type=int, default=40, help="rows per table (default 40)")
    ap.add_argument("--exe", help="keep only processes running an executable of this name")
    ap.add_argument("cmd", nargs=argparse.REMAINDER, help="-- COMMAND [ARGS...]")
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.error("no command given")

    child = subprocess.Popen(cmd)
    samples = collections.Counter()  # (exe, file offset or mapping) -> count
    maps_of = {}  # (pid, exe) -> mappings
    period = 1.0 / args.hz
    next_tick = time.monotonic()
    while child.poll() is None:
        for pid in descendants(child.pid):
            try:
                # Read every tick: a forked child may have exec'd since.
                exe = os.readlink(f"/proc/{pid}/exe")
            except OSError:
                continue
            if args.exe and os.path.basename(exe) != args.exe:
                continue
            for tid in running_threads(pid):
                if tid == os.getpid():
                    continue
                rip = sample_rip(tid)
                if rip is None:
                    continue
                key = (pid, exe)
                if key not in maps_of or not any(lo <= rip < hi for lo, hi, _, _ in maps_of[key]):
                    maps_of[key] = read_maps(pid)
                path, off = locate(maps_of[key], rip)
                samples[(path, off if path.startswith("/") else None)] += 1
        next_tick += period
        delay = next_tick - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        else:
            next_tick = time.monotonic()
    rc = child.wait()

    total = sum(samples.values())
    print(f"pcsample: {total} samples, command exit {rc}", file=sys.stderr)
    if not total:
        return rc
    by_path = collections.defaultdict(dict)
    for (path, off), n in samples.items():
        by_path[path][off] = n
    self_fn, incl_fn, self_line = collections.Counter(), collections.Counter(), collections.Counter()
    for path, offs in by_path.items():
        if None in offs:
            self_fn[f"[{os.path.basename(path)}]"] += offs.pop(None)
        if not offs:
            continue
        frames = symbolize(path, offs.keys())
        for off, n in offs.items():
            chain = frames.get(off) or [(f"?? ({os.path.basename(path)}+{off:#x})", "??:0")]
            self_fn[chain[0][0]] += n
            self_line[f"{chain[0][1]}  {chain[0][0]}"] += n
            for fn in {fn for fn, _ in chain}:
                incl_fn[fn] += n

    def table(title, counter):
        print(f"\n{title}")
        for name, n in counter.most_common(args.top):
            print(f"{100.0 * n / total:6.2f}%  {n:7d}  {short(name)}")

    print(f"{total} samples at ~{args.hz:g} Hz")
    table("self, per function", self_fn)
    table("inline-inclusive, per function", incl_fn)
    table("self, per source line", self_line)
    return rc


if __name__ == "__main__":
    sys.exit(main())
