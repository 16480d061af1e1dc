#!/usr/bin/env python3
"""Turn a hostprof sample dump into flat and inclusive tables.

    python3 tools/hostprof/report.py prof.txt [--binary PATH] [--top N]
                                               [--under SUBSTR]

Addresses inside the profiled executable are symbolized with
`addr2line -f -i` over its line tables, so inlined callees keep their own
names. Three tables, each in samples and percent of the samples kept:

  flat by function   innermost *inlined* function at the sampled pc
  flat by line       file:line at the sampled pc
                     (a pc outside the binary — libc's memmove, malloc,
                     futex, sched_yield — is keyed `[lib] ← caller` by the
                     first frame of ours that called into it, so a fifth of
                     a profile is not one `[libc.so.6]` row)
  inclusive          every function (inlined ones included) on the stack,
                     counted once per sample

`--under SUBSTR` keeps only samples with a frame whose function contains
SUBSTR (e.g. `Engine::run`) and reports shares of that subset.
"""
import argparse
import collections
import re
import subprocess
import sys


def parse(path):
    samples, maps, in_maps = [], [], False
    for line in open(path):
        line = line.rstrip("\n")
        if line.startswith("# maps"):
            in_maps = True
        elif line.startswith("#"):
            continue
        elif in_maps:
            f = line.split(None, 5)
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5]))
        elif line:
            samples.append([int(x, 16) for x in line.split()])
    return samples, maps


def is_pie(binary):
    with open(binary, "rb") as f:
        return f.read(18)[16] == 3  # e_type == ET_DYN


def symbolize(binary, addrs):
    """addr -> [(function, file:line), ...], innermost inline first."""
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
        input="".join(f"{a:#x}\n" for a in addrs),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    table, cur, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            cur = table.setdefault(int(out[i], 16), [])
            i += 1
        else:
            func = re.sub(r"::h[0-9a-f]{16}$", "", out[i])
            where = re.sub(r" \(discriminator \d+\)$", "", out[i + 1])
            cur.append((func, where.split("/crates/")[-1]))
            i += 2
    return table


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dump")
    ap.add_argument("--binary", help="profiled executable (default: from the maps)")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--under", help="keep samples with a frame containing this")
    args = ap.parse_args()

    samples, maps = parse(args.dump)
    if not samples:
        sys.exit("no samples (did the run burn any CPU time?)")
    binary = args.binary or next(p for _, _, _, p in maps if ".so" not in p)
    exe = binary.split("/")[-1]
    exe_maps = [m for m in maps if m[3].split("/")[-1] == exe]
    base = min(lo - off for lo, _, off, _ in exe_maps) if is_pie(binary) else 0

    def locate(addr):
        for lo, hi, _, path in maps:
            if lo <= addr < hi:
                return path
        return "?"

    # A return address points after its call; step back into it. The
    # innermost frame is the interrupted pc itself.
    def key(addr, depth):
        return addr - base - (1 if depth else 0)

    in_exe = lambda a: any(lo <= a < hi for lo, hi, _, _ in exe_maps)
    wanted = {key(a, d) for s in samples for d, a in enumerate(s) if in_exe(a)}
    sym = symbolize(binary, sorted(wanted))

    def frames(sample):
        """[(function, file:line)] innermost first, inlines expanded."""
        out = []
        for d, a in enumerate(sample):
            if in_exe(a):
                out.extend(sym[key(a, d)])
            else:
                out.append((f"[{locate(a).split('/')[-1]}]", "?"))
        return out

    def flat(st):
        """(function, file:line) a sample counts under in the flat tables."""
        func, where = st[0]
        if func.startswith("["):
            ours = next(((f, w) for f, w in st if not f.startswith("[")), None)
            if ours:
                return f"{func} ← {ours[0]}", ours[1]
        return func, where

    stacks = [frames(s) for s in samples]
    if args.under:
        stacks = [st for st in stacks if any(args.under in f for f, _ in st)]
        if not stacks:
            sys.exit(f"no sample has a frame containing {args.under!r}")
    total = len(stacks)
    flats = [flat(st) for st in stacks if st]
    by_func = collections.Counter(f for f, _ in flats)
    by_line = collections.Counter(f"{w}  ({f})" for f, w in flats)
    incl = collections.Counter(f for st in stacks for f in {f for f, _ in st})

    scope = f" under {args.under!r}" if args.under else ""
    print(f"{total} of {len(samples)} samples{scope}; binary {binary}")
    for title, counter in (("flat by innermost (inlined) function", by_func),
                           ("flat by line", by_line),
                           ("inclusive", incl)):
        print(f"\n== {title} ==")
        for name, n in counter.most_common(args.top):
            print(f"{n:7d} {100.0 * n / total:6.2f}%  {name}")


if __name__ == "__main__":
    main()
