#!/usr/bin/env python3
"""Flat profile from a prof.c sample file: sym.py PROF_OUT [MIN_SHARE_%] [--drop REGEX]

Three tables over the samples that fell in the profiled executable (the rest
are counted per library). By out-of-line symbol, from `nm -n`, mangled on
purpose: the hash suffix keeps two instantiations of one generic apart
(the calibration slice's SipHash `HashSet` vs the protocol's Fx `seen`).
By the innermost inlined frame whose source is the repository's (not
the toolchain's, under /rustc or /rust/deps), from `addr2line -i`: whose
code the time belongs to when std code was inlined into it. An out-of-line
std function has no such frame and is listed as itself. And by that
frame's `file:line`: a cost that sits on one instruction, such as a load
stalled on the stores just before it, reads as one row there while the
frame's row spreads it over the whole function. Build with
CARGO_PROFILE_RELEASE_DEBUG=1.

--drop REGEX removes the executable's samples whose demangled symbol
(`nm -C`) or innermost repository frame matches, before any table is
counted; shares are then of the kept samples, and the header says how
many were dropped. It takes diff.py's regex: `calib::|DefaultHasher` on a
v0-mangled build is the benchmark's calibration slice.
Symbolise before rebuilding: a mapped file whose inode is no longer the one
the run recorded is refused, not read.

diff.py, beside this file, compares two sample files symbol by symbol.
"""
import argparse
import bisect
import collections
import os
import re
import signal
import subprocess
import sys


def read(path):
    """The mapped files as {name: load base} (the executable first) and the sampled addresses.

    Exits when a mapped file is no longer the one that was sampled: a binary
    rebuilt since the run has a new inode, and its symbols would land on the
    old binary's addresses."""
    bases, spans, samples, inodes = {}, [], [], {}
    for line in open(path):
        kind, rest = line.split(" ", 1)
        if kind == "S":
            samples.append(int(rest, 16))
        elif len(fields := rest.split()) >= 6:
            start, end = (int(x, 16) for x in fields[0].split("-"))
            spans.append((start, end, fields[5]))
            bases.setdefault(fields[5], start)  # the kernel lists a file's first segment first
            inodes[fields[5]] = int(fields[4])
    for name, inode in inodes.items():
        if os.path.isfile(name) and (now := os.stat(name).st_ino) != inode:
            sys.exit(f"{path}: {name} was replaced after the run (inode {inode}, now {now}); "
                     "profile the binary again before symbolising")
    return bases, spans, samples


def owners(spans, samples):
    """Each sample as (mapped file or "?", address)."""
    for ip in samples:
        yield next((name for start, end, name in spans if start <= ip < end), "?"), ip


def nm(binary, *flags):
    """The text symbols of `binary` in address order, as parallel lists."""
    listing = subprocess.run(["nm", "-n", *flags, binary], capture_output=True, text=True).stdout
    symbols = []
    for line in listing.splitlines():
        fields = line.split(None, 2)
        if len(fields) == 3 and fields[1] in "tTwWiI":
            symbols.append((int(fields[0], 16), fields[2]))
    return [address for address, _ in symbols], [name for _, name in symbols]


def symbol_at(table, offset):
    starts, names = table
    return names[max(bisect.bisect_right(starts, offset) - 1, 0)] if names else "?"


def own_frames(exe, addresses):
    """Each address's innermost inlined frame whose source is the repository's, as two row labels:
    the function with its file, and the frame's `file:line`."""
    resolved = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", exe],
        input="\n".join(hex(a) for a in addresses), capture_output=True, text=True,
    ).stdout.splitlines()
    labels, frames, function = [], [], None  # frames: (function, file:line) of the current address, innermost first
    for line in resolved + ["0x0"]:
        if line.startswith("0x") and ":" not in line:
            if frames:
                own = next((f for f in frames if not f[1].startswith("/rust")), frames[-1])
                file, _, number = own[1].split(" ")[0].rpartition(":")  # drops "(discriminator n)"
                file = "/".join(file.split("/")[-3:])
                labels.append((f"{own[0]}  ({file})", f"{file}:{number}"))
            frames, function = [], None
        elif function is None:
            function = line
        else:
            frames.append((function, line))
            function = None
    return labels


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("path")
    parser.add_argument("floor", nargs="?", type=float, default=1.0)
    parser.add_argument("--drop", type=re.compile)
    args = parser.parse_args()
    bases, spans, samples = read(args.path)
    exe = next(iter(bases))
    inside, outside = [], collections.Counter()
    for owner, ip in owners(spans, samples):
        if owner == exe:
            inside.append(ip - bases[exe])
        else:
            outside[os.path.basename(owner)] += 1

    table, demangled = nm(exe), nm(exe, "-C")
    rows = [(symbol_at(table, address), *labels)
            for address, labels in zip(inside, own_frames(exe, inside))]
    if args.drop:
        rows = [row for address, row in zip(inside, rows)
                if not (args.drop.search(symbol_at(demangled, address)) or args.drop.search(row[1]))]
    dropped = len(inside) - len(rows)
    by_symbol = collections.Counter(symbol for symbol, _, _ in rows)
    by_own_frame = collections.Counter(frame for _, frame, _ in rows)
    by_line = collections.Counter(line for _, _, line in rows)

    total = max(len(samples) - dropped, 1)
    print(f"{len(samples)} samples, {len(inside)} in {os.path.basename(exe)}, {dropped} dropped; "
          f"elsewhere: {dict(outside)}")
    tables = (
        ("symbol (nm, mangled)", by_symbol),
        ("first frame in the repository's source", by_own_frame),
        ("that frame's source line", by_line),
    )
    for title, counts in tables:
        print(f"\n  share  samples  {title}")
        for name, n in counts.most_common():
            if 100.0 * n / total >= args.floor:
                print(f"{100.0 * n / total:6.1f}%  {n:7}  {name}")


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # `| head` ends the listing, not the interpreter
    main()
