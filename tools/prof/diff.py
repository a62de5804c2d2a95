#!/usr/bin/env python3
"""What a change moved: diff.py A.out OPS_A B.out OPS_B [--drop REGEX] [--min RATE]

Samples per 1,000 ops by symbol for two prof.c sample files side by side
(A the parent's run, B the change's; OPS is the `ops=` of each run's
header lines). Rates, not shares: a share moves when anything else
does, a rate only when that symbol's own cost per op does.

Symbols come from `nm -n -C` — demangled, so the hash suffix that differs
between two builds is gone and rows join by name; two instantiations of one
generic in one build are one row. Samples in a shared library are resolved
through its dynamic symbols (`nm -D`), so libc's `syscall` and
`sched_yield` are rows of their own, not "elsewhere"; a library-internal
function is charged to the exported symbol before it.

--drop REGEX removes matching symbols before rates and shares are taken:
the benchmark's calibration slice is `calib::|DefaultHasher` with --frames
on a build with RUSTFLAGS='-C symbol-mangling-version=v0'. v0 names carry
their generic arguments, so the calibration's SipHash `HashSet` rows say
`DefaultHasher`, and a table of the protocols' keyed by `KeyHasher` stays
a row; a legacy-mangled build names every `HashMap<K,V,S,A>::insert` alike.
The de-dup set (`damulticast::event::EventSet`) is no `HashMap`, so its
rows stay whatever the mangling.
--min RATE lists rows at or above RATE samples per 1,000 ops on either
side (default 0.5).
--frames joins the executable's samples by sym.py's second table instead,
the innermost inlined frame in the repository's source, so code inlined
into its caller (`derive_seed`, `seed_from_u64`) is a row of its own.
"""
import argparse
import collections
import os
import re
import signal

import sym


def rates(path, ops, drop, frames):
    """Samples per 1,000 ops by symbol, and the sample counts (all, dropped)."""
    bases, spans, samples = sym.read(path)
    exe = next(iter(bases))
    tables, counts, dropped = {}, collections.Counter(), 0
    located = list(sym.owners(spans, samples))
    if frames:
        inside = [ip - bases[exe] for owner, ip in located if owner == exe]
        labels = iter(label for label, _ in sym.own_frames(exe, inside))
    for owner, ip in located:
        if owner not in tables:
            flags = ("-C",) if owner == exe else ("-C", "-D", "--defined-only")
            tables[owner] = sym.nm(owner, *flags) if os.path.isfile(owner) else ([], [])
        if frames and owner == exe:
            name = next(labels)
        else:
            name = sym.symbol_at(tables[owner], ip - bases.get(owner, 0))
        if owner != exe:
            name = f"{os.path.basename(owner)}: {name}"
        if drop and drop.search(name):
            dropped += 1
        else:
            counts[name] += 1
    return {name: 1000.0 * n / ops for name, n in counts.items()}, len(samples), dropped


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("a_out")
    parser.add_argument("ops_a", type=float)
    parser.add_argument("b_out")
    parser.add_argument("ops_b", type=float)
    parser.add_argument("--drop", type=re.compile)
    parser.add_argument("--min", type=float, default=0.5, dest="floor")
    parser.add_argument("--frames", action="store_true")
    args = parser.parse_args()

    a, total_a, dropped_a = rates(args.a_out, args.ops_a, args.drop, args.frames)
    b, total_b, dropped_b = rates(args.b_out, args.ops_b, args.drop, args.frames)
    sum_a, sum_b = sum(a.values()), sum(b.values())
    print(f"A: {total_a} samples, {dropped_a} dropped, {sum_a:.1f} kept per 1,000 ops ({args.ops_a:g} ops)")
    print(f"B: {total_b} samples, {dropped_b} dropped, {sum_b:.1f} kept per 1,000 ops ({args.ops_b:g} ops)")
    print(f"\n{'A/1k ops':>9} {'A share':>8} {'B/1k ops':>9} {'B share':>8} {'B - A':>8}  symbol")
    for name in sorted(set(a) | set(b), key=lambda n: -max(a.get(n, 0.0), b.get(n, 0.0))):
        ra, rb = a.get(name, 0.0), b.get(name, 0.0)
        if max(ra, rb) >= args.floor:
            print(f"{ra:9.1f} {100 * ra / sum_a:7.1f}% {rb:9.1f} {100 * rb / sum_b:7.1f}% {rb - ra:+8.1f}  {name}")
    print(f"{sum_a:9.1f} {'':8} {sum_b:9.1f} {'':8} {sum_b - sum_a:+8.1f}  all kept samples")


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    main()
