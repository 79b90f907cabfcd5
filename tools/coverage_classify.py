#!/usr/bin/env python3
"""Classifies src/ code by the first coverage phase that ran it.

    coverage_classify.py --root <source-root> consumer.json.gz fuzz.json.gz test.json.gz

Each argument is a gzip of `gcov --json-format --stdout` over every .gcda
file, taken after a phase of tools/coverage_probe.sh. The counters are
cumulative, so a line's class is the first snapshot where its count is
non-zero: consumer, fuzz-only, test-only, or never.

A function's class is the first snapshot where its function record or any
line of its body ran. Inlined header code often leaves its function record
at zero while its lines run, so the body's lines decide.
"""
import argparse
import collections
import gzip
import json
import os

CLASSES = ("consumer", "fuzz-only", "test-only", "never")


def documents(path):
    """Yields every JSON document of one concatenated gcov --stdout stream."""
    with gzip.open(path, "rt") as f:
        text = f.read()
    decoder = json.JSONDecoder()
    at = 0
    while True:
        while at < len(text) and text[at].isspace():
            at += 1
        if at >= len(text):
            return
        doc, at = decoder.raw_decode(text, at)
        yield doc


def load(path, root):
    """Per src/ file: line -> count, and (start, end, name) -> record count."""
    lines = collections.defaultdict(collections.Counter)
    functions = collections.defaultdict(collections.Counter)
    for doc in documents(path):
        cwd = doc.get("current_working_directory", "")
        for entry in doc.get("files", []):
            name = os.path.relpath(os.path.normpath(os.path.join(cwd, entry["file"])), root)
            if not name.startswith("src/"):
                continue
            for line in entry.get("lines", []):
                lines[name][line["line_number"]] += line["count"]
            for fn in entry.get("functions", []):
                key = (fn["start_line"], fn["end_line"], fn.get("demangled_name", fn["name"]))
                functions[name][key] += fn["execution_count"]
    return lines, functions


def classify(counts):
    """Index into CLASSES of the first non-zero cumulative count."""
    for i, count in enumerate(counts):
        if count > 0:
            return i
    return len(CLASSES) - 1


def ranges(numbers):
    out = []
    for n in sorted(numbers):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="source root the src/ paths are under")
    parser.add_argument("snapshots", nargs=3, help="consumer, fuzz and test snapshots")
    args = parser.parse_args()
    root = os.path.realpath(args.root)
    snaps = [load(path, root) for path in args.snapshots]

    files = sorted(set().union(*(s[0].keys() for s in snaps)))
    line_class = {}  # (file, line) -> class index
    for name in files:
        numbers = set().union(*(s[0][name].keys() for s in snaps))
        for n in numbers:
            line_class[(name, n)] = classify([s[0][name][n] for s in snaps])

    fn_class = {}  # (file, start, end, demangled name) -> class index
    for name in sorted(set().union(*(s[1].keys() for s in snaps))):
        for key in set().union(*(s[1][name].keys() for s in snaps)):
            start, end, _ = key
            counts = []
            for s_lines, s_functions in snaps:
                body = any(s_lines[name][n] > 0 for n in range(start, end + 1)
                           if n in s_lines[name])
                counts.append(1 if body or s_functions[name][key] > 0 else 0)
            fn_class[(name,) + key] = classify(counts)

    def tally(classes):
        counter = collections.Counter(classes)
        return ", ".join("%s %d" % (c, counter[i]) for i, c in enumerate(CLASSES))

    print("functions: %d; %s" % (len(fn_class), tally(fn_class.values())))
    print("lines: %d; %s" % (len(line_class), tally(line_class.values())))
    for wanted in (CLASSES.index("test-only"), CLASSES.index("never")):
        print("\n%s functions:" % CLASSES[wanted])
        for (name, start, _, fn), cls in sorted(fn_class.items()):
            if cls == wanted:
                print("  %s:%d  %s" % (name, start, fn))
        print("\n%s lines:" % CLASSES[wanted])
        for name in files:
            hits = [n for (f, n), cls in line_class.items() if f == name and cls == wanted]
            if hits:
                print("  %s: %s" % (name, ranges(hits)))

    print("\nper file (lines): %-44s %6s %9s %9s %9s %6s" % ("", "total", *CLASSES))
    for name in files:
        counter = collections.Counter(cls for (f, _), cls in line_class.items() if f == name)
        print("  %-60s %6d %9d %9d %9d %6d" % (name, sum(counter.values()),
                                               *(counter[i] for i in range(len(CLASSES)))))


if __name__ == "__main__":
    main()
