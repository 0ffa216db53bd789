#!/usr/bin/env python3
"""Merges and validates per-cell JSONL shards from the streaming sinks.

Each shard (written by --stream / --resume on the bench binaries) is one
header line followed by one line per completed cell, all stamped with the
schema version. Cross-process sharding story: run each shard of the grid
in its own process with its own --stream file, then merge here.

The merge is deterministic: cells are emitted sorted by (scope, dataset,
variant), under a single header, regardless of shard order or completion
order inside a shard. Validation refuses:
  * any line whose schema version is not the expected one;
  * shards whose headers name different experiments;
  * the same cell key appearing twice with *different* payloads (identical
    duplicates — a cell both checkpointed and re-streamed — are deduped
    with a warning).
An unterminated trailing line (a crash artifact) is dropped with a
warning, matching the C++ CheckpointStore recovery contract; corruption
anywhere else is fatal.

Usage:
  tools/merge_cells.py shard1.jsonl shard2.jsonl ... -o merged.jsonl
  tools/merge_cells.py --check shard.jsonl        # validate only
  tools/merge_cells.py --self-test                # run the built-in tests

Exit code 0 on success, 1 with a diagnostic on the first violation.
"""

import io
import json
import os
import sys
import tempfile

SCHEMA_VERSION = 2


class MergeError(Exception):
    pass


def warn(msg):
    print(f"merge_cells: warning: {msg}", file=sys.stderr)


def cell_key(record):
    scope = record.get("scope", "")
    prefix = f"{scope}|" if scope else ""
    return f"{prefix}{record['dataset']}|{record['variant']}"


def parse_shard(path, text):
    """Returns ((header_record, line) or None, {key: (record, line)}) for one
    shard."""
    header = None
    cells = {}
    lines = text.split("\n")
    # A terminated file ends with "\n", so split() leaves one trailing "".
    terminated = lines and lines[-1] == ""
    if terminated:
        lines.pop()
    for i, line in enumerate(lines):
        last = i == len(lines) - 1
        torn = last and not terminated
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if torn:
                warn(f"{path}: dropping unterminated trailing line "
                     f"(crash artifact, {len(line)} byte(s))")
                break
            raise MergeError(f"{path}:{i + 1}: not valid JSON")
        if not isinstance(record, dict) or "v" not in record:
            raise MergeError(f"{path}:{i + 1}: record has no version field")
        if record["v"] != SCHEMA_VERSION:
            # Version mismatch is fatal anywhere, even on a torn-looking
            # tail: silently recomputing another writer's cells is worse
            # than asking the operator to resolve the mismatch.
            raise MergeError(
                f"{path}:{i + 1}: unsupported schema version {record['v']} "
                f"(expected {SCHEMA_VERSION})")
        kind = record.get("kind")
        if kind == "header":
            if "experiment" not in record:
                raise MergeError(f"{path}:{i + 1}: header has no experiment")
            if header is None:
                header = (record, line)
            elif header[0]["experiment"] != record["experiment"]:
                raise MergeError(
                    f"{path}:{i + 1}: shard mixes experiments "
                    f"'{header[0]['experiment']}' vs "
                    f"'{record['experiment']}'")
        elif kind == "cell":
            if torn:
                # Parsed fine but the line never got its newline: treat as
                # complete (the payload is intact).
                pass
            for field in ("dataset", "variant"):
                if field not in record:
                    raise MergeError(f"{path}:{i + 1}: cell has no {field}")
            key = cell_key(record)
            if key in cells and cells[key][0] != record:
                raise MergeError(
                    f"{path}:{i + 1}: duplicate cell '{key}' with "
                    f"conflicting payloads")
            if key in cells:
                warn(f"{path}: duplicate identical cell '{key}'; deduped")
            else:
                cells[key] = (record, line)
        else:
            raise MergeError(f"{path}:{i + 1}: unknown record kind: {kind!r}")
    return header, cells


def merge(paths):
    """Returns (header_line, [cell_line...]) merged across shards."""
    experiment = None
    header_line = None
    merged = {}
    for path in paths:
        try:
            # The C++ reader takes any string byte >= 0x20, UTF-8 or not;
            # surrogateescape carries such bytes through to the verbatim
            # output copy unchanged.
            with open(path, "r", encoding="utf-8",
                      errors="surrogateescape") as f:
                text = f.read()
        except OSError as e:
            raise MergeError(f"{path}: {e}")
        header, cells = parse_shard(path, text)
        if header is not None:
            record, line = header
            if experiment is None:
                # Verbatim, like the cell lines: re-serializing would
                # rewrite non-ASCII text as \u escapes.
                experiment = record["experiment"]
                header_line = line
            elif experiment != record["experiment"]:
                raise MergeError(
                    f"{path}: experiment '{record['experiment']}' does not "
                    f"match '{experiment}' from earlier shards")
        for key, (record, line) in cells.items():
            if key in merged and merged[key][0] != record:
                raise MergeError(
                    f"{path}: cell '{key}' conflicts with an earlier shard")
            if key in merged:
                warn(f"{path}: cell '{key}' duplicated across shards; "
                     f"deduped")
            else:
                merged[key] = (record, line)
    ordered = sorted(
        merged.values(),
        key=lambda rc: (rc[0].get("scope", ""), rc[0]["dataset"],
                        rc[0]["variant"]))
    return header_line, [line for _, line in ordered]


def run(argv, out=sys.stdout):
    check_only = "--check" in argv
    argv = [a for a in argv if a != "--check"]
    output = None
    if "-o" in argv:
        i = argv.index("-o")
        if i + 1 >= len(argv):
            raise MergeError("-o needs a path")
        output = argv[i + 1]
        del argv[i:i + 2]
    if not argv:
        raise MergeError(
            "usage: merge_cells.py [--check] shard.jsonl ... [-o merged]")
    header_line, cell_lines = merge(argv)
    if check_only:
        print(f"merge_cells: OK: {len(cell_lines)} cell(s) across "
              f"{len(argv)} shard(s)", file=out)
        return
    sink = out
    close = False
    if output is not None:
        sink = open(output, "w", encoding="utf-8", errors="surrogateescape")
        close = True
    try:
        if header_line is not None:
            print(header_line, file=sink)
        for line in cell_lines:
            print(line, file=sink)
    finally:
        if close:
            sink.close()


# ---------------------------------------------------------------------------
# Self-test (run as a ctest: merge_cells.py --self-test)
# ---------------------------------------------------------------------------

def _header(experiment="exp"):
    return json.dumps({"v": SCHEMA_VERSION, "kind": "header", "experiment": experiment,
                       "params": []}, separators=(",", ":"))


def _cell(dataset, variant, scope="", aopc=0.0):
    return json.dumps({"v": SCHEMA_VERSION, "kind": "cell", "scope": scope,
                       "dataset": dataset, "variant": variant,
                       "aggregate": {"aopc": aopc}},
                      separators=(",", ":"))


def _write(tmpdir, name, content):
    path = os.path.join(tmpdir, name)
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)
    return path


def _expect_raises(fn, fragment):
    try:
        fn()
    except MergeError as e:
        assert fragment in str(e), f"expected '{fragment}' in '{e}'"
        return
    raise AssertionError(f"expected MergeError containing '{fragment}'")


def self_test():
    with tempfile.TemporaryDirectory() as tmp:
        # Deterministic merge order: cells sorted by (scope, dataset,
        # variant) regardless of shard order and in-shard completion order.
        a = _write(tmp, "a.jsonl",
                   _header() + "\n" + _cell("d2", "v1") + "\n" +
                   _cell("d1", "v2") + "\n")
        b = _write(tmp, "b.jsonl",
                   _header() + "\n" + _cell("d1", "v1", scope="s") + "\n" +
                   _cell("d1", "v1") + "\n")
        out1 = io.StringIO()
        run([b, a, "-o", os.path.join(tmp, "m1.jsonl")], out=out1)
        out2 = io.StringIO()
        run([a, b, "-o", os.path.join(tmp, "m2.jsonl")], out=out2)
        with open(os.path.join(tmp, "m1.jsonl"), encoding="utf-8") as f:
            m1 = f.read()
        with open(os.path.join(tmp, "m2.jsonl"), encoding="utf-8") as f:
            m2 = f.read()
        assert m1 == m2, "merge must not depend on shard order"
        keys = [cell_key(json.loads(line)) for line in m1.splitlines()[1:]]
        assert keys == ["d1|v1", "d1|v2", "d2|v1", "s|d1|v1"], keys

        # The header is copied byte for byte, non-ASCII params included,
        # exactly as the C++ writer emits them (raw UTF-8, no \u escapes).
        header = ('{"v":2,"kind":"header","experiment":"exp",'
                  '"params":[["note","caf\u00e9 \U0001f600 \\"q\\""]]}')
        utf8 = _write(tmp, "utf8.jsonl",
                      header + "\n" + _cell("d1", "v1") + "\n")
        merged = os.path.join(tmp, "utf8_merged.jsonl")
        run([utf8, "-o", merged], out=io.StringIO())
        with open(merged, "rb") as f:
            first = f.read().split(b"\n")[0]
        assert first == header.encode("utf-8"), first

        # A value that is not UTF-8 (the C++ writer copies string bytes
        # raw) validates and merges byte for byte.
        latin1 = os.path.join(tmp, "latin1.jsonl")
        raw_cell = _cell("d", "v1").encode("ascii").replace(
            b'"dataset":"d"', b'"dataset":"d\xff"')
        with open(latin1, "wb") as f:
            f.write(_header().encode("utf-8") + b"\n" + raw_cell + b"\n")
        out = io.StringIO()
        run(["--check", latin1], out=out)
        assert "1 cell(s)" in out.getvalue(), out.getvalue()
        merged = os.path.join(tmp, "latin1_merged.jsonl")
        run([latin1, "-o", merged], out=io.StringIO())
        with open(merged, "rb") as f:
            assert f.read().split(b"\n")[1] == raw_cell

        # Identical duplicate cells (checkpoint + stream of one run) dedupe.
        dup = _write(tmp, "dup.jsonl",
                     _header() + "\n" + _cell("d1", "v1") + "\n" +
                     _cell("d1", "v1") + "\n")
        run(["--check", dup], out=io.StringIO())

        # Conflicting duplicates are refused.
        conflict = _write(tmp, "conflict.jsonl",
                          _header() + "\n" + _cell("d1", "v1", aopc=1.0) +
                          "\n" + _cell("d1", "v1", aopc=2.0) + "\n")
        _expect_raises(lambda: run(["--check", conflict],
                                   out=io.StringIO()),
                       "conflicting payloads")
        other = _write(tmp, "other_copy.jsonl",
                       _header() + "\n" + _cell("d1", "v1", aopc=2.0) + "\n")
        ok = _write(tmp, "ok_copy.jsonl",
                    _header() + "\n" + _cell("d1", "v1", aopc=1.0) + "\n")
        _expect_raises(lambda: run(["--check", ok, other],
                                   out=io.StringIO()),
                       "conflicts with an earlier shard")

        # Mixed experiments are refused.
        exp2 = _write(tmp, "exp2.jsonl",
                      _header("another") + "\n" + _cell("d9", "v9") + "\n")
        _expect_raises(lambda: run(["--check", a, exp2], out=io.StringIO()),
                       "does not match")

        # Version mismatch is fatal anywhere, including a v1 shard.
        for stale in (999, 1):
            vbad = _write(tmp, "vbad.jsonl",
                          _header() + "\n" +
                          f'{{"v":{stale},"kind":"cell","dataset":"d",'
                          '"variant":"v"}\n')
            _expect_raises(lambda: run(["--check", vbad],
                                       out=io.StringIO()),
                           "unsupported schema version")

        # An unterminated trailing line (crash artifact) is dropped...
        torn = _write(tmp, "torn.jsonl",
                      _header() + "\n" + _cell("d1", "v1") + "\n" +
                      '{"v":2,"kind":"ce')
        out = io.StringIO()
        run(["--check", torn], out=out)
        assert "1 cell(s)" in out.getvalue(), out.getvalue()

        # ...but interior corruption is fatal.
        interior = _write(tmp, "interior.jsonl",
                          _header() + "\n" + "not json\n" +
                          _cell("d1", "v1") + "\n")
        _expect_raises(lambda: run(["--check", interior], out=io.StringIO()),
                       "not valid JSON")
    print("merge_cells: self-test OK")


def main():
    argv = sys.argv[1:]
    # A merge to stdout copies non-UTF-8 bytes as verbatim as one to -o.
    sys.stdout.reconfigure(errors="surrogateescape")
    if argv == ["--self-test"]:
        self_test()
        return
    try:
        run(argv)
    except MergeError as e:
        print(f"merge_cells: FAIL: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
