"""repro.io streaming codec throughput and dedup ratio across guest sizes.

All three state-movement paths (wire, PRAM, plan blobs) encode through the
``repro.io`` frame layer, so this bench measures that layer directly: page
batches of duplicate-heavy and unique-content guest images are pushed
through the shared :class:`~repro.io.pages.PageStreamEncoder` in
wire-sized batches, round-tripped, and the encode/decode throughput plus
the dedup ratio recorded; PRAM entry records exercise the run-coalescing
codec the same way.

Emits ``BENCH_io_throughput.json`` next to this file (override with
``--json PATH``); ``--smoke`` restricts to the smallest guest for CI.
The JSON holds only deterministic fields (bytes, counts, ratios — never
wall time), so two seeded runs produce byte-identical artifacts; the
wall-clock guard lives in the test, not the document.
"""

import argparse
import json
import random
import time
from pathlib import Path

from repro.bench.report import format_table, print_experiment
from repro.core.wire import MAX_BATCH_PAGES
from repro.io import (
    PageStreamDecoder,
    PageStreamEncoder,
    decode_entry_runs,
    encode_entry_runs,
)

GUEST_PAGES = [512, 4096, 16384]
SMOKE_PAGES = [512]

#: fraction of distinct page contents in the duplicate-heavy image —
#: zero-filled and copy-on-write pages make real guests look like this.
DUP_HEAVY_UNIQUE = 0.25
SEED = 42

DEFAULT_JSON_PATH = Path(__file__).resolve().parent / "BENCH_io_throughput.json"


def guest_pages(page_count, unique_fraction, seed=SEED):
    """Synthesize (gfn, digest) records with a bounded content pool."""
    rng = random.Random(seed)
    if unique_fraction >= 1.0:
        return [(gfn, rng.getrandbits(63) | 1) for gfn in range(page_count)]
    unique = max(1, int(page_count * unique_fraction))
    pool = [rng.getrandbits(63) | 1 for _ in range(unique)]
    return [(gfn, pool[rng.randrange(unique)]) for gfn in range(page_count)]


def measure_pages(page_count, unique_fraction, seed=SEED):
    """Round-trip one guest image through the page-batch codec."""
    records = guest_pages(page_count, unique_fraction, seed)
    encoder = PageStreamEncoder()
    started = time.perf_counter()
    batches = [
        encoder.encode_batch(records[start:start + MAX_BATCH_PAGES])
        for start in range(0, len(records), MAX_BATCH_PAGES)
    ]
    encode_s = time.perf_counter() - started
    decoder = PageStreamDecoder()
    started = time.perf_counter()
    decoded = [page for batch in batches for page in decoder.decode_batch(batch)]
    decode_s = time.perf_counter() - started
    if decoded != records:
        raise AssertionError("page-batch round trip corrupted records")
    stats = encoder.stats
    return {
        "pages": page_count,
        "unique_fraction": unique_fraction,
        "batches": stats.batches,
        "unique_digests": stats.unique_digests,
        "dedup_hits": stats.dedup_hits,
        "logical_bytes": stats.logical_bytes,
        "encoded_bytes": stats.encoded_bytes,
        "dedup_ratio": round(stats.ratio, 6),
    }, encode_s, decode_s


def measure_entries(entry_count):
    """Round-trip contiguous PRAM entries through the run codec.

    The entries go in as one single-entry run each, so the encoder's
    coalescing does the work; they must come back as one maximal run.
    """
    runs = [(gfn, gfn + 1024, 9, 1) for gfn in range(entry_count)]
    encoded = encode_entry_runs(runs)
    if decode_entry_runs(encoded) != [(0, 1024, 9, entry_count)]:
        raise AssertionError("entry-run round trip corrupted entries")
    raw_bytes = 8 * entry_count
    return {
        "entries": entry_count,
        "raw_bytes": raw_bytes,
        "encoded_bytes": len(encoded),
        "coalesce_ratio": round(raw_bytes / len(encoded), 6),
    }


def run(smoke=False):
    """The sweep; returns (json-ready results, wall-clock rows)."""
    sizes = SMOKE_PAGES if smoke else GUEST_PAGES
    page_results = []
    walls = []
    for pages in sizes:
        for unique_fraction in (DUP_HEAVY_UNIQUE, 1.0):
            entry, encode_s, decode_s = measure_pages(pages, unique_fraction)
            page_results.append(entry)
            walls.append((pages, unique_fraction, encode_s, decode_s))
    results = {
        "pages": page_results,
        "pram_entries": [measure_entries(n) for n in sizes],
    }
    return results, walls


def write_json(results, path=DEFAULT_JSON_PATH):
    document = {
        "format": "hypertp-bench-io-throughput",
        "version": 1,
        "seed": SEED,
        "results": results,
    }
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True))
    return path


def to_rows(results, walls):
    rows = []
    wall_by_key = {(w[0], w[1]): (w[2], w[3]) for w in walls}
    for entry in results["pages"]:
        encode_s, decode_s = wall_by_key[
            (entry["pages"], entry["unique_fraction"])]
        throughput = (entry["logical_bytes"] / max(encode_s, 1e-9)) / (1 << 20)
        rows.append([
            entry["pages"],
            f"{entry['unique_fraction']:.0%}",
            entry["unique_digests"],
            entry["dedup_hits"],
            entry["encoded_bytes"],
            f"{entry['dedup_ratio']:.2f}",
            f"{throughput:.1f}",
            f"{decode_s * 1000:.2f}",
        ])
    return rows


HEADERS = ["pages", "unique", "digests", "dedup hits", "enc bytes",
           "ratio", "enc MB/s", "dec (ms)"]


def test_io_throughput_sweep(benchmark):
    results, walls = benchmark.pedantic(run, kwargs={"smoke": True},
                                        rounds=1, iterations=1)
    write_json(results)
    print_experiment("io throughput", "codec throughput and dedup ratio",
                     format_table(HEADERS, to_rows(results, walls)))


def test_dedup_ratio_beats_baseline():
    """A duplicate-heavy image must compress (> 1.0) vs raw records."""
    entry, _, _ = measure_pages(4096, DUP_HEAVY_UNIQUE)
    assert entry["dedup_ratio"] > 1.0
    assert entry["dedup_hits"] > 0


def test_wall_clock_guard():
    """The largest sweep point stays cheap — the codec is O(pages)."""
    started = time.perf_counter()
    measure_pages(GUEST_PAGES[-1], DUP_HEAVY_UNIQUE)
    assert time.perf_counter() - started < 10.0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest guest only (CI)")
    parser.add_argument("--json", dest="json_path", metavar="PATH",
                        default=str(DEFAULT_JSON_PATH))
    args = parser.parse_args()
    results, walls = run(smoke=args.smoke)
    path = write_json(results, args.json_path)
    print_experiment("io throughput", "codec throughput and dedup ratio",
                     format_table(HEADERS, to_rows(results, walls)))
    print(f"JSON written to {path}")


if __name__ == "__main__":
    main()
