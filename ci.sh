#!/usr/bin/env bash
# Staged offline CI gate for the BriQ workspace.
#
#   ./ci.sh                 run every stage
#   ./ci.sh <stage>...      run only the named stages, in the given order
#   ./ci.sh help            list stages
#   ./ci.sh --list          print one stage name per line (for tooling)
#
# Unknown stage names are rejected before ANY stage runs, even when mixed
# with valid ones.
#
# Every cargo command that resolves dependencies (all but `cargo fmt`)
# runs with --locked, so a stale committed Cargo.lock fails the stage
# instead of being silently rewritten.
#
# Stages:
#   fmt          cargo fmt --all --check (formatting is part of the gate)
#   clippy       cargo clippy --all-targets -D warnings: libraries,
#                binaries, tests and examples are all linted; the
#                hardened crates (briq-regex, briq-text, briq-table,
#                briq-graph, briq-core, and briq-bench's library and its
#                three binaries) additionally deny
#                unwrap_used/expect_used in non-test code, so clippy
#                enforces the panic-free policy too, argument handling
#                included
#   build        release build of the whole workspace
#   test         full test suite, including the chaos fault-injection
#                harness in tests/chaos.rs, the batch-engine unit tests,
#                and the kernel-equivalence suites (CSR-vs-dense RWR
#                proptests in crates/graph/tests/csr_equivalence.rs,
#                flat-vs-recursive forest proptests in briq-ml, which
#                also hold every layout built under known feature
#                constraints to the plain layout's votes, scores and
#                pruning, and the per-document allocation test); then builds and
#                tests the briq-perf benchmark package (outside the
#                workspace) with --locked, so a library change that
#                breaks the benchmark fails here and its Cargo.lock is
#                never rewritten
#   determinism  briq-align over the same seeded page corpus five times:
#                --jobs 1, --jobs $(nproc or 8), --jobs 1 with
#                --trace/--metrics (span trees kept), --jobs 1 with
#                --metrics alone (metrics recorded, span trees dropped),
#                and --jobs 1 with --oracle --metrics (every stage on its
#                reference path: exhaustive classification with no
#                retrieval or pruning; the dense RWR walk; no store);
#                fails unless alignment stdout and the diagnostics JSONL
#                (which carries no timings) are byte-for-byte identical
#                across all five — worker count, tracing, AND the
#                production path must be unobservable in the output. The
#                traced run's trace file must also be non-empty valid-ish
#                JSON, and the counter lines of the two metrics files must
#                be identical (tracing decides only which span trees are
#                kept, never what is counted). Retrieval recall: the
#                --oracle run's candidates_kept, filter_total.* and
#                filter_kept.* counter lines must equal the --metrics
#                run's, so the indexed, pruned path keeps exactly the
#                candidates the exhaustive oracle keeps on the smoke
#                corpus. Then the same compares with a trained forest: a
#                --train-demo model, run with --model at --jobs 1 (with
#                --metrics), at --jobs $(nproc or 8), and with --oracle
#                --metrics, so the forest's bounded pruning and its
#                exhaustive reference are byte- and recall-compared too
#                (every other run uses the untrained heuristic prior), and
#                one untrained --store-dir run, byte-compared the same way.
#                The trained leg is the end-to-end gate of the engine's
#                per-class forest layouts: the production runs score each
#                retrieved row through its class layout, --oracle through
#                the plain layout, and the golden holds the trained run's
#                pairs_pruned and rows_scored_* counters.
#                Per-kernel equivalence (CSR vs dense walk, flat vs
#                recursive forest) is proven by the proptest suites the
#                test stage runs. Finally the work golden: every counter
#                line of the untrained and trained --jobs 1 runs, the byte
#                count and SHA-256 of both runs' alignment stdout and
#                diagnostics JSONL, the byte count and SHA-256 of the
#                --train-demo model file (so an unchanged model is a
#                gate, not a hand check), the --store-dir run's
#                "store: persisted" line and snapshot SHA-256, the
#                heap allocations per document of untrained align_with
#                over the smoke documents, and the heap allocations per
#                page of segment_page over the smoke corpus's 20 pages
#                (both from examples/alloc_per_doc.rs, an untimed
#                counting-allocator run, which prints them as the
#                golden's last two lines) are written
#                to target/BENCH_work.jsonl, and the stage fails, showing
#                the diff, unless that equals the committed
#                BENCH_work.jsonl byte for byte. A change that moves work
#                or output on purpose re-blesses the golden with
#                `cp target/BENCH_work.jsonl BENCH_work.jsonl` and
#                explains every moved line in CHANGES.md.
#   store        incremental-vs-oracle equivalence of the versioned
#                alignment store (DESIGN.md §15). Three checks on a seeded
#                corpus, each reading the store counters from the run's
#                --metrics file: (a) unchanged corpus — a warm re-run
#                (--warm-from DIR --batch DIR) must byte-match an
#                --oracle full recompute in stdout and diagnostics JSONL,
#                and serve every document from cache (store_hits equal to
#                documents, mentions_realigned 0); (b) mutated corpus —
#                warm the store from the pristine corpus (--warm-from),
#                rewrite digits in a few pages, and the incremental run
#                over the mutated directory must byte-match the --oracle
#                recompute while counting store_hits >= 1 AND
#                store_invalidations >= 1 (both cache service and
#                re-alignment actually happened); (c) text-only edit —
#                the same bar as (b) after rewording two phrases that
#                occur only in paragraph text on five pages (the stage
#                fails if the edit touched anything outside a <p>), which
#                proves that a text-only edit recomputes the changed
#                documents byte-identically while the store serves the
#                rest.
#   persist      durability gate for the on-disk store (DESIGN.md §16).
#                Byte-compares a cold --oracle run against (1) a
#                fresh --store-dir run, (2) a restart-warmed run in a new
#                process over the same directory (which must recover every
#                entry and, in its --metrics, count store_hits equal to
#                documents and mentions_realigned 0, and whose exit
#                snapshot must hold the first run's
#                snapshot records byte for byte: a recovered entry
#                encodes back to the record it was decoded from), and
#                (3) a run over a log
#                whose tail was deliberately torn
#                with garbage bytes (which must truncate and recompute,
#                never fail). Then a durable re-crawl: a fresh directory
#                warmed from the corpus aligns a copy with every digit of
#                every page rotated, compacting mid-run (MANIFEST
#                snapshot_gen >= 2: the 96 KiB default compaction floor
#                holds ~50 of the smoke corpus's ~2 KB records, so the
#                118-document warm-up and re-crawl outgrow it twice
#                before the final snapshot), and a new process over
#                that directory
#                re-aligns the mutated copy; both must byte-match the
#                --oracle run over the mutated pages, and the second must
#                count store_hits equal to documents and
#                mentions_realigned 0. Then a bounded durable store: a
#                --store-max-bytes budget worth a few entries (10000
#                bytes; an entry is estimated at ~2–3 KB) must
#                evict during a first run (store_evictions >= 1 in its
#                --metrics), and a restart over the same directory with
#                the same budget must report "store: recovered K entries"
#                with 1 <= K < the first run's documents counter (the
#                budget binds while recovery streams records
#                in, and a snapshot persists only what stays resident);
#                both must byte-match the --oracle run. Then
#                crash-tests briq-serve: a durable server is driven,
#                SIGKILLed without drain (kill -9, so only the
#                incrementally-appended novelty log survives),
#                rebooted on the same --store-dir, must report
#                store_recovered_entries >= 1 on /health, serve the
#                unchanged re-drive entirely from cache (store_hits equal
#                to the page count) with no failed persistence write
#                (store_persist_errors 0 on /metrics), match the oracle
#                byte for byte on the wire, and persist a snapshot on
#                clean drain. Last, a store briq-align persisted serves
#                briq-serve: a server booted on a copy of the directory
#                the first durable run persisted, driven over the same
#                pages (drive names each page by its basename, as
#                briq-align does), must serve every document from it
#                (store_hits equal to the documents counter in the first
#                durable run's --metrics), match the
#                oracle on the wire, and drain to the same "store:
#                persisted" line as that first run (no page stored
#                twice under a second identity).
#   serve        boots the persistent alignment server (briq-serve) on a
#                loopback port, byte-compares the drive client's output
#                against briq-align --json over the same seeded corpus
#                (the wire path must not drift from the batch path),
#                requires its metrics op to report nonzero pairs_scored,
#                mentions and rwr_walks after that drive (each request
#                records the pipeline's counters), runs the
#                fault-injecting chaos client against it, then floods
#                a deliberately tiny server (--workers 1 --queue-depth 1:
#                one align request runs, one more may wait) with chaos
#                --expect-shed (every flood request is a distinct page,
#                so none is a store hit) to prove the admission gate
#                sheds deterministically under overload. Both chaos runs fail
#                if the observed queue depth (requests waiting for a
#                slot) ever exceeded the queue_capacity the server's
#                health reports. Both servers must drain cleanly (exit 0
#                and a "drained:" line) on stop. See OPERATIONS.md §9.
#   docs         cargo doc --workspace --no-deps with RUSTDOCFLAGS set to
#                -D warnings: every rustdoc warning (broken intra-doc
#                link, missing docs where #![warn(missing_docs)] is on)
#                fails the gate.
#   quality      alignment quality, not just equality: briq-eval table2
#                (Table II: RF-only, RWR-only and BriQ on original,
#                truncated and rounded mentions) over 200 documents at
#                seeds 1-6. Pooled over the seeds (the mean of the six
#                printed values), BriQ's F1 and its precision must each be
#                at least RF-only's in every condition; per-seed values
#                are recorded, not gated. The per-seed and pooled
#                precision, recall and F1 of all three systems are
#                written to target/BENCH_quality.json, and the stage
#                fails, showing the diff, unless that equals the
#                committed BENCH_quality.json byte for byte. A change
#                that moves quality on purpose re-blesses it with
#                `cp target/BENCH_quality.json BENCH_quality.json` and
#                explains the move in CHANGES.md.
#
# Every stage prints its wall-clock; a summary table is printed at the end.
set -uo pipefail
cd "$(dirname "$0")"

NPROC="$(nproc 2>/dev/null || echo 1)"
# The smoke corpus. BENCH_work.jsonl pins its work and output, so these
# are constants, not settings.
SMOKE_DOCS=60
SMOKE_SEED=20190408
# The quality stage's protocol. BENCH_quality.json pins what it
# measures, so these are constants too.
QUALITY_DOCS=200
QUALITY_SEEDS=(1 2 3 4 5 6)
ALL_STAGES=(fmt clippy build test docs determinism store persist serve quality)

stage_fmt() {
    cargo fmt --all --check
}

stage_clippy() {
    cargo clippy --offline --locked --workspace --all-targets -q -- -D warnings
}

stage_build() {
    cargo build --offline --locked --release
}

stage_test() {
    cargo test --offline --locked --workspace -q || return 1
    CARGO_TARGET_DIR=target cargo test --offline --locked -q \
        --manifest-path crates/bench/src/bin/briq-perf/Cargo.toml
}

stage_docs() {
    RUSTDOCFLAGS="-D warnings" cargo doc --offline --locked --workspace --no-deps -q
}

# Run briq-align --json as run <name> in <dir>: alignments to
# out_<name>.json, diagnostics JSONL to diag_<name>.jsonl, stderr to
# err_<name>.txt, exit code to rc_<name>.
align_run() { # dir name briq-align-args...
    local dir="$1" name="$2"
    shift 2
    ./target/release/briq-align "$@" --json --diagnostics "$dir/diag_$name.jsonl" \
        > "$dir/out_$name.json" 2> "$dir/err_$name.txt"
    echo "$?" > "$dir/rc_$name"
}

# Fail unless files <a> and <b> are byte-identical, showing the first
# lines of the diff otherwise.
same_file() { # stage a b what
    cmp -s "$2" "$3" && return 0
    echo "$1: $4 differs" >&2
    diff "$2" "$3" | head -20 >&2
    return 1
}

# Fail unless run <run> reproduces run <ref> (both made by align_run in
# <dir>) byte for byte: the same exit code, which must be 0 (clean) or
# 2 (degraded-but-complete), identical alignment stdout, and identical
# diagnostics JSONL.
same_run() { # stage dir ref run
    local stage="$1" dir="$2" ref="$3" run="$4" rc_ref rc_run
    rc_ref="$(cat "$dir/rc_$ref")"
    rc_run="$(cat "$dir/rc_$run")"
    if [ "$rc_ref" != "$rc_run" ] || { [ "$rc_ref" -ne 0 ] && [ "$rc_ref" -ne 2 ]; }; then
        echo "$stage: exit codes diverged or failed ($ref: $rc_ref, $run: $rc_run)" >&2
        return 1
    fi
    same_file "$stage" "$dir/out_$ref.json" "$dir/out_$run.json" \
        "alignment output of run $run (vs $ref)" || return 1
    same_file "$stage" "$dir/diag_$ref.jsonl" "$dir/diag_$run.jsonl" \
        "diagnostics JSONL of run $run (vs $ref)"
}

# Fail unless run <run> kept exactly the candidates run <ref> kept: the
# candidates_kept, filter_total.* and filter_kept.* counter lines of
# <dir>/metrics_<run>.jsonl and <dir>/metrics_<ref>.jsonl are identical.
# An empty <ref> set fails too, so a renamed counter cannot make the
# compare vacuous.
same_recall() { # dir ref run
    local dir="$1" r
    for r in "$2" "$3"; do
        grep -E '"type":"counter","name":"(candidates_kept|filter_total\.|filter_kept\.)' \
            "$dir/metrics_$r.jsonl" > "$dir/recall_$r.jsonl"
    done
    [ -s "$dir/recall_$2.jsonl" ] || {
        echo "determinism: metrics_$2.jsonl has no candidates_kept or filter counters" >&2
        return 1
    }
    same_file determinism "$dir/recall_$2.jsonl" "$dir/recall_$3.jsonl" \
        "recall counters of run $3 (vs $2)"
}

# The work golden's lines for run <run>: one per counter line of the
# metrics JSONL <file>, tagged with the run.
golden_counters() { # run file
    grep '"type":"counter"' "$2" | sed "s/^{/{\"run\":\"$1\",/"
}

# The work golden's line for output <what> of run <run>: the byte count
# and SHA-256 of <file>.
golden_digest() { # run what file
    printf '{"run":"%s","output":"%s","bytes":%s,"sha256":"%s"}\n' "$1" "$2" \
        "$(wc -c < "$3")" "$(sha256sum < "$3" | cut -d' ' -f1)"
}

# Print the value of counter <name> in the --metrics JSONL <file>, or 0
# when it has no line there: a counter that never fired is absent.
counter() { # file name
    local v
    v="$(sed -n "s/^{\"type\":\"counter\",\"name\":\"$2\",\"value\":\([0-9]*\)}$/\1/p" "$1")"
    echo "${v:-0}"
}

# Fail unless the run that wrote <metrics> served every one of its
# documents (at least one) from the store: store_hits equals documents
# and mentions_realigned is 0.
all_hits() { # stage metrics what
    local docs hits realigned
    docs="$(counter "$2" documents)"
    hits="$(counter "$2" store_hits)"
    realigned="$(counter "$2" mentions_realigned)"
    [ "$docs" -ge 1 ] && [ "$hits" -eq "$docs" ] && [ "$realigned" -eq 0 ] || {
        echo "$1: $3 was not served entirely from the store (store_hits $hits of $docs documents, mentions_realigned $realigned)" >&2
        return 1
    }
}

stage_determinism() {
    cargo build --offline --locked --release -q -p briq-bench || return 1
    cargo build --offline --locked --release -q --example alloc_per_doc || return 1
    local dir jobs_hi run
    dir="$(mktemp -d)"
    trap 'rm -rf "$dir"' RETURN
    jobs_hi=$(( NPROC > 1 ? NPROC : 8 ))
    ./target/release/briq-align --gen-corpus "$dir/corpus" \
        --docs "$SMOKE_DOCS" --seed "$SMOKE_SEED" || return 1

    align_run "$dir" 1 --batch "$dir/corpus" --jobs 1
    # Worker count, observability recording, and the production path
    # itself must all be unobservable in the output: the parallel run,
    # the traced run, and the reference run (--oracle: exhaustive
    # classification, dense walks, no store) must match --jobs 1.
    align_run "$dir" n --batch "$dir/corpus" --jobs "$jobs_hi"
    align_run "$dir" traced --batch "$dir/corpus" --jobs 1 \
        --trace "$dir/trace.json" --metrics "$dir/metrics.jsonl"
    align_run "$dir" metrics --batch "$dir/corpus" --jobs 1 \
        --metrics "$dir/metrics_untraced.jsonl"
    align_run "$dir" oracle --batch "$dir/corpus" --jobs 1 --oracle \
        --metrics "$dir/metrics_oracle.jsonl"
    for run in n traced metrics oracle; do
        same_run determinism "$dir" 1 "$run" || return 1
    done
    # Retrieval recall: the indexed path keeps exactly what the
    # exhaustive oracle keeps, kind by kind.
    same_recall "$dir" untraced oracle || return 1
    grep -q '"traceEvents"' "$dir/trace.json" || {
        echo "determinism: trace file missing traceEvents" >&2
        return 1
    }
    grep -q '"pairs_scored"' "$dir/metrics.jsonl" || {
        echo "determinism: metrics JSONL missing pairs_scored" >&2
        return 1
    }
    # Metrics are recorded whether or not span trees are kept: the
    # untraced run must count exactly what the traced run counts.
    grep '"type":"counter"' "$dir/metrics.jsonl" > "$dir/counters_traced.jsonl"
    grep '"type":"counter"' "$dir/metrics_untraced.jsonl" > "$dir/counters_untraced.jsonl"
    same_file determinism "$dir/counters_traced.jsonl" "$dir/counters_untraced.jsonl" \
        "counters of the untraced --metrics run (vs the traced run)" || return 1
    echo "determinism: --jobs 1, --jobs $jobs_hi, --trace/--metrics, --metrics, and --oracle byte-identical ($(wc -c < "$dir/out_1.json") bytes of alignments; $(wc -l < "$dir/counters_traced.jsonl") counters equal traced and untraced; $(wc -l < "$dir/recall_oracle.jsonl") recall counters equal --oracle)"

    # The trained forest: phase-B pruning only runs with a model.
    ./target/release/briq-align --train-demo "$dir/model.json" 2> "$dir/err_train.txt" || {
        echo "determinism: --train-demo failed:" >&2
        cat "$dir/err_train.txt" >&2
        return 1
    }
    align_run "$dir" m1 --batch "$dir/corpus" --model "$dir/model.json" --jobs 1 \
        --metrics "$dir/metrics_m1.jsonl"
    align_run "$dir" mn --batch "$dir/corpus" --model "$dir/model.json" --jobs "$jobs_hi"
    align_run "$dir" moracle --batch "$dir/corpus" --model "$dir/model.json" --jobs 1 --oracle \
        --metrics "$dir/metrics_moracle.jsonl"
    for run in mn moracle; do
        same_run determinism "$dir" m1 "$run" || return 1
    done
    same_recall "$dir" m1 moracle || return 1
    echo "determinism: trained model at --jobs 1, --jobs $jobs_hi, and --oracle byte-identical ($(wc -c < "$dir/out_m1.json") bytes of alignments; $(wc -l < "$dir/recall_moracle.jsonl") recall counters equal --oracle)"

    align_run "$dir" stored --batch "$dir/corpus" --jobs 1 --store-dir "$dir/store"
    same_run determinism "$dir" 1 stored || return 1

    # The work golden: what the runs above did and wrote must equal the
    # committed BENCH_work.jsonl line for line.
    {
        golden_counters untrained "$dir/metrics_untraced.jsonl"
        golden_digest untrained alignments "$dir/out_1.json"
        golden_digest untrained diagnostics "$dir/diag_1.jsonl"
        golden_counters trained "$dir/metrics_m1.jsonl"
        golden_digest trained alignments "$dir/out_m1.json"
        golden_digest trained diagnostics "$dir/diag_m1.jsonl"
        golden_digest trained model "$dir/model.json"
        printf '{"run":"store","stderr":"%s"}\n' "$(grep '^store: persisted ' "$dir/err_stored.txt")"
        golden_digest store snapshot "$dir/store"/snapshot-*.briq
        # Two lines: the "alloc" line, then the "segment" line.
        ./target/release/examples/alloc_per_doc
    } > target/BENCH_work.jsonl
    same_file determinism BENCH_work.jsonl target/BENCH_work.jsonl \
        "this run's work golden target/BENCH_work.jsonl (> lines; < is the committed BENCH_work.jsonl)" || {
        echo "determinism: if the move is deliberate, cp target/BENCH_work.jsonl BENCH_work.jsonl and explain every moved line in CHANGES.md" >&2
        return 1
    }
    echo "determinism: --store-dir run byte-identical; BENCH_work.jsonl reproduced ($(wc -l < BENCH_work.jsonl) lines)"
}

stage_store() {
    cargo build --offline --locked --release -q -p briq-bench || return 1
    local dir
    dir="$(mktemp -d)"
    trap 'rm -rf "$dir"' RETURN
    ./target/release/briq-align --gen-corpus "$dir/corpus" \
        --docs "$SMOKE_DOCS" --seed "$SMOKE_SEED" || return 1

    # (a) Unchanged corpus: a warm re-run (the store warmed from the
    # corpus itself) vs the --oracle full recompute. Stdout and
    # diagnostics must be byte-identical, and the re-run must be served
    # entirely from cache (every document a hit, zero realignments).
    align_run "$dir" st --warm-from "$dir/corpus" --batch "$dir/corpus" --jobs 1 \
        --metrics "$dir/metrics_st.jsonl"
    align_run "$dir" oracle --batch "$dir/corpus" --jobs 1 --oracle
    same_run store "$dir" oracle st || return 1
    all_hits store "$dir/metrics_st.jsonl" "the warm re-run" || return 1

    # (b) Mutated corpus: warm from the pristine pages, rewrite every
    # digit in the first three pages, then compare the incremental run
    # to the --oracle recompute — and require that the run both served
    # cached documents (store_hits >= 1) and invalidated the mutated
    # ones (store_invalidations >= 1), so the equivalence really
    # exercised the incremental path rather than degenerating to
    # all-cold or all-warm.
    cp -r "$dir/corpus" "$dir/mutated"
    local n=0 f
    for f in "$dir/mutated"/*.html; do
        sed -i 'y/0123456789/1234567890/' "$f"
        n=$((n + 1))
        [ "$n" -ge 3 ] && break
    done
    align_run "$dir" inc --warm-from "$dir/corpus" --batch "$dir/mutated" --jobs 1 \
        --metrics "$dir/metrics_inc.jsonl"
    align_run "$dir" full --batch "$dir/mutated" --jobs 1 --oracle
    same_run store "$dir" full inc || return 1
    hit_and_invalidated "$dir/metrics_inc.jsonl" mutated || return 1

    # (c) Text-only edit: warm from the pristine pages, reword two
    # phrases in the paragraphs of the first five pages, and hold the
    # incremental run to the same bar as (b). Everything outside the
    # paragraphs must be byte-unchanged, so this proves that a text-only
    # edit recomputes the changed documents byte-identically.
    cp -r "$dir/corpus" "$dir/reworded"
    local paragraphs_out='s/<p>[^<]*<\/p>//g'
    n=0
    for f in "$dir/reworded"/*.html; do
        sed -i 's/ compared with / versus /g; s/The figure reached/The value reached/g' "$f"
        cmp -s "$f" "$dir/corpus/${f##*/}" && {
            echo "store: rewording left ${f##*/} unchanged" >&2
            return 1
        }
        cmp -s <(sed "$paragraphs_out" "$f") <(sed "$paragraphs_out" "$dir/corpus/${f##*/}") || {
            echo "store: rewording changed ${f##*/} outside its paragraphs" >&2
            return 1
        }
        n=$((n + 1))
        [ "$n" -ge 5 ] && break
    done
    align_run "$dir" text --warm-from "$dir/corpus" --batch "$dir/reworded" --jobs 1 \
        --metrics "$dir/metrics_text.jsonl"
    align_run "$dir" textfull --batch "$dir/reworded" --jobs 1 --oracle
    same_run store "$dir" textfull text || return 1
    hit_and_invalidated "$dir/metrics_text.jsonl" reworded || return 1
    echo "store: warm re-run ($(counter "$dir/metrics_st.jsonl" store_hits) of $(counter "$dir/metrics_st.jsonl" documents) documents from cache), mutated ($(counter "$dir/metrics_inc.jsonl" store_hits) hits, $(counter "$dir/metrics_inc.jsonl" store_invalidations) invalidations) and reworded ($(counter "$dir/metrics_text.jsonl" store_hits) hits, $(counter "$dir/metrics_text.jsonl" store_invalidations) invalidations) incremental runs byte-identical to --oracle"
}

# Fail unless the run that wrote <metrics> counts store_hits >= 1 and
# store_invalidations >= 1, so an incremental run really both served
# cached documents and re-aligned changed ones.
hit_and_invalidated() { # metrics what
    local hits inv
    hits="$(counter "$1" store_hits)"
    inv="$(counter "$1" store_invalidations)"
    [ "$hits" -ge 1 ] && [ "$inv" -ge 1 ] || {
        echo "store: $2 run did not both hit (>=1) and invalidate (>=1): store_hits $hits, store_invalidations $inv" >&2
        return 1
    }
}

# Send one JSONL request to the server at $1 over bash's /dev/tcp and
# print the single response line. Used by stage_persist to inspect
# /health and /metrics without a dedicated client binary.
serve_request() {
    local addr="$1" body="$2"
    {
        printf '%s\n' "$body" >&3
        head -1 <&3
    } 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
}

stage_persist() {
    cargo build --offline --locked --release -q -p briq-bench || return 1
    local dir health metrics recovered hits pages gen evictions docs
    dir="$(mktemp -d)"
    trap 'rm -rf "$dir"; [ -n "${SERVE_PID:-}" ] && kill -9 "$SERVE_PID" 2>/dev/null' RETURN
    ./target/release/briq-align --gen-corpus "$dir/corpus" \
        --docs "$SMOKE_DOCS" --seed "$SMOKE_SEED" || return 1

    # (a) Cold reference run: --oracle disables the store entirely, so no
    # cached or recovered state can possibly contribute to this output.
    align_run "$dir" cold --batch "$dir/corpus" --jobs 1 --oracle

    # (b) First durable run into an empty --store-dir: byte-identical to
    # the oracle, and it must actually persist its entries on exit.
    align_run "$dir" first --batch "$dir/corpus" --jobs 1 --store-dir "$dir/store" \
        --metrics "$dir/metrics_first.jsonl"
    same_run persist "$dir" cold first || return 1
    grep -q '^store: persisted ' "$dir/err_first.txt" || {
        echo "persist: first durable run reported no persisted snapshot:" >&2
        grep '^store:' "$dir/err_first.txt" >&2
        return 1
    }
    # (h) boots a server on this directory as (b) left it.
    cp -r "$dir/store" "$dir/xstore"

    # (c) Restart-warmed run in a NEW process over the same directory:
    # must recover every entry, serve the unchanged corpus entirely from
    # cache, and still byte-match the cold oracle. It inserts nothing, so
    # the snapshot it writes at exit, which encodes every recovered entry
    # again, must equal the first run's snapshot after the 24-byte header,
    # which differs only in its generation: a record decodes and encodes
    # back to the same bytes.
    cp "$dir/store"/snapshot-*.briq "$dir/first.briq"
    align_run "$dir" warm --batch "$dir/corpus" --jobs 1 --store-dir "$dir/store" \
        --metrics "$dir/metrics_warm.jsonl"
    same_run persist "$dir" cold warm || return 1
    grep -q '^store: recovered ' "$dir/err_warm.txt" || {
        echo "persist: restart-warmed run reported no recovery:" >&2
        grep '^store:' "$dir/err_warm.txt" >&2
        return 1
    }
    all_hits persist "$dir/metrics_warm.jsonl" "the restart-warmed run" || return 1
    cmp -s -i 24 "$dir/first.briq" "$dir/store"/snapshot-*.briq || {
        echo "persist: the restart-warmed run's snapshot does not hold the first run's records byte for byte" >&2
        return 1
    }

    # (d) Torn-tail smoke: append garbage to the novelty log. The next
    # run must truncate the torn tail, recompute whatever was lost, and
    # still byte-match the oracle — corruption costs time, never bits.
    printf 'torn-tail-garbage-not-a-frame' >> "$dir/store/novelty.log"
    align_run "$dir" torn --batch "$dir/corpus" --jobs 1 --store-dir "$dir/store"
    same_run persist "$dir" cold torn || return 1
    grep -q 'torn tail truncated' "$dir/err_torn.txt" || {
        echo "persist: corrupted log was not reported as truncated:" >&2
        grep '^store:' "$dir/err_torn.txt" >&2
        return 1
    }

    # (e) Durable re-crawl: warm a fresh directory from the pristine
    # corpus, then align a copy with every digit of every page rotated
    # (as stage_store does for three pages). That pass replaces every
    # entry, so its log outgrows the snapshot and the 96 KiB compaction
    # floor and compacts mid-run; a new process then recovers the
    # directory and must serve the whole mutated corpus from it. Both runs must match the --oracle
    # recompute of the mutated pages byte for byte.
    cp -r "$dir/corpus" "$dir/mutated"
    sed -i 'y/0123456789/1234567890/' "$dir/mutated"/*.html
    align_run "$dir" mcold --batch "$dir/mutated" --jobs 1 --oracle
    align_run "$dir" recrawl --warm-from "$dir/corpus" --batch "$dir/mutated" \
        --jobs 1 --store-dir "$dir/mstore"
    same_run persist "$dir" mcold recrawl || return 1
    gen="$(sed -n 's/^snapshot_gen //p' "$dir/mstore/MANIFEST")"
    [ "${gen:-0}" -ge 2 ] || {
        echo "persist: the re-crawl never compacted before its final snapshot (snapshot_gen ${gen:-none})" >&2
        return 1
    }
    align_run "$dir" rewarm --batch "$dir/mutated" --jobs 1 --store-dir "$dir/mstore" \
        --metrics "$dir/metrics_rewarm.jsonl"
    same_run persist "$dir" mcold rewarm || return 1
    all_hits persist "$dir/metrics_rewarm.jsonl" "the restarted re-crawl" || return 1

    # (f) Bounded durable store: a budget worth a few entries (each
    # estimated at ~2–3 KB on the smoke corpus, durable or not) evicts
    # during the first run, and a restart over the same directory with
    # the same budget recovers only what fits it. Hits are not required on the restart: at --jobs 1
    # the misses that come first evict the recovered entries.
    align_run "$dir" bounded --batch "$dir/corpus" --jobs 1 --store-dir "$dir/bstore" \
        --store-max-bytes 10000 --metrics "$dir/metrics_bounded.jsonl"
    same_run persist "$dir" cold bounded || return 1
    evictions="$(counter "$dir/metrics_bounded.jsonl" store_evictions)"
    [ "$evictions" -ge 1 ] || {
        echo "persist: the bounded run never evicted (store_evictions $evictions)" >&2
        return 1
    }
    align_run "$dir" rebounded --batch "$dir/corpus" --jobs 1 --store-dir "$dir/bstore" \
        --store-max-bytes 10000
    same_run persist "$dir" cold rebounded || return 1
    docs="$(counter "$dir/metrics_bounded.jsonl" documents)"
    recovered="$(sed -n 's/^store: recovered \([0-9]*\) entr.*/\1/p' "$dir/err_rebounded.txt")"
    [ "${recovered:-0}" -ge 1 ] && [ "$recovered" -lt "$docs" ] || {
        echo "persist: the bounded restart recovered ${recovered:-no} entries of $docs documents (want 1 <= K < documents):" >&2
        grep '^store:' "$dir/err_rebounded.txt" >&2
        return 1
    }
    echo "persist: bounded store (--store-max-bytes 10000) evicted $evictions entr$( [ "$evictions" = "1" ] && echo y || echo ies ) and its restart recovered $recovered of $docs documents, both byte-identical to --oracle"

    # (g) Serve crash-recovery: drive a durable server, SIGKILL it with
    # no drain (only the incrementally-appended log survives), reboot it
    # on the same --store-dir, and require full recovery: /health
    # reports the recovered entries, the unchanged re-drive is served
    # entirely from cache, the wire output byte-matches an --oracle
    # batch run, and the clean drain persists a snapshot.
    # Note: --docs counts documents, not page files; the store caches
    # per document, so the expected hit count is the document count.
    pages=12
    ./target/release/briq-align --gen-corpus "$dir/pages" \
        --docs "$pages" --seed "$SMOKE_SEED" || return 1
    ./target/release/briq-align --oracle --json "$dir/pages"/*.html \
        > "$dir/out_batch.json" 2> /dev/null
    boot_server "$dir/serve1.log" --store-dir "$dir/sstore" || return 1
    ./target/release/briq-serve drive --addr "$SERVE_ADDR" "$dir/pages"/*.html \
        > "$dir/out_drive1.json" 2> /dev/null
    same_file persist "$dir/out_batch.json" "$dir/out_drive1.json" \
        "durable server wire output (vs the --oracle batch run)" || return 1
    kill -9 "$SERVE_PID"
    wait "$SERVE_PID" 2> /dev/null
    SERVE_PID=""
    boot_server "$dir/serve2.log" --store-dir "$dir/sstore" || return 1
    health="$(serve_request "$SERVE_ADDR" '{"op":"health"}')"
    printf '%s' "$health" | grep -q '"store_persisted":true' || {
        echo "persist: rebooted server does not report store_persisted:true: $health" >&2
        return 1
    }
    recovered="$(printf '%s' "$health" | grep -o '"store_recovered_entries":[0-9][0-9.]*' | cut -d: -f2)"
    awk -v r="${recovered:-0}" 'BEGIN { exit !(r >= 1) }' || {
        echo "persist: rebooted server recovered ${recovered:-no} entries after SIGKILL: $health" >&2
        return 1
    }
    ./target/release/briq-serve drive --addr "$SERVE_ADDR" "$dir/pages"/*.html \
        > "$dir/out_drive2.json" 2> /dev/null
    same_file persist "$dir/out_batch.json" "$dir/out_drive2.json" \
        "recovered server wire output (vs the --oracle batch run)" || return 1
    metrics="$(serve_request "$SERVE_ADDR" '{"op":"metrics"}')"
    hits="$(printf '%s' "$metrics" | grep -o '"store_hits":[0-9][0-9.]*' | cut -d: -f2)"
    awk -v h="${hits:-0}" -v n="$pages" 'BEGIN { exit !(h == n) }' || {
        echo "persist: re-drive after recovery was not all cache hits (store_hits ${hits:-0} of $pages)" >&2
        return 1
    }
    printf '%s' "$metrics" | grep -q '"store_persist_errors":0[,}]' || {
        echo "persist: rebooted server reports failed persistence writes: $metrics" >&2
        return 1
    }
    stop_server "$SERVE_ADDR" "$SERVE_PID" "$dir/serve2.log.err" || return 1
    SERVE_PID=""
    grep -q '^store: persisted ' "$dir/serve2.log.err" || {
        echo "persist: drained server persisted no snapshot:" >&2
        grep '^store:' "$dir/serve2.log.err" >&2
        return 1
    }

    # (h) Cross-binary warm store: a server booted on a copy of what (b)
    # persisted, driven over the same pages, serves every document from
    # it (drive sends each page's basename as its id, the identity
    # briq-align stores it under), and its drain persists exactly what
    # (b) persisted, not a second copy of each document.
    docs="$(counter "$dir/metrics_first.jsonl" documents)"
    boot_server "$dir/serve3.log" --store-dir "$dir/xstore" || return 1
    ./target/release/briq-serve drive --addr "$SERVE_ADDR" "$dir/corpus"/*.html \
        > "$dir/out_drive3.json" 2> /dev/null
    same_file persist "$dir/out_cold.json" "$dir/out_drive3.json" \
        "wire output of a server over briq-align's store (vs the --oracle batch run)" || return 1
    metrics="$(serve_request "$SERVE_ADDR" '{"op":"metrics"}')"
    hits="$(printf '%s' "$metrics" | grep -o '"store_hits":[0-9][0-9.]*' | cut -d: -f2)"
    awk -v h="${hits:-0}" -v n="$docs" 'BEGIN { exit !(n > 0 && h == n) }' || {
        echo "persist: a server over briq-align's persisted store served ${hits:-0} of $docs documents from it" >&2
        return 1
    }
    stop_server "$SERVE_ADDR" "$SERVE_PID" "$dir/serve3.log.err" || return 1
    SERVE_PID=""
    [ "$(grep '^store: persisted ' "$dir/serve3.log.err")" = "$(grep '^store: persisted ' "$dir/err_first.txt")" ] || {
        echo "persist: the server over briq-align's store drained to another snapshot than briq-align persisted:" >&2
        grep '^store: persisted ' "$dir/err_first.txt" "$dir/serve3.log.err" >&2
        return 1
    }
    echo "persist: cold, fresh-durable, restart-warmed, and torn-log runs byte-identical; restart snapshot re-encodes the recovered records byte for byte; mutated re-crawl and its restart (snapshot_gen $gen) byte-identical; SIGKILLed server recovered $recovered entr$( [ "$recovered" = "1" ] && echo y || echo ies ) and served all $pages re-driven documents from cache; a server over briq-align's store served $hits/$docs documents from it"
}

# Boot a briq-serve child, leaving its loopback address in SERVE_ADDR
# and its pid in SERVE_PID; logs go to $1 / $1.err. Must run in the
# current shell (not a subshell) so the globals survive. Fails if the
# listen line never appears.
boot_server() {
    local log="$1"
    shift
    # Create the log first: the wait loop below may read it before the
    # backgrounded server has opened it.
    : > "$log"
    ./target/release/briq-serve serve --addr 127.0.0.1:0 "$@" \
        > "$log" 2> "${log}.err" &
    SERVE_PID=$!
    SERVE_ADDR=""
    local tries=0
    while [ "$tries" -lt 200 ]; do
        SERVE_ADDR="$(sed -n 's/^listening on //p' "$log" | head -1)"
        [ -n "$SERVE_ADDR" ] && return 0
        kill -0 "$SERVE_PID" 2>/dev/null || break
        sleep 0.05
        tries=$(( tries + 1 ))
    done
    echo "serve: server never printed its listen address" >&2
    return 1
}

# Stop the server at $1 (pid $2, stderr log $3) and require a clean
# drain: exit 0 plus the final drained-report line.
stop_server() {
    local addr="$1" pid="$2" errlog="$3" rc
    ./target/release/briq-serve stop --addr "$addr" || {
        echo "serve: stop request to $addr failed" >&2
        return 1
    }
    wait "$pid"
    rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "serve: server at $addr exited $rc instead of draining cleanly" >&2
        tail -5 "$errlog" >&2
        return 1
    fi
    grep -q '^drained: ' "$errlog" || {
        echo "serve: server at $addr printed no drained report" >&2
        return 1
    }
    grep -q ' 0 panic(s)$' "$errlog" || {
        echo "serve: server at $addr reported panics:" >&2
        grep '^drained: ' "$errlog" >&2
        return 1
    }
}

stage_serve() {
    cargo build --offline --locked --release -q -p briq-bench || return 1
    local dir rc_drive rc_batch
    dir="$(mktemp -d)"
    trap 'rm -rf "$dir"; [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null' RETURN
    ./target/release/briq-align --gen-corpus "$dir/corpus" \
        --docs 12 --seed "$SMOKE_SEED" || return 1

    # 1. Byte-identity: the wire path against the batch path over the
    # same pages (sorted, like briq-align's own --batch ordering).
    boot_server "$dir/serve.log" || return 1
    ./target/release/briq-serve drive --addr "$SERVE_ADDR" "$dir/corpus"/*.html \
        > "$dir/out_serve.json" 2> "$dir/drive.err"
    rc_drive=$?
    align_run "$dir" batch "$dir/corpus"/*.html
    rc_batch="$(cat "$dir/rc_batch")"
    if [ "$rc_drive" -ne "$rc_batch" ] || { [ "$rc_drive" -ne 0 ] && [ "$rc_drive" -ne 2 ]; }; then
        echo "serve: exit codes diverged or failed (drive: $rc_drive, batch: $rc_batch)" >&2
        return 1
    fi
    same_file serve "$dir/out_batch.json" "$dir/out_serve.json" \
        "wire output (vs briq-align --json)" || return 1
    # Each align request records the pipeline's own counters into the
    # server's registry, so the metrics op reports the drive's work.
    local metrics name
    metrics="$(serve_request "$SERVE_ADDR" '{"op":"metrics"}')"
    for name in pairs_scored mentions rwr_walks; do
        printf '%s' "$metrics" | grep -q "\"$name\":[1-9]" || {
            echo "serve: metrics op after the drive has no nonzero $name: $metrics" >&2
            return 1
        }
    done

    # 2. Chaos against the healthy server: malformed JSONL, oversized
    # payloads, half-closed connections, slow writers, request floods.
    ./target/release/briq-serve chaos --addr "$SERVE_ADDR" \
        --connections 8 --requests 4 > /dev/null 2> "$dir/chaos.err" || {
        echo "serve: chaos invariants failed against the healthy server" >&2
        tail -10 "$dir/chaos.err" >&2
        return 1
    }
    stop_server "$SERVE_ADDR" "$SERVE_PID" "$dir/serve.log.err" || return 1
    SERVE_PID=""

    # 3. Overload: a 1-worker/1-deep server must shed deterministically
    # under the flood (chaos asserts zero panics, a max queue depth no
    # higher than the health's queue_capacity, and byte-identical shed
    # lines; --expect-shed makes sheds required).
    boot_server "$dir/tiny.log" --workers 1 --queue-depth 1 || return 1
    ./target/release/briq-serve chaos --addr "$SERVE_ADDR" \
        --connections 12 --requests 6 --expect-shed \
        > /dev/null 2> "$dir/chaos_tiny.err" || {
        echo "serve: overload chaos failed against the constrained server" >&2
        tail -10 "$dir/chaos_tiny.err" >&2
        return 1
    }
    stop_server "$SERVE_ADDR" "$SERVE_PID" "$dir/tiny.log.err" || return 1
    SERVE_PID=""

    echo "serve: wire output byte-identical to batch ($(wc -c < "$dir/out_serve.json") bytes); chaos + overload clean, both servers drained"
}

# Read the briq-eval table2 outputs <file>... (one per seed, named
# table2_<seed>.txt), write the per-seed and pooled precision, recall and
# F1 of every system in every condition to stdout as JSON, and fail,
# naming each shortfall on stderr, unless BriQ's pooled F1 and pooled
# precision are each at least RF-only's in every condition. Pooled is
# the mean of the printed per-seed values; the gate compares their sums
# in hundredths, so no float rounding decides it.
quality_report() { # file...
    awk -v docs="$QUALITY_DOCS" '
        BEGIN {
            split("original truncated rounded", cond, " ")
            split("RF RWR BriQ", sys, " ")
            metric["prec."] = "precision"; metric["recall"] = "recall"; metric["F1"] = "f1"
            header = "RF RWR BriQ RF(tr) RWR(tr) BriQ(tr) RF(rd) RWR(rd) BriQ(rd)"
        }
        function fail(msg) { print "quality: " msg > "/dev/stderr"; bad = 1; exit 1 }
        FNR == 1 {
            seed = FILENAME; sub(/.*table2_/, "", seed); sub(/\.txt$/, "", seed)
            seeds[++n] = seed
        }
        $1 == "RF" { $1 = $1; if ($0 != header) fail(FILENAME ": unexpected columns: " $0) }
        $1 in metric {
            if (NF != 10) fail(FILENAME ": row " $1 " has " NF - 1 " values, not 9")
            rows[seed]++
            for (c = 1; c <= 9; c++) {
                v = $(c + 1)
                if (v !~ /^[0-9]+\.[0-9][0-9]$/) fail(FILENAME ": row " $1 " value " v)
                val[seed, metric[$1], c] = v
                hundredths[metric[$1], c] += substr(v, 1, length(v) - 3) * 100 + substr(v, length(v) - 1)
            }
        }
        END {
            if (bad) exit 1
            for (i = 1; i <= n; i++)
                if (rows[seeds[i]] != 3) fail("seed " seeds[i] ": " rows[seeds[i]] + 0 " of 3 rows")
            list = seeds[1]; for (i = 2; i <= n; i++) list = list "," seeds[i]
            printf "{\"experiment\":\"table2\",\"docs\":%d,\"seeds\":[%s],\"results\":[\n", docs, list
            sep = ""
            for (i = 0; i <= n; i++) {
                for (c = 1; c <= 9; c++) {
                    k = int((c - 1) / 3) + 1; y = (c - 1) % 3 + 1
                    if (i == 0) {
                        printf "%s{\"seed\":\"pooled\",\"condition\":\"%s\",\"system\":\"%s\",\"precision\":%.3f,\"recall\":%.3f,\"f1\":%.3f}", sep, cond[k], sys[y], hundredths["precision", c] / n / 100, hundredths["recall", c] / n / 100, hundredths["f1", c] / n / 100
                    } else {
                        s = seeds[i]
                        printf "%s{\"seed\":%s,\"condition\":\"%s\",\"system\":\"%s\",\"precision\":%s,\"recall\":%s,\"f1\":%s}", sep, s, cond[k], sys[y], val[s, "precision", c], val[s, "recall", c], val[s, "f1", c]
                    }
                    sep = ",\n"
                }
            }
            printf "\n]}\n"
            for (k = 1; k <= 3; k++) {
                rf = 3 * k - 2; briq = 3 * k
                for (m = 1; m <= 2; m++) {
                    name = m == 1 ? "f1" : "precision"
                    if (hundredths[name, briq] < hundredths[name, rf]) {
                        printf "quality: %s: pooled BriQ %s %.3f < RF-only %.3f\n", cond[k], name, hundredths[name, briq] / n / 100, hundredths[name, rf] / n / 100 > "/dev/stderr"
                        short = 1
                    }
                }
            }
            exit short
        }' "$@"
}

stage_quality() {
    cargo build --offline --locked --release -q -p briq-bench || return 1
    local dir seed pid files=() pids=()
    dir="$(mktemp -d)"
    trap 'rm -rf "$dir"' RETURN
    # The seeds are independent single-threaded runs, so they run side
    # by side; each writes only its own file.
    for seed in "${QUALITY_SEEDS[@]}"; do
        ./target/release/briq-eval table2 --docs "$QUALITY_DOCS" --seed "$seed" \
            > "$dir/table2_$seed.txt" 2> "$dir/err_$seed.txt" &
        pids+=("$!")
        files+=("$dir/table2_$seed.txt")
    done
    for pid in "${pids[@]}"; do
        wait "$pid" || {
            echo "quality: a briq-eval table2 run failed:" >&2
            cat "$dir"/err_*.txt >&2
            return 1
        }
    done
    quality_report "${files[@]}" > target/BENCH_quality.json || {
        echo "quality: BriQ must match or beat RF-only on pooled F1 and precision in every condition (target/BENCH_quality.json)" >&2
        return 1
    }
    same_file quality BENCH_quality.json target/BENCH_quality.json \
        "this run's quality record target/BENCH_quality.json (> lines; < is the committed BENCH_quality.json)" || {
        echo "quality: if the move is deliberate, cp target/BENCH_quality.json BENCH_quality.json and explain it in CHANGES.md" >&2
        return 1
    }
    echo "quality: BriQ >= RF-only on pooled F1 and precision in all three conditions (seeds ${QUALITY_SEEDS[*]}); BENCH_quality.json reproduced"
}

known_stage() {
    local s
    for s in "${ALL_STAGES[@]}"; do
        [ "$s" = "$1" ] && return 0
    done
    return 1
}

if [ "${1:-}" = "help" ] || [ "${1:-}" = "--help" ]; then
    echo "usage: ./ci.sh [stage...]"
    echo "stages: ${ALL_STAGES[*]} (default: all)"
    exit 0
fi
# Machine-readable stage list: one name per line, nothing else, so
# tooling and pre-commit hooks can enumerate stages without parsing help.
if [ "${1:-}" = "--list" ]; then
    printf '%s\n' "${ALL_STAGES[@]}"
    exit 0
fi

STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then
    STAGES=("${ALL_STAGES[@]}")
fi
for s in "${STAGES[@]}"; do
    if ! known_stage "$s"; then
        echo "unknown stage: $s (stages: ${ALL_STAGES[*]})" >&2
        exit 1
    fi
done

SUMMARY_NAMES=()
SUMMARY_TIMES=()
SUMMARY_RESULTS=()
FAILED=0

for s in "${STAGES[@]}"; do
    echo "==> $s"
    start=$SECONDS
    if "stage_${s//-/_}"; then
        result=ok
    else
        result=FAIL
        FAILED=1
    fi
    elapsed=$(( SECONDS - start ))
    SUMMARY_NAMES+=("$s")
    SUMMARY_TIMES+=("$elapsed")
    SUMMARY_RESULTS+=("$result")
    echo "<== $s: $result (${elapsed}s)"
done

echo
printf '%-14s %8s  %s\n' "stage" "seconds" "result"
printf '%-14s %8s  %s\n' "-----" "-------" "------"
total=0
for i in "${!SUMMARY_NAMES[@]}"; do
    printf '%-14s %8s  %s\n' "${SUMMARY_NAMES[$i]}" "${SUMMARY_TIMES[$i]}" "${SUMMARY_RESULTS[$i]}"
    total=$(( total + SUMMARY_TIMES[i] ))
done
printf '%-14s %8s\n' "total" "$total"

if [ "$FAILED" -ne 0 ]; then
    echo "CI FAILED"
    exit 1
fi
echo "CI OK"
