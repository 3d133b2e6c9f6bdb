#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every commit.
#
#   ./scripts/check.sh           # build + tests + clippy + fig10 smoke
#   SKIP_SMOKE=1 ./scripts/check.sh   # skip the runner smoke (fast iteration)
#
# About 6 minutes with a warm target dir on 2 cores, most of it the smokes.
# Tests build with the dev profile at opt-level 2 (root Cargo.toml), so the
# build + `cargo test -q` step takes ~50 s cold and ~20 s warm.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# The root `cargo test` runs only the facade package; the serving tiers'
# unit and end-to-end suites need naming.
echo "==> cargo test -q -p fairlens-serve -p fairlens-fleet"
cargo test -q -p fairlens-serve -p fairlens-fleet

# Every other crate's unit and integration suites: the solver and causal
# oracles, the kernel equivalence tests, monitor, trace and bench.
echo "==> cargo test -q --workspace --exclude fairlens --exclude fairlens-serve --exclude fairlens-fleet"
cargo test -q --workspace --exclude fairlens --exclude fairlens-serve --exclude fairlens-fleet

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The end-to-end benchmark builds the program from source as path
# dependencies: a refactor that breaks its imports must fail here.
echo "==> e2e benchmark build + self-tests"
cargo build --release --manifest-path e2e_bench/Cargo.toml
cargo test --release --manifest-path e2e_bench/Cargo.toml

if [[ "${SKIP_SMOKE:-0}" != "1" ]]; then
    smoke_out="$(mktemp -d)"
    trap 'rm -rf "$smoke_out"' EXIT

    echo "==> bench smoke (quick-scale linalg kernels vs committed BENCH_linalg.json)"
    # Re-measures the quick-scale kernel sweep and fails if any kernel's
    # fast-path median regressed >20 % vs the committed baseline. Shared
    # or loaded boxes make timing noisy, so by default a regression only
    # warns; export FAIRLENS_BENCH_STRICT=1 to turn it into a hard gate.
    # The warning also prints the relative verdict (each kernel's in-run
    # naive/fast speedup vs the baseline's), which machine load cannot
    # move: an absolute regression with a clean relative verdict is load.
    if cargo run --release -p fairlens-bench --bin bench_report -- \
        --check BENCH_linalg.json > "$smoke_out/bench_check.txt" 2>&1; then
        echo "    ok: no kernel regressed >20% vs BENCH_linalg.json"
    elif [[ "${FAIRLENS_BENCH_STRICT:-0}" == "1" ]]; then
        echo "bench smoke FAILED (FAIRLENS_BENCH_STRICT=1):" >&2
        cat "$smoke_out/bench_check.txt" >&2
        exit 1
    else
        echo "    WARNING: kernel regression vs BENCH_linalg.json (ignored without FAIRLENS_BENCH_STRICT=1):"
        grep -E 'verdict|REGRESSED|SPEEDUP-LOST' "$smoke_out/bench_check.txt" | sed 's/^/    /'
        echo "    re-baseline with: cargo run --release -p fairlens-bench --bin bench_report -- --out ."
    fi

    echo "==> fig10 quick smoke (German panel, parallel runner)"
    cargo run --release -p fairlens-bench --bin fig10_correctness_fairness -- \
        german --scale quick --threads 2 --out "$smoke_out" >/dev/null
    records="$(wc -l < "$smoke_out/fig10_correctness_fairness.jsonl")"
    if [[ "$records" -lt 19 ]]; then
        echo "smoke FAILED: expected >=19 records, got $records" >&2
        exit 1
    fi
    echo "    ok: $records records"

    echo "==> fault-injection smoke (fig12 quick with panic + hang + flaky)"
    # One panicking cell, one hanging cell (caught by the 8 s deadline) and
    # one cell that needs a retry; the run must still exit 0 with every
    # other cell recorded and the failures in the sidecar.
    FAIRLENS_FAULT='panic:KamCal^DP:1;hang:Hardt^EO:0;flaky:1:KamKar^DP:2' \
    cargo run --release -p fairlens-bench --features fault-inject \
        --bin fig12_stability -- \
        german --scale quick --threads 2 --retries 2 --cell-timeout 8 \
        --out "$smoke_out" >/dev/null
    results="$smoke_out/fig12_stability.jsonl"
    sidecar="$smoke_out/fig12_stability.failures.jsonl"
    records="$(wc -l < "$results")"
    # German quick: 19 approaches (LR + 18 fair variants) over 10 folds =
    # 190 cells, minus the panicked and the timed-out one.
    if [[ "$records" -ne 188 ]]; then
        echo "fault smoke FAILED: expected 188 records, got $records" >&2
        exit 1
    fi
    grep -q '"kind":"panicked"'  "$sidecar" || { echo "fault smoke FAILED: no panicked entry" >&2; exit 1; }
    grep -q '"kind":"timed_out"' "$sidecar" || { echo "fault smoke FAILED: no timed_out entry" >&2; exit 1; }
    grep -q '"attempts":2' "$results" || { echo "fault smoke FAILED: flaky cell did not record a retry" >&2; exit 1; }
    echo "    ok: $records records, $(wc -l < "$sidecar") failures in sidecar"

    echo "==> resume smoke (kill fig12 at 50 %, resume, compare)"
    # Reference run (traced — the trace smoke below reuses it), then the
    # same run truncated to its first half and resumed; modulo wall-clock
    # the finalized files must agree.
    ref="$smoke_out/ref.jsonl"
    trace="$smoke_out/fig12.trace.jsonl"
    cargo run --release -p fairlens-bench --bin fig12_stability -- \
        german --scale quick --threads 2 --out "$smoke_out" --trace "$trace" >/dev/null
    mv "$smoke_out/fig12_stability.jsonl" "$ref"
    half="$smoke_out/half.jsonl"
    head -n 100 "$ref" > "$half"
    cargo run --release -p fairlens-bench --bin fig12_stability -- \
        german --scale quick --threads 2 --resume "$half" --out "$smoke_out" >/dev/null
    strip_times() { sed 's/"fit_ms":[^,]*,//; s/"predict_ms":[^,]*,//' "$1"; }
    if ! diff <(strip_times "$ref") <(strip_times "$smoke_out/fig12_stability.jsonl") >/dev/null; then
        echo "resume smoke FAILED: resumed run diverged from the reference" >&2
        exit 1
    fi
    echo "    ok: resumed run matches the reference"

    echo "==> trace smoke (trace_report on the traced fig12 run)"
    # trace_report must exit 0, name all five pipeline phases, and agree
    # with the RunRecord wall-clocks within max(5 %, 1 ms) per cell.
    report="$smoke_out/trace_report.txt"
    cargo run --release -p fairlens-bench --bin trace_report -- \
        "$trace" --results "$ref" > "$report"
    for phase in synth encode fit predict metrics; do
        grep -qw "$phase" "$report" \
            || { echo "trace smoke FAILED: phase '$phase' missing from report" >&2; exit 1; }
    done
    grep -q 'cross-check vs' "$report" \
        || { echo "trace smoke FAILED: no cross-check line" >&2; exit 1; }
    [[ -s "$smoke_out/fig12.trace.collapsed" ]] \
        || { echo "trace smoke FAILED: no collapsed flamegraph stacks" >&2; exit 1; }
    echo "    ok: all five phases reported, cross-check passed"

    echo "==> serving smoke (export German models, loadgen 1000 reqs, drain)"
    # Export a handful of German artifacts, boot the prediction server on
    # an ephemeral port, fire a 4-connection keep-alive mix of single and
    # batch predicts (loadgen exits non-zero on any non-200), check the
    # metrics moved, and drain via POST /v1/shutdown; the server must
    # exit 0 with no connection resets.
    #
    # Warm the exact artifacts `cargo run` will want first — a rebuild
    # inside the timed announce loops below reads as a boot failure.
    cargo build --release -p fairlens-serve --bin fairlens-serve --example loadgen >/dev/null
    cargo build --release -p fairlens-bench --bin export_models --bin flm_flip >/dev/null
    models_dir="$smoke_out/models"
    cargo run --release -p fairlens-bench --bin export_models -- \
        --scale quick --out "$models_dir" --datasets German \
        --approaches 'LR,Feld^DP(1.0),Hardt^EO' >/dev/null 2>&1
    serve_log="$smoke_out/serve.log"
    serve_trace="$smoke_out/serve.trace.jsonl"
    cargo run --release -p fairlens-serve -- \
        --addr 127.0.0.1:0 --models "$models_dir" --trace "$serve_trace" 2> "$serve_log" &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 300); do
        addr="$(sed -n 's/^\[serve\] listening on \([0-9.:]*\).*$/\1/p' "$serve_log")"
        [[ -n "$addr" ]] && break
        sleep 0.1
    done
    if [[ -z "$addr" ]]; then
        echo "serve smoke FAILED: server never announced its address" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    cargo run --release -p fairlens-serve --example loadgen -- \
        --addr "$addr" --requests 1000 --conns 4 2> "$smoke_out/loadgen.log" \
        || { echo "serve smoke FAILED:" >&2; cat "$smoke_out/loadgen.log" >&2; exit 1; }
    curl -s "http://$addr/metrics" > "$smoke_out/metrics.txt"
    grep -q 'fairlens_requests_total{route="/v1/predict",status="200"} 1000' \
        "$smoke_out/metrics.txt" \
        || { echo "serve smoke FAILED: predict counter did not reach 1000" >&2; exit 1; }
    curl -s -X POST "http://$addr/v1/shutdown" >/dev/null
    if ! wait "$serve_pid"; then
        echo "serve smoke FAILED: server exited non-zero" >&2
        exit 1
    fi
    grep -q '\[serve\] drained, bye' "$serve_log" \
        || { echo "serve smoke FAILED: no drain marker in the log" >&2; exit 1; }
    # loadgen must report a latency distribution with a positive p99.
    p99="$(sed -n 's/.*p99 \([0-9.][0-9.]*\)$/\1/p' "$smoke_out/loadgen.log")"
    if [[ -z "$p99" ]] || ! awk -v v="$p99" 'BEGIN { exit !(v > 0) }'; then
        echo "serve smoke FAILED: loadgen p99 missing or zero (got '${p99:-}')" >&2
        exit 1
    fi
    # The drained server leaves per-request trace tracks behind.
    grep -q '"track":"req/' "$serve_trace" \
        || { echo "serve smoke FAILED: no req/ tracks in the serve trace" >&2; exit 1; }
    echo "    ok: 1000 requests served, p99 ${p99} ms, metrics moved, clean drain"

    echo "==> chaos smoke (open-loop overload vs fault-injected server)"
    # Tight admission limits plus an injected executor panic and two
    # injected hangs: the server must never exit, shed the overflow with
    # well-formed 429/503/504s, trip the german-lr breaker, and re-close
    # it once the fault budgets are spent. Reuses the models exported by
    # the serving smoke above.
    chaos_log="$smoke_out/chaos-serve.log"
    FAIRLENS_FAULT='panic:german-lr:1;hang:german-lr:2' \
    cargo run --release -p fairlens-serve -- \
        --addr 127.0.0.1:0 --models "$models_dir" \
        --max-queue 2 --max-inflight 4 --deadline-ms 800 \
        --breaker-threshold 2 --breaker-cooldown-ms 300 2> "$chaos_log" &
    chaos_pid=$!
    addr=""
    for _ in $(seq 1 300); do
        addr="$(sed -n 's/^\[serve\] listening on \([0-9.:]*\).*$/\1/p' "$chaos_log")"
        [[ -n "$addr" ]] && break
        sleep 0.1
    done
    if [[ -z "$addr" ]]; then
        echo "chaos smoke FAILED: server never announced its address" >&2
        kill "$chaos_pid" 2>/dev/null || true
        exit 1
    fi
    # Phase 1 — overload: pipelined bursts far past the admission limits
    # while the faults fire. Every request must get a well-formed answer
    # (200 or a shed); loadgen exits non-zero on anything else.
    cargo run --release -p fairlens-serve --example loadgen -- \
        --addr "$addr" --model german-lr --requests 400 --conns 8 \
        --open-loop --burst 32 --allow-shed 2> "$smoke_out/chaos-overload.log" \
        || { echo "chaos smoke FAILED (overload phase):" >&2
             cat "$smoke_out/chaos-overload.log" >&2; exit 1; }
    # Phase 2 — recovery: a polite closed loop that honours Retry-After.
    # Fault budgets are spent, so the breaker must re-close.
    cargo run --release -p fairlens-serve --example loadgen -- \
        --addr "$addr" --model german-lr --requests 100 --conns 2 \
        --allow-shed 2> "$smoke_out/chaos-recovery.log" \
        || { echo "chaos smoke FAILED (recovery phase):" >&2
             cat "$smoke_out/chaos-recovery.log" >&2; exit 1; }
    # The server survived and still answers.
    [[ "$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/healthz")" == "200" ]] \
        || { echo "chaos smoke FAILED: /healthz is not 200 after the storm" >&2; exit 1; }
    curl -s "http://$addr/metrics" > "$smoke_out/chaos-metrics.txt"
    grep -q 'fairlens_shed_total' "$smoke_out/chaos-metrics.txt" \
        || { echo "chaos smoke FAILED: nothing was shed" >&2; exit 1; }
    grep -Eq 'fairlens_breaker_opens_total\{model="german-lr"\} [1-9]' \
        "$smoke_out/chaos-metrics.txt" \
        || { echo "chaos smoke FAILED: the breaker never opened" >&2; exit 1; }
    grep -q 'fairlens_breaker_state{model="german-lr"} 0' "$smoke_out/chaos-metrics.txt" \
        || { echo "chaos smoke FAILED: the breaker did not re-close" >&2; exit 1; }
    grep -q 'fairlens_queue_depth{model="german-lr"} 0' "$smoke_out/chaos-metrics.txt" \
        || { echo "chaos smoke FAILED: the queue did not drain" >&2; exit 1; }
    curl -s -X POST "http://$addr/v1/shutdown" >/dev/null
    if ! wait "$chaos_pid"; then
        echo "chaos smoke FAILED: server exited non-zero" >&2
        exit 1
    fi
    grep -q '\[serve\] drained, bye' "$chaos_log" \
        || { echo "chaos smoke FAILED: no drain marker in the log" >&2; exit 1; }
    sheds="$(sed -n 's/^fairlens_shed_total{reason="queue_full"} //p' "$smoke_out/chaos-metrics.txt")"
    echo "    ok: survived the storm (${sheds:-0} queue sheds), breaker tripped and re-closed, clean drain"

    echo "==> xverify smoke (paired solvers in lockstep, clean + perturbed)"
    # The clean suite must agree on every pair; the perturbed run must
    # exit non-zero and pinpoint the injected iteration — proof the
    # checker fires rather than stays silent.
    cargo run --release -p fairlens-bench --bin xverify -- \
        german --scale quick --cells 1 2> "$smoke_out/xverify.log" \
        || { echo "xverify smoke FAILED (clean run):" >&2
             cat "$smoke_out/xverify.log" >&2; exit 1; }
    grep -q 'all solver pairs agree' "$smoke_out/xverify.log" \
        || { echo "xverify smoke FAILED: no agreement marker" >&2; exit 1; }
    if cargo run --release -p fairlens-bench --bin xverify -- \
        german --scale quick --perturb 2> "$smoke_out/xverify-perturb.log"; then
        echo "xverify smoke FAILED: --perturb exited 0" >&2
        cat "$smoke_out/xverify-perturb.log" >&2
        exit 1
    fi
    grep -q 'first divergence at iteration' "$smoke_out/xverify-perturb.log" \
        || { echo "xverify smoke FAILED: perturbation not pinpointed" >&2
             cat "$smoke_out/xverify-perturb.log" >&2; exit 1; }
    echo "    ok: clean suite agrees, injected perturbation pinpointed"

    echo "==> shadow & replay smoke (record, clean window, promote, replay, dirty 409)"
    # A byte-identical shadow candidate, staged after boot through
    # POST /v1/shadow, must produce a clean comparison window (promote
    # succeeds); a recorded run must replay bit-exactly against the
    # promoted server; a bit-flipped candidate must drive the divergence
    # counter and turn promote into a structured 409.
    cp "$models_dir/german-lr.flm" "$smoke_out/candidate.flm"
    recording="$smoke_out/predict.rec.jsonl"
    shadow_log="$smoke_out/shadow-serve.log"
    cargo run --release -p fairlens-serve -- \
        --addr 127.0.0.1:0 --models "$models_dir" \
        --record "$recording" 2> "$shadow_log" &
    shadow_pid=$!
    addr=""
    for _ in $(seq 1 300); do
        addr="$(sed -n 's/^\[serve\] listening on \([0-9.:]*\).*$/\1/p' "$shadow_log")"
        [[ -n "$addr" ]] && break
        sleep 0.1
    done
    if [[ -z "$addr" ]]; then
        echo "shadow smoke FAILED: server never announced its address" >&2
        kill "$shadow_pid" 2>/dev/null || true
        exit 1
    fi
    attach_code="$(curl -s -o "$smoke_out/shadow-attach.json" -w '%{http_code}' \
        -X POST "http://$addr/v1/shadow" \
        -d "{\"model\": \"german-lr\", \"artifact\": \"$smoke_out/candidate.flm\"}")"
    if [[ "$attach_code" != "200" ]]; then
        echo "shadow smoke FAILED: attach got HTTP $attach_code:" >&2
        cat "$smoke_out/shadow-attach.json" >&2
        kill "$shadow_pid" 2>/dev/null || true
        exit 1
    fi
    cargo run --release -p fairlens-serve --example loadgen -- \
        --addr "$addr" --model german-lr --requests 200 --conns 2 \
        2> "$smoke_out/shadow-loadgen.log" \
        || { echo "shadow smoke FAILED (loadgen):" >&2
             cat "$smoke_out/shadow-loadgen.log" >&2; exit 1; }
    curl -s "http://$addr/metrics" > "$smoke_out/shadow-metrics.txt"
    grep -q 'fairlens_shadow_compared_total{model="german-lr"} 200' \
        "$smoke_out/shadow-metrics.txt" \
        || { echo "shadow smoke FAILED: compared counter did not reach 200" >&2; exit 1; }
    grep -q 'fairlens_shadow_divergence_total{model="german-lr"} 0' \
        "$smoke_out/shadow-metrics.txt" \
        || { echo "shadow smoke FAILED: identical candidate diverged" >&2; exit 1; }
    promote_code="$(curl -s -o "$smoke_out/promote.json" -w '%{http_code}' \
        -X POST "http://$addr/v1/promote" -d '{"model": "german-lr"}')"
    if [[ "$promote_code" != "200" ]] \
        || ! grep -q '"status": *"promoted"' "$smoke_out/promote.json"; then
        echo "shadow smoke FAILED: clean promote got HTTP $promote_code:" >&2
        cat "$smoke_out/promote.json" >&2
        exit 1
    fi
    curl -s -X POST "http://$addr/v1/shutdown" >/dev/null
    wait "$shadow_pid" \
        || { echo "shadow smoke FAILED: shadow server exited non-zero" >&2; exit 1; }
    # Replay the recording against a fresh boot of the promoted models.
    replay_log="$smoke_out/replay-serve.log"
    cargo run --release -p fairlens-serve -- \
        --addr 127.0.0.1:0 --models "$models_dir" 2> "$replay_log" &
    replay_pid=$!
    addr=""
    for _ in $(seq 1 300); do
        addr="$(sed -n 's/^\[serve\] listening on \([0-9.:]*\).*$/\1/p' "$replay_log")"
        [[ -n "$addr" ]] && break
        sleep 0.1
    done
    if [[ -z "$addr" ]]; then
        echo "shadow smoke FAILED: replay server never announced its address" >&2
        kill "$replay_pid" 2>/dev/null || true
        exit 1
    fi
    cargo run --release -p fairlens-serve --example loadgen -- \
        --addr "$addr" --replay "$recording" --shutdown \
        2> "$smoke_out/replay.log" \
        || { echo "shadow smoke FAILED (replay):" >&2
             cat "$smoke_out/replay.log" >&2; exit 1; }
    grep -q 'REPLAY PASS' "$smoke_out/replay.log" \
        || { echo "shadow smoke FAILED: no REPLAY PASS marker" >&2; exit 1; }
    wait "$replay_pid" \
        || { echo "shadow smoke FAILED: replay server exited non-zero" >&2; exit 1; }
    # A bit-flipped candidate must dirty the window and block promotion.
    cargo run --release -p fairlens-bench --bin flm_flip -- \
        "$models_dir/german-lr.flm" "$smoke_out/flipped.flm" 2>/dev/null
    dirty_log="$smoke_out/dirty-serve.log"
    cargo run --release -p fairlens-serve -- \
        --addr 127.0.0.1:0 --models "$models_dir" 2> "$dirty_log" &
    dirty_pid=$!
    addr=""
    for _ in $(seq 1 300); do
        addr="$(sed -n 's/^\[serve\] listening on \([0-9.:]*\).*$/\1/p' "$dirty_log")"
        [[ -n "$addr" ]] && break
        sleep 0.1
    done
    if [[ -z "$addr" ]]; then
        echo "shadow smoke FAILED: dirty server never announced its address" >&2
        kill "$dirty_pid" 2>/dev/null || true
        exit 1
    fi
    attach_code="$(curl -s -o "$smoke_out/dirty-attach.json" -w '%{http_code}' \
        -X POST "http://$addr/v1/shadow" \
        -d "{\"model\": \"german-lr\", \"artifact\": \"$smoke_out/flipped.flm\"}")"
    if [[ "$attach_code" != "200" ]]; then
        echo "shadow smoke FAILED: dirty attach got HTTP $attach_code:" >&2
        cat "$smoke_out/dirty-attach.json" >&2
        kill "$dirty_pid" 2>/dev/null || true
        exit 1
    fi
    cargo run --release -p fairlens-serve --example loadgen -- \
        --addr "$addr" --model german-lr --requests 50 --conns 2 \
        2> "$smoke_out/dirty-loadgen.log" \
        || { echo "shadow smoke FAILED (dirty loadgen):" >&2
             cat "$smoke_out/dirty-loadgen.log" >&2; exit 1; }
    curl -s "http://$addr/metrics" > "$smoke_out/dirty-metrics.txt"
    grep -Eq 'fairlens_shadow_divergence_total\{model="german-lr"\} [1-9]' \
        "$smoke_out/dirty-metrics.txt" \
        || { echo "shadow smoke FAILED: flipped candidate never diverged" >&2; exit 1; }
    promote_code="$(curl -s -o "$smoke_out/promote-409.json" -w '%{http_code}' \
        -X POST "http://$addr/v1/promote" -d '{"model": "german-lr"}')"
    if [[ "$promote_code" != "409" ]] \
        || ! grep -q '"kind": *"conflict"' "$smoke_out/promote-409.json" \
        || ! grep -q 'first divergence at request' "$smoke_out/promote-409.json"; then
        echo "shadow smoke FAILED: dirty promote got HTTP $promote_code:" >&2
        cat "$smoke_out/promote-409.json" >&2
        exit 1
    fi
    curl -s -X POST "http://$addr/v1/shutdown" >/dev/null
    wait "$dirty_pid" \
        || { echo "shadow smoke FAILED: dirty server exited non-zero" >&2; exit 1; }
    echo "    ok: clean window promoted, recording replayed bit-exactly, flipped candidate refused with 409"

    echo "==> monitor smoke (live metrics vs offline recomputation, label-skew drift, replay reproduction)"
    # Phase 1 — honest outcomes: a single-connection run reporting true
    # labels for ~70 % of answered predicts. The live windowed metrics in
    # GET /v1/models must agree *bit-exactly* with monitor_check's naive
    # offline recomputation over the recording, and drift must stay ok.
    cargo build --release -p fairlens-serve --bin monitor_check >/dev/null
    mon_rec="$smoke_out/monitor.rec.jsonl"
    mon_log="$smoke_out/monitor-serve.log"
    mon_trace="$smoke_out/monitor.trace.jsonl"
    cargo run --release -p fairlens-serve -- \
        --addr 127.0.0.1:0 --models "$models_dir" \
        --monitor-window 64 --drift-threshold accuracy=0.25 \
        --record "$mon_rec" --trace "$mon_trace" 2> "$mon_log" &
    mon_pid=$!
    addr=""
    for _ in $(seq 1 300); do
        addr="$(sed -n 's/^\[serve\] listening on \([0-9.:]*\).*$/\1/p' "$mon_log")"
        [[ -n "$addr" ]] && break
        sleep 0.1
    done
    if [[ -z "$addr" ]]; then
        echo "monitor smoke FAILED: server never announced its address" >&2
        kill "$mon_pid" 2>/dev/null || true
        exit 1
    fi
    cargo run --release -p fairlens-serve --example loadgen -- \
        --addr "$addr" --model german-lr --requests 200 --conns 1 --feedback 0.7 \
        2> "$smoke_out/monitor-loadgen.log" \
        || { echo "monitor smoke FAILED (feedback loadgen):" >&2
             cat "$smoke_out/monitor-loadgen.log" >&2; exit 1; }
    curl -s "http://$addr/metrics" > "$smoke_out/monitor-metrics.txt"
    grep -Eq 'fairlens_feedback_total\{model="german-lr",status="ok"\} [1-9]' \
        "$smoke_out/monitor-metrics.txt" \
        || { echo "monitor smoke FAILED: no accepted feedback counted" >&2; exit 1; }
    grep -q 'fairlens_drift_state{model="german-lr"} 0' "$smoke_out/monitor-metrics.txt" \
        || { echo "monitor smoke FAILED: honest labels must not drift" >&2; exit 1; }
    curl -s "http://$addr/v1/models" > "$smoke_out/monitor-models.json"
    cargo run --release -p fairlens-serve --bin monitor_check -- \
        "$mon_rec" --models "$models_dir" --model german-lr --window 64 \
        --expect "$smoke_out/monitor-models.json" 2> "$smoke_out/monitor-check.log" \
        || { echo "monitor smoke FAILED (offline recomputation):" >&2
             cat "$smoke_out/monitor-check.log" >&2; exit 1; }
    # Phase 2 — label skew: every report is the opposite of the
    # prediction, so live accuracy collapses and the drift state must
    # walk ok -> warning -> alerting, naming accuracy as the offender.
    cargo run --release -p fairlens-serve --example loadgen -- \
        --addr "$addr" --model german-lr --requests 150 --conns 1 \
        --feedback-skew --seed 43 2> "$smoke_out/monitor-skew.log" \
        || { echo "monitor smoke FAILED (skew loadgen):" >&2
             cat "$smoke_out/monitor-skew.log" >&2; exit 1; }
    curl -s "http://$addr/metrics" > "$smoke_out/monitor-skew-metrics.txt"
    grep -q 'fairlens_drift_state{model="german-lr"} 2' \
        "$smoke_out/monitor-skew-metrics.txt" \
        || { echo "monitor smoke FAILED: label skew never reached alerting" >&2; exit 1; }
    curl -s "http://$addr/v1/models" > "$smoke_out/monitor-models-skew.json"
    grep -q '"state": *"alerting"' "$smoke_out/monitor-models-skew.json" \
        || { echo "monitor smoke FAILED: /v1/models does not show alerting" >&2; exit 1; }
    grep -q '"metric": *"accuracy"' "$smoke_out/monitor-models-skew.json" \
        || { echo "monitor smoke FAILED: offending metric not named" >&2; exit 1; }
    curl -s -X POST "http://$addr/v1/shutdown" >/dev/null
    wait "$mon_pid" \
        || { echo "monitor smoke FAILED: server exited non-zero" >&2; exit 1; }
    grep -q '\[serve\] drift for model "german-lr": warning -> alerting' "$mon_log" \
        || { echo "monitor smoke FAILED: no drift transition in the log" >&2; exit 1; }
    grep -q 'drift:alerting' "$mon_trace" \
        || { echo "monitor smoke FAILED: no drift event in the trace" >&2; exit 1; }
    # Phase 3 — replay reproduction: a fresh server fed the recorded
    # exchange stream (predicts *and* feedback) must answer identically
    # and end with the same window — monitor_check holds its listing to
    # the same offline recomputation, so the final live metrics are
    # bit-identical to the original server's.
    mon2_log="$smoke_out/monitor-replay-serve.log"
    cargo run --release -p fairlens-serve -- \
        --addr 127.0.0.1:0 --models "$models_dir" \
        --monitor-window 64 --drift-threshold accuracy=0.25 2> "$mon2_log" &
    mon2_pid=$!
    addr=""
    for _ in $(seq 1 300); do
        addr="$(sed -n 's/^\[serve\] listening on \([0-9.:]*\).*$/\1/p' "$mon2_log")"
        [[ -n "$addr" ]] && break
        sleep 0.1
    done
    if [[ -z "$addr" ]]; then
        echo "monitor smoke FAILED: replay server never announced its address" >&2
        kill "$mon2_pid" 2>/dev/null || true
        exit 1
    fi
    cargo run --release -p fairlens-serve --example loadgen -- \
        --addr "$addr" --replay "$mon_rec" 2> "$smoke_out/monitor-replay.log" \
        || { echo "monitor smoke FAILED (replay):" >&2
             cat "$smoke_out/monitor-replay.log" >&2; exit 1; }
    grep -q 'REPLAY PASS' "$smoke_out/monitor-replay.log" \
        || { echo "monitor smoke FAILED: no REPLAY PASS marker" >&2; exit 1; }
    curl -s "http://$addr/v1/models" > "$smoke_out/monitor-models-replay.json"
    cargo run --release -p fairlens-serve --bin monitor_check -- \
        "$mon_rec" --models "$models_dir" --model german-lr --window 64 \
        --expect "$smoke_out/monitor-models-replay.json" \
        2> "$smoke_out/monitor-check-replay.log" \
        || { echo "monitor smoke FAILED (replayed window diverged):" >&2
             cat "$smoke_out/monitor-check-replay.log" >&2; exit 1; }
    curl -s -X POST "http://$addr/v1/shutdown" >/dev/null
    wait "$mon2_pid" \
        || { echo "monitor smoke FAILED: replay server exited non-zero" >&2; exit 1; }
    fb_ok="$(sed -n 's/^fairlens_feedback_total{model="german-lr",status="ok"} //p' "$smoke_out/monitor-skew-metrics.txt")"
    echo "    ok: live metrics bit-match offline recomputation, skewed labels drove drift to alerting (${fb_ok:-0} reports), replay reproduced the window"

    echo "==> fleet smoke (3 workers, abort chaos + storm, respawn, fault-free load, bit-exact replay, blue/green reload)"
    # A supervised 3-worker fleet with --replicas 2 takes an open-loop
    # storm while every worker carries an abort:german-lr:20 fault — so
    # whichever worker is the model's primary SIGABRTs mid-storm. The
    # storm must end with zero malformed answers, the supervisor must
    # respawn the crashed worker (fault-free) and return the fleet to
    # full strength, fault-free keep-alive load must restart no worker,
    # a recording taken against a single-process server
    # must replay bit-exactly through the fleet, and a blue/green reload
    # under live no-shed traffic must complete with zero non-200s.
    cargo build --release -p fairlens-fleet --bin fairlens-fleet >/dev/null
    # Reference recording: a plain single server over the same models.
    fleet_rec="$smoke_out/fleet.rec.jsonl"
    fleet_ref_log="$smoke_out/fleet-ref-serve.log"
    cargo run --release -p fairlens-serve -- \
        --addr 127.0.0.1:0 --models "$models_dir" --record "$fleet_rec" \
        2> "$fleet_ref_log" &
    fleet_ref_pid=$!
    addr=""
    for _ in $(seq 1 300); do
        addr="$(sed -n 's/^\[serve\] listening on \([0-9.:]*\).*$/\1/p' "$fleet_ref_log")"
        [[ -n "$addr" ]] && break
        sleep 0.1
    done
    if [[ -z "$addr" ]]; then
        echo "fleet smoke FAILED: reference server never announced" >&2
        kill "$fleet_ref_pid" 2>/dev/null || true
        exit 1
    fi
    cargo run --release -p fairlens-serve --example loadgen -- \
        --addr "$addr" --model german-lr --requests 250 --conns 2 \
        2> "$smoke_out/fleet-ref-loadgen.log" \
        || { echo "fleet smoke FAILED (reference loadgen):" >&2
             cat "$smoke_out/fleet-ref-loadgen.log" >&2; exit 1; }
    curl -s -X POST "http://$addr/v1/shutdown" >/dev/null
    wait "$fleet_ref_pid" \
        || { echo "fleet smoke FAILED: reference server exited non-zero" >&2; exit 1; }
    # Boot the fleet: fast supervision knobs, an abort fault on every
    # worker's first incarnation (respawns come back clean by design).
    fleet_log="$smoke_out/fleet.log"
    ./target/release/fairlens-fleet \
        --addr 127.0.0.1:0 --models "$models_dir" --workers 3 --replicas 2 \
        --probe-interval-ms 100 --backoff-base-ms 200 --backoff-cap-ms 1000 \
        --fail-threshold 2 --ok-threshold 2 \
        --worker-fault 0:abort:german-lr:20 \
        --worker-fault 1:abort:german-lr:20 \
        --worker-fault 2:abort:german-lr:20 2> "$fleet_log" &
    fleet_pid=$!
    faddr=""
    for _ in $(seq 1 300); do
        faddr="$(sed -n 's/^\[fleet\] listening on \([0-9.:]*\).*$/\1/p' "$fleet_log")"
        [[ -n "$faddr" ]] && break
        sleep 0.1
    done
    if [[ -z "$faddr" ]]; then
        echo "fleet smoke FAILED: fleet never announced its address" >&2
        kill "$fleet_pid" 2>/dev/null || true
        exit 1
    fi
    # Wait until every worker is routable before aiming the storm.
    ready=""
    for _ in $(seq 1 300); do
        if curl -s "http://$faddr/healthz" | grep -q '"ready": *true'; then
            ready=1; break
        fi
        sleep 0.1
    done
    [[ -n "$ready" ]] \
        || { echo "fleet smoke FAILED: fleet never became ready" >&2; exit 1; }
    # Phase 1 — storm: the primary's abort fires at its 20th german-lr
    # request. Every answer must be well-formed (200 or an honest shed);
    # loadgen exits non-zero on anything else.
    cargo run --release -p fairlens-serve --example loadgen -- \
        --addr "$faddr" --model german-lr --requests 400 --conns 8 \
        --open-loop --burst 32 --allow-shed 2> "$smoke_out/fleet-storm.log" \
        || { echo "fleet smoke FAILED (storm phase):" >&2
             cat "$smoke_out/fleet-storm.log" >&2; exit 1; }
    # Phase 2 — recovery: the supervisor recorded a respawn and the fleet
    # is back to full strength within the backoff bound.
    respawned=""
    for _ in $(seq 1 200); do
        if curl -s "http://$faddr/metrics" \
            | grep -E 'fairlens_worker_restarts_total\{worker="[0-9]+"\} [1-9]' >/dev/null; then
            respawned=1; break
        fi
        sleep 0.1
    done
    [[ -n "$respawned" ]] \
        || { echo "fleet smoke FAILED: no worker respawn recorded after the abort" >&2
             curl -s "http://$faddr/metrics" >&2; exit 1; }
    ready=""
    for _ in $(seq 1 300); do
        if curl -s "http://$faddr/healthz" | grep -q '"ready": *true'; then
            ready=1; break
        fi
        sleep 0.1
    done
    [[ -n "$ready" ]] \
        || { echo "fleet smoke FAILED: fleet not back to full strength after respawn" >&2; exit 1; }
    # Phase 3 — fault-free keep-alive load: a closed loop of 8 connections
    # that is NOT allowed to shed (loadgen exits non-zero on any non-200)
    # must not make the supervisor restart a healthy worker.
    sum_restarts() {
        curl -s "http://$faddr/metrics" \
            | sed -n 's/^fairlens_worker_restarts_total{worker="[0-9]*"} //p' \
            | awk '{s+=$1} END {print s+0}'
    }
    restarts_before="$(sum_restarts)"
    cargo run --release -p fairlens-serve --example loadgen -- \
        --addr "$faddr" --model german-lr --requests 800 --conns 8 \
        2> "$smoke_out/fleet-keepalive.log" \
        || { echo "fleet smoke FAILED (fault-free keep-alive phase):" >&2
             cat "$smoke_out/fleet-keepalive.log" >&2; exit 1; }
    restarts_after="$(sum_restarts)"
    [[ "$restarts_after" == "$restarts_before" ]] \
        || { echo "fleet smoke FAILED: fault-free load restarted a worker" \
                  "($restarts_before -> $restarts_after restarts)" >&2; exit 1; }
    # Phase 4 — bit-exactness: the single-process recording must replay
    # identically through the post-failover fleet (replay compares score
    # bits, so this is exact, not approximate).
    cargo run --release -p fairlens-serve --example loadgen -- \
        --addr "$faddr" --replay "$fleet_rec" 2> "$smoke_out/fleet-replay.log" \
        || { echo "fleet smoke FAILED (replay):" >&2
             cat "$smoke_out/fleet-replay.log" >&2; exit 1; }
    grep -q 'REPLAY PASS' "$smoke_out/fleet-replay.log" \
        || { echo "fleet smoke FAILED: no REPLAY PASS marker" >&2; exit 1; }
    # Phase 5 — blue/green reload under live traffic that is NOT allowed
    # to shed: a byte-identical candidate is staged as a shadow, soaks a
    # 16-comparison window, and cuts over while a closed loop hammers the
    # model; the loadgen exits non-zero on any non-200.
    cp "$models_dir/german-lr.flm" "$smoke_out/fleet-candidate.flm"
    cargo run --release -p fairlens-serve --example loadgen -- \
        --addr "$faddr" --model german-lr --requests 1500 --conns 2 \
        2> "$smoke_out/fleet-reload-loadgen.log" &
    fleet_lg_pid=$!
    sleep 0.5
    reload_code="$(curl -s -o "$smoke_out/fleet-reload.json" -w '%{http_code}' \
        -X POST "http://$faddr/v1/reload" \
        -d "{\"model\": \"german-lr\", \"artifact\": \"$smoke_out/fleet-candidate.flm\", \"window\": 16}")"
    if [[ "$reload_code" != "200" ]] \
        || ! grep -q '"status": *"reloaded"' "$smoke_out/fleet-reload.json"; then
        echo "fleet smoke FAILED: reload got HTTP $reload_code:" >&2
        cat "$smoke_out/fleet-reload.json" >&2
        kill "$fleet_lg_pid" 2>/dev/null || true
        exit 1
    fi
    wait "$fleet_lg_pid" \
        || { echo "fleet smoke FAILED: a request failed during the blue/green reload:" >&2
             cat "$smoke_out/fleet-reload-loadgen.log" >&2; exit 1; }
    curl -s "http://$faddr/metrics" > "$smoke_out/fleet-metrics.txt"
    grep -q 'fairlens_fleet_reloads_total{outcome="ok"} 1' "$smoke_out/fleet-metrics.txt" \
        || { echo "fleet smoke FAILED: reload outcome not counted" >&2; exit 1; }
    # Drain: the fleet asks every worker to drain, then exits clean.
    curl -s -X POST "http://$faddr/v1/shutdown" >/dev/null
    if ! wait "$fleet_pid"; then
        echo "fleet smoke FAILED: fleet exited non-zero" >&2
        exit 1
    fi
    grep -q '\[fleet\] drained, bye' "$fleet_log" \
        || { echo "fleet smoke FAILED: no drain marker in the fleet log" >&2; exit 1; }
    restarts="$(sed -n 's/^fairlens_worker_restarts_total{worker="[0-9]*"} //p' "$smoke_out/fleet-metrics.txt" | awk '{s+=$1} END {print s+0}')"
    echo "    ok: storm survived an aborted primary (${restarts:-?} respawn(s)), no restart under fault-free load, replay bit-exact through the fleet, blue/green reload with zero non-200s, clean drain"
fi

echo "All checks passed."
