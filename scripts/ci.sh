#!/bin/sh
# Tiered local CI, mirrored by the parallel jobs of .github/workflows/ci.yml.
#
#   tier1   go build + full test suite (the repo's acceptance gate); the la,
#           tensor and root packages again under -tags purego (the golden
#           digests on the Go matmul kernels: bitwise parity with the AVX2
#           one, stated end to end); an arm64 cross-build and vet of la (the
#           file set without the assembly compiles); a grep that no hot path
#           calls la.MulABt (tensor's r-direction applies take the operator
#           pre-transposed; the per-call transpose-pack must not creep back);
#           a grep that internal/sem starts no goroutine and imports no
#           runtime, and that no Go file registers a finalizer (the one worker
#           pool is ns's shared-memory machine's, stopped by Solver.Close);
#           a grep that comm declares one receive, Recv (the network queues
#           each (source, tag) stream at its receiver); a grep that no
#           non-test file but session's store makes a temp file or renames
#           one (FSStore.Put is the one durable write); then the non-test
#           line count per package (scripts/loc.sh), the source of the
#           line-count claims in ROADMAP.md
#   tier2   go vet + race detector over the whole module. Long-running
#           physics cases (multi-minute shear-layer roll-up) skip under
#           -short; everything with concurrency (comm ranks, gs exchange,
#           the shared-memory machine's worker pool, instrument counters)
#           still runs under -race.
#           The export ratchet (TestEveryExportHasACaller), which type-checks
#           the standard library from source, skips under -short: tier1 runs
#           it. The stepper tests run ten times more: a rank's state is
#           re-entered by a new goroutine on every batch. So do the Schwarz
#           rank-equivalence test, whose border exchange is the one new
#           cross-rank data path of the pressure preconditioner, and the SumN
#           and lockstep-CG rank-equivalence tests: the short-vector reduction
#           is the one collective every batched inner product rides on.
#           The receive-stream tests run ten times more too: every rank's
#           inbox is written by its neighbours' goroutines; so does the
#           multi-field gather–scatter test, whose one message per
#           neighbour carries every field.
#   benchmod  go vet + the tiny-scale tests of the bench/ module, which is a
#           Go module of its own: the root `go build ./... && go test ./...`
#           does not reach it, and it calls exported functions of
#           internal/ns, sem, session and parrun
#   static  staticcheck over the module (skipped with a note when the
#           binary is not installed; the workflow installs it)
#   smoke   build semflow + semflowd + tracecheck + tracepath + tables once, then
#           validate the -trace and -history artifacts of the serial (wall
#           track only), distributed (rank tracks) and fault-injected runs,
#           hold the -ranks 4 run to its pinned allreduces per step,
#           checkpoint and resume on both machines, the channel and the
#           convection cell (one <case>/checkpoint.gob in the store, steps 3
#           and 4 as the uninterrupted run prints them), extend a finished
#           3-step run from its final snapshot on both machines, size the
#           channel from -kx alone, refuse -report 0 and -nel -1,
#           scrape the live -listen endpoint mid-run, walk the P=256
#           trace's critical path, exercise -precond auto (trial → report,
#           plus a forced-variant divergence cross-check), and round-trip a
#           channel job through the semflowd session service (submit, poll,
#           fetch artifacts; a ranks > 0 submit is answered 400);
#           also runs the Table 3 kernel sweep once (tables -exp table3),
#           which must print an avx2 column on a runner whose CPU has AVX2
#
# Usage: scripts/ci.sh [tier1|tier2|benchmod|static|smoke|all]   (default all)
#
# Environment:
#   SMOKE_OUT          directory to keep the smoke artifacts in (default: a
#                      temp dir removed on exit); the workflow uploads it.
#   SMOKE_INJECT_FAIL  =1 makes the smoke tier fail deliberately while its
#                      background -linger run is alive; the workflow uses
#                      it to prove the EXIT trap leaks no processes.
set -eu
cd "$(dirname "$0")/.."

# stage NAME CMD... — run one stage with wall-clock timing.
stage() {
    name="$1"
    shift
    echo "== $name: $* =="
    t0="$(date +%s)"
    "$@"
    echo "-- $name done in $(( $(date +%s) - t0 ))s"
}

# no_pack — la.MulABt transposes its operator into a stack tile on every call;
# only the kernel tables (cmd/tables) and the frozen bench/ ladder may call it.
no_pack() {
    if git grep --untracked -n 'la\.MulABt(' -- '*.go' ':!*_test.go' ':!internal/la' ':!cmd/tables' ':!bench'; then
        echo "la.MulABt called outside internal/la, cmd/tables and bench/: pass tensor the transposed operator instead" >&2
        return 1
    fi
}

# nopool — sem is goroutine-free operators over a mesh: the one element-loop
# worker pool belongs to ns's shared-memory machine and is stopped by
# Solver.Close, with no finalizer behind it.
nopool() {
    if git grep --untracked -n -e '^[[:space:]]*go[[:space:]]' -e '[{;][[:space:]]*go[[:space:]]' -e '"runtime"' \
        -- 'internal/sem/*.go' ':!*_test.go'; then
        echo "internal/sem starts a goroutine or imports runtime: element-loop parallelism is ns's shared-memory machine's" >&2
        return 1
    fi
    # The bracket keeps this line from matching itself.
    if git grep --untracked -n 'SetFinali[z]er' -- '*.go'; then
        echo "a finalizer in the tree: a resource is released by an explicit Close, not by the collector" >&2
        return 1
    fi
}

# onerecv — the simulated network queues each (source, tag) stream at its
# receiver, so Recv(from, tag) waits on exactly the stream it names and is the
# one receive primitive: comm declares no second receive beside it.
onerecv() {
    if git grep --untracked -n -E '^func \([a-z]+ \*Rank\) [A-Za-z]*[Rr]ecv[A-Za-z]*\(' \
        -- 'internal/comm/*.go' ':!*_test.go' | grep -v ') Recv('; then
        echo "internal/comm declares a second receive: Recv(from, tag) on the receiver's stream is the one primitive" >&2
        return 1
    fi
}

# onewrite — session.Store's filesystem backend holds the one crash-safe
# file write (unique temp file, fsync, rename, directory fsync); every
# snapshot and artifact goes through FSStore.Put, so no other non-test file
# makes a temp file or renames one into place.
onewrite() {
    if git grep --untracked -n -E 'os\.(Rename|CreateTemp)\(' -- '*.go' ':!*_test.go' ':!internal/session/store.go'; then
        echo "a durable write outside internal/session/store.go: put the artifact through a session.Store" >&2
        return 1
    fi
}

tier1() {
    stage "tier1/build" go build ./...
    stage "tier1/test" go test ./...
    stage "tier1/purego" go test -tags purego ./internal/la ./internal/tensor .
    stage "tier1/arm64" env GOARCH=arm64 sh -c 'go build ./... && go vet ./internal/la'
    stage "tier1/nopack" no_pack
    stage "tier1/nopool" nopool
    stage "tier1/onerecv" onerecv
    stage "tier1/onewrite" onewrite
    stage "tier1/loc" ./scripts/loc.sh
}

tier2() {
    stage "tier2/vet" go vet ./...
    stage "tier2/race" go test -race -short ./...
    stage "tier2/stepper" go test -race -count=10 \
        -run 'TestStepper|TestDistributedSessionLifecycle|TestSchwarzApplicationMatchesSerialOnRanks|TestSumNIsSumSlotBySlot|TestLockstepCGOnRanksIsOneAtATime' \
        ./internal/parrun ./internal/session
    stage "tier2/streams" go test -race -count=10 \
        -run 'TestRecvOutOfOrderStress|TestSendNeverBlocks|TestParallelExchangeDeterministicLargeP|TestParApplyFieldsIsApplyPerField' \
        ./internal/comm ./internal/gs
}

benchmod() {
    stage "benchmod/vet" sh -c 'cd bench && go vet .'
    stage "benchmod/test" sh -c 'cd bench && go test .'
}

static() {
    if command -v staticcheck >/dev/null 2>&1; then
        stage "static/staticcheck" staticcheck ./...
    elif [ "${CI:-}" = "true" ]; then
        # On a CI runner a missing linter is a broken workflow, not an
        # optional tool: fail loudly instead of green-washing the tier.
        echo "== static: staticcheck missing on a CI runner (CI=true); the workflow must install it ==" >&2
        exit 1
    else
        echo "== static: staticcheck not installed; skipping (the CI workflow installs it) =="
    fi
}

# --- background-process bookkeeping ----------------------------------------
# Every background semflow/semflowd registers its pid in BG_PIDS, and ONE
# EXIT trap reaps whatever is still running — so a failure anywhere
# mid-smoke (any set -e exit) cannot leak a daemon or a -linger run into
# the CI runner.
BG_PIDS=""
SMOKE_TMP=""

smoke_cleanup() {
    for pid in $BG_PIDS; do
        kill "$pid" 2>/dev/null || true
    done
    for pid in $BG_PIDS; do
        wait "$pid" 2>/dev/null || true
    done
    if [ -n "$SMOKE_TMP" ]; then
        rm -rf "$SMOKE_TMP"
    fi
}

# spawn_bg LOG CMD... — start CMD in the background, output to LOG, pid
# registered for the EXIT trap and left in $BG_PID.
spawn_bg() {
    _log="$1"
    shift
    : > "$_log" # exists before the first poll_sed reads it
    "$@" >> "$_log" 2>&1 &
    BG_PID=$!
    BG_PIDS="$BG_PIDS $BG_PID"
}

# stop_bg PID — stop one registered background process and reap it.
stop_bg() {
    kill "$1" 2>/dev/null || true
    wait "$1" 2>/dev/null || true
}

# poll_sed LOG EXPR — poll LOG (up to 20s) until `sed -n EXPR` prints
# something; echoes it. Dumps the log to stderr and fails on timeout.
poll_sed() {
    _log="$1"
    _expr="$2"
    for _ in $(seq 1 100); do
        _got="$(sed -n "$_expr" "$_log")"
        if [ -n "$_got" ]; then
            echo "$_got"
            return 0
        fi
        sleep 0.2
    done
    echo "timed out waiting for '$_expr' in $_log:" >&2
    cat "$_log" >&2
    return 1
}

# poll_grep LOG PATTERN [TRIES] — wait until LOG contains PATTERN (0.2s per
# try). Dumps the log to stderr and fails on timeout.
poll_grep() {
    _log="$1"
    _pat="$2"
    _tries="${3:-100}"
    for _ in $(seq 1 "$_tries"); do
        if grep -q "$_pat" "$_log"; then
            return 0
        fi
        sleep 0.2
    done
    echo "timed out waiting for '$_pat' in $_log:" >&2
    cat "$_log" >&2
    return 1
}

# poll_state URL — poll a semflowd session until its state leaves
# "running"; echoes the final state.
poll_state() {
    _url="$1"
    _state=""
    for _ in $(seq 1 300); do
        _state="$(curl -sf "$_url" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')"
        [ "$_state" = "running" ] || break
        sleep 0.2
    done
    echo "$_state"
}

# div_bound HIST_A HIST_B — the two runs' final-step max_divergence must
# meet the same 1e-7 bound and agree within 5%: the preconditioner changes
# the solver path, never the solution it converges to.
div_bound() {
    _da="$(tail -1 "$1" | sed -n 's/.*"max_divergence":\([^,}]*\).*/\1/p')"
    _db="$(tail -1 "$2" | sed -n 's/.*"max_divergence":\([^,}]*\).*/\1/p')"
    awk -v a="$_da" -v b="$_db" 'BEGIN {
        if (a <= 0 || b <= 0 || a > 1e-7 || b > 1e-7) exit 1
        r = a / b
        if (r < 0.95 || r > 1.05) exit 1
    }' || {
        echo "final-step divergence bounds disagree: $_da vs $_db" >&2
        return 1
    }
}

# trial_pick LOG — every "trial" line semflow printed must carry its charged
# work (flops=N), and the "precond:" selection must be the converged trial
# with the least of it, the first listed on a tie.
trial_pick() {
    awk '
        /^precond: / { sel = $2 }
        /^  trial / {
            n++
            if (!match($0, /flops=[0-9]+/)) { bad = 1; next }
            f = substr($0, RSTART + 6, RLENGTH - 6) + 0
            if ($5 == "converged=true" && (best == "" || f < low)) { best = $2; low = f }
        }
        END { exit !(n > 0 && !bad && sel != "" && sel == best) }
    ' "$1" || {
        echo "-precond auto: selection is not the converged trial with the least flops:" >&2
        grep -E '^(precond:|  trial )' "$1" >&2
        return 1
    }
}

smoke() {
    out="${SMOKE_OUT:-}"
    if [ -z "$out" ]; then
        out="$(mktemp -d)"
        SMOKE_TMP="$out"
    fi
    trap smoke_cleanup EXIT
    mkdir -p "$out/bin"

    # Build the drivers once; every smoke below reuses the binaries instead
    # of paying `go run` compilation per invocation.
    stage "smoke/build" go build -o "$out/bin/" ./cmd/semflow ./cmd/semflowd ./cmd/tracecheck ./cmd/tracepath ./cmd/tables

    echo "== smoke: semflow -trace/-history artifacts validate =="
    # A serial trace carries the stepper's wall-clock track; rank tracks come
    # from the -ranks run below and are only checked there.
    "$out/bin/semflow" -case shearlayer -nel 4 -n 5 -steps 2 -report 1 \
        -trace "$out/trace.json" -history "$out/history.jsonl"
    "$out/bin/tracecheck" -trace "$out/trace.json" \
        -history "$out/history.jsonl"

    echo "== smoke: distributed stepper (-ranks) artifacts validate =="
    "$out/bin/semflow" -case channel -n 5 -ranks 4 -steps 2 -report 1 \
        -trace "$out/dist-trace.json" -history "$out/dist-history.jsonl"
    "$out/bin/tracecheck" -trace "$out/dist-trace.json" -min-ranks 4 \
        -history "$out/dist-history.jsonl"

    echo "== smoke: the -ranks 4 run issues no more allreduces per step than pinned =="
    # 132.50 per rank and step over these four cold steps (145.25 before the
    # step batched its independent inner products): a reduction that creeps
    # back into the step shows here before it shows in a benchmark.
    "$out/bin/semflow" -case channel -n 5 -ranks 4 -steps 4 -report 1 -stats > "$out/dist-stats.txt"
    per_step="$(sed -n 's/^allreduces per rank and step: \([0-9.]*\).*/\1/p' "$out/dist-stats.txt")"
    awk -v got="$per_step" 'BEGIN { exit !(got != "" && got + 0 <= 132.50) }' || {
        echo "allreduces per rank and step: '$per_step', want at most 132.50" >&2
        exit 1
    }

    echo "== smoke: fault-injected run recovers, trace carries fault spans =="
    cat > "$out/faults.json" <<'EOF'
{
  "seed": 7,
  "stragglers": [{"rank": 1, "factor": 3}],
  "drops": [{"from": -1, "to": -1, "prob": 0.02}]
}
EOF
    "$out/bin/semflow" -case channel -n 5 -ranks 4 -steps 2 -report 1 \
        -faults "$out/faults.json" -trace "$out/fault-trace.json"
    "$out/bin/tracecheck" -trace "$out/fault-trace.json" -min-ranks 4 \
        -min-fault-events 1

    echo "== smoke: paper-scale rank count (P=256, one element per rank) =="
    # Full pressure solve, untraced: proves the simulated machine itself
    # scales (~13M messages through the pooled/indexed comm hot path).
    "$out/bin/semflow" -case channel -kx 32 -ky 8 -n 4 -ranks 256 -steps 1 -report 1
    # Traced variant with a capped pressure solve: every message costs ~4
    # trace events, so the cap keeps the 256-track trace writable in CI
    # time. tracecheck still validates all 256 rank tracks.
    "$out/bin/semflow" -case channel -kx 32 -ky 8 -n 4 -ranks 256 -steps 1 \
        -report 1 -piters 8 -trace "$out/p256-trace.json"
    "$out/bin/tracecheck" -trace "$out/p256-trace.json" -min-ranks 256
    # Critical-path analysis over the same trace: the report must attribute
    # the P=256 step to the collective-latency categories.
    "$out/bin/tracepath" -trace "$out/p256-trace.json" | tee "$out/p256-critpath.txt"
    grep -q "allreduce" "$out/p256-critpath.txt"
    rm -f "$out/p256-trace.json" # hundreds of MB; validated, not uploaded

    echo "== smoke: live /metrics and /progress scrape during a -ranks run =="
    # Rank-sampled trace plus the live endpoint: the run lingers after the
    # last step so the scrape below cannot race completion.
    spawn_bg "$out/listen.log" "$out/bin/semflow" -case channel -n 5 -ranks 4 \
        -steps 4 -report 1 -listen 127.0.0.1:0 -linger 30s \
        -trace "$out/sampled-trace.json" -trace-sample 2
    listen_pid=$BG_PID
    addr="$(poll_sed "$out/listen.log" 's|^observability: listening on http://\([^ ]*\).*|\1|p')"
    if [ "${SMOKE_INJECT_FAIL:-}" = "1" ]; then
        # Leak-check hook for the workflow: fail here, with the -linger run
        # alive, and prove the EXIT trap still reaps every background pid.
        echo "== smoke: injected failure (SMOKE_INJECT_FAIL=1) ==" >&2
        exit 1
    fi
    "$out/bin/tracecheck" -metrics-url "http://$addr/metrics" \
        -progress-url "http://$addr/progress"
    # Let the run finish writing its artifacts (it lingers afterwards, so
    # the endpoint staying up never races the trace write), then stop it.
    poll_grep "$out/listen.log" "trace events" 300
    stop_bg "$listen_pid"
    # The sampled trace keeps full tracks for exactly 2 of the 4 ranks and
    # stays flow-closed by construction (tracecheck checks both directions).
    "$out/bin/tracecheck" -trace "$out/sampled-trace.json" -min-ranks 2

    echo "== smoke: -precond auto selects and reports a variant =="
    # A fresh process has an empty selection table, so auto runs its trial.
    "$out/bin/semflow" -case channel -n 5 -steps 2 -report 1 -precond auto \
        -stats-json > "$out/precond-auto.log"
    grep -q '"precond":' "$out/precond-auto.log"
    grep -q '"precond_source": *"trial"' "$out/precond-auto.log"
    trial_pick "$out/precond-auto.log"
    # Forcing the Chebyshev-Jacobi variant must converge to the same
    # final-step divergence bound as the Schwarz reference run, at the
    # Table-1 size (N=9) — whose cold Schwarz solves ran into the 500-iteration
    # cap until the preconditioner moved to the pressure grid (PR 19), so the
    # Schwarz run must not warn about the cap once.
    "$out/bin/semflow" -case channel -n 9 -steps 2 -report 1 \
        -precond chebjacobi -history "$out/precond-cheb-history.jsonl"
    "$out/bin/semflow" -case channel -n 9 -steps 2 -report 1 \
        -precond schwarz -history "$out/precond-schwarz-history.jsonl" \
        2> "$out/precond-schwarz.stderr"
    if grep -q "pressure solve hit the iteration cap" "$out/precond-schwarz.stderr"; then
        echo "cold Schwarz channel solve hit the iteration cap:" >&2
        cat "$out/precond-schwarz.stderr" >&2
        exit 1
    fi
    div_bound "$out/precond-cheb-history.jsonl" "$out/precond-schwarz-history.jsonl"

    echo "== smoke: semflowd session service end-to-end =="
    # Start the daemon on a free port, submit the Table-1 TS-wave channel
    # case over the job API, poll it to completion, then validate the
    # streamed history JSONL and the stored trace artifact with tracecheck.
    spawn_bg "$out/semflowd.log" "$out/bin/semflowd" -listen 127.0.0.1:0 \
        -store "$out/semflowd-data" -max-active 2
    daemon_pid=$BG_PID
    daddr="$(poll_sed "$out/semflowd.log" 's|^semflowd: listening on http://\([^ ]*\).*|\1|p')"
    sid="$(curl -sf "http://$daddr/api/sessions" \
        -d '{"case":"channel","steps":4,"n":5,"workers":2,"trace":true}' \
        | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
    if [ -z "$sid" ]; then
        echo "semflowd rejected the channel submission:" >&2
        cat "$out/semflowd.log" >&2
        exit 1
    fi
    state="$(poll_state "http://$daddr/api/sessions/$sid")"
    if [ "$state" != "done" ]; then
        echo "session $sid ended in state '$state':" >&2
        curl -s "http://$daddr/api/sessions/$sid" >&2 || true
        exit 1
    fi
    # Per-session live instruments, then the deposited artifacts.
    "$out/bin/tracecheck" -metrics-url "http://$daddr/api/sessions/$sid/metrics" \
        -progress-url "http://$daddr/api/sessions/$sid/progress"
    curl -sf "http://$daddr/api/sessions/$sid/history" > "$out/semflowd-history.jsonl"
    curl -sf "http://$daddr/api/sessions/$sid/artifacts/trace.json" > "$out/semflowd-trace.json"
    "$out/bin/tracecheck" -trace "$out/semflowd-trace.json" \
        -history "$out/semflowd-history.jsonl"
    [ "$(wc -l < "$out/semflowd-history.jsonl")" -eq 4 ] || {
        echo "expected 4 history records, got:" >&2
        cat "$out/semflowd-history.jsonl" >&2
        exit 1
    }
    # The simulated machine is not served yet: 400, and no job.
    code="$(curl -s -o /dev/null -w '%{http_code}' "http://$daddr/api/sessions" \
        -d '{"case":"channel","steps":2,"ranks":4}')"
    [ "$code" = "400" ] || {
        echo "ranks > 0 submit answered $code, want 400" >&2
        exit 1
    }
    stop_bg "$daemon_pid"

    echo "== smoke: checkpoint at step 2, resume to step 4, on both machines =="
    # The snapshot is the session's, whichever machine steps, and lives in a
    # session store: DIR/<case>/checkpoint.gob, replaced in place. The
    # convection cell carries its scalar in the same lists of fields.
    while read -r case ranks size; do
        run="$case-p$ranks"
        ck="$out/ckpt-$run"
        # $size splits into its flags on purpose.
        # shellcheck disable=SC2086
        "$out/bin/semflow" -case "$case" $size -ranks "$ranks" -steps 4 -report 1 \
            > "$out/full-$run.log"
        # shellcheck disable=SC2086
        "$out/bin/semflow" -case "$case" $size -ranks "$ranks" -steps 2 -report 1 \
            -checkpoint "$ck" -checkpoint-every 2
        # shellcheck disable=SC2086
        "$out/bin/semflow" -case "$case" $size -ranks "$ranks" -steps 4 -report 1 \
            -checkpoint "$ck" -resume > "$out/resume-$run.log"
        cat "$out/resume-$run.log"
        grep -q "resuming from $ck/$case/checkpoint.gob" "$out/resume-$run.log"
        [ -f "$ck/$case/checkpoint.gob" ] || {
            echo "no snapshot at $ck/$case/checkpoint.gob" >&2
            exit 1
        }
        if find "$ck" -name 'ckpt-*.gob' | grep .; then
            echo "a per-step snapshot file beside the store's checkpoint.gob" >&2
            exit 1
        fi
        # Step rows ("%6d ...") of steps 3 and 4, bitwise the uninterrupted run's.
        grep -E '^ {5}[34] ' "$out/full-$run.log" > "$out/full-$run.rows"
        grep -E '^ {5}[34] ' "$out/resume-$run.log" > "$out/resume-$run.rows"
        [ "$(wc -l < "$out/full-$run.rows")" -eq 2 ] &&
            cmp "$out/full-$run.rows" "$out/resume-$run.rows" || {
            echo "$case ranks=$ranks: resumed steps 3-4 differ from the uninterrupted run:" >&2
            diff "$out/full-$run.rows" "$out/resume-$run.rows" >&2 || true
            exit 1
        }
    done <<RUNS
channel 4 -n 5
channel 0 -n 5
convection 3 -nel 4 -n 5
convection 0 -nel 4 -n 5
RUNS

    echo "== smoke: -checkpoint keeps the final state; a 3-step run extends to step 4 =="
    # Snapshots every 2 steps of a 3-step run: the store holds step 3, not 2.
    for ranks in 0 3; do
        run="final-p$ranks"
        ck="$out/ckpt-$run"
        "$out/bin/semflow" -case channel -n 5 -ranks "$ranks" -steps 4 -report 1 > "$out/full-$run.log"
        "$out/bin/semflow" -case channel -n 5 -ranks "$ranks" -steps 3 -report 1 \
            -checkpoint "$ck" -checkpoint-every 2
        "$out/bin/semflow" -case channel -n 5 -ranks "$ranks" -steps 4 -report 1 \
            -checkpoint "$ck" -resume > "$out/resume-$run.log"
        cat "$out/resume-$run.log"
        grep -q "completed steps: 3)" "$out/resume-$run.log" || {
            echo "ranks=$ranks: the resume did not start from the final step 3" >&2
            exit 1
        }
        grep -E '^ {5}4 ' "$out/full-$run.log" > "$out/full-$run.rows"
        grep -E '^ {5}4 ' "$out/resume-$run.log" > "$out/resume-$run.rows"
        [ "$(wc -l < "$out/full-$run.rows")" -eq 1 ] &&
            cmp "$out/full-$run.rows" "$out/resume-$run.rows" || {
            echo "ranks=$ranks: resumed step 4 differs from the uninterrupted run:" >&2
            diff "$out/full-$run.rows" "$out/resume-$run.rows" >&2 || true
            exit 1
        }
    done

    echo "== smoke: -kx alone sizes the channel (ky takes its default 3) =="
    "$out/bin/semflow" -case channel -n 4 -steps 1 -kx 8 > "$out/kx-only.log"
    grep -q 'K=24 ' "$out/kx-only.log" || {
        echo "semflow -kx 8 did not build the 8 x 3 channel:" >&2
        cat "$out/kx-only.log" >&2
        exit 1
    }

    echo "== smoke: semflow -nel -1 is refused with exit status 1, not a panic =="
    code=0
    "$out/bin/semflow" -nel -1 2> "$out/nel-neg.stderr" || code=$?
    if [ "$code" -ne 1 ] || grep -q 'panic:' "$out/nel-neg.stderr"; then
        echo "semflow -nel -1 exited $code, want 1 with no panic:" >&2
        cat "$out/nel-neg.stderr" >&2
        exit 1
    fi

    echo "== smoke: semflow -report 0 is refused with exit status 2 =="
    code=0
    "$out/bin/semflow" -case channel -n 5 -steps 2 -report 0 2> "$out/report0.stderr" || code=$?
    [ "$code" -eq 2 ] || {
        echo "semflow -report 0 exited $code, want 2:" >&2
        cat "$out/report0.stderr" >&2
        exit 1
    }

    echo "== smoke: Table 3 kernel sweep reports la.Mul beside the kernels =="
    "$out/bin/tables" -exp table3 -quick > "$out/table3.txt"
    grep -q ' Mul' "$out/table3.txt"
    if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
        grep -q ' avx2 ' "$out/table3.txt" || {
            echo "the CPU has AVX2 but Table 3 lists no avx2 kernel:" >&2
            cat "$out/table3.txt" >&2
            exit 1
        }
    fi
}

mode="${1:-all}"
case "$mode" in
tier1) tier1 ;;
tier2) tier2 ;;
benchmod) benchmod ;;
static) static ;;
smoke) smoke ;;
all)
    tier1
    tier2
    benchmod
    static
    smoke
    ;;
*)
    echo "usage: scripts/ci.sh [tier1|tier2|benchmod|static|smoke|all]" >&2
    exit 2
    ;;
esac

echo "CI OK ($mode)"
