#!/bin/sh
# Tiered local CI, mirrored by the parallel jobs of .github/workflows/ci.yml.
#
#   tier1   go build + full test suite (the repo's acceptance gate); the la,
#           tensor, ns, sem, solver, gs, fdm, schwarz, mesh and root packages
#           again under -tags purego (the golden digests on the Go matmul,
#           elementwise and reduction loops: bitwise parity with the AVX2 and
#           AVX-512 kernels, stated end to end, and the step's own tests on the loops
#           the kernels replace; fdm's solves, schwarz's subdomains and mesh's
#           metrics run their tensor products through tensor on the Go matmul);
#           every benchmark of the root module once (-benchtime 1x, a few
#           seconds: the tensor, sem and la micro-benchmarks, among them the
#           stiffness run-length one behind mesh.RunPoints, keep running);
#           a grep that no non-test Go file outside bench/ names a 2-D or 3-D
#           copy of a tensor-product kernel (ApplyR2D, ApplyS2D, ApplyR3D,
#           ApplyS3D, ApplyT3D, Solver2D, Solver3D, New2D, New3D, WorkLen2D,
#           WorkLen3D): a 2-D element is the one-layer case nt = 1 of the 3-D
#           kernels, so each kernel exists once;
#           an amd64 vet of la, whose asmdecl pass checks every assembly
#           kernel's frame size and argument offsets against its Go
#           declaration (the matmul, elementwise and reduction kernels);
#           an arm64 cross-build and vet of la (the file set without the
#           assembly compiles); a grep that no internal/la/*.s file fuses a
#           multiply and an add (VFMADD, VFMSUB, VFNMADD, VFNMSUB): every
#           kernel rounds the product and then adds, which is what keeps it
#           bitwise the Go loop and lets a new kernel land without moving a
#           golden digest; a grep that no hot path
#           calls la.MulABt (tensor's r-direction applies take the operator
#           pre-transposed; the per-call transpose-pack must not creep back);
#           a grep that internal/sem and internal/ns start no goroutine and
#           import no runtime (every element loop is a plain loop on the
#           stepping goroutine), and that no Go file registers a finalizer;
#           a grep that comm declares one receive, Recv (the network queues
#           each (source, tag) stream at its receiver); a grep that no
#           non-test file outside internal/comm calls Send or Recv (every
#           message of a run is replayed at a rendezvous); a grep that
#           internal/comm's non-test code starts no goroutine and uses no
#           channel, sync or sync/atomic (the ranks are coroutines under one
#           driver loop, which resumes them); a grep that no
#           non-test file but session's store makes a temp file or renames
#           one (FSStore.Put is the one durable write); a grep that no
#           non-test file outside internal/la and internal/coarse calls
#           la.FactorSparseChol or la.NDPermGraph (coarse.NewXXT orders and
#           factors the vertex problem once for both machines); a grep
#           that no non-test file outside internal/comm and internal/ns
#           declares a method named Attach or AttachTracer (a distributed
#           run attaches its registry and tracer to the comm.Network once,
#           and the gather–scatter and the coarse solve take theirs from the
#           rank they are built on); a gofmt -l
#           over every tracked .go file (bench/ included), which must list nothing; then
#           the non-test line count per package (scripts/loc.sh), the source
#           of the line-count claims in ROADMAP.md
#   tier2   go vet + race detector over the whole module. Long-running
#           physics cases (multi-minute shear-layer roll-up) skip under
#           -short; everything with concurrency (the session service,
#           instrument metrics read while they record) still runs under
#           -race.
#           The export ratchet (TestEveryExportHasACaller), which type-checks
#           the standard library from source, skips under -short: tier1 runs
#           it. The stepper tests run ten times more: a rank's state is
#           re-entered by a new coroutine on every batch, and a session's
#           progress and OnStep are written from rank 0's coroutine
#           mid-batch. So does the closed-session test, whose poller reads
#           a job's status, step and solver while Close releases the
#           machine, on both machines. So do the manager's poller-yield
#           and set-up tests: /healthz answered over a socket while two
#           slots step (runners parked on the yield's pipe at one processor
#           and two), a submit answered while its job waits for a slot to
#           build in, a cancel before set-up, and Close ending the yield's
#           goroutine. So do the Schwarz
#           rank-equivalence test, whose border exchange is the one new
#           cross-rank data path of the pressure preconditioner, and the SumN
#           and lockstep-CG rank-equivalence tests: the short-vector reduction
#           is the one collective every batched inner product rides on.
#           The receive-stream tests run ten times more too: every rank's
#           streams are filled by its neighbours' sends while it is parked;
#           so do the
#           multi-field gather–scatter test, whose one message per
#           neighbour carries every field, the rank-order fold test, whose
#           copies must agree however the replies land, and the rendezvous
#           tests, whose driver replays every rank's messages once all have
#           parked:
#           collectives, gather–scatter exchanges and routes against their
#           message-passing oracles, and a lost message, a mismatched call or
#           a record addressed to no rank failing every rank; and the
#           driver's failures: a rank returning while the others wait at a
#           call, a receive no rank will satisfy, and a rank's own panic
#           leaving Run on the caller's goroutine.
#           The histogram tests run ten times more as well: many goroutines
#           observing into one histogram, and reports taken while another
#           goroutine observes (a scrape during a run), each of which must
#           show one state: a count that is the sum of the buckets.
#           So does the concurrent channel set-up test: eight set-ups at
#           once (semflowd's concurrent submissions) must share one
#           Orr–Sommerfeld solve and fill bitwise-equal initial fields.
#           Last, the soak stage steps named cases long, on both machines,
#           and asserts outcomes, not digests (see soak below).
#   benchmod  go vet + the tiny-scale tests of the bench/ module, which is a
#           Go module of its own: the root `go build ./... && go test ./...`
#           does not reach it, and it calls exported functions of
#           internal/ns, sem, session and parrun
#   static  staticcheck over the module (skipped with a note when the
#           binary is not installed; the workflow installs it)
#   smoke   build semflow + semflowd + tracecheck + tracepath + tables once, then
#           validate the -trace and -history artifacts of the serial (wall
#           track only), distributed (rank tracks) and fault-injected runs,
#           require every step of the -ranks 4 run to report its viscous
#           solves converged, hold it to its pinned allreduces per step,
#           checkpoint and resume on both machines, the channel and the
#           convection cell (one <case>/checkpoint.gob in the store, steps 3
#           and 4 as the uninterrupted run prints them), extend a finished
#           3-step run from its final snapshot on both machines, size the
#           channel from -kx alone, refuse -report 0 and -nel -1,
#           scrape the live -listen endpoint mid-run, walk the P=256
#           trace's critical path, exercise -precond auto (trials of
#           schwarz then chebschwarz, no chebjacobi → report, plus a
#           forced-variant divergence cross-check), and round-trip a
#           channel job through the semflowd session service (submit, poll,
#           fetch artifacts; an auto job's result.json carries its
#           trials; a ranks > 0 submit is answered 400; a hairpin submit
#           without alpha stores "alpha": 0.3 in its config.json, the case
#           table's default, and one with "alpha":0 stores 0);
#           also runs the Table 3 kernel sweep once (tables -exp table3),
#           which must print an avx2 column on a runner whose CPU has AVX2
#           and an avx512 column on one with AVX-512F and VL,
#           Table 2 (-quick) twice, which must exit 0, agree with itself
#           outside the cpu columns and print EXPERIMENTS.md's iteration
#           counts: the cylinder O-grid's periodic topology and the FEM
#           Schwarz subdomains, end to end;
#           and Table 4 and Fig. 8 (-quick, and the full Table 4), which
#           must exit 0 having priced the reduced hairpin's 26 steps
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

# nofma — the assembly kernels round every product before they add it, as
# the Go loops do (MatMulNaive's chain, la.AddProd, la.Axpy): a fused
# multiply-add rounds once and would move every golden digest.
nofma() {
    if git grep --untracked -n -i -E 'VFN?M(ADD|SUB)' -- 'internal/la/*.s'; then
        echo "a fused multiply-add in internal/la's assembly: the kernels must stay bitwise their Go loops" >&2
        return 1
    fi
}

# nopool — sem's operators and ns's time step are goroutine-free: every
# element loop is a plain loop over the solver's own elements on the stepping
# goroutine (a worker pool measured slower at W = 2 and was deleted), and no
# resource is released by a finalizer.
nopool() {
    if git grep --untracked -n -e '^[[:space:]]*go[[:space:]]' -e '[{;][[:space:]]*go[[:space:]]' -e '"runtime"' \
        -- 'internal/sem/*.go' 'internal/ns/*.go' ':!*_test.go'; then
        echo "internal/sem or internal/ns starts a goroutine or imports runtime: element loops run on the stepping goroutine" >&2
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

# onesend — point-to-point Send and Recv are the message-passing oracles the
# tests hold the replays to: every message of a run is a collective's, a
# gather–scatter exchange's or a route's, replayed at one rendezvous of the
# ranks, so no non-test file outside internal/comm sends or receives one.
onesend() {
    if git grep --untracked -n -E '\.(Send|Recv)\(' -- '*.go' ':!*_test.go' ':!internal/comm'; then
        echo "a Send or Recv outside internal/comm: route the records (Rank.Route) or exchange with the neighbours (Rank.Exchange)" >&2
        return 1
    fi
}

# onedriver — the ranks of a comm.Network are coroutines under one driver
# loop on Run's caller (internal/comm/driver.go): a rank parks at a
# rendezvous or in Recv and the driver resumes it, so comm's non-test code
# starts no goroutine and uses no channel, lock, condition variable or atomic.
onedriver() {
    if git grep --untracked -n -E -e '^[[:space:]]*go[[:space:]]' -e '[{;][[:space:]]*go[[:space:]]' \
        -e '\bchan\b' -e '<-' -e '"sync(/atomic)?"' -e '\b(sync|atomic)\.' -- 'internal/comm/*.go' ':!*_test.go'; then
        echo "internal/comm starts a goroutine or synchronises through a channel, sync or sync/atomic: park the rank (Rank.park) and let the driver resume it" >&2
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

# onepath — tensor-product kernels exist once for both dimensions: a 2-D
# field is the nt = 1 case of tensor's direction applies and fdm has one
# Solver, so no non-test file outside the frozen bench/ names a per-dimension
# copy.
onepath() {
    if git grep --untracked -n -w -E 'ApplyR2D|ApplyS2D|ApplyR3D|ApplyS3D|ApplyT3D|Solver2D|Solver3D|New2D|New3D|WorkLen2D|WorkLen3D' \
        -- '*.go' ':!*_test.go' ':!bench'; then
        echo "a per-dimension copy of a tensor-product kernel: use tensor.ApplyR/ApplyS/ApplyT/Apply (nt = 1, nil t operator in 2-D) or fdm.New" >&2
        return 1
    fi
}

# onefactor — the coarse vertex problem is ordered and factored once, by
# coarse.NewXXT: the serial machine solves through its L and the ranks
# through its X, so no non-test file outside internal/la and internal/coarse
# orders or Cholesky-factors a sparse matrix itself.
onefactor() {
    if git grep --untracked -n -E 'la\.(FactorSparseChol|NDPermGraph)\(' -- '*.go' ':!*_test.go' ':!internal/la' ':!internal/coarse'; then
        echo "a sparse factorization or nested-dissection order outside internal/la and internal/coarse: build the factor with coarse.NewXXT" >&2
        return 1
    fi
}

# onereport — comm.Network is the one place a distributed run attaches its
# registry and tracer (ns.Solver keeps the shared-memory machine's tracer):
# the components built on a rank, the gather–scatter and the coarse solve,
# take their handles from the rank, so no other non-test file declares an
# Attach or AttachTracer method.
onereport() {
    if git grep --untracked -n -E '^func \([^)]*\) (Attach|AttachTracer)\(' -- '*.go' ':!*_test.go' ':!internal/comm' ':!internal/ns'; then
        echo "an Attach or AttachTracer method outside internal/comm and internal/ns: take the registry and tracer from the comm.Rank (Rank.Registry, Rank.Tracer)" >&2
        return 1
    fi
}

# gofmt_clean — every Go file in the tree (tracked, or untracked and not
# ignored, as the greps above see them) is as gofmt writes it.
gofmt_clean() {
    bad="$(git ls-files -z -co --exclude-standard -- '*.go' | xargs -0 gofmt -l)"
    if [ -n "$bad" ]; then
        echo "$bad"
        echo "not gofmt-formatted: run gofmt -w on the files above" >&2
        return 1
    fi
}

tier1() {
    stage "tier1/build" go build ./...
    stage "tier1/test" go test ./...
    stage "tier1/purego" go test -tags purego ./internal/la ./internal/tensor \
        ./internal/ns ./internal/sem ./internal/solver ./internal/gs \
        ./internal/fdm ./internal/schwarz ./internal/mesh .
    stage "tier1/benchsmoke" go test -run '^$' -bench . -benchtime 1x ./...
    stage "tier1/amd64vet" env GOARCH=amd64 go vet ./internal/la
    stage "tier1/arm64" env GOARCH=arm64 sh -c 'go build ./... && go vet ./internal/la'
    stage "tier1/nofma" nofma
    stage "tier1/nopack" no_pack
    stage "tier1/nopool" nopool
    stage "tier1/onerecv" onerecv
    stage "tier1/onesend" onesend
    stage "tier1/onedriver" onedriver
    stage "tier1/onewrite" onewrite
    stage "tier1/onepath" onepath
    stage "tier1/onefactor" onefactor
    stage "tier1/onereport" onereport
    stage "tier1/gofmt" gofmt_clean
    stage "tier1/loc" ./scripts/loc.sh
}

tier2() {
    stage "tier2/vet" go vet ./...
    stage "tier2/race" go test -race -short ./...
    stage "tier2/stepper" go test -race -count=10 \
        -run 'TestStepper|TestDistributedSessionLifecycle|TestDistributedStepNIsOneBatch|TestClosedSessionKeepsItsRecord|TestHTTPAnswersWhileSlotsStep|TestSubmitReturnsBeforeSetUp|TestCancelBeforeSetUp|TestManagerCloseReleasesThePoller|TestSchwarzApplicationMatchesSerialOnRanks|TestSumNIsSumSlotBySlot|TestLockstepCGOnRanksIsOneAtATime' \
        ./internal/parrun ./internal/session
    stage "tier2/streams" go test -race -count=10 \
        -run 'TestRecvOutOfOrderStress|TestSendNeverBlocks|TestReplayMatchesMessageSchedule|TestCollectiveLossFailsEveryRank|TestExchangeMatchesMessageSchedule|TestExchangeLossFailsEveryRank|TestMismatchedCallsFailEveryRank|TestRouteMatchesCrystalRouterSchedule|TestRouteLossFailsEveryRank|TestRouteOutOfRangeFailsEveryRank|TestReturnWhileOthersWaitFailsEveryRank|TestRecvDeadlockFailsEveryRank|TestRankPanicLeavesRunOnCaller|TestParallelExchangeDeterministicLargeP|TestParApplyFieldsIsApplyPerField|TestParCopiesAgreeInRankOrder' \
        ./internal/comm ./internal/gs
    stage "tier2/histogram" go test -race -count=10 \
        -run 'TestHistogramConcurrent|TestHistogramReportIsConsistent' ./internal/instrument
    stage "tier2/setup" go test -race -count=10 \
        -run 'TestConcurrentChannelSetUpsShareOneEigenpair' ./internal/flowcases
    stage "tier2/soak" soak
}

# soak — named cases stepped long, serially and on simulated ranks, held to
# outcomes rather than digests: every step of the run is recorded, every
# pressure and viscous solve converges, the largest CFL stays under a bound,
# and the serial run's final kinetic energy lies in a committed band. A case
# enters in the change that makes it pass; the stage never carries a known
# failure. Running (~4 s on 2 vCPUs, the build included):
#   channel, N = 9, unfiltered, 2 400 steps (t = 7.5), serially and at
#   -ranks 3: max CFL < 0.1 (0.0616 measured), final KE in
#   [3.35098, 3.35108] (3.35103).
# Pending, with the ROADMAP item each waits on and where it stops today:
#   convection, default size, 500 steps ............ item 16 (dies at step 78)
#   shear layer K = 64, N = 16, alpha 0.3, to t = 1 . item 16 (dies at step 281)
#   convection at -ranks 3, 200 steps .............. item 16
#   default shear layer (nel 8, N 8, alpha 0.3), to t = 2
#                                                  . items 16 / 4 (dies at step 541)
#   hairpin, N = 5, 600 steps ...................... item 4 (dies at step 242)
#   hairpin, N = 8, 300 steps ...................... item 4 (dies at step 7)
#   channel, N = 9, growth rate within 5 % ......... items 4 / 5
soak() (
    dir="$(mktemp -d)"
    trap 'rm -rf "$dir"' EXIT
    go build -o "$dir/" ./cmd/semflow
    for ranks in 0 3; do
        run="channel-p$ranks"
        "$dir/semflow" -case channel -n 9 -alpha 0 -steps 2400 -report 2400 \
            -ranks "$ranks" -history "$dir/$run.jsonl" > "$dir/$run.log"
        awk -v run="$run" '
            { n++ }
            !/"pressure_converged":true/ || !/"viscous_converged":true/ { bad++ }
            match($0, /"cfl":[^,}]*/) { c = substr($0, RSTART + 6, RLENGTH - 6) + 0; if (c > cfl) cfl = c }
            END {
                printf "%s: %d records, %d not converged, max CFL %g\n", run, n, bad, cfl
                exit !(n == 2400 && bad == 0 && cfl < 0.1)
            }' "$dir/$run.jsonl" || {
            echo "$run: want 2400 records, every solve converged, max CFL < 0.1" >&2
            exit 1
        }
    done
    ke="$(awk '$1 == 2400 { print $7 }' "$dir/channel-p0.log")"
    echo "channel-p0: final KE $ke"
    awk -v ke="$ke" 'BEGIN { exit !(ke != "" && ke >= 3.35098 && ke <= 3.35108) }' || {
        echo "channel-p0: final KE '$ke', want 3.35098 to 3.35108" >&2
        exit 1
    }
)

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
# with the least of it, the first listed on a tie. A trial ending in "cut"
# was stopped once it could no longer win: it must not report converged=true,
# and must have charged at least the selected trial's flops.
trial_pick() {
    awk '
        /^precond: / { sel = $2 }
        /^  trial / {
            n++
            if (!match($0, /flops=[0-9]+/)) { bad = 1; next }
            f = substr($0, RSTART + 6, RLENGTH - 6) + 0
            flops[$2] = f
            if ($NF == "cut") {
                if ($5 == "converged=true") bad = 1
                cuts[$2] = f
            }
            if ($5 == "converged=true" && (best == "" || f < low)) { best = $2; low = f }
        }
        END {
            for (c in cuts) if (cuts[c] < flops[sel]) bad = 1
            exit !(n > 0 && !bad && sel != "" && sel == best)
        }
    ' "$1" || {
        echo "-precond auto: selection is not the converged trial with the least flops, or a cut trial could have won:" >&2
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

    echo "== smoke: every step of the -ranks 4 run reports its viscous solves converged =="
    # Every copy of a shared node is equal on every rank, so the distributed
    # viscous solves converge where the serial ones do.
    if grep -v '"viscous_converged":true' "$out/dist-history.jsonl" | grep -q .; then
        echo "a -ranks 4 step reports viscous_converged other than true:" >&2
        grep -v '"viscous_converged":true' "$out/dist-history.jsonl" >&2
        exit 1
    fi

    echo "== smoke: the -ranks 4 run issues no more allreduces per step than pinned =="
    # 130.25 per rank and step over these four cold steps (145.25 before the
    # step batched its independent inner products, 132.50 before the
    # projection basis update took three reductions): a reduction that creeps
    # back into the step shows here before it shows in a benchmark.
    "$out/bin/semflow" -case channel -n 5 -ranks 4 -steps 4 -report 1 -stats > "$out/dist-stats.txt"
    per_step="$(sed -n 's/^allreduces per rank and step: \([0-9.]*\).*/\1/p' "$out/dist-stats.txt")"
    awk -v got="$per_step" 'BEGIN { exit !(got != "" && got + 0 <= 130.25) }' || {
        echo "allreduces per rank and step: '$per_step', want at most 130.25" >&2
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
    # The tournament's entrants are schwarz, then chebschwarz: exactly two
    # trial lines in that order, and none for chebjacobi, which only runs
    # forced (below) or recorded.
    trials=$(awk '/^  trial / { printf "%s ", $2 }' "$out/precond-auto.log")
    if [ "$trials" != "schwarz chebschwarz " ]; then
        echo "-precond auto trialled [${trials% }], want [schwarz chebschwarz]:" >&2
        grep -E '^(precond:|  trial )' "$out/precond-auto.log" >&2
        exit 1
    fi
    # Forcing the Chebyshev-Jacobi variant must converge to the same
    # final-step divergence bound as the Schwarz reference run, at the
    # Table-1 size (N=9) — whose cold Schwarz solves ran into the 500-iteration
    # cap until the preconditioner moved to the pressure grid (PR 19), so the
    # Schwarz run must not warn about the cap once. Both runs are filtered
    # (-alpha 0.3): unfiltered, the channel's divergence sits at the rounding
    # floor (~1e-13), where two solver paths cannot agree to 5%.
    "$out/bin/semflow" -case channel -n 9 -alpha 0.3 -steps 2 -report 1 \
        -precond chebjacobi -history "$out/precond-cheb-history.jsonl"
    "$out/bin/semflow" -case channel -n 9 -alpha 0.3 -steps 2 -report 1 \
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
        -d '{"case":"channel","steps":4,"n":5,"trace":true}' \
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
    # An auto job's result.json carries its selection and the trials that
    # chose it.
    asid="$(curl -sf "http://$daddr/api/sessions" \
        -d '{"case":"channel","steps":2,"n":5,"precond":"auto"}' \
        | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
    state="$(poll_state "http://$daddr/api/sessions/$asid")"
    curl -sf "http://$daddr/api/sessions/$asid/artifacts/result.json" > "$out/semflowd-auto-result.json"
    if [ "$state" != "done" ] || ! grep -q '"source": "trial"' "$out/semflowd-auto-result.json" ||
        ! grep -q '"trials": \[' "$out/semflowd-auto-result.json"; then
        echo "auto session '$asid' ended '$state'; want done, with a trial selection and its trials in result.json:" >&2
        cat "$out/semflowd-auto-result.json" >&2
        exit 1
    fi
    # The simulated machine is not served yet: 400, and no job.
    code="$(curl -s -o /dev/null -w '%{http_code}' "http://$daddr/api/sessions" \
        -d '{"case":"channel","steps":2,"ranks":4}')"
    [ "$code" = "400" ] || {
        echo "ranks > 0 submit answered $code, want 400" >&2
        exit 1
    }
    # A submit without alpha runs its case's default from the case table
    # (the hairpin box: 0.3), and an explicit "alpha":0 runs unfiltered;
    # config.json records the value the job ran.
    for want in 0.3 0; do
        body='{"case":"hairpin","n":4,"steps":2}'
        [ "$want" = 0 ] && body='{"case":"hairpin","n":4,"steps":2,"alpha":0}'
        hsid="$(curl -sf "http://$daddr/api/sessions" -d "$body" \
            | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
        state="$(poll_state "http://$daddr/api/sessions/$hsid")"
        curl -sf "http://$daddr/api/sessions/$hsid/artifacts/config.json" > "$out/semflowd-hairpin-config.json"
        if [ "$state" != "done" ] || ! grep -q "\"alpha\": $want,\?\$" "$out/semflowd-hairpin-config.json"; then
            echo "submit $body ended '$state'; want done with \"alpha\": $want in config.json:" >&2
            cat "$out/semflowd-hairpin-config.json" >&2
            exit 1
        fi
    done
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
    if grep -qw avx512f /proc/cpuinfo 2>/dev/null && grep -qw avx512vl /proc/cpuinfo 2>/dev/null; then
        grep -q ' avx512 ' "$out/table3.txt" || {
            echo "the CPU has AVX-512F and VL but Table 3 lists no avx512 kernel:" >&2
            cat "$out/table3.txt" >&2
            exit 1
        }
    fi

    echo "== smoke: Table 2 is reproducible and prints the recorded iteration counts =="
    # Iteration columns only: the cpu column after each count is wall time.
    for run in 1 2; do
        "$out/bin/tables" -exp table2 -quick > "$out/table2-$run.txt"
        awk -F'|' '/^ +[0-9]+ \|/ { row = $1 + 0; for (i = 2; i <= NF; i++) { split($i, w, " "); row = row "/" w[1] }; print row; next } { print }' \
            "$out/table2-$run.txt" > "$out/table2-$run.iters"
    done
    cmp -s "$out/table2-1.iters" "$out/table2-2.iters" || {
        echo "two runs of tables -exp table2 -quick differ outside the cpu columns:" >&2
        diff "$out/table2-1.iters" "$out/table2-2.iters" >&2
        exit 1
    }
    for row in 96/34/52/31/26/94 384/36/57/34/28/185; do
        grep -qx "$row" "$out/table2-1.iters" || {
            echo "Table 2 has no K/FDM/No=0/No=1/No=3/A0=0 row $row (EXPERIMENTS.md):" >&2
            cat "$out/table2-1.txt" >&2
            exit 1
        }
    done

    echo "== smoke: Table 4 and Fig. 8 price the reduced hairpin's own 26 steps =="
    "$out/bin/tables" -exp table4 -quick > "$out/table4-quick.txt"
    "$out/bin/tables" -exp table4 > "$out/table4.txt"
    "$out/bin/tables" -exp fig8 -quick > "$out/fig8-quick.txt"
    grep -q "from the paper's 319 GF" "$out/table4.txt"
    grep -qE '^ +26 ' "$out/fig8-quick.txt"
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
