#!/bin/sh
# Strong-scaling study driver: runs `tables -exp scaling` — the Fig. 6/8
# strong-scaling sweep of the distributed channel stepper at paper-scale
# rank counts — and records the output as the committed SCALING.md
# artifact. The sweep takes seconds (two cold steps of ~10 pressure
# iterations per point) but is still not part of `tables -exp all`.
#
# Usage:
#   scripts/scale.sh         full sweep (K=1024, P in {16,64,256,1024};
#                            ~7 s on two cores) -> SCALING.md
#   scripts/scale.sh quick   reduced sweep (K=64, P in {4,16,64}; ~1 s),
#                            printed only, nothing written
set -eu
cd "$(dirname "$0")/.."

mode="${1:-full}"
case "$mode" in
quick)
    go run ./cmd/tables -exp scaling -quick
    ;;
full)
    tmp="$(mktemp)"
    trap 'rm -f "$tmp"' EXIT
    go run ./cmd/tables -exp scaling | tee "$tmp"
    {
        echo "# Strong scaling at paper-scale rank counts"
        echo
        echo "Output of \`scripts/scale.sh\` (\`tables -exp scaling\`): the full"
        echo "distributed Navier-Stokes stepper on the simulated ASCI-Red, one"
        echo "fixed channel mesh, P swept from tens of elements per rank to one"
        echo "element per rank. All times are virtual (simulated-machine) seconds"
        echo "from the per-rank clocks; see DESIGN.md, \"Scaling the simulated"
        echo "machine\"."
        echo
        echo '```'
        cat "$tmp"
        echo '```'
    } > SCALING.md
    echo "wrote SCALING.md"
    ;;
*)
    echo "usage: scripts/scale.sh [full|quick]" >&2
    exit 2
    ;;
esac
