#!/bin/sh
# CI gate: formatting, vet, build, doc coverage, full test suite, then
# race-check the packages that share mutable state across goroutines
# (packed GEMM panels, pool fork/join, device queues, metrics registry).
# Run from the repo root.
set -eux

# gofmt must be a no-op everywhere.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Every package must carry a package comment (godoc coverage guard).
undocumented=$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./internal/... ./cmd/...)
if [ -n "$undocumented" ]; then
    echo "missing package comment in:" >&2
    echo "$undocumented" >&2
    exit 1
fi

go vet ./...
go build ./...
go test ./...
# perfbench/ is its own Go module, so the lines above never compile it; a
# facade or metrics change that breaks the benchmark must fail here.
(cd perfbench && go vet ./... && go test ./...)
# Test order must not matter: shuffle every package's tests so one test's
# leftover global state (the metrics registry, process-wide toggles) can
# never be what another test's pass depends on.
go test -shuffle=on ./...
# The pure-Go micro-kernel fallbacks (f64 and f32) must stay correct on
# their own: re-run the kernel suite — and the convnet built on the
# lowered GEMM — with the assembly path compiled out. The tuner rides
# along: its workload evaluations and predictor calibration run the full
# training stack, so they must hold on the fallback kernels too. data and
# feed join because the feed-backed trainer bit-identity tests must hold
# on the fallback kernels as well. serve joins because its f32 forward
# loop is the only f32 inference path and must hold on the fallback too.
go test -tags noasm ./internal/kernels/... ./internal/convnet/... ./internal/tune/... ./internal/data/... ./internal/feed/... ./internal/serve/...
# core and stack carry the fault-injection, checkpoint/resume and chunk
# prefetch tests, which overlap the loading goroutine with training; the
# cluster package rides along for its checkpoint-handoff paths; serve is
# the micro-batcher + worker pool; convnet runs its conv kernels across
# varying pool sizes (the bit-determinism-across-workers tests).
# tune joins the race set for its leak-free candidate-evaluation guarantee
# (device audits on every error path) and the adaptive controller's
# lock-protected knob updates. data and feed join for the concurrent
# source readers and the lease/commit protocol's shared cursor state
# (many consumers leasing/committing against one feed).
go test -race ./internal/kernels/... ./internal/parallel/... ./internal/device/... ./internal/metrics/... ./internal/core/... ./internal/stack/... ./internal/cluster/... ./internal/serve/... ./internal/convnet/... ./internal/tune/... ./internal/data/... ./internal/feed/...
# Determinism spot-check: the crash/rejoin/resync scenario must produce the
# identical ledger on back-to-back runs (fault injection is seeded, never
# wall-clock dependent).
go test -run TestClusterRecovery -count=2 ./internal/cluster/
# Serving chaos gate: the fault-injected serving suite (transient storms,
# permanent replica loss, fail-fast at zero workers) must hold under the
# race detector, and twice in a row — the injected fault streams are
# seeded, so outcomes and fault ledgers must replay identically.
go test -race -run 'TestChaos' -count=2 ./internal/serve/
# Serving smoke: the closed-loop load generator must sustain concurrent
# clients against the in-process server and print a latency report.
go run ./cmd/phiserve -model ae -visible 64 -hidden 16 -loadgen -clients 8 -duration 2s
# Adaptive-batching smoke: same load with the online controller on and a
# deliberately oversized window (clients < max-batch) — the report must
# include the "adaptive:" line showing the controller engaged.
go run ./cmd/phiserve -model ae -visible 64 -hidden 16 -loadgen -clients 8 \
    -max-batch 16 -max-wait 10ms -duration 2s -adaptive | grep "adaptive:"
# Degradation smoke: loadgen against a fault-injected server (transient +
# permanent faults, seeded; restart budget high enough that the supervisor
# rebuilds through the permanent losses). Every outcome must be typed —
# the report's "health:" line proves the server stayed up and counting.
go run ./cmd/phiserve -model ae -visible 64 -hidden 16 -loadgen -clients 8 \
    -duration 2s -fault-rate 0.05 -fault-permanent 0.2 -fault-seed 7 \
    -workers 2 -max-restarts 100 | grep "health:"
# Shared-feed cluster smoke: every node streams from one dataset feed
# (lease/commit protocol) under fault injection — the "feed:" line proves
# the lease ledger balanced (leases == commits) across crash/rejoin.
go run ./cmd/phisim -nodes 3 -cluster-steps 20 -feed -numeric \
    -global-batch 24 -visible 32 -hidden 8 \
    -node-fault-rate 0.1 -node-rejoin-after 3 | grep "feed:"
# Convnet train-then-serve smoke: train on labeled digits, export a PHCK
# checkpoint, and serve /predict from it through the load generator (the
# geometry flags must match between the two commands).
ckpt=$(mktemp -u /tmp/ci-convnet-XXXXXX.phck)
go run ./cmd/phitrain -model convnet -data digits -side 8 -examples 256 \
    -batch 16 -epochs 1 -classes 10 -filters1 3 -kernel1 3 -filters2 4 \
    -kernel2 3 -export "$ckpt"
go run ./cmd/phiserve -model convnet -side 8 -classes 10 -filters1 3 \
    -kernel1 3 -filters2 4 -kernel2 3 -checkpoint "$ckpt" \
    -loadgen -clients 4 -duration 2s
rm -f "$ckpt"
