GO ?= go

.PHONY: all build test short race vet doclint linkcheck bench bench-report bench-short trace-sample chaos trace-chaos fuzz-short scenario-cdf devolve obs balance cover clean

all: build test

build:
	$(GO) build ./...

# Tier-1 gate: the full test suite (includes determinism properties over the
# fast experiments; set SCOTCH_DETERMINISM_ALL=1 to cover every experiment).
test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

# Race gate: everything that spawns goroutines (ofnet live switches, the
# parallel experiment runner) must be clean under the race detector.
race:
	$(GO) test -race ./...

# Static gate: go vet, and every Go file outside dot-directories (the
# benchmark's build cache) must be gofmt-clean.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path './.*')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi

# Documentation gate: every internal package needs a package comment, and
# the scotch/cluster/devolve/elastic/fault packages need docs on every
# exported symbol.
doclint:
	$(GO) run ./cmd/doclint

# Markdown gate: every relative link and heading anchor in the repo's
# markdown must resolve (offline, GitHub anchor rules).
linkcheck:
	$(GO) run ./cmd/linkcheck

# The chaos experiments (§5 reliability mechanisms under injected faults)
# plus the balancer-driven elastic pool cycle and the devolution
# invalidation run, which exercise the same live-mutation paths from the
# control-loop and policy-distribution sides.
chaos:
	$(GO) run ./cmd/scotchsim run chaos-vswitch chaos-partition chaos-churn elastic devolve-invalidate

# Chaos + elastic trace artifact: fault and resize marks with control-path
# spans for the fast experiments (Chrome trace-event JSON).
trace-chaos:
	$(GO) run ./cmd/scotchsim run chaos-partition chaos-churn elastic -trace trace_chaos.json

# Micro + macro benchmarks with allocation counts.
bench:
	$(GO) test -run xxx -bench 'ScheduleFire|LookupHit|LookupMiss|SwitchPath' -benchmem ./internal/sim/ ./internal/flowtable/ ./internal/topo/
	$(GO) test -run xxx -bench 'Suite' -benchmem .

# Regenerate BENCH_scotch.json: the full suite serial vs parallel.
bench-report:
	$(GO) run ./cmd/scotchsim bench -out BENCH_scotch.json

# CI-sized bench report: the fastest experiments only, same JSON schema.
bench-short:
	$(GO) run ./cmd/scotchsim bench -out BENCH_scotch.json fig14 fig4 table1 cluster-scale devolve-ablation devolve-invalidate

# Sample control-path trace (Chrome trace-event JSON, loadable in
# chrome://tracing / Perfetto).
trace-sample:
	$(GO) run ./cmd/scotchsim run fig14 -trace trace_fig14.json

# Short fuzz pass over every native fuzz target (trace parsers and the
# OpenFlow codec), a few seconds each; new findings land in the build cache,
# reproducers in testdata/fuzz/.
fuzz-short:
	$(GO) test -run xxx -fuzz FuzzTraceCSV -fuzztime 5s ./internal/workload/
	$(GO) test -run xxx -fuzz FuzzTraceJSONL -fuzztime 5s ./internal/workload/
	$(GO) test -run xxx -fuzz FuzzMessageRoundTrip -fuzztime 5s ./internal/openflow/
	$(GO) test -run xxx -fuzz FuzzMatchRoundTrip -fuzztime 5s ./internal/openflow/

# Per-tenant flow-setup latency CDF table from the multi-tenant scenario
# (the CI artifact proving the DDoS-isolation bound).
scenario-cdf:
	$(GO) run ./cmd/scotchsim run scenario-multitenant | tee scenario_multitenant.txt

# Devolution ablation + invalidation tables (the CI artifact proving the
# pool-factor Packet-In reduction and the no-stale-policy invariants).
devolve:
	$(GO) run ./cmd/scotchsim run devolve-ablation devolve-invalidate | tee devolve_ablation.txt

# Observatory health digest for the SLO burn experiment (the CI artifact
# proving the healthy -> burning -> healthy verdict cycle), as text and
# as the health_obs_slo.json machine-readable digest.
obs:
	$(GO) run ./cmd/scotchsim run obs-slo -health -health-json health_obs_slo.json | tee obs_slo.txt

# Joint-elasticity balancer experiments (the CI artifact proving the
# grow-while-migrating interleave with zero client loss and the
# burn-driven replica scale-out/retire cycle), with per-rig health
# digests in health_balance.json.
balance:
	$(GO) run ./cmd/scotchsim run elastic-under-migration replica-scale-out -health -health-json health_balance.json | tee balance.txt

# Coverage over the deterministic packages, with a per-function summary.
cover:
	$(GO) test -short -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1
	@echo "full per-function breakdown: go tool cover -func=coverage.out"

clean:
	$(GO) clean ./...
	rm -f coverage.out trace_fig14.json trace_chaos.json scenario_multitenant.txt devolve_ablation.txt obs_slo.txt health_obs_slo.json balance.txt health_balance.json
