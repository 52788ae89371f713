GO ?= go

.PHONY: check fmt-check vet staticcheck build cross test-short test test-race test-faults test-farm test-cluster fuzz golden bench-json bench-smoke cmd-smoke loc api

check: fmt-check vet staticcheck build cross test-short

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is on PATH and is skipped (with a note)
# when it is not, so `make check` works on boxes without it while CI and
# developer machines that have it get the full lint.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

# cross vets and builds for arm64 and for 386, so the Go loops that are the
# only path off amd64 (beside the SSE2 kernels of internal/ode, internal/core
# and internal/specfunc) keep compiling, and so does every package where int
# is 32 bits (386 is also where `GOARCH=386 go test` runs those loops
# unfused).
cross:
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...
	GOARCH=386 $(GO) vet ./... && GOARCH=386 $(GO) build ./...

test-short:
	$(GO) test -short ./...

test:
	$(GO) test ./...

# test-race runs the concurrency-sensitive packages (and everything else in
# short mode) under the race detector: the serving layer, the dispatcher
# backends, and the facade's parallel-request contract test.
test-race:
	$(GO) test -race -short ./internal/serve/... ./...

# test-faults runs the fault-injection and recovery suite under the race
# detector: internal/fault (the one seeded fault plan and its three
# adapters: the mp endpoint, the peer HTTP transport, the farm connection),
# all of internal/dispatch — the chaos matrix (scripted kill/hang/drop across
# the chan/fifo/tcp transports, all-but-one and all-workers-lost kills,
# batched-block reassignment), worker panic recovery, and the Appendix-A
# master's and worker's own unit tests (the verdicts, the late death report
# and the malformed init and assignment blocks among them) — and the serving
# layer's deadline/stale degradation, a normalized miss derived from its
# base product among them (TestDerivedMiss*: deadline, stale, and two
# derivations coalescing on one slot).
test-faults:
	$(GO) test -race ./internal/fault/ ./internal/dispatch/
	$(GO) test -race -run 'Chaos|Panic|Deadline|Stale|DerivedMiss' ./internal/serve/

# test-farm runs the multi-process worker-farm suite under the race
# detector: the in-process supervisor contract tests (bitwise equality with
# the pool on SCDM and on a flattened MDM model, the numerics-version
# refusal, the bounded worker model cache, heartbeat kills, rejoin
# accounting, drain, a prompt Close, zero-worker degradation), the tcpmp
# join hardening and golden frames (the one data frame both carry), the
# serve and facade farm routing, the composed farm-and-cluster chaos test,
# and the process-spawning chaos tests that SIGKILL real plingerw workers
# mid-sweep and between sweeps.
test-farm:
	$(GO) test -race ./internal/farm/ ./internal/mp/tcpmp/
	$(GO) test -race -run 'Farm' ./internal/serve/ .

# test-cluster runs the sharded-cache fleet suite under the race detector:
# the peering substrate (rendezvous ring, per-peer breakers, heartbeat
# membership death/rejoin, retry/backoff) and the serving-layer chaos matrix
# — owner killed, hung, erroring 5xx, and partitioned through an
# internal/fault plan on the peer transport, each required to degrade to a
# 200 that is bitwise identical to a no-cluster reference — plus the
# composed farm-and-cluster chaos test and the cross-node hit, stale
# short-circuit, hedged-slow-peer, back-fill, and derived Retry-After
# contracts.
test-cluster:
	$(GO) test -race ./internal/cluster/
	$(GO) test -race -run 'Cluster|RetryAfter|KeyExcludesRouting' ./internal/serve/

# fuzz runs each fuzz target for 10 s: the one frame codec tcpmp and the
# worker farm share, the two listeners that read it from strangers (a tcpmp
# master's fixed-world join, the farm's registration and read loop), the
# master's decoders of a worker's result blocks, the daemon's back-fill
# handler (/v1/peer/offer), its reader of a peer's forwarded answer (both
# products' decoders) and its request keys (JSON, Validate, Key, stable
# under re-encoding), and the SSE2 kernels of
# internal/ode, internal/core and internal/specfunc (the projection's row
# pairs) against their Go loops. Plain `go test` replays their seed corpora
# (testdata/fuzz, the crashers found so far among them); a new crasher lands
# there too.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/mp/
	$(GO) test -run '^$$' -fuzz '^FuzzJoin$$' -fuzztime 10s ./internal/mp/tcpmp/
	$(GO) test -run '^$$' -fuzz '^FuzzRegister$$' -fuzztime 10s ./internal/farm/
	$(GO) test -run '^$$' -fuzz '^FuzzUnpackResult$$' -fuzztime 10s ./internal/dispatch/
	$(GO) test -run '^$$' -fuzz '^FuzzUnpackSources$$' -fuzztime 10s ./internal/dispatch/
	$(GO) test -run '^$$' -fuzz '^FuzzPeerOffer$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzPeerEnvelope$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzRequestKey$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzKernels$$' -fuzztime 10s ./internal/ode/
	$(GO) test -run '^$$' -fuzz '^FuzzStream$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzAccumPairs$$' -fuzztime 10s ./internal/specfunc/

# golden re-records testdata/golden_cl_bits.json from the code in the tree,
# for a change that is meant to move the spectrum. It prints the largest
# relative shift old -> new per case and refuses one above 1e-4; add
# GOLDEN_FLAGS=-update-golden-force when that is meant too.
# TestStreamingClWithinHierarchyReference keeps holding the result to the
# frozen testdata/golden_cl_bits_hierarchy.json, the same engine without its
# streaming switch. When the change moves what both do before the switch,
# that file is re-frozen once, after this target, on the final code: in a
# scratch copy put `p.noStream = true` first in core's Params.setDefaults,
# run `go test -short -run '^TestGoldenClBits$$' -update-golden
# -update-golden-force .` there and copy its two goldenCases() entries
# (150/130 and 300) over; name the commit in the comment above
# hierarchyClPath (last: 7a974f4, the slip regime).
golden:
	$(GO) test -run '^TestGoldenClBits$$' -v -update-golden $(GOLDEN_FLAGS) .

# bench-json makes a set with the repository's benchmark (bench/, declared
# by BENCHMARK.json): ten timed runs of each workload, interleaved, plus one
# traced pass for the layer table, written to BENCH_NEW. When BENCH_OLD
# exists — the same target run on the parent commit's checkout with
# BENCH_NEW pointed at it — the two sets are compared under the declared
# bounds, and any "worse" verdict or larger failed share fails the target.
BENCH_OLD ?= bench-old.json
BENCH_NEW ?= bench-new.json
bench-json:
	bash bench/run.sh -runs 10 -out $(BENCH_NEW)
	@if [ -f $(BENCH_OLD) ]; then \
		bash bench/run.sh -compare $(BENCH_OLD) $(BENCH_NEW); \
	else \
		echo "no $(BENCH_OLD) to compare with: make it on the parent checkout (BENCH_NEW=$(BENCH_OLD))"; \
	fi

# bench-smoke is the CI guard that keeps the benchmark from rotting: the
# harness's unit tests plus a timed and a traced pass of all five workloads
# at tiny sizes, every declared metric required to come out finite with no
# failed op.
bench-smoke:
	$(GO) test ./bench

# cmd-smoke runs the five command-line drivers that build their own
# models and sweeps at tiny sizes, so a flag or report path that stops
# working fails CI: linger drives both facade products (C_l and the matter
# power table), and cmbmap is the one driver of the sky-map synthesis.
# psimovie, linger and cmbmap write into a temporary directory.
cmd-smoke:
	$(GO) run ./cmd/scaling -np 1,2 -nk 8 -lmax 20 -schedules -backends -fastevolve
	$(GO) run ./cmd/plinger -np 2 -nk 24 -lmaxcl 40 -cl -fastcl
	d=$$(mktemp -d) && $(GO) run ./cmd/psimovie -n 16 -frames 2 -dir "$$d"; s=$$?; rm -rf "$$d"; exit $$s
	d=$$(mktemp -d) && $(GO) run ./cmd/linger -nk 8 -lmaxcl 20 -out "$$d/linger.out"; s=$$?; rm -rf "$$d"; exit $$s
	d=$$(mktemp -d) && $(GO) run ./cmd/cmbmap -lmaxcl 20 -nk 40 -n 16 -full "$$d/cobe.pgm" -patch "$$d/patch.pgm"; s=$$?; rm -rf "$$d"; exit $$s

# loc prints the non-test Go lines per package under internal/, of the
# facade and of cmd/ — the number ROADMAP aim 2 tracks — and beside them the
# assembly lines, so code moved into .s files still counts; a last row sums
# both columns.
loc:
	@printf '%6s %6s  %s\n' go asm package; \
	tn=0; ts=0; \
	for d in $$(find internal -type d | sort) . cmd; do \
		depth="-maxdepth 1"; [ $$d = cmd ] && depth=""; \
		n=$$(find $$d $$depth -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		s=$$(find $$d $$depth -name '*.s' -exec cat {} + | wc -l); \
		[ $$n -gt 0 ] && printf '%6d %6d  %s\n' $$n $$s $$d; \
		tn=$$((tn + n)); ts=$$((ts + s)); \
	done; printf '%6d %6d  %s\n' $$tn $$ts total

# api prints the exported surface of every package under internal/ and of
# the facade — the lines of `go doc -short`, one per exported name, and the
# constructors and methods listed under them — and a last row summing them,
# so ROADMAP aim 2's "exported surface going down" is a number, as loc makes
# it one for lines.
api:
	@tn=0; \
	for p in $$($(GO) list ./internal/... .); do \
		n=$$($(GO) doc -short $$p | wc -l); \
		printf '%6d  %s\n' $$n $${p#plinger/}; \
		tn=$$((tn + n)); \
	done; printf '%6d  %s\n' $$tn total
