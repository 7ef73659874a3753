# Local gates mirroring .github/workflows/ci.yml — contributors run the
# exact same checks CI enforces.

GO ?= go
COVER_BASELINE_FILE := .github/coverage-baseline.txt
API_BASELINE_FILE := .github/api-baseline-ref
# The apidiff version CI pins; bump deliberately alongside Go bumps.
APIDIFF_VERSION := v0.0.0-20240909161429-701f63a606c0

.PHONY: all build lint loc test golden bench cover api smoke smoke-gossip fuzz ci

# How long each fuzz target mutates (the CI fuzz-smoke duration).
FUZZ_TIME ?= 30s

all: build

build:
	$(GO) build ./...

# FMA_PKGS are the packages whose float results must be the same bits on
# every GOARCH: EdgeNet's weights, camera frames and descriptors.
FMA_PKGS := ./internal/xrand ./internal/tensor ./internal/dnn ./internal/feature ./internal/vision

# lint = gofmt + go vet + an arm64 vet and build (the portable Go path
# beside amd64 assembly) + no fused multiply-add in FMA_PKGS' arm64 code
# + explicit example builds + staticcheck (skipped with a notice if the
# tool is not installed; CI always runs it).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/dnn
	GOARCH=arm64 $(GO) build ./...
	@out=$$(GOARCH=arm64 $(GO) build -gcflags=-S $(FMA_PKGS) 2>&1 | grep -E 'FMADD|FMSUB|FNMADD|FNMSUB'); \
	if [ -n "$$out" ]; then \
		echo "fused multiply-adds in the arm64 build (round each product apart: float32(a*b), float64(a*b)):"; \
		echo "$$out"; exit 1; fi
	$(GO) build ./examples/...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed (go install honnef.co/go/tools/cmd/staticcheck@2025.1.1, the version CI pins); skipping"; \
	fi

# loc = the size figure simplicity PRs quote: non-test Go lines outside
# bench/ (the benchmark harness is not the system).
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v '^bench/' | xargs cat | wc -l

# test = the CI test job: race detector + coverage profile + baseline gate.
test:
	$(GO) test -race -timeout 20m -coverprofile=coverage.out ./...
	@$(MAKE) --no-print-directory cover

# golden rewrites internal/experiments/testdata/golden/*.txt, the rendered
# virtual-time tables TestVirtualTimeAblationTables compares byte for
# byte. Run it only for a change that means to move a simulated number,
# and review the diff.
golden:
	$(GO) test -run TestVirtualTimeAblationTables -count=1 ./internal/experiments -update

# cover checks the recorded coverage baseline against coverage.out.
cover:
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	baseline=$$(cat $(COVER_BASELINE_FILE)); \
	echo "total coverage: $$total% (baseline $$baseline%)"; \
	awk -v t="$$total" -v b="$$baseline" 'BEGIN { exit (t+0 >= b+0) ? 0 : 1 }' \
		|| { echo "coverage $$total% fell below the recorded baseline $$baseline%"; exit 1; }

# bench = the CI bench-smoke job: one iteration of every benchmark so
# they cannot bit-rot, then a short run of the loopback benchmark (bench/,
# the one performance benchmark; BENCHMARK.json is its contract), which
# exits non-zero on any failed or invalid reply. Its numbers are not
# gated here: `go run ./bench -check` is the manual repeatability check
# (bench/README.md).
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x -timeout 20m ./...
	$(GO) run ./bench -seconds 3

# fuzz = the CI fuzz-smoke job: a short randomized run of every fuzz
# target (their committed seed corpora already replay under `make test`).
# go test takes one -fuzz pattern per invocation, hence one run per target.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzReadMessage -fuzztime=$(FUZZ_TIME) ./internal/wire/
	$(GO) test -run=NONE -fuzz=FuzzBodyRoundTrip -fuzztime=$(FUZZ_TIME) ./internal/wire/

# smoke = the CI ops-smoke job: boot the real daemons with the ops
# sidecar and the shared -tenant-quota flag, probe /healthz and
# /readyz, push client traffic through, and lint the live /metrics
# payload (nonzero request counters and cache gauges required).
smoke:
	@$(GO) build -o bin/ ./cmd/coic-cloud ./cmd/coic-edge ./cmd/coic-client ./cmd/coic-promlint
	@./bin/coic-cloud -listen 127.0.0.1:19090 -tenant-quota "default:weight=2" & cloud=$$!; \
	./bin/coic-edge -listen 127.0.0.1:19091 -cloud 127.0.0.1:19090 -http 127.0.0.1:19191 \
		-tenant-quota "default:weight=2,cache=67108864" & edge=$$!; \
	trap 'kill $$edge $$cloud 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do \
		curl -fsS -o /dev/null http://127.0.0.1:19191/healthz 2>/dev/null && break; sleep 0.2; done; \
	curl -fsS http://127.0.0.1:19191/healthz && \
	curl -fsS http://127.0.0.1:19191/readyz && \
	./bin/coic-client -edge 127.0.0.1:19091 -task pano -n 8 -request-id 0xC1C0FFEE >/dev/null && \
	./bin/coic-client -edge 127.0.0.1:19091 -scene smoke -publish-rate 50 -n 4 >/dev/null && \
	./bin/coic-promlint -url http://127.0.0.1:19191/metrics \
		-require coic_requests_total,coic_connections_total,coic_stage_duration_seconds,coic_scene_publish_total,coic_cache_entries,coic_cache_bytes

# smoke-gossip = the CI gossip-fleet smoke: a seed edge serves traffic
# alone, two more edges gossip in (migration re-homes the seed's cached
# keys), then one is killed ungracefully: the survivors must detect the
# death (coic_member_alive converges to 2) while staying ready.
smoke-gossip:
	@$(GO) build -o bin/ ./cmd/coic-cloud ./cmd/coic-edge ./cmd/coic-client ./cmd/coic-promlint
	@./bin/coic-cloud -listen 127.0.0.1:19095 & cloud=$$!; \
	./bin/coic-edge -listen 127.0.0.1:19101 -self 127.0.0.1:19101 \
		-gossip-seeds 127.0.0.1:19101 -rf 2 \
		-cloud 127.0.0.1:19095 -http 127.0.0.1:19201 & e1=$$!; \
	trap 'kill $$e1 $$e2 $$e3 $$cloud 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do \
		curl -fsS -o /dev/null http://127.0.0.1:19201/healthz 2>/dev/null && break; sleep 0.2; done; \
	./bin/coic-client -edge 127.0.0.1:19101 -task pano -n 8 -request-id 0xC1C0FFEE >/dev/null && \
	for i in 2 3; do \
		./bin/coic-edge -listen 127.0.0.1:1910$$i -self 127.0.0.1:1910$$i \
			-gossip-seeds 127.0.0.1:19101 -rf 2 \
			-cloud 127.0.0.1:19095 -http 127.0.0.1:1920$$i & eval "e$$i=\$$!"; \
	done; \
	alive() { curl -fsS "http://127.0.0.1:$$1/metrics" 2>/dev/null | awk '$$1 == "coic_member_alive" {print int($$2)}'; }; \
	for i in $$(seq 1 100); do \
		[ "$$(alive 19201)" = 3 ] && [ "$$(alive 19202)" = 3 ] && [ "$$(alive 19203)" = 3 ] && break; sleep 0.2; done; \
	[ "$$(alive 19203)" = 3 ] && \
	kill -9 $$e3 && \
	for i in $$(seq 1 150); do \
		[ "$$(alive 19201)" = 2 ] && [ "$$(alive 19202)" = 2 ] && break; sleep 0.2; done; \
	[ "$$(alive 19201)" = 2 ] && [ "$$(alive 19202)" = 2 ] && \
	curl -fsS -o /dev/null http://127.0.0.1:19201/readyz && \
	curl -fsS -o /dev/null http://127.0.0.1:19202/readyz && \
	./bin/coic-client -edge 127.0.0.1:19102 -task pano -n 8 -request-id 0xC1C0FFEE >/dev/null && \
	./bin/coic-promlint -url http://127.0.0.1:19201/metrics \
		-require coic_member_alive,coic_ring_version,coic_migration_keys_total && \
	echo "gossip fleet smoke: converged to 2 after the kill, survivors ready"

# api = the CI apidiff job: the public surface of the root package must
# stay compatible with the committed baseline commit (skipped with a
# notice if the tool is not installed; CI always runs it).
api:
	@if command -v apidiff >/dev/null 2>&1; then \
		base=$$(cat $(API_BASELINE_FILE)); \
		tmp=$$(mktemp -d); \
		git worktree add --detach $$tmp/base $$base >/dev/null 2>&1; \
		(cd $$tmp/base && apidiff -w $$tmp/base.export .); \
		report=$$(apidiff -incompatible $$tmp/base.export .); \
		git worktree remove --force $$tmp/base >/dev/null 2>&1; rm -rf $$tmp; \
		if [ -n "$$report" ]; then \
			echo "incompatible public API changes vs baseline $$base:"; \
			echo "$$report"; exit 1; fi; \
		echo "public API compatible with baseline $$base"; \
	else \
		echo "apidiff not installed (go install golang.org/x/exp/cmd/apidiff@$(APIDIFF_VERSION), the version CI pins); skipping"; \
	fi

ci: lint build test bench fuzz api smoke smoke-gossip
