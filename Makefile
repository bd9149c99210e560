# Zipper development targets. CI (.github/workflows/ci.yml) runs `make ci`
# piecewise; the full suite (no -short) is the tier-1 gate.

GO ?= go

.PHONY: ci fmt vet build test test-full bench-smoke bench perfbench-check

ci: fmt vet build test perfbench-check

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Fast lane: paper-figure reproductions are skipped (testing.Short). The
# analysis package runs again under GOAMD64=v3, where the compiler may emit
# FMA, to hold the moment kernel's bit-identity contract there too.
test:
	$(GO) test -race -short ./...
	GOAMD64=v3 $(GO) test ./internal/analysis

# Tier-1: the full suite including the figure reproductions (~15 s).
test-full:
	$(GO) build ./... && $(GO) test ./...

# perfbench is its own module (go.mod with a replace of the root), so the
# root ./... never compiles it: vet and test it explicitly so an API change
# that breaks the benchmark fails here.
perfbench-check:
	$(GO) -C perfbench vet ./... && $(GO) -C perfbench test ./...

# One iteration of every benchmark — catches bit-rot, measures nothing.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Regenerate the committed baselines: every scenario of the registry in
# internal/benchharness, one BENCH_<scenario>.json each. Reports are written
# even when a gate fails; the exit status then names the failed gates.
bench:
	$(GO) run ./cmd/zipperbench baseline
