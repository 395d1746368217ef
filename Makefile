# Convenience targets for the BEAST reproduction. Everything is plain
# `go` underneath; the Makefile only names the common workflows.

GO ?= go

.PHONY: all build test test-short race bench benchjson bench-compare profile vet lint lint-specs asan-smoke fmt examples artifacts gensweep clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass over the short suite plus vet: the parallel
# enumeration gate.
race: vet
	$(GO) test -race -short ./...

# Full benchmark run: every paper figure and table (see EXPERIMENTS.md).
# Output is kept in bench_output.txt for benchjson and later comparison.
bench:
	@rm -f bench_output.txt
	$(GO) test -bench . -benchmem ./... 2>&1 | tee bench_output.txt
	@grep -q "^ok\|^PASS" bench_output.txt && ! grep -q "^FAIL\|^--- FAIL" bench_output.txt

# Machine-readable perf snapshot: parse bench_output.txt (running `make
# bench` first if absent) into BENCH_<date>.json.
benchjson:
	@test -s bench_output.txt || $(MAKE) bench
	$(GO) run ./cmd/benchjson -in bench_output.txt -out BENCH_$$(date +%F).json

# Compare the current bench_output.txt against a committed snapshot and
# fail if any benchmark's ns/op regressed beyond the gate:
#   make bench-compare BASELINE=BENCH_2026-08-06.json MAX_REGRESS=10%
BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
MAX_REGRESS ?= 10%
bench-compare:
	@test -s bench_output.txt || $(MAKE) bench
	@test -n "$(BASELINE)" || { echo "no BENCH_*.json baseline found"; exit 1; }
	$(GO) run ./cmd/benchjson -in bench_output.txt -baseline $(BASELINE) -max-regress $(MAX_REGRESS)

# Profile the full pruned GEMM sweep: writes cpu.prof and mem.prof for
# `go tool pprof`. Override the workload with PROFILE_ARGS.
PROFILE_ARGS ?= -gemm dgemm_nn -scale 32 -count -workers 1
profile:
	$(GO) run ./cmd/beast $(PROFILE_ARGS) -cpuprofile cpu.prof -memprofile mem.prof
	@echo "wrote cpu.prof and mem.prof; inspect with: go tool pprof cpu.prof"

vet:
	$(GO) vet ./...

# Full static-analysis gate: vet always; staticcheck and govulncheck when
# installed (CI installs them, local runs degrade gracefully); then the
# spec linter over every committed example spec.
lint: vet lint-specs
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Run `spacegen -lint -Werror` over every committed .bst spec: a
# contradiction, dead constraint, or unused iterator in an example fails
# the build.
lint-specs:
	@$(GO) build -o /tmp/beast-spacegen ./cmd/spacegen
	@status=0; \
	for spec in $$(find examples -name '*.bst'); do \
		echo "lint $$spec"; \
		/tmp/beast-spacegen -spec $$spec -lint -Werror || status=1; \
	done; \
	exit $$status

# Compile the generated C sweep under ASan+UBSan and run it: memory and
# undefined-behaviour smoke over the codegen backend. UBSan stops at its
# first report, so undefined behaviour fails the target, and an unused
# helper or variable fails the build. Four variants:
# chunked and scalar innermost loops, each sequential and on 4 pthreads.
asan-smoke:
	@command -v gcc >/dev/null 2>&1 || { echo "gcc not installed; skipping"; exit 0; }
	$(GO) build -o /tmp/beast-spacegen ./cmd/spacegen
	@set -e; for chunk in 64 1; do for threads in 1 4; do \
		flags="-chunk $$chunk"; test $$threads = 1 || flags="$$flags -c-threads"; \
		echo "asan-smoke: chunk=$$chunk threads=$$threads"; \
		/tmp/beast-spacegen -gemm dgemm_nn -scale 16 -lang c -c-main $$flags -o /tmp/beast_asan_sweep.c; \
		gcc -O1 -g -Werror=unused-function -Werror=unused-variable -fsanitize=address,undefined -fno-sanitize-recover=undefined -fno-omit-frame-pointer \
			-o /tmp/beast_asan_sweep /tmp/beast_asan_sweep.c -lpthread; \
		/tmp/beast_asan_sweep $$threads; \
	done; done

fmt:
	gofmt -w .

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/gemm -scale 32
	$(GO) run ./examples/fftsizes
	$(GO) run ./examples/batched
	$(GO) run ./examples/specfile
	$(GO) run ./examples/energy -scale 32

# Regenerate the committed artifacts (docs/ and internal/gensweep).
artifacts: gensweep
	$(GO) run ./cmd/beast -gemm dgemm_nn -dot | tail -n +2 > docs/fig16_gemm.dot
	$(GO) run ./cmd/beast -gemm dgemm_nn -scale 32 -min-threads 64 -svg docs/pruning_radial.svg -count > /dev/null
	$(GO) run ./cmd/spacegen -gemm dgemm_nn -lang c -c-main -c-threads -o docs/sweep_dgemm_nn.c

gensweep:
	$(GO) run ./cmd/spacegen -write-gensweep

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt cpu.prof mem.prof
