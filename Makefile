# Development entry points. CI calls these same targets, so the pinned
# tool versions below are the single place to bump them.

STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4
ONIONLINT_BIN       ?= $(CURDIR)/bin/onionlint

.PHONY: build test race stress vet onionlint staticcheck govulncheck lint

build:
	go build ./...

test:
	go test ./...

race:
	go test -race -shuffle=on ./...

# The schedule-sensitive tests (shared-pool spill accounting), repeated
# single-core, dual-core and oversubscribed. A cached `ok` would hide a
# flake, hence -count. Must report 0 failures.
stress:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p go test -count=50 -run 'TestHybridGraceJoin|TestProjectionSpill' ./internal/query || exit 1; \
		GOMAXPROCS=$$p go test -count=10 -run TestE15BoundedMemoryCompletes ./internal/bench || exit 1; \
	done

# onionlint is the repo's own invariant suite (see internal/analysis):
# epoch bumps, budget charges, lock scope, error wrapping, context
# plumbing. The standalone run sees the whole program (full call-graph
# walks); the vet target below additionally exercises the unitchecker
# protocol editors use.
onionlint:
	go run ./cmd/onionlint ./...

vet:
	go vet ./...
	go build -o $(ONIONLINT_BIN) ./cmd/onionlint
	go vet -vettool=$(ONIONLINT_BIN) ./...

staticcheck:
	go run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

govulncheck:
	go run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

lint: vet onionlint staticcheck
