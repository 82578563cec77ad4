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

# The schedule-sensitive tests (shared-pool spill accounting, the
# allocation guards a pipelined execution's scheduling could move, batch
# reuse across query widths among them — and
# the /query encoder's, which must hold at every GOMAXPROCS — the
# pushdown differentials the semi-join's dispatch barrier runs under and
# the dead-source prune's, the
# per-source index records both extended by appends — against fresh
# builds and under concurrent heals, including two articulations' engines
# racing to heal the records they share — and replaced on any other
# change, the per-source reformulation tables kept across appends and
# rebuilt on ontology, articulation and registry edits, the join and
# projection runs' replay, merge and corrupt-input handling, the grace
# join's chunk carry and oversized build, the probe-overflow path, and
# the chain world's accounted peak under its memory cap),
# repeated single-core, dual-core and oversubscribed. A cached `ok` would
# hide a flake, hence -count. Must report 0 failures.
stress:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p go test -count=50 -run 'TestHybridGraceJoin|TestProjectionSpill' ./internal/query || exit 1; \
		GOMAXPROCS=$$p go test -count=20 -run 'TestTracingOffAllocs|TestPerRowBatchAllocs|TestMixedWidthBatchReuse|TestOneWorkerBudgetSpills' ./internal/query || exit 1; \
		GOMAXPROCS=$$p go test -count=20 -run 'TestPushdownEdgeCases|TestPushdownSemiJoinMatchesSequential|TestDeadSourcePruneMatchesSequential' ./internal/query || exit 1; \
		GOMAXPROCS=$$p go test -count=10 -run 'TestAppendExtendedCachesMatchFresh|TestAppendHealRaceHammer|TestOntologyEditDropsCaches|TestKBSwapDrops|TestEpochLengthMismatchDropsCaches|TestSharedRecordRaceHammer|TestReformTable' ./internal/query || exit 1; \
		GOMAXPROCS=$$p go test -count=20 -run 'TestSpillRun|TestGraceJoin|TestSpillJoinMatchesInMemory|TestSpillDeepChain|TestSpillProbeOverflow' ./internal/query || exit 1; \
		GOMAXPROCS=$$p go test -count=10 -run TestBoundedMemoryPeakUnderCap ./internal/bench || exit 1; \
		GOMAXPROCS=$$p go test -count=20 -run TestQueryEncodeAllocs ./cmd/oniond || exit 1; \
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
