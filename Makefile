.PHONY: build test race vet verify bench bench-smoke

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

# verify is the full pre-merge gate: gofmt + vet + build + tier-1 tests +
# race suite + internal/cluster coverage floor + experiment smokes.
verify:
	./scripts/verify.sh

bench:
	go test -bench=. -benchmem ./...

# bench-smoke runs the trimmed experiment streams that gate on a floor
# (chaos correctness, parscan 2x scan-time speedup) — fast enough for CI.
bench-smoke:
	go run ./cmd/feisu-bench -exp chaos -seed 1 -short -scale small
	go run ./cmd/feisu-bench -exp parscan -short -scale small
	go run ./cmd/feisu-bench -exp rescache -short -scale small
