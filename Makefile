.PHONY: build test race vet verify bench pairs counted figures loc

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

# verify is the full pre-merge gate: gofmt + vet + build + tier-1 tests +
# benchmark module + race suite + repeated chaos/flight runs + coverage
# floors + fuzz smoke + TCP suites + multi-process cluster + doc references.
verify:
	./scripts/verify.sh

# bench is the repository's benchmark: wall-clock, end to end, four workloads.
bench:
	bash bench/run.sh --all

# pairs runs one workload on BASE (default HEAD~1) and on the working tree in
# alternating pairs and prints medians, quartiles and wins per metric:
#   make pairs W=scan_hot [N=10] [SEED=1] [BASE=<commit>]
pairs:
	./scripts/bench-pairs.sh $(W) $(or $(N),10) $(or $(SEED),1)

# counted reads the benchmark's counted metrics (allocations, rows, column
# reads, tasks, ratios) on every workload and rewrites BENCH_counted.json;
# CHECK=1 compares them with the file instead and fails past a bound.
counted:
	./scripts/counted.sh $(if $(CHECK),--check)

# figures regenerates the paper's §VI tables and figures in simulated time
# (shapes only; speed is `make bench`).
figures:
	go run ./cmd/feisu-figures

# loc prints non-test Go lines per package and for the root module — the
# number the ROADMAP's "non-test LoC" gates quote — then the knob counts
# (config-struct fields, feisu.With* options): make loc [P=internal/cluster]
loc:
	./scripts/loc.sh $(P)
