GO ?= go

.PHONY: all build test race vet check golden golden-record scenario scenarios

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full suite under the race detector — the tier the provider conformance
# suite and the sharded engine are required to keep clean.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Golden regression gate: regenerate the pinned quick-scale datasets in
# memory and fail on any divergence. `make golden-record` refreshes the
# pins after an intentional change.
golden:
	$(GO) run ./cmd/rdmcbench -golden check

golden-record:
	$(GO) run ./cmd/rdmcbench -golden record

# Replay one scenario config: make scenario SCEN=scenarios/cosmos.json
scenario:
	@test -n "$(SCEN)" || { echo "usage: make scenario SCEN=scenarios/<name>.json"; exit 1; }
	$(GO) run ./cmd/rdmcbench -scenario $(SCEN)

# Regenerate the shipped scenarios/ directory from the library configs.
scenarios:
	$(GO) test ./internal/scenario -run TestShippedConfigsMatchLibrary -update-scenarios

check: build vet test race
