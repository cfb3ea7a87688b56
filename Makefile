# Developer and CI entry points.  `make ci` is the whole gate: the full
# build, then the test suite.  Every end-to-end contract (campaign resume,
# shard partition, the characterization store, allocation
# accounting, the serve daemon, --jobs determinism, pinned experiment
# output) is a cram test under test/, so `dune runtest` runs it.

DUNE ?= dune

.PHONY: build test ci clean

build:
	$(DUNE) build @all

test:
	$(DUNE) runtest

ci: build test

clean:
	$(DUNE) clean
