# Developer and CI entry points.  `make ci` is the smoke gate: full build,
# the whole test suite, a quick bench pass, a structural check that the
# bench produced a well-formed BENCH_hetarch.json, a determinism check
# that --jobs does not change any output for a fixed seed, and a
# warm-start check that the persistent characterization store serves a
# second sweep from disk without changing a byte of output.
#
# Every smoke target works in its own `mktemp -d` scratch directory and
# removes it on exit (success or failure), so parallel checkouts and CI
# runners never collide on shared /tmp paths.  When SMOKE_ARTIFACTS is set
# (GitHub CI sets it), a failing obs-/cache-smoke copies its scratch dir —
# telemetry, traces, metrics, the store — there before cleanup, so the
# workflow can upload the evidence.

DUNE ?= dune
SMOKE_ARTIFACTS ?=

.PHONY: all build test bench ci jobs-smoke collect-smoke obs-merge-smoke monitor-smoke cache-smoke decode-smoke alloc-smoke serve-smoke clean

all: build

build:
	$(DUNE) build @all

test:
	$(DUNE) runtest

bench:
	$(DUNE) exec bench/main.exe

# The Parallel determinism contract, end to end: the same seed must produce
# byte-identical stdout whether the Monte-Carlo fan-out runs on one domain
# or two.
jobs-smoke: build
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	for sub in fig6 table3; do \
	  $(DUNE) exec bin/main.exe -- $$sub --shots 200 --seed 7 --jobs 1 > $$d/j1.out || exit 1; \
	  $(DUNE) exec bin/main.exe -- $$sub --shots 200 --seed 7 --jobs 2 > $$d/j2.out || exit 1; \
	  diff -u $$d/j1.out $$d/j2.out \
	    || { echo "jobs-smoke: $$sub output depends on --jobs"; exit 1; }; \
	  echo "jobs-smoke: $$sub deterministic across --jobs 1/2"; \
	done

# The campaign resume contract, end to end: a tiny threshold campaign run
# to completion must produce a byte-identical merged CSV to the same
# campaign halted mid-run (--halt-after, the deterministic stand-in for a
# kill) and finished under --resume against its ledger.
COLLECT_FLAGS = threshold --seed 7 --max-shots 2048 --rel-ci 0.3 --min-shots 256 --batch 256
collect-smoke: build
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(DUNE) exec bin/main.exe -- collect $(COLLECT_FLAGS) --csv $$d/ref.csv > /dev/null && \
	$(DUNE) exec bin/main.exe -- collect $(COLLECT_FLAGS) --ledger $$d/collect.jsonl --halt-after 3 > /dev/null && \
	$(DUNE) exec bin/main.exe -- collect $(COLLECT_FLAGS) --ledger $$d/collect.jsonl --resume --csv $$d/resumed.csv > /dev/null && \
	{ diff -u $$d/ref.csv $$d/resumed.csv \
	  || { echo "collect-smoke: resumed CSV differs from uninterrupted run"; exit 1; }; } && \
	echo "collect-smoke: killed+resumed campaign CSV byte-identical to uninterrupted run"

# The fleet-observability contract, end to end: three CONCURRENT
# shard-labelled collect processes (different --jobs each) record snapshots
# into a shared run registry; merging them must be byte-identical whether
# the sources are given as file paths in forward order or registry run-id
# prefixes in reverse order, with counters summing exactly (6 tasks x 1024
# shots).  The registry lists all three runs with their shard labels, and
# the trend watchdog judges a fresh run against registry history — warn-only
# here, hard gate in GitHub CI via TREND_GATE=--gate.  Also covers `obs
# tail` on empty and mid-record-truncated telemetry streams.
#
# Runs the built binary directly: three concurrent `dune exec` invocations
# would race on the build lock.
MERGE_FLAGS = threshold --seed 7 --max-shots 1024 --batch 256
TREND_GATE ?=
obs-merge-smoke: build
	@d=$$(mktemp -d); \
	trap 'rc=$$?; if [ $$rc -ne 0 ] && [ -n "$(SMOKE_ARTIFACTS)" ]; then \
	       mkdir -p "$(SMOKE_ARTIFACTS)" && cp -r "$$d" "$(SMOKE_ARTIFACTS)/obs-merge-smoke"; fi; \
	     rm -rf "$$d"; exit $$rc' EXIT; \
	bin=$$PWD/_build/default/bin/main.exe; \
	$$bin collect $(MERGE_FLAGS) --shards 3 --shard 0 --jobs 2 --obs-dir $$d/reg > /dev/null & p0=$$!; \
	$$bin collect $(MERGE_FLAGS) --shards 3 --shard 1 --jobs 1 --obs-dir $$d/reg > /dev/null & p1=$$!; \
	$$bin collect $(MERGE_FLAGS) --shards 3 --shard 2 --jobs 3 --obs-dir $$d/reg > /dev/null & p2=$$!; \
	wait $$p0 && wait $$p1 && wait $$p2 && \
	{ test $$(ls $$d/reg/snapshots | wc -l) -eq 3 \
	  || { echo "obs-merge-smoke: expected 3 snapshots"; exit 1; }; } && \
	$$bin obs merge -o $$d/fleet_fwd.json $$d/reg/snapshots/*.json && \
	$$bin obs merge --obs-dir $$d/reg -o $$d/fleet_rev.json \
	  $$(ls $$d/reg/snapshots | sed 's/\.json//' | sort -r) && \
	{ cmp -s $$d/fleet_fwd.json $$d/fleet_rev.json \
	  || { echo "obs-merge-smoke: fleet view depends on merge order"; exit 1; }; } && \
	{ grep -q '"collect.shots_total":6144' $$d/fleet_fwd.json \
	  || { echo "obs-merge-smoke: merged shot counter is not 6*1024"; exit 1; }; } && \
	for s in shard0/3 shard1/3 shard2/3; do \
	  $$bin obs runs --obs-dir $$d/reg | grep -q $$s \
	    || { echo "obs-merge-smoke: registry misses $$s"; exit 1; }; \
	done && \
	$$bin obs show --obs-dir $$d/reg $$d/fleet_fwd.json > /dev/null && \
	for i in 1 2 3; do \
	  $$bin collect $(MERGE_FLAGS) --obs-dir $$d/trendreg > /dev/null \
	    || { echo "obs-merge-smoke: trend-history run $$i failed"; exit 1; }; \
	done && \
	$$bin obs compare --obs-dir $$d/trendreg --last 2 \
	  --threshold 50 --noise-floor-ns 1000000 $(TREND_GATE) && \
	printf '' > $$d/empty.jsonl && \
	{ $$bin obs tail $$d/empty.jsonl | grep -q empty \
	  || { echo "obs-merge-smoke: obs tail chokes on an empty stream"; exit 1; }; } && \
	$$bin collect $(MERGE_FLAGS) --telemetry $$d/tel.jsonl --telemetry-interval 0 > /dev/null && \
	head -c $$(($$(wc -c < $$d/tel.jsonl) - 37)) $$d/tel.jsonl > $$d/torn.jsonl && \
	$$bin obs tail $$d/torn.jsonl > /dev/null && \
	echo "obs-merge-smoke: 3-shard fleet view order-insensitive, counters exact, trend watchdog ran"

# Distributed tracing + fleet monitor, end to end: one `collect --shards 2`
# coordinator forks two shard processes; all three must stream telemetry
# into the registry's sink, carry one fleet-wide trace id, and show up in
# `obs monitor --once` with nonzero shard throughput.  Parent resolution is
# proven by `obs trace-merge --check`: the full fleet merges with no orphan
# parents (exit 0) while the shards without their coordinator do not (exit
# 1) — and the merged timeline is byte-identical for any input order.  Also
# covers the stall detector (a stream with an old mtime and no final record
# flags "stalled") and `obs runs --prune` compaction of dangling entries.
MONITOR_FLAGS = threshold --seed 7 --max-shots 2048 --batch 256
monitor-smoke: build
	@d=$$(mktemp -d); \
	trap 'rc=$$?; if [ $$rc -ne 0 ] && [ -n "$(SMOKE_ARTIFACTS)" ]; then \
	       mkdir -p "$(SMOKE_ARTIFACTS)" && cp -r "$$d" "$(SMOKE_ARTIFACTS)/monitor-smoke"; fi; \
	     rm -rf "$$d"; exit $$rc' EXIT; \
	bin=$$PWD/_build/default/bin/main.exe; \
	$$bin collect $(MONITOR_FLAGS) --shards 2 --obs-dir $$d/reg \
	  --trace $$d/trace.jsonl --telemetry-interval 0 > /dev/null && \
	{ test $$(ls $$d/reg/telemetry | wc -l) -eq 3 \
	  || { echo "monitor-smoke: expected 3 telemetry streams (coordinator + 2 shards)"; exit 1; }; } && \
	$$bin obs monitor --obs-dir $$d/reg --once > $$d/mon.jsonl && \
	{ test $$(wc -l < $$d/mon.jsonl) -eq 3 \
	  || { echo "monitor-smoke: monitor --once misses streams"; exit 1; }; } && \
	{ test $$(grep -o '"trace_id":"[0-9a-f]*"' $$d/mon.jsonl | sort -u | wc -l) -eq 1 \
	  || { echo "monitor-smoke: fleet does not share one trace id"; exit 1; }; } && \
	for s in shard0/2 shard1/2; do \
	  grep '"shard":"'$$s'"' $$d/mon.jsonl | grep -q '"status":"done"' \
	    || { echo "monitor-smoke: $$s not reported done"; exit 1; }; \
	  grep '"shard":"'$$s'"' $$d/mon.jsonl | grep -vq '"shots_per_s":0.0,' \
	    || { echo "monitor-smoke: $$s reports zero throughput"; exit 1; }; \
	done && \
	$$bin obs trace-merge --check -o $$d/m_fwd.jsonl \
	  $$d/trace.jsonl $$d/trace.jsonl.shard0 $$d/trace.jsonl.shard1 && \
	$$bin obs trace-merge -o $$d/m_rev.jsonl \
	  $$d/trace.jsonl.shard1 $$d/trace.jsonl.shard0 $$d/trace.jsonl && \
	{ cmp -s $$d/m_fwd.jsonl $$d/m_rev.jsonl \
	  || { echo "monitor-smoke: merged timeline depends on input order"; exit 1; }; } && \
	{ ! $$bin obs trace-merge --check -o /dev/null \
	      $$d/trace.jsonl.shard0 $$d/trace.jsonl.shard1 2> /dev/null \
	  || { echo "monitor-smoke: orphaned shard parents not detected"; exit 1; }; } && \
	mkdir -p $$d/stall/telemetry && \
	head -n -1 $$(ls $$d/reg/telemetry/*.jsonl | head -1) > $$d/stall/telemetry/run.jsonl && \
	touch -d '1 hour ago' $$d/stall/telemetry/run.jsonl && \
	{ $$bin obs monitor --obs-dir $$d/stall --once | grep -q '"status":"stalled"' \
	  || { echo "monitor-smoke: silent stream not flagged as stalled"; exit 1; }; } && \
	rm $$(ls $$d/reg/snapshots/*.json | head -1) && \
	{ $$bin obs runs --obs-dir $$d/reg | grep -q MISSING \
	  || { echo "monitor-smoke: dangling registry entry not marked"; exit 1; }; } && \
	{ $$bin obs runs --obs-dir $$d/reg --prune | grep -q 'pruned 1' \
	  || { echo "monitor-smoke: prune did not drop the dangling entry"; exit 1; }; } && \
	{ ! $$bin obs runs --obs-dir $$d/reg | grep -q MISSING \
	  || { echo "monitor-smoke: dangling entry survives --prune"; exit 1; }; } && \
	echo "monitor-smoke: 2-shard fleet traced under one id, monitor live, merge canonical, stall + prune verified"

# The warm-start contract, end to end: a characterization sweep against a
# fresh --cache-dir (cold: every point pays density-matrix simulation,
# write-back to the store) must produce byte-identical stdout to the same
# sweep re-run against the populated store (warm: nonzero disk hits, zero
# simulations) — including across --jobs — and a deliberately truncated
# store entry must degrade to a recomputed miss, never an error or a
# changed byte of output.
cache-smoke: build
	@d=$$(mktemp -d) && \
	trap 'rc=$$?; if [ $$rc -ne 0 ] && [ -n "$(SMOKE_ARTIFACTS)" ]; then \
	       mkdir -p "$(SMOKE_ARTIFACTS)" && cp -r "$$d" "$(SMOKE_ARTIFACTS)/cache-smoke"; fi; \
	     rm -rf "$$d"; exit $$rc' EXIT && \
	$(DUNE) exec bin/main.exe -- charsweep --cache-dir $$d/store \
	  > $$d/cold.out 2> $$d/cold.err && \
	$(DUNE) exec bin/main.exe -- charsweep --cache-dir $$d/store --jobs 2 \
	  --metrics $$d/warm.metrics.json > $$d/warm.out 2> $$d/warm.err && \
	{ diff -u $$d/cold.out $$d/warm.out \
	  || { echo "cache-smoke: warm sweep output differs from cold"; exit 1; }; } && \
	{ grep -Eq '[1-9][0-9]* disk hits' $$d/warm.err \
	  || { echo "cache-smoke: warm sweep hit the disk store 0 times"; \
	       cat $$d/warm.err; exit 1; }; } && \
	{ grep -Eq '"dse.cache_disk_hits":[1-9]' $$d/warm.metrics.json \
	  || { echo "cache-smoke: metrics manifest records no disk hits"; exit 1; }; } && \
	grep 'burden reduction' $$d/warm.err && \
	entry=$$(find $$d/store -name '*.chan' | sort | head -n 1) && \
	head -c 10 "$$entry" > "$$entry.trunc" && mv "$$entry.trunc" "$$entry" && \
	$(DUNE) exec bin/main.exe -- charsweep --cache-dir $$d/store \
	  > $$d/corrupt.out 2> $$d/corrupt.err && \
	{ diff -u $$d/cold.out $$d/corrupt.out \
	  || { echo "cache-smoke: output changed after store corruption"; exit 1; }; } && \
	{ grep -Eq '[1-9][0-9]* misses' $$d/corrupt.err \
	  || { echo "cache-smoke: truncated entry did not degrade to a miss"; \
	       cat $$d/corrupt.err; exit 1; }; } && \
	echo "cache-smoke: warm start from disk, byte-identical output, corruption degrades to miss"

# The fused decode contract, end to end: `decode-check` proves the batch
# arena decoder agrees shot-for-shot with per-shot scalar decoding, its
# stdout must be byte-identical across --jobs 1/4, and a compiled-DEM
# store (--cache-dir) must serve the second run from disk (nonzero
# qec.dem_store_hits_total) without changing a byte of output.
decode-smoke: build
	@d=$$(mktemp -d) && \
	trap 'rc=$$?; if [ $$rc -ne 0 ] && [ -n "$(SMOKE_ARTIFACTS)" ]; then \
	       mkdir -p "$(SMOKE_ARTIFACTS)" && cp -r "$$d" "$(SMOKE_ARTIFACTS)/decode-smoke"; fi; \
	     rm -rf "$$d"; exit $$rc' EXIT && \
	$(DUNE) exec bin/main.exe -- decode-check --shots 512 --seed 7 --jobs 1 \
	  > $$d/j1.out && \
	$(DUNE) exec bin/main.exe -- decode-check --shots 512 --seed 7 --jobs 4 \
	  > $$d/j4.out && \
	{ diff -u $$d/j1.out $$d/j4.out \
	  || { echo "decode-smoke: decode-check output depends on --jobs"; exit 1; }; } && \
	$(DUNE) exec bin/main.exe -- decode-check --shots 512 --seed 7 \
	  --cache-dir $$d/store --metrics $$d/cold.metrics.json > $$d/cold.out && \
	$(DUNE) exec bin/main.exe -- decode-check --shots 512 --seed 7 \
	  --cache-dir $$d/store --metrics $$d/warm.metrics.json > $$d/warm.out && \
	{ diff -u $$d/cold.out $$d/warm.out \
	  || { echo "decode-smoke: warm compiled-DEM run output differs from cold"; exit 1; }; } && \
	{ diff -u $$d/j1.out $$d/cold.out \
	  || { echo "decode-smoke: --cache-dir changed decode-check output"; exit 1; }; } && \
	{ grep -Eq '"qec.dem_store_misses_total":[1-9]' $$d/cold.metrics.json \
	  || { echo "decode-smoke: cold run recorded no compiled-DEM misses"; exit 1; }; } && \
	{ grep -Eq '"qec.dem_store_hits_total":[1-9]' $$d/warm.metrics.json \
	  || { echo "decode-smoke: warm run served no compiled DEMs from disk"; exit 1; }; } && \
	echo "decode-smoke: batch==scalar decode, byte-identical across --jobs and compiled-DEM warm start"

# The allocation contract, end to end: `decode-check --alloc-budget` proves
# the warm batch decoder allocates exactly zero minor words up to d=9 and
# the fused sample+decode path stays within its per-shot budget; the
# alloc-weighted flamegraph must be byte-identical across --jobs (word
# counters are exact and domain-local, so a sequential workload folds
# identically no matter how many domains are idle); and the flamegraph's
# root total must reconcile with the manifest's process-level minor-word
# counter to within 1% — proving span attribution accounts for essentially
# every word the process allocates.
alloc-smoke: build
	@d=$$(mktemp -d) && \
	trap 'rc=$$?; if [ $$rc -ne 0 ] && [ -n "$(SMOKE_ARTIFACTS)" ]; then \
	       mkdir -p "$(SMOKE_ARTIFACTS)" && cp -r "$$d" "$(SMOKE_ARTIFACTS)/alloc-smoke"; fi; \
	     rm -rf "$$d"; exit $$rc' EXIT && \
	$(DUNE) exec bin/main.exe -- decode-check --shots 512 --seed 7 --dmax 9 \
	  --alloc-budget 64 --jobs 1 --trace $$d/a1.trace.jsonl \
	  --metrics $$d/a1.metrics.json > $$d/j1.out && \
	$(DUNE) exec bin/main.exe -- decode-check --shots 512 --seed 7 --dmax 9 \
	  --alloc-budget 64 --jobs 2 --trace $$d/a2.trace.jsonl > $$d/j2.out && \
	{ diff -u $$d/j1.out $$d/j2.out \
	  || { echo "alloc-smoke: decode-check output depends on --jobs"; exit 1; }; } && \
	$(DUNE) exec bin/main.exe -- obs flame --alloc $$d/a1.trace.jsonl \
	  > $$d/a1.folded && \
	$(DUNE) exec bin/main.exe -- obs flame --alloc $$d/a2.trace.jsonl \
	  > $$d/a2.folded && \
	{ diff -u $$d/a1.folded $$d/a2.folded \
	  || { echo "alloc-smoke: alloc flamegraph depends on --jobs"; exit 1; }; } && \
	{ test -s $$d/a1.folded \
	  || { echo "alloc-smoke: alloc flamegraph is empty"; exit 1; }; } && \
	root=$$(awk '{ s += $$NF } END { printf "%d", s }' $$d/a1.folded) && \
	proc=$$(grep -o '"minor_words":[0-9]*' $$d/a1.metrics.json | head -n1 | cut -d: -f2) && \
	gap=$$(( root > proc ? root - proc : proc - root )) && \
	{ test $$(( gap * 100 )) -le $$proc \
	  || { echo "alloc-smoke: flame root total $$root vs process minor words $$proc: off by >1%"; exit 1; }; } && \
	echo "alloc-smoke: zero-alloc decode proven to d=9; alloc flamegraph jobs-invariant, reconciles within 1% ($$root vs $$proc words)"

# The serve daemon contract, end to end: 8 concurrent clients over 3
# distinct queries must coalesce (single-flight dedup counter > 0), a
# second wave must be answered from the warm response store (warm-hit
# counters > 0), and identical requests must receive byte-identical
# response bodies — within a wave, across waves, and recomputed cold by a
# daemon running at a different --jobs.  Shutdown is exercised both ways
# (the shutdown control query and SIGTERM), and both daemons must leave
# valid registry artifacts: one snapshot each, telemetry streams closed
# with exactly one final record.  Clients run the built binary directly:
# concurrent `dune exec` processes race on the build lock.
serve-smoke: build
	@d=$$(mktemp -d) && \
	trap 'rc=$$?; [ -n "$$spid" ] && kill $$spid 2>/dev/null; \
	     if [ $$rc -ne 0 ] && [ -n "$(SMOKE_ARTIFACTS)" ]; then \
	       mkdir -p "$(SMOKE_ARTIFACTS)" && cp -r "$$d" "$(SMOKE_ARTIFACTS)/serve-smoke"; fi; \
	     rm -rf "$$d"; exit $$rc' EXIT && \
	bin=$$PWD/_build/default/bin/main.exe && \
	q0='{"kind":"threshold","distance":5,"shots":80000,"seed":7}' && \
	q1='{"kind":"uec","code":"SC3","shots":100000,"seed":7}' && \
	q2='{"kind":"distill","shots":4000,"seed":7}' && \
	{ $$bin serve --socket $$d/serve.sock --cache-dir $$d/cache --obs-dir $$d/obs \
	    --jobs 2 2> $$d/serve.err & spid=$$!; } && \
	pids= && \
	for i in 0 1 2 3 4 5 6 7; do \
	  case $$((i % 3)) in 0) q="$$q0";; 1) q="$$q1";; *) q="$$q2";; esac; \
	  $$bin query --socket $$d/serve.sock --retry-for 15 "$$q" > $$d/w1.$$i & \
	  pids="$$pids $$!"; \
	done; \
	for p in $$pids; do wait $$p \
	  || { echo "serve-smoke: wave-1 client failed"; exit 1; }; done && \
	$$bin query --socket $$d/serve.sock '{"kind":"stats"}' > $$d/stats1.json && \
	co=$$(grep -o '"serve.coalesced_total":[0-9]*' $$d/stats1.json | cut -d: -f2) && \
	{ [ "$$co" -gt 0 ] \
	  || { echo "serve-smoke: no coalesced requests (single-flight dedup never fired)"; \
	       cat $$d/stats1.json; exit 1; }; } && \
	pids= && \
	for i in 0 1 2 3 4 5 6 7; do \
	  case $$((i % 3)) in 0) q="$$q0";; 1) q="$$q1";; *) q="$$q2";; esac; \
	  $$bin query --socket $$d/serve.sock "$$q" > $$d/w2.$$i & \
	  pids="$$pids $$!"; \
	done; \
	for p in $$pids; do wait $$p \
	  || { echo "serve-smoke: wave-2 client failed"; exit 1; }; done && \
	$$bin query --socket $$d/serve.sock '{"kind":"stats"}' > $$d/stats2.json && \
	wm=$$(grep -o '"serve.warm_memory_hits_total":[0-9]*' $$d/stats2.json | cut -d: -f2) && \
	{ [ "$$wm" -gt 0 ] \
	  || { echo "serve-smoke: second wave produced no warm-store hits"; \
	       cat $$d/stats2.json; exit 1; }; } && \
	for k in 0 1 2; do \
	  files=; for i in 0 1 2 3 4 5 6 7; do \
	    [ $$((i % 3)) -eq $$k ] && files="$$files $$d/w1.$$i $$d/w2.$$i"; done; \
	  n=$$(cat $$files | sort -u | wc -l); \
	  [ "$$n" -eq 1 ] \
	    || { echo "serve-smoke: query $$k bodies not byte-identical across clients/waves"; exit 1; }; \
	done && \
	$$bin query --socket $$d/serve.sock '{"kind":"shutdown"}' > /dev/null && \
	{ wait $$spid \
	  || { echo "serve-smoke: daemon exited nonzero after shutdown query"; exit 1; }; } && \
	spid= && \
	{ $$bin serve --socket $$d/serve2.sock --obs-dir $$d/obs --jobs 1 \
	    2>> $$d/serve.err & spid=$$!; } && \
	for k in 0 1 2; do \
	  case $$k in 0) q="$$q0";; 1) q="$$q1";; *) q="$$q2";; esac; \
	  $$bin query --socket $$d/serve2.sock --retry-for 15 "$$q" > $$d/cold.$$k \
	    || { echo "serve-smoke: cold recompute client failed"; exit 1; }; \
	  diff -u $$d/w1.$$k $$d/cold.$$k > /dev/null \
	    || { echo "serve-smoke: --jobs 1 cold recompute differs from --jobs 2 body (query $$k)"; \
	         diff -u $$d/w1.$$k $$d/cold.$$k; exit 1; }; \
	done && \
	kill -TERM $$spid && \
	{ wait $$spid \
	  || { echo "serve-smoke: daemon exited nonzero on SIGTERM"; exit 1; }; } && \
	spid= && \
	{ [ "$$(wc -l < $$d/obs/index.jsonl)" -eq 2 ] \
	  || { echo "serve-smoke: expected 2 registry entries (one per daemon)"; \
	       cat $$d/obs/index.jsonl; exit 1; }; } && \
	{ [ "$$(cat $$d/obs/telemetry/*.jsonl | grep -c '"final":true')" -eq 2 ] \
	  || { echo "serve-smoke: telemetry streams not closed exactly once each"; exit 1; }; } && \
	echo "serve-smoke: $$co coalesced, $$wm warm hits; bodies byte-identical across 8 clients, 2 waves, --jobs 1/2; both shutdown paths left valid registry artifacts"

ci: build test jobs-smoke collect-smoke obs-merge-smoke monitor-smoke cache-smoke decode-smoke alloc-smoke serve-smoke
	$(DUNE) exec bench/main.exe -- --quick
	$(DUNE) exec tools/check_bench.exe -- BENCH_hetarch.json
	@$(DUNE) exec bin/main.exe -- obs diff BENCH_baseline.json BENCH_hetarch.json \
	  --threshold 25 --normalize --noise-floor-ns 20000 \
	  || echo "ci: perf trend vs committed baseline regressed (warn-only locally; hard gate in GitHub CI)"

clean:
	$(DUNE) clean
	rm -f BENCH_hetarch.json
