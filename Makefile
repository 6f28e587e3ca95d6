# Developer entry points.

.PHONY: build test clippy doc matrix simbench ci bench-smoke bench-paper

build:
	cargo build --release

test:
	cargo test --workspace -q

clippy:
	cargo clippy --workspace --all-targets -q -- -D warnings

# Warning-free API docs (rustdoc lints are errors).
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# The engine equivalence matrix (the observable scheduling arms — serial,
# parallel, traced, refresh, subset, the periodic transfer and kernel jumps
# — x {backend, reduce-via, paging} vs the frozen seed), the transfer-jump
# differential suite (channel-private localization/reduction phases vs a
# traced reference), the kernel-jump differential suite (exclusive kernel
# phases vs a promise-free and a traced reference), the window-successor
# differential suite, and the
# fabric conformance proptests (conservation, per-link FIFO, ring==line
# degeneracy, input-order invariance, reduce determinism), release-mode —
# the all-or-nothing gating paths the debug tier-1 run also covers, minus
# the debug_assert slowdown on the larger shapes.
matrix:
	cargo test --release -p stepstone --test engine_matrix -q
	cargo test --release -p stepstone-core --test transfer_jump -q
	cargo test --release -p stepstone-core --test kernel_jump -q
	cargo test --release -p stepstone-addr --test window_successor -q
	cargo test --release -p stepstone-fabric -q

# The benchmark harness is a workspace of its own, so `cargo build
# --workspace` never compiles it: build it and run its self-tests against
# the current simulator API.
simbench:
	cargo test --release --offline -q --manifest-path simbench/Cargo.toml

# The merge gate for perf-relevant changes: build, test, lint, docs,
# equivalence matrix, benchmark harness, and validate BENCH_sim.json on the
# committed shape.
ci: build test clippy doc matrix simbench bench-smoke
	@echo "ci: all gates green"

# Build release and run the simulator hot-path bench at the *paper scale*
# (the shape the committed BENCH_sim.json records; ~11 s) in a scratch
# directory, so the committed evidence file is never clobbered. Fails if
# the result is missing, malformed, not cycle-exact, or if
# speedup_streaming_vs_seed regresses below the committed value (30%
# tolerance: the wall-clock ratio varies run to run on shared/noisy
# hosts, and the run-granular engine's ~25 ns/block denominator makes
# the ratio noisier than at seed; observed spread ~10.6-13.7x). Run-granularity counters are deterministic, so they are gated
# exact-match against the committed file; the streaming-serial
# ns_per_block gets a wall-clock regression ceiling (35% over committed,
# floored at the 30 ns/block paper target, for host noise), and the
# parallel-vs-serial speedup is only gated when more than one CPU is
# available (on a 1-CPU host the sharded engine ties serial, modulo
# noise). That speedup is the median of 5 interleaved serial/parallel
# pairs of the paper shape, each printed by bench_sim: single samples of
# one unchanged build spread from 0.81x to 1.24x on a 2-CPU host, so the
# threshold (0.9) is unchanged and only its sampling is. The other
# wall-clock gates are sampled the same way, thresholds unchanged:
# speedup_streaming_vs_seed is the median of 3 interleaved seed/streaming
# pairs, the streaming-serial ns_per_block is the median of the 5
# serial runs of the parallel/serial pairs, and the analytic tier's
# speedup over exact divides the median of the 3 interleaved streaming
# runs by the best of 3 analytic runs (bench_sim prints every run;
# the JSON's runs[].wall_ns are those medians). Backend tiers
# (PR 7): the exact tier's sim_cycles must stay bit-identical to the
# committed value, the analytic tier's (deterministic)
# cycles must exact-match and its wall-clock speedup over exact must meet
# the committed floor (20x), and the DRAM preset smoke must reproduce every
# preset's committed cycle count. Serving (PR 8): the 1000-request load
# sweep's percentiles, knee index, and session-cache counters are
# deterministic and gated exact-match; the serial and parallel sweeps must
# agree; the warm-session vs cold-start wall-clock differential must meet
# its committed floor. Fabric (PR 9): the fabric section's host-DMA
# reference, ring/line reduce cycle counts, fabric transit cycles, and
# per-link stats (bytes, busy cycles, peak demand, active-span GB/s) are
# all deterministic and gated exact-match against the committed file; the
# run itself asserts the fabric arms leave the DRAM command stream
# bit-identical to host-DMA.
bench-smoke:
	cargo build --release -p stepstone-bench --bin bench_sim
	rm -rf target/bench-smoke && mkdir -p target/bench-smoke
	cd target/bench-smoke && ../../target/release/bench_sim
	@test -s target/bench-smoke/BENCH_sim.json || { echo "bench-smoke: BENCH_sim.json missing"; exit 1; }
	@python3 -c "import json,sys; d=json.load(open('target/bench-smoke/BENCH_sim.json')); \
c=json.load(open('BENCH_sim.json')); \
assert d['bench']=='sim_hot_path', 'bad bench id'; \
assert d['cycle_exact'] is True, 'modes disagree'; \
assert c['cycle_exact'] is True, 'committed BENCH_sim.json not cycle-exact'; \
assert all(d['config'][x]==c['config'][x] for x in ('m','k','n','level','pims')), \
'smoke shape differs from committed shape'; \
assert len(d['runs'])==3 and all(r['blocks']>0 and r['wall_ns']>0 for r in d['runs']), 'bad runs'; \
assert {r['mode'] for r in d['runs']} == {'streaming','streaming-serial','seed-replay'}, 'bad modes'; \
ra=d['region_addrs']; \
assert ra['materialized']>0 and ra['resident']>0 and ra['drop']>=1.0, 'region plans regressed'; \
floor=0.70*c['speedup_streaming_vs_seed']; \
assert d['speedup_streaming_vs_seed']>=floor, \
'speedup_streaming_vs_seed %.2fx regressed below committed floor %.2fx' \
% (d['speedup_streaming_vs_seed'], floor); \
sp=d['subpaper']; csp=c['subpaper']; \
assert sp['cycle_exact'] is True, 'sub-paper modes disagree'; \
share=sp['agen_ns_per_span']/sp['seed_ns_per_block']; \
cshare=csp['agen_ns_per_span']/csp['seed_ns_per_block']; \
assert share<=1.75*cshare, \
'agen_ns_per_span regressed >75%%: %.1f ns/span (%.3f of seed ns/block) vs committed %.1f (%.3f)' \
% (sp['agen_ns_per_span'], share, csp['agen_ns_per_span'], cshare); \
ac=d['agen_counters']; cac=c['agen_counters']; \
assert ac['boundary_successors']<=1.10*cac['boundary_successors']+16, \
'paper-scale live boundary successors regressed: %d vs committed %d (window successor broken?)' \
% (ac['boundary_successors'], cac['boundary_successors']); \
assert ac['window_jumps']>0 and ac['skeleton_hits']>0, 'window successor inactive at paper scale'; \
wsp=sp['boundary_successors']; cwsp=csp['boundary_successors']; \
assert wsp<=1.10*cwsp+16, \
'sub-paper warm boundary successors regressed: %d vs committed %d' % (wsp, cwsp); \
rc=d['run_counters']; crc=c['run_counters']; \
assert rc==crc, \
'run-granularity counters changed (deterministic; update BENCH_sim.json if intended): %r vs committed %r' \
% (rc, crc); \
assert rc['runs']>0 and rc['run_blocks']>rc['runs'], 'no hinted runs admitted at paper scale'; \
assert sp['run_counters']==csp['run_counters'], \
'sub-paper run counters changed: %r vs committed %r' % (sp['run_counters'], csp['run_counters']); \
ss=[r for r in d['runs'] if r['mode']=='streaming-serial'][0]; \
css=[r for r in c['runs'] if r['mode']=='streaming-serial'][0]; \
ceil=max(30.0, 1.35*css['ns_per_block']); \
assert ss['ns_per_block']<=ceil, \
'streaming-serial %.1f ns/block regressed above %.1f (committed %.1f)' \
% (ss['ns_per_block'], ceil, css['ns_per_block']); \
bk=d['backends']; cbk=c['backends']; \
assert bk['exact']['sim_cycles']==cbk['exact']['sim_cycles'], \
'exact-tier sim cycles changed: %d vs committed %d (default path must stay bit-identical)' \
% (bk['exact']['sim_cycles'], cbk['exact']['sim_cycles']); \
assert bk['analytic']['sim_cycles']==cbk['analytic']['sim_cycles'], \
'analytic-tier sim cycles changed (deterministic; update BENCH_sim.json if intended): %d vs %d' \
% (bk['analytic']['sim_cycles'], cbk['analytic']['sim_cycles']); \
assert bk['analytic']['speedup_vs_exact']>=bk['speedup_floor'], \
'analytic tier only %.0fx faster than exact, floor is %.0fx' \
% (bk['analytic']['speedup_vs_exact'], bk['speedup_floor']); \
assert [p['name'] for p in bk['presets']]==[p['name'] for p in cbk['presets']], 'preset list changed'; \
assert all(p['sim_cycles']==q['sim_cycles'] and p['clock_hz']==q['clock_hz'] \
for p,q in zip(bk['presets'],cbk['presets'])), \
'preset smoke changed (deterministic; update BENCH_sim.json if intended)'; \
sv=d['serving']; csv=c['serving']; \
assert sv['serial_equals_parallel'] is True, 'parallel serving sweep diverged from serial'; \
det=lambda s: [(p['mean_gap_cycles'],p['p50'],p['p95'],p['p99'],p['served'],p['rejected'],p['batches'],p['pim_batches']) for p in s['sweep']]; \
assert det(sv)==det(csv), \
'serving sweep percentiles changed (deterministic; update BENCH_sim.json if intended): %r vs committed %r' \
% (det(sv), det(csv)); \
assert sv['knee_index']==csv['knee_index'], \
'saturation knee moved: index %d vs committed %d' % (sv['knee_index'], csv['knee_index']); \
assert sv['sweep'][0]['rejected']==0 and sv['sweep'][-1]['rejected']>0, \
'sweep no longer spans unloaded to saturated'; \
fb=d['fabric']; cfb=c['fabric']; \
assert fb['nodes']>=4, 'fabric spans %d nodes, need >= 4' % fb['nodes']; \
assert fb['nodes']==cfb['nodes'], 'fabric node count changed'; \
assert fb['dram_identical'] is True, 'fabric run perturbed the DRAM command stream'; \
assert fb['host_dma']==cfb['host_dma'], \
'fabric host-DMA reference changed: %r vs committed %r' % (fb['host_dma'], cfb['host_dma']); \
ft={t['topology']: t for t in fb['topologies']}; cft={t['topology']: t for t in cfb['topologies']}; \
assert set(ft)==set(cft)=={'ring','line'}, 'fabric topology set changed: %r' % sorted(ft); \
assert all(ft[k][f]==cft[k][f] for k in ft for f in \
('total_cycles','reduce_cycles','fabric_cycles','bytes_injected')), \
'fabric cycle counts changed (deterministic; update BENCH_sim.json if intended): %r vs %r' \
% ({k: ft[k]['reduce_cycles'] for k in ft}, {k: cft[k]['reduce_cycles'] for k in cft}); \
assert all(ft[k]['links']==cft[k]['links'] and ft[k]['peak_link_gbps']==cft[k]['peak_link_gbps'] \
for k in ft), 'fabric per-link stats changed (deterministic; update BENCH_sim.json if intended)'; \
assert all(t['reduce_cycles']>=fb['host_dma']['reduce_cycles'] for t in fb['topologies']), \
'fabric reduce undercut its own local drain'; \
assert all(any(l['messages']>0 and l['peak_demand_bytes']>0 for l in t['links']) \
for t in fb['topologies']), 'fabric moved no traffic'; \
wc=sv['warm_vs_cold']; cwc=csv['warm_vs_cold']; \
assert wc['cycle_exact'] is True, 'warm and cold costers disagree on cycles'; \
assert wc['speedup']>=wc['speedup_floor'], \
'warm session only %.2fx faster than per-batch cold starts, floor %.1fx' \
% (wc['speedup'], wc['speedup_floor']); \
assert (wc['session_contexts'],wc['session_hits'],wc['session_misses'])== \
(cwc['session_contexts'],cwc['session_hits'],cwc['session_misses']), \
'session-cache build/reuse counts changed (deterministic; update BENCH_sim.json if intended)'; \
pgd=d['paging']; cpg=c['paging']; \
assert pgd['identity']['bit_identical'] is True, 'identity paging not bit-identical'; \
assert pgd['identity']['sim_cycles']==pgd['baseline_sim_cycles']==bk['exact']['sim_cycles'], \
'identity paging diverged from the streaming baseline: %r' % pgd['identity']; \
assert pgd['identity']['sim_cycles']==cpg['identity']['sim_cycles'], \
'identity-paged cycles changed: %d vs committed %d' \
% (pgd['identity']['sim_cycles'], cpg['identity']['sim_cycles']); \
assert [a['page_bytes'] for a in pgd['arms']]==[4096,65536,2097152,1073741824], \
'paging arm set changed: %r' % [a['page_bytes'] for a in pgd['arms']]; \
assert [a['sim_cycles'] for a in pgd['arms']]==[a['sim_cycles'] for a in cpg['arms']], \
'paged cycle counts changed (deterministic; update BENCH_sim.json if intended): %r vs committed %r' \
% ([a['sim_cycles'] for a in pgd['arms']], [a['sim_cycles'] for a in cpg['arms']]); \
assert all(a['run_counters']==b['run_counters'] for a,b in zip(pgd['arms'],cpg['arms'])), \
'paged run-granularity counters changed (deterministic; update BENCH_sim.json if intended)'; \
assert all(a['sampled']==b['sampled'] for a,b in zip(pgd['arms'],cpg['arms'])), \
'paged sampled locality changed (deterministic; update BENCH_sim.json if intended)'; \
pspl=[a['sampled']['page_splits'] for a in pgd['arms']]; \
assert pspl==sorted(pspl, reverse=True), 'page splits must shrink with page size: %r' % pspl; \
ploc=[a['sampled']['locality_vs_native'] for a in pgd['arms']]; \
assert all(x<=y+1e-9 for x,y in zip(ploc,ploc[1:])), \
'locality must grow with page size: %r' % ploc; \
assert ploc[-1]>0.999, '1 GiB pages must preserve native run locality: %r' % ploc; \
par_ok='skipped (1 cpu)' if d['config']['threads']<2 else '%.2fx' % d['speedup_parallel_vs_serial']; \
assert d['config']['threads']<2 or d['speedup_parallel_vs_serial']>=0.9, \
'parallel engine slower than serial: %.2fx' % d['speedup_parallel_vs_serial']; \
print('bench-smoke: ok (seed %.2fx >= floor %.2fx, parallel %s, region drop %.0fx, agen %.1f ns/span at %.3f of seed <= %.3f, %d live boundaries / %d jumps, %d runs mean %.1f blocks, %.1f ns/block <= %.1f, analytic %.0fx >= %.0fx, %d presets, serving knee@%d warm %.1fx >= %.1fx, fabric %d nodes ring +%d cycles peak %.1f GB/s, paging identity==baseline, 4KB locality %.2f -> 1GB %.2f)' \
% (d['speedup_streaming_vs_seed'], floor, par_ok, ra['drop'], sp['agen_ns_per_span'], share, 1.75*cshare, ac['boundary_successors'], ac['window_jumps'], rc['runs'], rc['mean_run_len'], ss['ns_per_block'], ceil, bk['analytic']['speedup_vs_exact'], bk['speedup_floor'], len(bk['presets']), sv['knee_index'], wc['speedup'], wc['speedup_floor'], fb['nodes'], ft['ring']['fabric_cycles'], ft['ring']['peak_link_gbps'], ploc[0], ploc[-1]))"

# The paper-scale evidence run (4096x4096 N=256 at StepStone-BG).
bench-paper:
	cargo build --release -p stepstone-bench --bin bench_sim
	./target/release/bench_sim
