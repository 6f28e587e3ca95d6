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
# — x {backend, reduce-via, paging} vs the frozen seed), the admitted-run
# differential suite (hinted runs and run tails vs the per-block engine,
# and the run-tail share of a StepStone-BG kernel), the transfer-jump
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
	cargo test --release -p stepstone-core --test run_granular -q
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

# Run bench_sim at the paper scale (the shape the committed BENCH_sim.json
# records; ~11 s) in a scratch directory, so the committed file is never
# clobbered, then check the fresh file against the committed one with the
# gate table in crates/bench/src/gates.rs.
bench-smoke:
	cargo build --release -p stepstone-bench --bin bench_sim
	rm -rf target/bench-smoke && mkdir -p target/bench-smoke
	cd target/bench-smoke && ../../target/release/bench_sim
	./target/release/bench_sim --check target/bench-smoke/BENCH_sim.json BENCH_sim.json

# The paper-scale evidence run (4096x4096 N=256 at StepStone-BG).
bench-paper:
	cargo build --release -p stepstone-bench --bin bench_sim
	./target/release/bench_sim
