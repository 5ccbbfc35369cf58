// Package genasm is a genomic sequence alignment library and
// read-mapping pipeline built around an improved GenASM algorithm
// (Lindegger et al., "Algorithmic Improvement and GPU Acceleration of
// the GenASM Algorithm", 2022).
//
// GenASM is a Bitap-based approximate string matching algorithm with
// fine-grained bit-level parallelism. This library implements the paper's
// three algorithmic improvements — entry compression (store only the
// bitwise AND of the DP edge bitvectors), early termination of error-level
// rows, and discarding of traceback-unreachable entries — which shrink the
// DP working set by an order of magnitude and let whole alignment windows
// live in on-chip memory.
//
// # The Engine
//
// All alignment runs through a genasm.Engine: a concurrency-safe,
// context-aware service constructed with functional options. The same
// configuration produces bit-identical results on every backend — the
// "cpu" backend pools per-goroutine aligners, the "gpu" backend executes
// the same kernels on a simulated SIMT device (an NVIDIA A6000 model)
// with a shared-memory / L2 / DRAM cost model, and the "multi" composite
// shards one batch across any set of registered backends.
//
//	eng, _ := genasm.NewEngine(
//		genasm.WithAlgorithm(genasm.GenASM),
//		genasm.WithBackendName("cpu"), // or "gpu", "multi(cpu,gpu)", ...
//	)
//	res, _ := eng.Align(ctx, []byte("ACGTACGT..."), []byte("ACGTTACGT..."))
//	fmt.Println(res.Distance, res.Cigar)
//
// Batches are context-cancellable and index-aligned with their input:
//
//	results, err := eng.AlignBatch(ctx, pairs)
//
// See ExampleNewEngine and ExampleEngine_AlignBatch for runnable
// versions of both.
//
// # The read-mapping pipeline
//
// The full map-then-align pipeline (minimizer/chaining candidate
// location followed by best-candidate alignment) streams with per-item
// errors and ordered emission:
//
//	mapper, _ := genasm.NewMapper(ref)
//	eng, _ := genasm.NewEngine(genasm.WithMapper(mapper))
//	out, _ := eng.MapAlign(ctx, genasm.StreamReads(reads))
//	for m := range out {
//		if m.Err != nil || m.Unmapped { ... continue ... }
//		use(m.Result)
//	}
//
// Each MappedAlignment carries the candidate location, the total
// candidate count and the runner-up chain score, which is everything a
// consumer needs to derive SAM FLAG/POS/MAPQ. The internal/samfmt
// package does exactly that: cmd/genasm-map is the end-to-end binary
// (FASTA reference + FASTA/FASTQ reads in, SAM or PAF out), and the
// HTTP server streams the same records. See ExampleEngine_MapAlign.
//
// # Library contents
//
//   - the improved GenASM aligner (Algorithm GenASM) for short and long
//     reads, plus the unimproved MICRO'20 formulation (GenASMUnimproved)
//     and reproductions of Edlib, KSW2 and Smith-Waterman-Gotoh as
//     baselines, all behind the one Engine;
//   - a public backend layer (below): "cpu", "gpu" and the sharding
//     composite "multi" built in, third-party backends registered by
//     name, bit-identical results required of all of them;
//   - workload tooling: synthetic genome generation (GenerateGenome), a
//     PBSIM2-like read simulator (SimulateLongReads, SimulateShortReads)
//     and a minimap2-like minimizer/chaining candidate generator
//     (Mapper).
//
// # Backends and the registry
//
// Backends are a public driver-style API, as in database/sql: implement
// the Backend interface (AlignBatch, Capabilities, Stats), register a
// Factory under a name with Register, and any Engine — and every
// -backend CLI flag and the server — can run on it via WithBackendName.
// Backends() lists the registered names. Capabilities (MaxQueryLen,
// PreferredBatch, Parallelism) lets admission control and the serving
// scheduler size themselves per backend; BackendStats is the generic
// operational snapshot (Engine.BackendStats).
//
// The built-in "multi" backend is the first scale-out primitive: it
// shards one AlignBatch across child backends ("multi" defaults to
// cpu+gpu; "multi(a,b,...)" names any registered children) in
// contiguous chunks weighted by each child's Parallelism, runs the
// shards concurrently, and stitches results back in input order — so
// its output is bit-identical to any single child's, and a failure
// carries per-shard attribution (ShardError). Every implementation must
// uphold the paper's equivalence claim: same Config, same Results, bit
// for bit.
//
// Over-length queries are rejected with the typed ErrQueryTooLong
// (errors.Is-matchable), whether the limit came from WithMaxQueryLen or
// the backend's capabilities.
//
// # Serving
//
// The server subpackage (genasm/server, binary cmd/genasm-serve) exposes
// an Engine as a batching HTTP service: a dynamic batch scheduler
// coalesces many small concurrent requests into backend-sized
// AlignBatch calls under a max-latency deadline (bounded queue, 429
// backpressure), a registry indexes named references once into shared
// Mappers, an LRU cache keyed on Engine.Fingerprint short-circuits
// repeated alignments, and /metrics + /healthz + /backends report
// operational state (including the backend registry and per-shard
// composite stats). The scheduler's default batch size comes from the
// engine backend's Capabilities. /map-align responses are buffered JSON
// or incrementally streamed SAM/PAF. The full HTTP reference is
// docs/API.md; the layer map with the MapAlign data flow is
// docs/ARCHITECTURE.md.
package genasm
