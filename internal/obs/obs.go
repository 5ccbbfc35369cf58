// Package obs is genasm's stdlib-only observability layer: the tracing,
// metrics, exposition and logging substrate every serving-layer
// measurement flows through.
//
// Four pieces:
//
//   - Tracing (trace.go): a context-propagated Trace carrying a request
//     ID and a bounded list of recorded Spans (name, start, duration,
//     attrs). Recording is nil-safe — code instruments unconditionally
//     and pays one pointer check when no trace is attached — and
//     concurrent: shard fan-outs record into one trace from many
//     goroutines. A TraceLog ring buffer keeps the most recent finished
//     traces for GET /debug/traces.
//
//   - Metrics (metrics.go): a Registry of named Counters, Gauges and
//     fixed-bucket cumulative Histograms. Histograms are mergeable and
//     scrape-stable (unlike a sliding-window percentile estimator:
//     cumulative bucket counts only ever grow, and two scrapes can be
//     subtracted), and Quantile estimates percentiles by linear
//     interpolation inside the target bucket, so no truncating index
//     math biases the estimate. Metric names are validated at
//     registration (snake_case, counters end in _total) — the same
//     contract the metricname lint analyzer enforces statically.
//
//   - Exposition (prom.go): WritePrometheus renders the registry in the
//     Prometheus text exposition format (# HELP/# TYPE, cumulative
//     _bucket series ending in le="+Inf", _sum/_count), WriteJSON
//     renders the same registry as one flat JSON object, and
//     CheckExposition is a strict parser of the text format used by
//     tests and CI smoke checks to fail on violations.
//
//   - Logging (log.go): log/slog construction helpers (text or JSON
//     handler at a named level) and the build information surfaced in
//     startup logs and /healthz.
//
// The package has no dependencies outside the standard library and no
// knowledge of HTTP routes or the alignment engine; the server package
// owns which stages get spans and which counters exist.
package obs
