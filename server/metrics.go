package server

import (
	"bytes"
	"encoding/json"
	"time"

	"genasm/internal/obs"
)

// batchBuckets are the upper bounds of the batch-size histogram buckets
// (cumulative, Prometheus-style; the implicit last bucket is +Inf).
var batchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Metrics aggregates the server's operational counters, gauges and
// stage-latency histograms on an obs.Registry. The registry is the only
// store: GET /metrics renders it with obs.WriteJSON (the default) or
// obs.WritePrometheus (?format=prometheus), and Scrape decodes the JSON
// rendering. All fields are safe for concurrent use.
//
// Latencies are fixed-bucket cumulative histograms, not a sliding
// window: bucket counts only ever grow, so consecutive scrapes subtract
// cleanly and percentiles come from in-bucket interpolation instead of
// a truncating sample index.
type Metrics struct {
	start   time.Time
	backend string
	reg     *obs.Registry

	requests     *obs.Counter // HTTP requests accepted (any endpoint)
	requestErrs  *obs.Counter // HTTP requests answered with a 4xx/5xx
	pairsIn      *obs.Counter // alignment pairs admitted to the scheduler
	pairsDone    *obs.Counter // alignment pairs completed by a backend batch
	rejected     *obs.Counter // submissions refused by admission control (429)
	batchErrs    *obs.Counter // backend batches that failed
	queueDepth   *obs.Gauge   // pairs queued or in flight right now
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	refsLoaded   *obs.Gauge   // references currently registered
	readsMapped  *obs.Counter // map-align reads with >= 1 candidate location
	readsNoCands *obs.Counter // map-align reads with no candidate location

	batchSize   *obs.Histogram // pairs per executed batch
	queueWait   *obs.Histogram // seconds a submission waited to be claimed
	backendExec *obs.Histogram // seconds one Engine.AlignBatch call took
	e2e         *obs.Histogram // seconds per HTTP request, handler-to-handler
}

// NewMetrics returns a Metrics clock-started now, labeled with the
// engine's backend name (e.g. "cpu", "multi(cpu,gpu)") — the label
// rides on every Prometheus series.
func NewMetrics(backend string) *Metrics {
	reg := obs.NewRegistry(obs.String("backend", backend))
	m := &Metrics{
		start:   time.Now(),
		backend: backend,
		reg:     reg,

		requests:     reg.Counter("genasm_requests_total", "HTTP requests accepted (any endpoint)."),
		requestErrs:  reg.Counter("genasm_request_errors_total", "HTTP requests answered with a 4xx or 5xx status."),
		pairsIn:      reg.Counter("genasm_pairs_enqueued_total", "Alignment pairs admitted to the scheduler."),
		pairsDone:    reg.Counter("genasm_pairs_done_total", "Alignment pairs completed by a backend batch."),
		rejected:     reg.Counter("genasm_rejected_total", "Submissions refused by admission control (429)."),
		batchErrs:    reg.Counter("genasm_batch_errors_total", "Backend batches that failed."),
		queueDepth:   reg.Gauge("genasm_queue_depth", "Pairs queued or in flight right now."),
		cacheHits:    reg.Counter("genasm_cache_hits_total", "Result-cache hits."),
		cacheMisses:  reg.Counter("genasm_cache_misses_total", "Result-cache misses."),
		refsLoaded:   reg.Gauge("genasm_refs_loaded", "References currently registered."),
		readsMapped:  reg.Counter("genasm_reads_mapped_total", "Map-align reads with at least one candidate location."),
		readsNoCands: reg.Counter("genasm_reads_unmapped_total", "Map-align reads with no candidate location."),

		batchSize: reg.Histogram("genasm_batch_size_pairs",
			"Pairs per executed backend batch.", batchBuckets),
		queueWait: reg.Histogram("genasm_queue_wait_seconds",
			"Time a submission spent waiting in the scheduler queue before its batch was claimed.",
			obs.DefaultLatencyBuckets),
		backendExec: reg.Histogram("genasm_backend_exec_seconds",
			"Wall time of one backend AlignBatch call.", obs.DefaultLatencyBuckets),
		e2e: reg.Histogram("genasm_e2e_latency_seconds",
			"End-to-end HTTP request latency.", obs.DefaultLatencyBuckets),
	}
	reg.GaugeFunc("genasm_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(m.start).Seconds() })
	return m
}

func (m *Metrics) observeBatch(pairs int, execDur time.Duration) {
	m.batchSize.Observe(float64(pairs))
	m.backendExec.Observe(execDur.Seconds())
}

func (m *Metrics) observeQueueWait(d time.Duration) { m.queueWait.Observe(d.Seconds()) }

func (m *Metrics) observeRequest(d time.Duration) { m.e2e.Observe(d.Seconds()) }

// Scrape is the typed client-side view of the /metrics JSON: the
// fields a load client or monitoring tool needs, with json tags naming
// obs.WriteJSON keys so an HTTP scrape unmarshals directly into it.
// Exported for internal/loadgen and cmd/genasm-loadgen;
// TestScrapeTagsAreWriteJSONKeys pins every tag to a rendered key.
type Scrape struct {
	RequestsTotal      int64           `json:"requests_total"`
	RequestErrorsTotal int64           `json:"request_errors_total"`
	RejectedTotal      int64           `json:"rejected_total"`
	PairsEnqueuedTotal int64           `json:"pairs_enqueued_total"`
	PairsDoneTotal     int64           `json:"pairs_done_total"`
	QueueDepth         int64           `json:"queue_depth"`
	CacheHitsTotal     int64           `json:"cache_hits_total"`
	CacheMissesTotal   int64           `json:"cache_misses_total"`
	ReadsMappedTotal   int64           `json:"reads_mapped_total"`
	ReadsUnmappedTotal int64           `json:"reads_unmapped_total"`
	BatchSizePairs     HistogramTotals `json:"batch_size_pairs"`
}

// HistogramTotals is the {count, sum} part of a histogram in the
// /metrics JSON.
type HistogramTotals struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
}

// BatchSizeMean is the mean pairs per executed backend batch (0 when no
// batch ran). On a Sub delta it is the mean over that window.
func (s Scrape) BatchSizeMean() float64 {
	if s.BatchSizePairs.Count == 0 {
		return 0
	}
	return s.BatchSizePairs.Sum / float64(s.BatchSizePairs.Count)
}

// Scrape returns the typed view of the current /metrics JSON.
func (m *Metrics) Scrape() Scrape {
	var buf bytes.Buffer
	var s Scrape
	// The registry holds only finite values, so neither call can fail.
	_ = obs.WriteJSON(&buf, m.reg)
	_ = json.Unmarshal(buf.Bytes(), &s)
	return s
}

// Sub returns the counter-wise difference s - prev; the point-in-time
// queue depth keeps s's value. Load clients use it to attribute
// /metrics movement to one measurement window.
func (s Scrape) Sub(prev Scrape) Scrape {
	s.RequestsTotal -= prev.RequestsTotal
	s.RequestErrorsTotal -= prev.RequestErrorsTotal
	s.RejectedTotal -= prev.RejectedTotal
	s.PairsEnqueuedTotal -= prev.PairsEnqueuedTotal
	s.PairsDoneTotal -= prev.PairsDoneTotal
	s.CacheHitsTotal -= prev.CacheHitsTotal
	s.CacheMissesTotal -= prev.CacheMissesTotal
	s.ReadsMappedTotal -= prev.ReadsMappedTotal
	s.ReadsUnmappedTotal -= prev.ReadsUnmappedTotal
	s.BatchSizePairs.Count -= prev.BatchSizePairs.Count
	s.BatchSizePairs.Sum -= prev.BatchSizePairs.Sum
	return s
}
