// Command genasm-serve exposes the genasm alignment engine as a batching
// HTTP JSON service (see the server package): concurrent /align and
// /map-align requests coalesce into backend-sized batches, references
// upload once into a shared minimizer index, results are LRU-cached, and
// /metrics + /healthz report operational state. With -jobs-dir set, the
// asynchronous bulk lane (POST /jobs and friends, package server/jobs)
// accepts genome-sized FASTA/FASTQ read sets, runs them through the same
// scheduler in the background, and serves the finished SAM/PAF/JSON for
// download; cmd/genasm-submit is the matching client.
//
// -backend picks the local engine backend: cpu, gpu or a multi(...)
// composite of them. A node's engine never reaches past its own
// machine; spanning nodes is the routing front's job.
//
// With -upstream set, the process instead becomes that stateless
// routing front over a cluster of genasm-serve nodes: /align and
// /map-align are forwarded to an upstream chosen by consistent hashing
// on the request's reference (with health-checked failover), /refs
// broadcasts to every node, and no local engine runs. See
// docs/OPERATIONS.md "Running a cluster".
//
// Example:
//
//	genasm-serve -addr :8080 -backend cpu -ref chr1=chr1.fa -jobs-dir /var/genasm/jobs
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/align \
//	    -d '{"pairs":[{"query":"ACGTACGT","ref":"ACGTTACGT"}]}'
//
// Cluster front:
//
//	genasm-serve -addr :8080 -upstream node1:8081,node2:8081,node3:8081
//
// See docs/OPERATIONS.md for deployment guidance and docs/API.md for
// the full HTTP reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"genasm"
	"genasm/internal/genome"
	"genasm/internal/obs"
	"genasm/server"
	"genasm/server/jobs"
)

// options collects every flag so the whole serve path is testable.
type options struct {
	addr        string
	backend     string
	algo        string
	threads     int
	maxQuery    int
	batch       int
	batchDelay  time.Duration
	queue       int
	cacheSize   int
	refs        []refSpec // preloaded name=path references
	jobsDir     string    // empty = bulk job lane disabled
	jobsWorkers int
	jobsTTL     time.Duration
	logFormat   string
	logLevel    string
	slowRequest time.Duration
	traceBuffer int
	debugAddr   string // empty = no debug/pprof listener

	upstreams      []string      // non-empty = front-tier proxy mode
	healthInterval time.Duration // upstream /healthz probe period

	log        *slog.Logger      // built by run from logFormat/logLevel
	debugReady func(addr string) // test hook: reports the bound debug addr
}

type refSpec struct{ name, path string }

func defaultOptions() options {
	return options{
		addr:        ":8080",
		backend:     "cpu",
		algo:        "genasm",
		batch:       0, // 0 = the backend's preferred batch size
		batchDelay:  2 * time.Millisecond,
		queue:       4096,
		cacheSize:   4096,
		jobsTTL:     time.Hour,
		logFormat:   "text",
		logLevel:    "info",
		slowRequest: time.Second,

		healthInterval: time.Second,
	}
}

// parseRefFlag parses a -ref value of the form name=path.fa.
func parseRefFlag(v string) (refSpec, error) {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return refSpec{}, fmt.Errorf("-ref wants name=path.fa, got %q", v)
	}
	return refSpec{name: name, path: path}, nil
}

// engineOptions translates the flags into genasm Engine options. The
// backend name is resolved by NewEngine through the registry; an unknown
// name fails server.New with every valid name in the error.
func (o options) engineOptions() []genasm.Option {
	opts := []genasm.Option{
		genasm.WithAlgorithm(genasm.Algorithm(o.algo)),
		genasm.WithBackendName(o.backend),
	}
	if o.threads > 0 {
		opts = append(opts, genasm.WithThreads(o.threads))
	}
	if o.maxQuery > 0 {
		opts = append(opts, genasm.WithMaxQueryLen(o.maxQuery))
	}
	return opts
}

// buildServer assembles the server and preloads the -ref references.
// With -upstream set it builds the front-tier variant instead: no local
// engine, so engine- and jobs-related flags are rejected rather than
// silently ignored.
func buildServer(o options) (*server.Server, error) {
	if len(o.upstreams) > 0 {
		if o.jobsDir != "" {
			return nil, errors.New("-upstream and -jobs-dir are mutually exclusive: the bulk job lane needs a local engine; run it on the upstream nodes")
		}
		if len(o.refs) > 0 {
			return nil, errors.New("-upstream and -ref are mutually exclusive: upload references through the front (POST /refs broadcasts to every upstream)")
		}
		return server.New(server.Config{
			Proxy: server.ProxyConfig{
				Upstreams:      o.upstreams,
				HealthInterval: o.healthInterval,
			},
			Logger:      o.log,
			SlowRequest: o.slowRequest,
			TraceBuffer: o.traceBuffer,
		})
	}
	srv, err := server.New(server.Config{
		EngineOptions: o.engineOptions(),
		Scheduler: server.SchedulerConfig{
			MaxBatch: o.batch,
			MaxDelay: o.batchDelay,
			MaxQueue: o.queue,
		},
		CacheSize:   o.cacheSize,
		Logger:      o.log, // nil = quiet (server substitutes a no-op logger)
		SlowRequest: o.slowRequest,
		TraceBuffer: o.traceBuffer,
		Jobs: jobs.Config{
			Dir:     o.jobsDir,
			Workers: o.jobsWorkers,
			TTL:     o.jobsTTL,
		},
	})
	if err != nil {
		return nil, err
	}
	for _, rs := range o.refs {
		f, err := os.Open(rs.path)
		if err != nil {
			return nil, err
		}
		recs, err := genome.ReadFASTA(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", rs.path, err)
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("no sequences in %s", rs.path)
		}
		if _, err := srv.Registry().Add(rs.name, recs[0].Seq); err != nil {
			return nil, err
		}
	}
	return srv, nil
}

// debugHandler builds the opt-in -debug-addr mux: the full net/http/pprof
// suite plus the server's own introspection endpoints (/debug/traces,
// /metrics, /healthz), so profiling and scraping can live on a private
// port while o.addr stays workload-only.
func debugHandler(srv *server.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	app := srv.Handler()
	mux.Handle("/debug/traces", app)
	mux.Handle("/metrics", app)
	mux.Handle("/healthz", app)
	return mux
}

// run serves until ctx is cancelled, then shuts down gracefully: the
// listener closes, in-flight requests get shutdownGrace to finish, and
// the scheduler drains. ready (optional) receives the bound address once
// the listener is up — tests use it to learn the :0 port.
func run(ctx context.Context, o options, logw io.Writer, ready func(addr string)) error {
	log, err := obs.NewLogger(logw, o.logFormat, o.logLevel)
	if err != nil {
		return err
	}
	o.log = log
	srv, err := buildServer(o)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	jobsLane := "off"
	if srv.Jobs() != nil {
		jobsLane = o.jobsDir
	}
	build := obs.ReadBuildInfo()
	if p := srv.Proxy(); p != nil {
		log.Info("listening",
			"addr", ln.Addr().String(),
			"mode", "front",
			"upstreams", strings.Join(p.Upstreams(), ","),
			"version", build.Version(),
			"go", build.GoVersion)
	} else {
		log.Info("listening",
			"addr", ln.Addr().String(),
			"backend", srv.Engine().BackendName(),
			"refs", srv.Registry().Len(),
			"jobs", jobsLane,
			"version", build.Version(),
			"go", build.GoVersion)
	}

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)

	var dhs *http.Server
	if o.debugAddr != "" {
		dln, derr := net.Listen("tcp", o.debugAddr)
		if derr != nil {
			ln.Close()
			srv.Close()
			return derr
		}
		log.Info("debug listening", "addr", dln.Addr().String())
		if o.debugReady != nil {
			o.debugReady(dln.Addr().String())
		}
		dhs = &http.Server{Handler: debugHandler(srv)}
		go func() {
			if err := dhs.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errc <- err
			}
		}()
	}

	if ready != nil {
		ready(ln.Addr().String())
	}
	go func() { errc <- hs.Serve(ln) }()

	const shutdownGrace = 10 * time.Second
	shutdownDebug := func(sctx context.Context) {
		if dhs != nil {
			dhs.Shutdown(sctx)
		}
	}
	select {
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		err = hs.Shutdown(sctx)
		shutdownDebug(sctx)
		srv.Close() // drain the batch scheduler after the listener stops
		log.Info("shut down")
		return err
	case err := <-errc:
		sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		hs.Shutdown(sctx)
		shutdownDebug(sctx)
		srv.Close()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

func main() {
	o := defaultOptions()
	flag.StringVar(&o.addr, "addr", o.addr, "listen address")
	flag.StringVar(&o.backend, "backend", o.backend, genasm.BackendUsage())
	flag.StringVar(&o.algo, "algo", o.algo, "algorithm: genasm | genasm-unimproved | edlib | ksw2 | swg")
	flag.IntVar(&o.threads, "threads", 0, "CPU worker threads (0 = GOMAXPROCS)")
	flag.IntVar(&o.maxQuery, "max-query", 0, "reject queries longer than this (0 = unlimited)")
	flag.IntVar(&o.batch, "batch", o.batch, "flush a backend batch at this many pending pairs (0 = the backend's preferred batch size)")
	flag.DurationVar(&o.batchDelay, "batch-delay", o.batchDelay, "max time a pair waits for its batch to fill while other work is pending or just finished (an idle server dispatches at once)")
	flag.IntVar(&o.queue, "queue", o.queue, "max pairs admitted but not completed (429 beyond)")
	flag.IntVar(&o.cacheSize, "cache", o.cacheSize, "result cache entries (<0 disables)")
	flag.StringVar(&o.jobsDir, "jobs-dir", "", "enable the async bulk job lane (POST /jobs), spooling inputs/results under this directory; must be empty or absent at startup (empty string = lane disabled)")
	flag.IntVar(&o.jobsWorkers, "jobs-workers", 0, "concurrent bulk jobs (0 = backend parallelism/4, min 1)")
	flag.DurationVar(&o.jobsTTL, "jobs-ttl", o.jobsTTL, "how long finished jobs and their spool files are retained before garbage collection")
	flag.StringVar(&o.logFormat, "log-format", o.logFormat, "log output format: text | json")
	flag.StringVar(&o.logLevel, "log-level", o.logLevel, "minimum log level: debug | info | warn | error")
	flag.DurationVar(&o.slowRequest, "slow-request", o.slowRequest, "log a warning with the full span tree for requests slower than this (0 disables)")
	flag.IntVar(&o.traceBuffer, "trace-buffer", 0, "recent request traces retained for GET /debug/traces (0 = default 128)")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "optional second listener exposing net/http/pprof, /debug/traces, /metrics and /healthz (empty = disabled)")
	flag.Func("upstream", "front-tier mode: route /align and /map-align to these genasm-serve nodes (host:port, repeatable or comma-separated) by consistent hashing instead of executing locally", func(v string) error {
		for _, part := range strings.Split(v, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			o.upstreams = append(o.upstreams, part)
		}
		return nil
	})
	flag.DurationVar(&o.healthInterval, "health-interval", o.healthInterval, "front-tier mode: upstream /healthz probe period (eject after 2 consecutive failures, readmit on the first success)")
	flag.Func("ref", "preload a reference: name=path.fa (repeatable)", func(v string) error {
		rs, err := parseRefFlag(v)
		if err != nil {
			return err
		}
		o.refs = append(o.refs, rs)
		return nil
	})
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "genasm-serve:", err)
		os.Exit(1)
	}
}
