// Command plingerd is the spectrum daemon: a long-running HTTP service
// that keeps models, dispatch pools and Bessel tables warm and serves
// cached, request-coalesced C_l and P(k) over JSON (the serving layer of
// internal/serve).
//
// Serve (with startup precompute so default requests are instant hits):
//
//	plingerd -addr :8787 -warm
//
// Ask it for spectra:
//
//	curl -s -X POST localhost:8787/v1/cl -d '{}'
//	curl -s -X POST localhost:8787/v1/cl -d '{"lmax_cl": 200, "qcobe_uk": 18}'
//	curl -s -X POST localhost:8787/v1/pk -d '{"kmax": 0.3, "nk": 40}'
//	curl -s localhost:8787/v1/stats
//
// Observe it:
//
//	curl -s localhost:8787/metrics          # Prometheus text exposition
//	curl -s localhost:8787/v1/trace?last=4  # recent sweep traces with phase spans
//	plingerd -addr :8787 -debug-addr :6060  # net/http/pprof on a side listener
//
// Measure it with the benchmark's serve workloads: closed-loop clients on
// resident keys (serve_hot) or open-loop arrivals of hits and misses
// (serve_mixed), e.g. bash bench/run.sh -workload serve_hot
//
// Compute over a supervised multi-process worker farm instead of the
// in-process pool (spawns plingerw children, restarts crashes, re-admits
// rejoining workers; /v1/stats grows a per-host roster):
//
//	plingerd -addr :8787 -farm 127.0.0.1:9041 -farm-workers 4
//
// Remote plingerw processes dial the same -farm address; SIGTERM drains
// the farm and finishes in-flight requests (-drain-timeout bounds it, a
// second signal forces exit).
//
// Shard the response cache across a replica fleet (each daemon gets the
// full fleet list; every cache key has one owning replica, misses for
// remote-owned keys are fetched from the owner, and any peer failure
// degrades to local compute — see internal/cluster):
//
//	plingerd -addr :8787 -advertise http://host-a:8787 \
//	    -peers http://host-a:8787,http://host-b:8787,http://host-c:8787
//
// Any node answers for the fleet; its X-Plinger-Source header tells a
// local hit, a fresh sweep and a peer forward apart (curl -D -).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"plinger/internal/cluster"
	"plinger/internal/farm"
	"plinger/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8787", "listen address")
		workers  = flag.Int("workers", 0, "size of the daemon's one shared dispatch pool, which every model's sweeps run on (0: GOMAXPROCS)")
		cache    = flag.Int("cache", 1024, "response cache entries; a key's product never changes, so an entry leaves only by eviction")
		models   = flag.Int("models", 4, "model registry entries")
		conc     = flag.Int("concurrent", 2, "max concurrently computing sweeps")
		queue    = flag.Int("queue", 64, "max requests waiting for a compute slot")
		lmaxCl   = flag.Int("lmaxcl", 150, "default C_l multipole cap")
		nk       = flag.Int("nk", 130, "default C_l wavenumber grid")
		krefine  = flag.Int("krefine", 6, "default coarse-to-fine refinement factor")
		pknk     = flag.Int("pknk", 40, "default P(k) grid size")
		lspline  = flag.Bool("lspline", true, "spline-in-l projection for non-exact C_l requests")
		kbatch   = flag.Int("kbatch", 4, "lockstep k-mode batch size for non-exact C_l requests (0/1: scalar)")
		warm     = flag.Bool("warm", false, "precompute the default products before listening")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn, error")
		slowMS   = flag.Int("slow-ms", 2000, "log requests slower than this as warnings")
		debug    = flag.String("debug-addr", "", "serve net/http/pprof on this side address (empty: disabled)")

		peers       = flag.String("peers", "", "comma-separated fleet list of replica base URLs for sharded-cache peering (include this node; empty: single-node)")
		advertise   = flag.String("advertise", "", "this node's base URL as spelled in every replica's -peers list (required with -peers)")
		peerTimeout = flag.Duration("peer-timeout", 2*time.Second, "per-hop timeout for peer cache fetches")

		farmAddr    = flag.String("farm", "", "run sweeps over a worker farm listening on this address for plingerw workers (e.g. :9041; empty: in-process pools unless -farm-workers > 0)")
		farmWorkers = flag.Int("farm-workers", 0, "plingerw processes to spawn and supervise locally")
		farmBin     = flag.String("farm-worker-bin", "", "plingerw binary to spawn (default: plingerw next to this executable)")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight sweeps and farm drain")
	)
	flag.Parse()

	logger := newLogger(*logLevel)

	// The farm, when configured, is the daemon's: started before the
	// service (models route over it from the first request) and drained
	// after the HTTP server has stopped taking traffic.
	var fleet *farm.Supervisor
	if *farmAddr != "" || *farmWorkers > 0 {
		bin := *farmBin
		if bin == "" && *farmWorkers > 0 {
			exe, err := os.Executable()
			if err != nil {
				logger.Error("cannot locate plingerw next to the daemon", "err", err)
				os.Exit(1)
			}
			bin = filepath.Join(filepath.Dir(exe), "plingerw")
		}
		addr := *farmAddr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		f, err := farm.New(farm.Options{
			Addr:      addr,
			Workers:   *farmWorkers,
			WorkerBin: bin,
			Logf: func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			logger.Error("farm startup failed", "err", err)
			os.Exit(1)
		}
		fleet = f
		logger.Info("farm listening", "addr", f.Addr(), "spawned_workers", *farmWorkers)
	}

	// The peering, like the farm, is the daemon's: built before the
	// service and closed after the HTTP server has stopped taking traffic.
	var peering *cluster.Peering
	if *peers != "" {
		if *advertise == "" {
			logger.Error("-peers requires -advertise (this node's spelling in the fleet list)")
			os.Exit(1)
		}
		p, err := cluster.New(cluster.Options{
			Self:       *advertise,
			Peers:      strings.Split(*peers, ","),
			HopTimeout: *peerTimeout,
			Logf: func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			logger.Error("cluster startup failed", "err", err)
			os.Exit(1)
		}
		peering = p
		defer peering.Close()
		logger.Info("cluster peering up", "self", p.Self(), "members", len(p.Members()))
	}

	svc := serve.New(serve.Options{
		Defaults: serve.Defaults{LMaxCl: *lmaxCl, NK: *nk, KRefine: *krefine, PkNK: *pknk,
			LSpline: *lspline, KBatch: *kbatch},
		Workers:        *workers,
		Farm:           fleet,
		Cluster:        peering,
		CacheSize:      *cache,
		ModelCacheSize: *models,
		MaxConcurrent:  *conc,
		MaxQueue:       *queue,
		Logger:         logger,
		SlowRequest:    time.Duration(*slowMS) * time.Millisecond,
	})
	defer svc.Close()
	logger.Info("starting", "service", fmt.Sprint(svc))

	if *debug != "" {
		go func() {
			// pprof rides a side listener so profiling never competes with
			// (or exposes itself on) the public API address.
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			logger.Info("pprof listening", "addr", *debug)
			if err := newServer(*debug, mux).ListenAndServe(); err != nil {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	if *warm {
		cls, pks := serve.DefaultWarmGrid(svc.Defaults())
		rep, err := svc.Warm(context.Background(), cls, pks)
		if err != nil {
			logger.Error("warmup failed", "err", err)
			os.Exit(1)
		}
		logger.Info("warm", "requests", rep.Requests, "elapsed_s", rep.ElapsedS, "sweeps", rep.Sweeps)
	}

	server := newServer(*addr, svc.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		logger.Error("server failed", "err", err)
		os.Exit(1)
	case s := <-sig:
		logger.Info("shutting down", "signal", s.String(), "budget", drainWait.String())
		// A second signal is the operator overruling the graceful path.
		go func() {
			s := <-sig
			logger.Error("second signal: forcing exit", "signal", s.String())
			os.Exit(1)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		// Shutdown waits out in-flight requests — and with them their
		// sweeps — before returning; its error is the difference between a
		// clean stop and work cut off by the budget, so it is logged, not
		// discarded.
		if err := server.Shutdown(ctx); err != nil {
			logger.Error("http shutdown incomplete", "err", err)
		}
		if fleet != nil {
			if err := fleet.Drain(ctx); err != nil {
				logger.Error("farm drain incomplete", "err", err)
			} else {
				logger.Info("farm drained")
			}
		}
	}
}

// The read bounds of both listeners. A client that stops mid-header is cut
// off after readHeaderTimeout; readTimeout covers a 1 MiB body and also
// bounds an idle keep-alive connection. There is no write bound: a
// paper-scale miss takes seconds.
var readHeaderTimeout, readTimeout = 10 * time.Second, 30 * time.Second

// newServer is the HTTP server of the API and of the pprof listener.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout}
}

// newLogger builds the daemon's structured key=value logger.
func newLogger(level string) *slog.Logger {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		lv = slog.LevelInfo
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv}))
}
