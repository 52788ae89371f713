package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plinger/internal/obs"
)

// LoadReport is the load generator's summary: sustained throughput and the
// client-side latency distribution, split by how the daemon served each
// request (cache hit / computed miss / coalesced). cmd/plingerd -loadgen
// prints it. The quantiles
// come from the same sharded histogram type the daemon exposes on /metrics,
// so the client-side and server-side distributions are directly comparable.
type LoadReport struct {
	Clients     int     `json:"clients"`
	Nodes       int     `json:"nodes"`
	Seconds     float64 `json:"seconds"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	RequestsSec float64 `json:"requests_per_sec"`
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	Coalesced   int64   `json:"coalesced"`
	// PeerServed and StaleServed count fleet-mode outcomes: responses a
	// node fetched from the key's owning replica, and last-known-good
	// answers served on a degraded path.
	PeerServed  int64   `json:"peer_served"`
	StaleServed int64   `json:"stale_served"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	P99MS       float64 `json:"p99_ms"`
	MaxMS       float64 `json:"max_ms"`
	HitMeanMS   float64 `json:"hit_mean_ms"`
	MissMeanMS  float64 `json:"miss_mean_ms"`
}

// RunLoadgen hammers POST {base}/v1/cl with identical `body` requests from
// `clients` concurrent goroutines for the duration and aggregates
// client-side latency into one sharded histogram (each client owns a shard,
// so the hot loop records without contention). The daemon classifies each
// response via the X-Plinger-Source header, so the report separates
// hot-path and cold-path behaviour without server cooperation.
//
// Fleet mode: base may be a comma-separated list of daemon URLs — clients
// are assigned round-robin across the nodes, so the report measures the
// sharded fleet as one system (cross-node peer serves and degraded stale
// serves are counted separately).
func RunLoadgen(base string, clients int, d time.Duration, body string) (*LoadReport, error) {
	var (
		lat     = obs.NewHistogram("loadgen", "", obs.DefBuckets(), clients)
		hits    atomic.Int64
		misses  atomic.Int64
		coal    atomic.Int64
		peer    atomic.Int64
		staled  atomic.Int64
		hitNs   atomic.Int64
		missNs  atomic.Int64
		errs    atomic.Int64
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		payload = []byte(body)
	)
	var bases []string
	for _, b := range strings.Split(base, ",") {
		if b = strings.TrimSpace(strings.TrimRight(b, "/")); b != "" {
			bases = append(bases, b)
		}
	}
	if len(bases) == 0 {
		return nil, fmt.Errorf("no daemon URL given")
	}
	client := &http.Client{Timeout: 30 * time.Second}
	// Fail fast on any unreachable node before spawning the fleet.
	for _, b := range bases {
		resp, err := client.Get(b + "/healthz")
		if err != nil {
			return nil, fmt.Errorf("daemon %s unreachable: %w", b, err)
		}
		resp.Body.Close()
	}

	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			node := bases[shard%len(bases)]
			for {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				resp, err := client.Post(node+"/v1/cl", "application/json", bytes.NewReader(payload))
				ns := time.Since(t0).Nanoseconds()
				if err != nil {
					errs.Add(1)
					continue
				}
				source := resp.Header.Get("X-Plinger-Source")
				_ = resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					// Rejections and failures are errors, not latency
					// samples — a 503 must not masquerade as a
					// sub-millisecond "miss" in the report.
					errs.Add(1)
					continue
				}
				lat.ObserveShard(shard, float64(ns)/1e9)
				switch source {
				case string(SourceCache):
					hits.Add(1)
					hitNs.Add(ns)
				case string(SourceCoalesced):
					coal.Add(1)
				case string(SourcePeer):
					// A cross-node cache hit: the fleet had the answer even
					// though this node did not. Counted with the hits in the
					// ratio (no sweep ran) but tracked separately.
					peer.Add(1)
					hitNs.Add(ns)
				case string(SourceStale):
					staled.Add(1)
				default:
					misses.Add(1)
					missNs.Add(ns)
				}
			}
		}(c)
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	rep := &LoadReport{
		Clients: clients, Nodes: len(bases), Seconds: elapsed, Errors: errs.Load(),
		Hits: hits.Load(), Misses: misses.Load(), Coalesced: coal.Load(),
		PeerServed: peer.Load(), StaleServed: staled.Load(),
	}
	snap := lat.Snapshot()
	if snap.Count == 0 {
		return rep, fmt.Errorf("no requests completed")
	}
	rep.Requests = int64(snap.Count)
	rep.RequestsSec = float64(snap.Count) / elapsed
	rep.P50MS = snap.Quantile(0.50) * 1e3
	rep.P95MS = snap.Quantile(0.95) * 1e3
	rep.P99MS = snap.Quantile(0.99) * 1e3
	rep.MaxMS = snap.Max * 1e3
	if n := rep.Hits + rep.PeerServed; n > 0 {
		rep.HitMeanMS = float64(hitNs.Load()) / 1e6 / float64(n)
	}
	if n := rep.Misses; n > 0 {
		rep.MissMeanMS = float64(missNs.Load()) / 1e6 / float64(n)
	}
	return rep, nil
}
