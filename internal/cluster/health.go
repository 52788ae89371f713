package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// monitor is the heartbeat membership loop: every PingInterval it probes
// all peers concurrently and applies the miss budget. It is deliberately
// gossip-free — the static fleet list is the membership universe, the
// monitor only decides liveness *within* it, and a wrong answer is never
// a correctness problem: marking a live peer dead just means this node
// computes locally (one extra sweep); holding a dead peer alive costs one
// breaker trip. Forward successes also feed the view (see succeed), so a
// busy fleet notices rejoins faster than the probe cadence.
func (p *Peering) monitor() {
	defer p.wg.Done()
	t := time.NewTicker(p.opts.PingInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		var wg sync.WaitGroup
		for _, addr := range p.peerAddrs() {
			wg.Add(1)
			go func(addr string) {
				defer wg.Done()
				p.probe(addr)
			}(addr)
		}
		wg.Wait()
	}
}

// peerAddrs snapshots the full membership universe (alive or not — dead
// peers keep being probed so they can rejoin).
func (p *Peering) peerAddrs() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]string(nil), p.order...)
}

// probe sends one heartbeat (GET /v1/peer/ping) and applies the result to
// the membership view: any success revives the peer immediately, the miss
// budget must be exhausted consecutively before it is declared dead.
func (p *Peering) probe(addr string) {
	p.probes.Inc()
	ctx, cancel := context.WithTimeout(context.Background(), p.opts.pingTimeout)
	defer cancel()
	ok := false
	if req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/peer/ping", nil); err == nil {
		if resp, err := p.client.Do(req); err == nil {
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	if !ok {
		p.probeMisses.Inc()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	pr := p.peers[addr]
	if pr == nil {
		return
	}
	if ok {
		if !pr.alive {
			p.rejoins.Inc()
			p.opts.Logf("cluster: peer %s rejoined (heartbeat answered)", addr)
		}
		pr.alive = true
		pr.misses = 0
		pr.lastSeen = time.Now()
		return
	}
	pr.misses++
	if pr.alive && pr.misses >= p.opts.pingMisses {
		pr.alive = false
		p.opts.Logf("cluster: peer %s dead (%d consecutive heartbeat misses)", addr, pr.misses)
	}
}
