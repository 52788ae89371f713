package serve

import (
	"context"
	"fmt"
	"time"
)

// WarmReport summarizes a warm-up sweep.
type WarmReport struct {
	Requests int           `json:"requests"`
	Sweeps   uint64        `json:"sweeps"`
	Elapsed  time.Duration `json:"-"`
	ElapsedS float64       `json:"elapsed_seconds"`
}

// Warm precomputes the given C_l and P(k) requests so they are cache hits
// when traffic arrives, sequentially (warm-up shares the admission queue
// with live traffic, and the sweeps inside already use the dispatch pool).
func (s *Service) Warm(ctx context.Context, cls []ClRequest, pks []PkRequest) (WarmReport, error) {
	start := time.Now()
	before := s.Sweeps()
	rep := WarmReport{}
	for i, r := range cls {
		if _, _, err := s.ComputeCl(ctx, r); err != nil {
			return rep, fmt.Errorf("serve: warm cl request %d: %w", i, err)
		}
		rep.Requests++
	}
	for i, r := range pks {
		if _, _, err := s.ComputePk(ctx, r); err != nil {
			return rep, fmt.Errorf("serve: warm pk request %d: %w", i, err)
		}
		rep.Requests++
	}
	rep.Sweeps = s.Sweeps() - before
	rep.Elapsed = time.Since(start)
	rep.ElapsedS = rep.Elapsed.Seconds()
	return rep, nil
}

// DefaultWarmGrid is the stock precompute set: the default C_l product
// (raw and COBE-normalized — one sweep, the second entry rescaled from the
// first), the default P(k), and a coarse half-resolution C_l for preview
// traffic. One model build, one warm Bessel table, four hot keys.
func DefaultWarmGrid(d Defaults) ([]ClRequest, []PkRequest) {
	cls := []ClRequest{
		{},                // the default product
		{QCOBEMicroK: 18}, // Figure 2 normalization
	}
	// The half-resolution preview entry only when it is still a valid
	// product (a tiny configured default would halve below the quadrature
	// minimum and abort startup).
	if d.LMaxCl/2 >= 2 && d.NK/2 >= 3 {
		cls = append(cls, ClRequest{LMaxCl: d.LMaxCl / 2, NK: d.NK / 2})
	}
	pks := []PkRequest{{}}
	return cls, pks
}
